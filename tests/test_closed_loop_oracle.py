"""The simulator's closed loop against scipy's DOP853 at tight tolerances.

`reference_simulate` in test_sim.py is the same RK4 written twice, so it
guards bits, not whether RK4 solves the right equations. Here an
independent adaptive integrator solves the loop written afresh from the
plant maps and the controller quadruple,

    x' = A0 x + B (h(t, u, x) + sigma(t, x)),  s' = F s + Gx x + Gu u,
    u = sat(H s + D x),

and the maximum error of the recorded x, relative to max |x|, must stay
under a per-scenario bound. Each bound is the error measured on the
shipped dt = 1e-3 over 1 s (2 vCPUs, py3.11, numpy 2.4, scipy 1.17) times
the margin beside it; it is RK4's own error, except on f16, where the
measured 8e-12 is the oracle's floor. A bound that fails is a finding
about the simulator, not a number to retune.

delay_demo's input delay makes its loop a delay differential equation,
so it has its own oracle: DOP853 run by the method of steps, segment by
segment of length tau, under DELAY_BOUND. Skipped when scipy is not
installed.
"""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.integrate import solve_ivp  # noqa: E402

from asdinv import cli, make_controller, simulate  # noqa: E402

T_FINAL = 1.0

# bound on the relative error of x; beside it, the measured PI / observer
# errors and the margin
BOUNDS = {
    "siso": 1e-5,  # 2.5e-6 / 1.0e-6, x4; saturated at t = 0, RK4 steps across the clamp
    "f16": 1e-10,  # 7.9e-12 / 8.2e-12, x12; the oracle's floor
    "quadrotor": 2.5e-9,  # 6.2e-10 / 6.2e-10, x4
    "quadrotor_payload": 2e-9,  # 4.6e-10 / 4.6e-10, x4.3
    "synthetic": 1e-5,  # 2.1e-6 / 2.1e-6, x4.8
    "deadzone": 5e-5,  # 1.4e-5 / 1.4e-5, x3.6; RK4 steps across the dead zone's corners
}


# bound on delay_demo's relative error of x; measured 4.167e-4 for PI and
# observer alike, at t_final 1 and 2, x1.2. The simulator is first order here:
# one RK4 step spans the jump of u(t - tau) at t = tau, and its local error is
# O(dt). The bound encodes that rule at t = tau, so a change that mends it must
# tighten the bound.
DELAY_BOUND = 5e-4


def test_every_undelayed_scenario_is_covered():
    assert set(BOUNDS) == set(cli.BUNDLED) - {"delay_demo"}


def oracle_x(plant, spec, x0, t_eval):
    """x on t_eval from DOP853 on the loop built from the controller quadruple."""
    c = make_controller(spec)
    n = plant.n

    def rhs(t, z):
        x, s = z[:n], z[n:]
        u = np.clip(c.H @ s + c.D @ x, spec.u_min, spec.u_max)
        dx = plant.A0 @ x + plant.B @ (plant.h(t, u, x) + plant.sigma(t, x))
        return np.concatenate((dx, c.F @ s + c.Gx @ x + c.Gu @ u))

    z0 = np.concatenate((x0, np.zeros(c.state_dim)))
    sol = solve_ivp(rhs, (0.0, t_eval[-1]), z0, method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t_eval)
    assert sol.success, sol.message
    return sol.y[:n].T


@pytest.mark.parametrize("kind", ["pi_closed", "observer"])
@pytest.mark.parametrize("name", list(BOUNDS))
def test_rk4_trace_against_dop853(name, kind):
    sc = cli.load_scenario(name, (f"sim.t_final={T_FINAL}",))
    plant = cli.build_plant(sc)
    assert plant.input_delay == 0
    spec = dataclasses.replace(cli.build_controller_spec(sc, cli.build_core(sc, plant)),
                               realization_kind=kind)
    cfg = cli.build_sim_config(sc)
    trace = simulate(plant, spec, cfg)
    want = oracle_x(plant, spec, cfg.x0, trace.t)
    err = np.max(np.abs(trace.x - want)) / np.max(np.abs(want))
    assert err <= BOUNDS[name], f"{name} {kind}: relative error {err:.2e}"


def oracle_delay_x(plant, spec, x0, t_eval):
    """x on t_eval from DOP853 on the delayed loop, by the method of steps.

    Segment k spans [k tau, (k + 1) tau]. There h reads u(t - tau) = sat(H s + D x)
    from segment k - 1's dense output, and 0 on segment 0; the controller sees
    its current u.
    """
    c = make_controller(spec)
    n, tau = plant.n, plant.input_delay

    def u_at(z):
        return np.clip(c.H @ z[n:] + c.D @ z[:n], spec.u_min, spec.u_max)

    segments = []  # the dense output of each segment
    z = np.concatenate((x0, np.zeros(c.state_dim)))
    while len(segments) * tau < t_eval[-1]:
        prev = segments[-1] if segments else None

        def rhs(t, z, prev=prev):
            x, s = z[:n], z[n:]
            u = u_at(z)
            u_delayed = np.zeros(plant.m) if prev is None else u_at(prev(t - tau))
            dx = plant.A0 @ x + plant.B @ (plant.h(t, u_delayed, x) + plant.sigma(t, x))
            return np.concatenate((dx, c.F @ s + c.Gx @ x + c.Gu @ u))

        k = len(segments)
        sol = solve_ivp(rhs, (k * tau, min((k + 1) * tau, t_eval[-1])), z, method="DOP853",
                        rtol=1e-11, atol=1e-13, dense_output=True)
        assert sol.success, sol.message
        segments.append(sol.sol)
        z = sol.y[:, -1]
    return np.array([segments[min(int(t / tau), len(segments) - 1)](t)[:n] for t in t_eval])


@pytest.mark.parametrize("kind", ["pi_closed", "observer"])
def test_delayed_rk4_trace_against_method_of_steps(kind):
    sc = cli.load_scenario("delay_demo", (f"sim.t_final={T_FINAL}",))
    plant = cli.build_plant(sc)
    assert plant.input_delay > 0
    spec = dataclasses.replace(cli.build_controller_spec(sc, cli.build_core(sc, plant)),
                               realization_kind=kind)
    cfg = cli.build_sim_config(sc)
    trace = simulate(plant, spec, cfg)
    want = oracle_delay_x(plant, spec, cfg.x0, trace.t)
    err = np.max(np.abs(trace.x - want)) / np.max(np.abs(want))
    assert err <= DELAY_BOUND, f"delay_demo {kind}: relative error {err:.3e}"
