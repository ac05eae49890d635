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

delay_demo is left out: its input delay makes the loop a delay
differential equation, which needs a delay-equation solver. Skipped when
scipy is not installed.
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
