"""Exact stability of the undelayed LTI loops, against the simulator.

On synthetic, quadrotor and quadrotor_payload, and on delay_demo without
its delay, h = G u and sigma = S x + d(t). So the unsaturated loop is
linear in the plant state x and the controller state s:

    [x; s]' = [[A0 + B (S + G D), B G H], [Gx, F]] [x; s] + [B d(t); 0],

with (F, Gx, H, D) the controller's closed realization. d(t) does not
change stability, so the block's spectral abscissa (the largest real part
of its eigenvalues) is the exact rate at which x decays or grows. G and S
come from each scenario's plant section. The block is spec.loop_matrix at
the plant slope (G, S), loop_matrix(A0 + B S, B G): the method simulate's
stiffness guard calls at the slope (I, 0). The block is written out by hand
once below, as the oracle that method is checked against.

With delay_demo's input delay tau the loop is no longer a matrix, but its
stability still follows from the return ratio T(jw) of the loop cut at
the delayed input: the largest tau it tolerates is its delay margin.
"""

import dataclasses

import numpy as np
import pytest

from asdinv import cli, simulate, x_to_u_response


def case(name, *overrides):
    """(plant, spec, cfg, (G, S)) of a bundled scenario."""
    sc = cli.load_scenario(name, overrides)
    plant, spec, cfg = cli.build(sc)
    return plant, spec, cfg, input_gain_and_state_map(sc.raw["plant"], plant)


def input_gain_and_state_map(section, plant):
    """(G, S) from the scenario's plant section: the quadrotor's G = J_true^-1 J0,
    with J_true = J_scale J0 and J0 = diag(J0_diag), and S = (G - I) Kbar^T, or
    the synthetic plant's g I and S."""
    if section["kind"] == "quadrotor":
        J0 = np.diag(section["J0_diag"])
        G = np.linalg.solve(section["J_scale"] * J0, J0)
        return G, (G - np.eye(3)) @ plant.meta["Kbar"].T
    return section["g"] * np.eye(1), np.array(section["S"])


def abscissa(plant, spec, G, S):
    """Largest real part of the eigenvalues of the unsaturated loop, delay dropped."""
    return np.linalg.eigvals(spec.loop_matrix(plant.A0 + plant.B @ S, plant.B @ G)).real.max()


# spectral abscissa at the shipped epsilon, the same for both realizations
SHIPPED = {"synthetic": -0.4989, "quadrotor": -1.0, "quadrotor_payload": -0.9669, "delay_demo": -0.4630}


@pytest.mark.parametrize("kind", ["pi_closed", "observer"])
@pytest.mark.parametrize("name", list(SHIPPED))
def test_loop_matrix_matches_the_block(name, kind):
    # the loop at the plant slope (G, S), written out from the closed quadruple
    plant, spec, _, (G, S) = case(name, f"realization={kind}")
    cl = spec.closed_realization
    A0, B = plant.A0, plant.B
    block = np.block([[A0 + B @ (S + G @ cl.D), B @ G @ cl.H], [cl.Gx, cl.F]])
    loop = spec.loop_matrix(A0 + B @ S, B @ G)
    np.testing.assert_allclose(loop, block, rtol=0, atol=1e-15 * np.abs(block).max())


@pytest.mark.parametrize("kind", ["pi_closed", "observer"])
@pytest.mark.parametrize("name", list(SHIPPED))
def test_shipped_epsilon_is_exactly_stable(name, kind):
    plant, spec, _, (G, S) = case(name, f"realization={kind}")
    rng = np.random.default_rng(0)
    u, x = rng.standard_normal(plant.m), rng.standard_normal(plant.n)
    np.testing.assert_allclose(plant.h(0.0, u, x), G @ u, rtol=1e-12)
    np.testing.assert_allclose(plant.sigma(0.0, x) - plant.sigma(0.0, 0 * x), S @ x, rtol=1e-12, atol=1e-15)
    rate = abscissa(plant, spec, G, S)
    assert rate < 0
    assert rate == pytest.approx(SHIPPED[name], abs=1e-4)


@pytest.mark.parametrize("J_scale, rate", [(10, -0.1024), (20, 0.0768)])
def test_simulated_rate_matches_the_abscissa(J_scale, rate):
    # quadrotor at epsilon = 0.2, effectively unsaturated: over 20-40 s the
    # slope of log ||x|| is the loop's abscissa, decay at J_scale 10 and growth at 20
    plant, spec, cfg, GS = case("quadrotor", f"plant.J_scale={J_scale}", "saturation.min=-1e9",
                                "saturation.max=1e9", "sim.dt=5e-3", "sim.t_final=40", "sim.record_stride=10")
    assert spec.epsilon == 0.2
    exact = abscissa(plant, spec, *GS)
    assert exact == pytest.approx(rate, abs=1e-4)
    trace = simulate(plant, spec, cfg)
    tail = trace.t >= 20.0
    slope = np.polyfit(trace.t[tail], np.log(np.linalg.norm(trace.x[tail], axis=1)), 1)[0]
    assert slope == pytest.approx(exact, rel=0.02)
    observer = dataclasses.replace(spec, realization_kind="observer")
    assert abscissa(plant, observer, *GS) == pytest.approx(exact, abs=1e-9)


OMEGAS = np.logspace(-2, 4, 20001)


def delay_margin(plant, spec, G, S):
    """The smallest (arg T mod 2 pi) / w_c over the crossings |T(j w_c)| = 1.

    The plant sees G u(t - tau), and the controller gives u = X(jw) x, with X
    its x -> u response. So the loop closes as 1 - T(jw) e^(-jw tau) = 0, with
    the single-input return ratio T = X (jw I - A0 - B S)^-1 B G, and a
    crossing w_c goes unstable at tau = (arg T mod 2 pi) / w_c. Crossings are
    interpolated linearly between the points of OMEGAS.
    """
    a = 1j * OMEGAS[:, None, None] * np.eye(plant.n) - (plant.A0 + plant.B @ S)
    b = np.broadcast_to(plant.B @ G, a.shape[:-2] + plant.B.shape)
    T = (x_to_u_response(spec, OMEGAS) @ np.linalg.solve(a, b))[:, 0, 0]
    mag = np.abs(T)
    i = np.flatnonzero((mag[:-1] - 1) * (mag[1:] - 1) <= 0)
    f = (mag[i] - 1) / (mag[i] - mag[i + 1])
    T_c = T[i] + f * (T[i + 1] - T[i])
    w_c = OMEGAS[i] + f * (OMEGAS[i + 1] - OMEGAS[i])
    return np.min(np.mod(np.angle(T_c), 2 * np.pi) / w_c)


def test_delayed_outcome_flips_at_the_critical_epsilon():
    # delay_demo (tau = 0.05), effectively unsaturated: the margin is about
    # (pi/2) epsilon and equals tau at epsilon* = 0.03288; simulate grows just
    # below epsilon* and decays just above it (slope of log ||x|| over 5-10 s)
    plant, spec, cfg, GS = case("delay_demo", "saturation.min=-1e12", "saturation.max=1e12", "sim.t_final=10")

    def at(epsilon):
        return dataclasses.replace(spec, epsilon=epsilon)

    for epsilon, margin in ((0.001, 0.00157), (0.01, 0.0156), (0.2, 0.250)):
        assert delay_margin(plant, at(epsilon), *GS) == pytest.approx(margin, rel=1e-2)
    lo, hi = 1e-3, 0.2
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if delay_margin(plant, at(mid), *GS) < plant.input_delay else (lo, mid)
    critical = 0.5 * (lo + hi)
    assert critical == pytest.approx(0.03288, rel=1e-3)
    for factor, sign in ((0.95, 1), (1.05, -1)):
        trace = simulate(plant, at(factor * critical), cfg)
        tail = trace.t >= 5.0
        slope = np.polyfit(trace.t[tail], np.log(np.linalg.norm(trace.x[tail], axis=1)), 1)[0]
        assert sign * slope > 0.2, (factor, slope)
