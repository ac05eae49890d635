"""Exact stability of the undelayed LTI loops, against the simulator.

On synthetic, quadrotor and quadrotor_payload, and on delay_demo without
its delay, h = G u and sigma = S x + d(t). So the unsaturated loop is
linear in the plant state x and the controller state s:

    [x; s]' = [[A0 + B (S + G D), B G H], [G_in, F]] [x; s] + [B d(t); 0],

with (F, G_in, H, D) the controller's closed realization. d(t) does not
change stability, so the block's spectral abscissa (the largest real part
of its eigenvalues) is the exact rate at which x decays or grows. G and S
come from each plant's own parameters, and the block is written here,
apart from simulate's stiffness guard, so the two check each other.
"""

import dataclasses

import numpy as np
import pytest

from asdinv import cli, simulate


def case(name, *overrides):
    sc = cli.load_scenario(name, overrides)
    plant = cli.build_plant(sc)
    core = cli.build_core(sc, plant)
    return plant, cli.build_controller_spec(sc, core), cli.build_sim_config(sc)


def input_gain_and_state_map(plant):
    """(G, S) from the plant's parameters: the quadrotor's G = J_true^-1 J0 and
    S = (G - I) Kbar^T, or the synthetic plant's g I and S."""
    if "J0" in plant.meta:
        G = np.linalg.solve(plant.meta["J_true"], plant.meta["J0"])
        return G, (G - np.eye(plant.m)) @ plant.meta["Kbar"].T
    return plant.meta["g"] * np.eye(plant.m), plant.meta["S"]


def abscissa(plant, spec):
    """Largest real part of the eigenvalues of the unsaturated loop, delay dropped."""
    G, S = input_gain_and_state_map(plant)
    cl = spec.closed_realization
    A0, B = plant.A0, plant.B
    loop = np.block([[A0 + B @ (S + G @ cl.D), B @ G @ cl.H], [cl.G_in, cl.F]])
    return np.linalg.eigvals(loop).real.max()


# spectral abscissa at the shipped epsilon, the same for both realizations
SHIPPED = {"synthetic": -0.4989, "quadrotor": -1.0, "quadrotor_payload": -0.9669, "delay_demo": -0.4630}


@pytest.mark.parametrize("kind", ["pi_closed", "observer"])
@pytest.mark.parametrize("name", list(SHIPPED))
def test_shipped_epsilon_is_exactly_stable(name, kind):
    plant, spec, _ = case(name, f"realization={kind}")
    G, S = input_gain_and_state_map(plant)
    rng = np.random.default_rng(0)
    u, x = rng.standard_normal(plant.m), rng.standard_normal(plant.n)
    np.testing.assert_allclose(plant.h(0.0, u, x), G @ u, rtol=1e-12)
    np.testing.assert_allclose(plant.sigma(0.0, x) - plant.sigma(0.0, 0 * x), S @ x, rtol=1e-12, atol=1e-15)
    rate = abscissa(plant, spec)
    assert rate < 0
    assert rate == pytest.approx(SHIPPED[name], abs=1e-4)


@pytest.mark.parametrize("J_scale, rate", [(10, -0.1024), (20, 0.0768)])
def test_simulated_rate_matches_the_abscissa(J_scale, rate):
    # quadrotor at epsilon = 0.2, effectively unsaturated: over 20-40 s the
    # slope of log ||x|| is the loop's abscissa, decay at J_scale 10 and growth at 20
    plant, spec, cfg = case("quadrotor", f"plant.J_scale={J_scale}", "saturation.min=-1e9",
                            "saturation.max=1e9", "sim.dt=5e-3", "sim.t_final=40", "sim.record_stride=10")
    assert spec.epsilon == 0.2
    exact = abscissa(plant, spec)
    assert exact == pytest.approx(rate, abs=1e-4)
    trace = simulate(plant, spec, cfg)
    tail = trace.t >= 20.0
    slope = np.polyfit(trace.t[tail], np.log(np.linalg.norm(trace.x[tail], axis=1)), 1)[0]
    assert slope == pytest.approx(exact, rel=0.02)
    observer = dataclasses.replace(spec, realization_kind="observer")
    assert abscissa(plant, observer) == pytest.approx(exact, abs=1e-9)
