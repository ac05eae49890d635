"""Stability-margin analysis: the closed-loop constants, the admissible
filter range, the decay rate, ultimate bounds, and the trace certificate."""

import math

import numpy as np
import pytest

from asdinv import (
    AssumptionConstants,
    BoundReport,
    QuadrotorConfig,
    SimConfig,
    bound_report,
    build_core,
    dead_zone,
    delayed_input_lti,
    f16_rollyaw,
    hsu_siso,
    lyapunov_certificate,
    quadrotor_attitude,
    sample_constants,
    simulate,
    synthetic_lti,
    UncertainPlant,
)
from asdinv import cli

from conftest import spec_for


class TestGammas:
    def test_dual_evaluation(self, synthetic_core, synthetic_plant):
        # recompute each constant from its definition with independent code
        core, c = synthetic_core, synthetic_plant.constants
        rep = bound_report(core, c)
        sn = lambda M: np.linalg.svd(np.atleast_2d(M), compute_uv=False)[0]
        want0 = min(np.linalg.eigvalsh(core.M))
        want1 = 2 * (sn(core.K) + c.l_sigma_x) * sn(core.B) + 2 * c.l_ht / c.l_hu_low
        want2 = (
            sn(core.P) * sn(core.B)
            + sn(core.A) * (sn(core.K) + c.l_sigma_x)
            + sn(core.K)
            + c.k_sigma
        )
        assert abs(rep.gamma0 - want0) < 1e-12
        assert abs(rep.gamma1 - want1) < 1e-12
        assert abs(rep.gamma2 - want2) < 1e-12

    def test_gamma0_is_one_for_identity_m(self, siso_core):
        rep = bound_report(siso_core, AssumptionConstants())
        assert rep.gamma0 == pytest.approx(1.0, abs=1e-12)


class TestEpsilonBound:
    def test_arithmetic_example(self):
        # g0=2, g1=1, g2=1, l_sigma_t=0, l_hu_low=1:
        # eps_max = 1 / (1 + (2/2)*1) = 0.5
        c = AssumptionConstants(l_hu_low=1.0, l_hu_high=1.0, l_sigma_t=0.0)
        assert BoundReport(c, 2.0, 1.0, 1.0, 1.0, 1.0).eps_max == pytest.approx(0.5, abs=1e-15)

    def test_infinite_when_denominator_vanishes(self):
        c = AssumptionConstants(l_hu_low=1.0, l_hu_high=1.0)
        assert math.isinf(BoundReport(c, 2.0, 0.0, 0.0, 1.0, 1.0).eps_max)

    def test_positive_sign_iff_admissible(self, synthetic_core, synthetic_plant):
        # eta > 0 exactly when epsilon < eps_max, checked on a log grid
        rep = bound_report(synthetic_core, synthetic_plant.constants)
        eps_max = rep.eps_max
        assert math.isfinite(eps_max) and eps_max > 0
        for e in np.logspace(np.log10(eps_max) - 2, np.log10(eps_max) + 1, 50):
            if abs(e - eps_max) < 1e-12 * eps_max:
                continue
            # the second eta term changes sign at eps_max; the first term
            # caps eta but is positive, so the sign test is exact
            assert (rep.eta(e) > 0) == (e < eps_max)


class TestEta:
    def test_small_epsilon_limit(self, synthetic_core, synthetic_plant):
        # as epsilon -> 0 the filter term grows and the P-dependent cap wins
        core = synthetic_core
        rep = bound_report(core, synthetic_plant.constants)
        cap = rep.gamma0 / (2 * np.max(np.linalg.eigvalsh(core.P)))
        assert rep.eta(1e-9) == pytest.approx(cap, rel=1e-12)

    def test_monotone_nonincreasing(self, synthetic_core, synthetic_plant):
        rep = bound_report(synthetic_core, synthetic_plant.constants)
        vals = [rep.eta(e) for e in np.logspace(-5, 0, 40)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_requires_positive_epsilon(self, synthetic_core, synthetic_plant):
        c = synthetic_plant.constants
        for epsilon in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="positive"):
                bound_report(synthetic_core, c).eta(epsilon)
            # the report checks its own epsilon before anything reads it
            with pytest.raises(ValueError, match="positive"):
                bound_report(synthetic_core, c, epsilon=epsilon)

    def test_array_equals_one_call_per_epsilon(self, synthetic_core, synthetic_plant):
        # 25 points across eps_max, where eta changes sign
        rep = bound_report(synthetic_core, synthetic_plant.constants)
        grid = rep.eps_max * np.logspace(-3, 1, 25)
        got = rep.eta(grid)
        assert np.array_equal(got, [rep.eta(e) for e in grid])
        assert np.any(got > 0) and np.any(got < 0)
        assert np.array_equal(rep.eta_grid, [rep.eta(e) for e in rep.eps_grid])
        with pytest.raises(ValueError):
            rep.eta(np.append(grid, 0.0))


class TestUltimateBound:
    def test_closed_form(self):
        # gamma0 = 18 and P = diag(4, 9) cap eta at 18 / (2 * 9) = 1; with
        # epsilon = 0.04, l_hu_low = 1 and drive = 0*delta + d_sigma = 3:
        # appendix = sqrt(0.04/4)*3 = 0.3, statement = 0.6
        c = AssumptionConstants(l_hu_low=1.0, l_hu_high=1.0, d_sigma=3.0)
        rep = BoundReport(c, 18.0, 0.0, 0.0, 4.0, 9.0, 0.04)
        assert rep.eta(0.04) == 1.0
        assert rep.ultimate_appendix == pytest.approx(0.3, abs=1e-14)
        assert rep.ultimate_statement == pytest.approx(0.6, abs=1e-14)
        assert rep.ball_radius == pytest.approx(0.36, abs=1e-14)

    def test_linear_in_drive(self):
        # eta = 0.5 from the cap gamma0 / (2 p_max)
        c1 = AssumptionConstants(l_hu_low=1.0, l_hu_high=1.0, d_sigma=1.0)
        c2 = AssumptionConstants(l_hu_low=1.0, l_hu_high=1.0, d_sigma=2.0)
        r1, r2 = (BoundReport(c, 1.0, 0.0, 0.0, 1.0, 1.0, 0.1) for c in (c1, c2))
        assert r2.ultimate_appendix == pytest.approx(2 * r1.ultimate_appendix, rel=1e-12)
        assert r2.ultimate_statement == pytest.approx(2 * r1.ultimate_statement, rel=1e-12)

    def test_nonpositive_eta_rejected(self, synthetic_core, synthetic_plant):
        # eta = min(1 / 2, 1 / 0.5 - 2) = 0 at epsilon = eps_max, and eta < 0 past eps_max
        c = AssumptionConstants(d_sigma=1.0)
        rep = bound_report(synthetic_core, synthetic_plant.constants)
        for r in (BoundReport(c, 1.0, 2.0, 0.0, 1.0, 1.0, 0.5),
                  bound_report(synthetic_core, synthetic_plant.constants, epsilon=2 * rep.eps_max)):
            assert not r.eta(r.epsilon) > 0
            assert r.ultimate_appendix is None
            assert r.ultimate_statement is None
            assert r.ball_radius is None

    def test_nan_eta_rejected(self):
        # a NaN gamma0 makes eta NaN, which is not positive
        r = BoundReport(AssumptionConstants(d_sigma=1.0), math.nan, 0.0, 0.0, 1.0, 1.0, 0.1)
        assert math.isnan(r.eta(0.1))
        assert r.ultimate_appendix is None and r.ultimate_statement is None and r.ball_radius is None


class TestBoundReport:
    def test_full_report(self, synthetic_core, synthetic_plant):
        rep = bound_report(synthetic_core, synthetic_plant.constants, epsilon=None)
        assert rep.gamma0 > 0 and rep.eps_max > 0
        assert len(rep.eps_grid) == len(rep.eta_grid) == 25
        assert rep.ultimate_appendix is None

    def test_with_admissible_epsilon(self, synthetic_core, synthetic_plant):
        rep0 = bound_report(synthetic_core, synthetic_plant.constants)
        rep = bound_report(
            synthetic_core, synthetic_plant.constants, epsilon=rep0.eps_max / 2
        )
        assert rep.ultimate_appendix is not None
        assert rep.ultimate_statement is not None
        # appendix form carries the extra 1/sqrt(lambda_min P) factor
        assert rep.ultimate_appendix == pytest.approx(
            rep.ultimate_statement / math.sqrt(rep.p_min), rel=1e-12
        )

    def test_to_dict_serializable(self, siso_core):
        import json

        d = bound_report(siso_core, AssumptionConstants()).to_dict()
        json.dumps(d)  # must not need custom encoders
        assert set(d) >= {
            "gamma0", "gamma1", "gamma2", "eps_max", "eps_grid", "eta_grid",
            "ultimate_bound_appendix", "ultimate_bound_statement",
            "lambda_min_P", "lambda_max_P",
        }


class TestCertificate:
    def test_zero_trace(self):
        plant = synthetic_lti(g=1.0, d_amp=0.0)
        core = build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])
        cfg = SimConfig(dt=1e-3, t_final=0.5, x0=np.zeros(2))
        tr = simulate(plant, spec_for(core, 0.05, -10, 10), cfg)
        cert = lyapunov_certificate(tr, core, plant)
        np.testing.assert_allclose(cert.V, 0.0, atol=1e-20)

    def test_series_matches_direct_evaluation(self, synthetic_trace, synthetic_core, synthetic_plant):
        cert = lyapunov_certificate(synthetic_trace, synthetic_core, synthetic_plant)
        k = len(synthetic_trace) // 3
        x, u, t = synthetic_trace.x[k], synthetic_trace.u[k], synthetic_trace.t[k]
        v = (
            synthetic_plant.h(t, u, x)
            - synthetic_core.K.T @ x
            + synthetic_plant.sigma(t, x)
        )
        want = x @ synthetic_core.P @ x + v @ v
        assert cert.V[k] == pytest.approx(want, rel=1e-12)

    def test_trajectory_enters_and_stays_in_ball(self, synthetic_trace, synthetic_core, synthetic_plant):
        cert = lyapunov_certificate(synthetic_trace, synthetic_core, synthetic_plant)
        assert cert.ball_radius is not None and cert.ball_radius > 0
        assert cert.stays_in_ball is True
        assert cert.entered_ball_at is not None

    def test_ball_matches_report(self, synthetic_trace, synthetic_core, synthetic_plant):
        core, plant = synthetic_core, synthetic_plant
        eps_max = bound_report(core, plant.constants).eps_max
        rep = bound_report(core, plant.constants, epsilon=eps_max / 2)
        cert = lyapunov_certificate(synthetic_trace, core, plant, epsilon=eps_max / 2)
        assert cert.ball_radius == rep.ball_radius
        # the ball is the square of the statement form, up to round-off
        assert cert.ball_radius == pytest.approx(rep.ultimate_statement**2, rel=1e-12)

        cert = lyapunov_certificate(synthetic_trace, core, plant, epsilon=2 * eps_max)
        assert cert.ball_radius is None
        assert cert.entered_ball_at is None and cert.stays_in_ball is None
        assert len(cert.V) == len(synthetic_trace) and np.all(np.isfinite(cert.V))

    def test_delayed_plant_rejected(self, synthetic_core, synthetic_trace):
        plant = delayed_input_lti(0.05, g=1.0)
        with pytest.raises(ValueError, match=r"^certificate needs an undelayed input map$"):
            lyapunov_certificate(synthetic_trace, synthetic_core, plant)


def _certificate_oracle(trace, core, plant):
    """V and v evaluated one trace row at a time."""
    P = core.P
    Kt = core.K.T
    V = np.empty(len(trace))
    vs = np.empty((len(trace), core.m))
    for k in range(len(trace)):
        x = trace.x[k]
        u = trace.u[k]
        t = trace.t[k]
        v = plant.h(t, u, x) - Kt @ x + plant.sigma(t, x)
        vs[k] = v
        V[k] = x @ P @ x + v @ v
    return V, vs


def _sample_constants_oracle(plant, u_scale, x_scale, grid):
    """The finite-difference sampler as four nested loops over samples."""
    fd_step = 1e-6
    m, n = plant.m, plant.n
    rng = np.random.default_rng(0)
    us = rng.uniform(-u_scale, u_scale, size=(grid, m))
    xs = rng.uniform(-x_scale, x_scale, size=(grid, n))

    l_ht = 0.0
    dhdu_min = math.inf
    dhdu_max = 0.0
    sig_t = 0.0
    sig0 = 0.0
    for t in np.linspace(0.0, 10.0, 11):
        for u in us:
            for x in xs:
                h0 = plant.h(t, u, x)
                ht = plant.h(t + fd_step, u, x)
                du_norm = max(np.linalg.norm(u), 1e-9)
                l_ht = max(l_ht, np.linalg.norm(ht - h0) / fd_step / du_norm)
                J = np.empty((m, m))
                for j in range(m):
                    up = u.copy()
                    up[j] += fd_step
                    J[:, j] = (plant.h(t, up, x) - h0) / fd_step
                sym = np.linalg.eigvalsh((J + J.T) / 2)
                dhdu_min = min(dhdu_min, float(sym[0]))
                dhdu_max = max(dhdu_max, float(np.linalg.norm(J, 2)))
                s0 = plant.sigma(t, x)
                st = plant.sigma(t + fd_step, x)
                sig_t = max(sig_t, np.linalg.norm(st - s0) / fd_step)
        sig0 = max(sig0, float(np.linalg.norm(plant.sigma(t, np.zeros(n)))))
    return {
        "l_ht_est": float(l_ht),
        "l_hu_low_est": float(dhdu_min),
        "l_hu_high_est": float(dhdu_max),
        "sigma_t_est": float(sig_t),
        "sigma_at_zero_est": float(sig0),
    }


_ORACLE_PLANTS = {
    "siso": hsu_siso,
    "f16": f16_rollyaw,
    "quadrotor_payload": lambda: quadrotor_attitude(
        QuadrotorConfig(J_true=1.3 * np.diag([0.03, 0.03, 0.04]))),
    "synthetic": lambda: synthetic_lti(g=1.5, S=np.array([[0.3, -0.7]]), d_amp=0.4, d_freq=2.0),
    "deadzone": lambda: dead_zone(0.5)(synthetic_lti(g=1.5, S=np.array([[0.3, -0.7]]), d_amp=0.4)),
    # the bundled input maps do not depend on t, so l_ht_est is 0 on all of them
    "time_varying_gain": lambda: UncertainPlant(
        "time_varying_gain", 2, 1, [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
        lambda t, u, x: ((1.5 + 0.5 * np.sin(t)) * u.T).T,
        lambda t, x: np.zeros(x.shape[:-1] + (1,)),
    ),
}


class TestArrayConsumersMatchLoops:
    """The array forms of the sampler and the certificate against the
    per-sample loops they replaced."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_PLANTS))
    @pytest.mark.parametrize("u_scale, x_scale, grid", [(1.0, 1.0, 5), (5.0, 0.2, 3)])
    def test_sample_constants_equal_loop(self, name, u_scale, x_scale, grid):
        plant = _ORACLE_PLANTS[name]()
        got = sample_constants(plant, u_scale=u_scale, x_scale=x_scale, grid=grid)
        assert got == _sample_constants_oracle(plant, u_scale, x_scale, grid)

    @pytest.mark.parametrize("scenario", ["synthetic", "siso", "quadrotor_payload"])
    def test_certificate_matches_row_loop(self, scenario):
        sc = cli.load_scenario(scenario, ["sim.t_final=2.0"])
        plant = cli.build_plant(sc)
        core = cli.build_core(sc, plant)
        trace = simulate(plant, cli.build_controller_spec(sc, core), cli.build_sim_config(sc))
        cert = lyapunov_certificate(trace, core, plant)
        V, vs = _certificate_oracle(trace, core, plant)
        assert np.linalg.norm(cert.V - V) <= 1e-14 * np.linalg.norm(V)
        assert np.linalg.norm(cert.v - vs) <= 1e-14 * np.linalg.norm(vs)
