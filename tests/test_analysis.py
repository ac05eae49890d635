"""Stability-margin analysis: the closed-loop constants, the admissible
filter range, the decay rate, ultimate bounds, and the trace certificate."""

import math

import numpy as np
import pytest

from asdinv import (
    AssumptionConstants,
    BoundReport,
    SimConfig,
    bound_report,
    build_core,
    delayed_input_lti,
    lyapunov_certificate,
    simulate,
    synthetic_lti,
)
from asdinv import cli

from conftest import OUT_OF_RANGE, OUT_OF_RANGE_IDS, spec_for


class TestGammas:
    def test_dual_evaluation(self, synthetic_core, synthetic_plant):
        # recompute each constant from its definition with independent code
        core, c = synthetic_core, synthetic_plant.constants
        rep = bound_report(core, c)
        sn = lambda M: np.linalg.svd(np.atleast_2d(M), compute_uv=False)[0]
        want0 = 1.0  # lambda_min(M), M = I
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
        assert rep.gamma0 == 1.0


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


class TestFloatRange:
    @pytest.mark.parametrize("scenario, overrides, message", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_scenario_out_of_range_rejected(self, scenario, overrides, message):
        sc = cli.load_scenario(scenario, overrides)
        plant = cli.build_plant(sc)
        with pytest.raises(ValueError, match=message):
            bound_report(cli.build_core(sc, plant), plant.constants)

    @pytest.mark.parametrize("gammas, message", [
        ((1.0, math.inf, 1.0), r"^gamma1 = inf is not finite$"),
        ((1.0, 1.0, math.nan), r"^gamma2 = nan is not finite$"),
        ((1.0, 1.0, 1e200), r"^the filter term .* overflows$"),  # the square overflows
        ((1e-300, 1.0, 1e10), r"^the filter term .* overflows$"),  # 2/gamma0 times it does
    ], ids=["gamma1", "gamma2", "square", "product"])
    def test_non_finite_term_rejected(self, gammas, message):
        with pytest.raises(ValueError, match=message):
            BoundReport(AssumptionConstants(), *gammas, p_min=1.0, p_max=1.0)

    def test_large_finite_terms_kept(self):
        rep = BoundReport(AssumptionConstants(), 1.0, 1.0, 1e150, p_min=1.0, p_max=1.0)
        assert rep.eps_max > 0 and np.all(rep.eps_grid > 0)

    def test_eta_where_one_over_epsilon_overflows(self):
        # eps_max = 1e-306 puts the grid's first epsilon at 1e-309, where l_hu_low / epsilon
        # is inf; the rate there is the gamma0 / (2 p_max) cap, and no warning is raised
        rep = BoundReport(AssumptionConstants(), 1.0, 1e306, 1.0, p_min=1.0, p_max=1.0)
        assert rep.eps_grid[0] < 1.0 / np.finfo(float).max
        assert rep.eta_grid[0] == 0.5


class TestCertificate:
    def test_zero_trace(self):
        plant = synthetic_lti(g=1.0, d_amp=0.0)
        core = build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])
        cfg = SimConfig(dt=1e-3, t_final=0.5, x0=np.zeros(2))
        tr = simulate(plant, spec_for(core, 0.05, -10, 10), cfg)
        cert = lyapunov_certificate(tr, core, plant, 0.05)
        np.testing.assert_allclose(cert.V, 0.0, atol=1e-20)

    def test_series_matches_direct_evaluation(self, synthetic_trace, synthetic_core, synthetic_plant):
        cert = lyapunov_certificate(synthetic_trace, synthetic_core, synthetic_plant, 0.005)
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
        cert = lyapunov_certificate(synthetic_trace, synthetic_core, synthetic_plant, 0.005)
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
            lyapunov_certificate(synthetic_trace, synthetic_core, plant, 0.005)


def _certificate_oracle(trace, core, plant):
    """V = x^T P x + v^T v, with v = h - K^T x + sigma, one trace row at a time."""
    P = core.P
    Kt = core.K.T
    V = np.empty(len(trace))
    for k in range(len(trace)):
        x = trace.x[k]
        u = trace.u[k]
        t = trace.t[k]
        v = plant.h(t, u, x) - Kt @ x + plant.sigma(t, x)
        V[k] = x @ P @ x + v @ v
    return V


class TestArrayConsumersMatchLoops:
    """The array form of the certificate against the per-sample loop it replaced."""

    @pytest.mark.parametrize("scenario", ["synthetic", "siso", "quadrotor_payload"])
    def test_certificate_matches_row_loop(self, scenario):
        plant, spec, cfg = cli.build(cli.load_scenario(scenario, ["sim.t_final=2.0"]))
        trace = simulate(plant, spec, cfg)
        cert = lyapunov_certificate(trace, spec.core, plant, spec.epsilon)
        V = _certificate_oracle(trace, spec.core, plant)
        assert np.linalg.norm(cert.V - V) <= 1e-14 * np.linalg.norm(V)
