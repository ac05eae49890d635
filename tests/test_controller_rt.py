"""Controller realizations: gain formulas, specs and saturation bounds, each
quadruple against its realization's textbook maps, and the time/frequency
equivalence of the closed PI form and the observer form."""

import dataclasses

import numpy as np
import pytest

from asdinv import (
    ControllerSpec,
    SimConfig,
    StateSpaceController,
    build_core,
    make_controller,
    simulate,
    x_to_u_response,
)
from asdinv import cli, controller_rt

from conftest import spec_for


class TestGains:
    def test_siso_closed_form(self, siso_core):
        # C^T B and Lambda are scalars here, so Kp = C^T/(eps C^T B),
        # Ki = lam * Kp
        eps = 0.1
        spec = spec_for(siso_core, eps, -5.0, 5.0)
        Kp, Ki = spec.Kp, spec.Ki
        ctb = float(siso_core.CtB[0, 0])
        np.testing.assert_allclose(Kp, siso_core.C.T / (eps * ctb), atol=1e-12)
        np.testing.assert_allclose(Ki, siso_core.lam_diag[0] * Kp, atol=1e-12)

    def test_identity_core(self):
        # A0 = -I, B = I, K = 0 gives C = I, Lam = I, so Kp = Ki = I/eps
        core = build_core(-np.eye(2), np.eye(2), np.zeros((2, 2)), [-1.0, -1.0])
        spec = spec_for(core, 0.5, -5.0, 5.0)
        Kp, Ki = spec.Kp, spec.Ki
        sgn = np.sign(np.diag(core.C))
        np.testing.assert_allclose(Kp, np.diag(sgn) @ (2.0 * np.eye(2)) @ np.diag(sgn), atol=1e-10)
        np.testing.assert_allclose(Ki, Kp, atol=1e-10)

    def test_epsilon_must_be_positive(self, siso_core):
        with pytest.raises(ValueError, match=r"^epsilon must be positive$"):
            ControllerSpec(siso_core, 0.0, -5.0, 5.0)


class TestSpec:
    def test_bounds_broadcast(self, siso_core):
        spec = ControllerSpec(siso_core, 0.1, -5.0, 5.0)
        assert spec.u_min.shape == (1,) and spec.u_max.shape == (1,)

    def test_bad_bounds_rejected(self, siso_core):
        with pytest.raises(ValueError):
            ControllerSpec(siso_core, 0.1, 5.0, -5.0)

    def test_unknown_realization_rejected(self, siso_core):
        with pytest.raises(ValueError):
            ControllerSpec(siso_core, 0.1, -5.0, 5.0, realization_kind="smith")

    def test_epsilon_overflowing_the_gains_rejected(self, siso_core):
        with pytest.raises(ValueError, match=r"^epsilon = 1e-308 is too small: the controller gains overflow$"):
            ControllerSpec(siso_core, 1e-308, -5.0, 5.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scenario", cli.BUNDLED)
    def test_accepted_epsilon_gives_finite_realizations(self, scenario):
        # the PI gains first overflow between 5e-307 (f16) and 6e-309 (synthetic);
        # wherever they are finite, so is every matrix of both realizations
        core = cli.build(cli.load_scenario(scenario))[1].core
        accepted = 0
        for epsilon in np.logspace(-305, -310, 51):
            try:
                spec = ControllerSpec(core, epsilon, -1.0, 1.0)
            except ValueError:
                continue
            accepted += 1
            for kind in ("pi_closed", "observer"):
                kind_spec = dataclasses.replace(spec, realization_kind=kind)
                c, cl = make_controller(kind_spec), kind_spec.closed_realization
                for M in (c.F, c.Gx, c.Gu, c.H, c.D, cl.F, cl.Gx, cl.H, cl.D):
                    assert np.all(np.isfinite(M)), (epsilon, kind)
        assert 0 < accepted < 51  # the grid straddles the threshold

    def test_factory(self, siso_core, realization_calls):
        # make_controller runs its kind's realization function once, and the one
        # controller class holds the quadruple that function returns
        for kind in ("pi_closed", "observer"):
            spec = spec_for(siso_core, 0.1, -5, 5, kind=kind)
            c = make_controller(spec)
            (got_kind, got_spec), = realization_calls
            assert type(c) is StateSpaceController and got_kind == kind and got_spec is spec
            quadruple = controller_rt._REALIZATIONS[kind](spec)
            assert all(np.array_equal(a, b) for a, b in zip((c.F, c.Gx, c.Gu, c.H, c.D), quadruple))
            realization_calls.clear()


class TestEquivalence:
    def test_frequency_domain(self, siso_core, f16_core):
        omegas = np.logspace(-2, 2, 20)
        for core in (siso_core, f16_core):
            lo = -1e9 * np.ones(core.m)
            hi = 1e9 * np.ones(core.m)
            r_pi = x_to_u_response(
                ControllerSpec(core, 0.2, lo, hi, "pi_closed"), omegas
            )
            r_ob = x_to_u_response(
                ControllerSpec(core, 0.2, lo, hi, "observer"), omegas
            )
            scale = max(np.max(np.abs(r_pi)), 1.0)
            assert np.max(np.abs(r_pi - r_ob)) < 1e-10 * scale

    def test_time_domain(self, siso_plant, siso_core):
        # unsaturated closed loop: both realizations produce the same u(t)
        cfg = SimConfig(dt=1e-3, t_final=3.0, x0=np.array([0.2, 0.1, 0.0]), record_stride=10)
        tr_pi = simulate(siso_plant, spec_for(siso_core, 0.1, -1e9, 1e9), cfg)
        tr_ob = simulate(
            siso_plant, spec_for(siso_core, 0.1, -1e9, 1e9, kind="observer"), cfg
        )
        scale = max(np.max(np.abs(tr_pi.u)), 1e-12)
        assert np.max(np.abs(tr_pi.u - tr_ob.u)) < 1e-6 * scale


def textbook_maps(spec):
    """(output, derivative) of the spec's realization in the arithmetic of its
    derivation: PI's u = -K_p x - s, s' = K_i x; the observer's u =
    -(C^T B)^-1 ((y - y_p)/eps + (Lam - I/eps) w), y_p' = -Lam y_p + C^T B u,
    w' = (y - y_p - w)/eps, on y = C^T x."""
    if spec.realization_kind == "pi_closed":
        return (lambda s, x: -spec.Kp @ x - s), (lambda s, x, u: spec.Ki @ x)
    core, eps = spec.core, spec.epsilon
    m, lam, Ct = core.m, core.lam_diag, core.C.T

    def output(s, x):
        return -core.CtB_inv @ ((Ct @ x - s[:m]) / eps + (lam - 1.0 / eps) * s[m:])

    def derivative(s, x, u):
        yp, w = s[:m], s[m:]
        return np.concatenate((-lam * yp + core.CtB @ u, (Ct @ x - yp - w) / eps))

    return output, derivative


class TestStateSpace:
    """The quadruple (F, Gx, Gu, H, D) that the simulator runs is its realization."""

    @pytest.mark.parametrize("kind", ["pi_closed", "observer"])
    @pytest.mark.parametrize("core_name", ["siso_core", "f16_core"])
    def test_quadruple_matches_runtime_maps(self, request, core_name, kind):
        core = request.getfixturevalue(core_name)
        spec = spec_for(core, 0.05, -1e9, 1e9, kind=kind)
        ctrl = make_controller(spec)
        output, derivative = textbook_maps(spec)
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = rng.normal(size=ctrl.state_dim)
            x = rng.normal(size=core.n)
            u = rng.normal(size=core.m)
            out = output(s, x)
            np.testing.assert_allclose(ctrl.unsat_output(s, x), out,
                                       rtol=1e-12, atol=1e-12 * np.max(np.abs(out)))
            ds = derivative(s, x, u)
            np.testing.assert_allclose(ctrl.derivative(s, x, u), ds,
                                       rtol=1e-12, atol=1e-12 * np.max(np.abs(ds)))

    @pytest.mark.parametrize("kind", ["pi_closed", "observer"])
    @pytest.mark.parametrize("core_name", ["siso_core", "f16_core"])
    def test_closed_quadruple_runs_the_open_loop_unsaturated(self, request, core_name, kind):
        # the closed quadruple, fed nothing, gives the open one's maps fed the unclamped u
        core = request.getfixturevalue(core_name)
        spec = spec_for(core, 0.05, -1e9, 1e9, kind=kind)
        ctrl, closed = make_controller(spec), spec.closed_realization
        assert type(closed) is StateSpaceController and not closed.Gu.any()
        assert closed.Gu.shape == ctrl.Gu.shape and closed.state_dim == ctrl.state_dim
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = rng.normal(size=ctrl.state_dim)
            x = rng.normal(size=core.n)
            u = ctrl.unsat_output(s, x)
            np.testing.assert_allclose(closed.unsat_output(s, x), u,
                                       rtol=1e-12, atol=1e-12 * np.max(np.abs(u)))
            ds = ctrl.derivative(s, x, u)
            np.testing.assert_allclose(closed.derivative(s, x, np.full(core.m, np.nan)), ds,
                                       rtol=1e-12, atol=1e-12 * np.max(np.abs(ds)))

    def test_response_of_an_open_quadruple_raises(self, siso_core):
        ctrl = make_controller(spec_for(siso_core, 0.05, -1e9, 1e9, kind="observer"))
        with pytest.raises(ValueError, match=r"^response needs a closed quadruple \(Gu = 0\)$"):
            ctrl.response(0.5j)

    @pytest.mark.parametrize("core_name", ["siso_core", "f16_core"])
    def test_pi_response_closed_form(self, request, core_name):
        core = request.getfixturevalue(core_name)
        spec = spec_for(core, 0.2, -1e9, 1e9)
        Kp, Ki = spec.Kp, spec.Ki
        omegas = np.logspace(-2, 2, 20)
        got = x_to_u_response(spec, omegas)
        want = np.array([-Kp - Ki / (1j * w) for w in omegas])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["pi_closed", "observer"])
    @pytest.mark.parametrize("core_name", ["siso_core", "f16_core", "quad_core"])
    def test_response_on_array_equals_loop(self, request, core_name, kind):
        # one stacked solve gives the bits of one solve per s
        core = request.getfixturevalue(core_name)
        spec = spec_for(core, 0.05, -1e9, 1e9, kind=kind)
        closed = spec.closed_realization
        s = 1j * np.logspace(-2, 2, 20)
        assert np.array_equal(closed.response(s), np.array([closed.response(v) for v in s]))
        assert np.array_equal(x_to_u_response(spec, s.imag), closed.response(s))
        # G(s) = (s I + Lam)^-1 C^T B, since the closed PI realization has a pole at s = 0
        m = core.m
        G = StateSpaceController(-core.Lam, core.CtB, np.zeros((m, m)), np.eye(m), np.zeros((m, m)))
        assert G.response(0.0).dtype == float

    def test_response_solves_a_stack_of_matrices(self, siso_core, monkeypatch):
        # numpy 1.x reads a right-hand side with one dimension fewer than the
        # stack as a stack of vectors; response must hand over matrices
        closed = spec_for(siso_core, 0.05, -1e9, 1e9, kind="observer").closed_realization
        solve, shapes = np.linalg.solve, []

        def checked_solve(a, b):
            shapes.append((a.shape, b.shape))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", checked_solve)
        closed.response(1j * np.logspace(-2, 2, 5))
        closed.response(0.5j)
        q, n = closed.Gx.shape
        assert shapes == [((5, q, q), (5, q, n)), ((q, q), (q, n))]
