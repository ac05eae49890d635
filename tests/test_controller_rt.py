"""Controller realizations: gain formulas, specs and saturation bounds, the
quadruple behind the runtime maps, and the time/frequency equivalence of
the closed PI form and the observer form."""

import numpy as np
import pytest

from asdinv import (
    ControllerSpec,
    LtiRealization,
    ObserverController,
    PiController,
    SimConfig,
    build_core,
    closed_realization,
    make_controller,
    pi_gains,
    simulate,
    x_to_u_response,
)

from conftest import spec_for


class TestGains:
    def test_siso_closed_form(self, siso_core):
        # C^T B and Lambda are scalars here, so Kp = C^T/(eps C^T B),
        # Ki = lam * Kp
        eps = 0.1
        Kp, Ki = pi_gains(siso_core, eps)
        ctb = float(siso_core.CtB[0, 0])
        np.testing.assert_allclose(Kp, siso_core.C.T / (eps * ctb), atol=1e-12)
        np.testing.assert_allclose(Ki, siso_core.lam_diag[0] * Kp, atol=1e-12)

    def test_identity_core(self):
        # A0 = -I, B = I, K = 0 gives C = I, Lam = I, so Kp = Ki = I/eps
        core = build_core(-np.eye(2), np.eye(2), np.zeros((2, 2)), [-1.0, -1.0])
        Kp, Ki = pi_gains(core, 0.5)
        sgn = np.sign(np.diag(core.C))
        np.testing.assert_allclose(Kp, np.diag(sgn) @ (2.0 * np.eye(2)) @ np.diag(sgn), atol=1e-10)
        np.testing.assert_allclose(Ki, Kp, atol=1e-10)

    def test_epsilon_must_be_positive(self, siso_core):
        with pytest.raises(ValueError):
            pi_gains(siso_core, 0.0)


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

    def test_factory(self, siso_core):
        assert isinstance(make_controller(spec_for(siso_core, 0.1, -5, 5)), PiController)
        assert isinstance(
            make_controller(spec_for(siso_core, 0.1, -5, 5, kind="observer")),
            ObserverController,
        )


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


class TestStateSpace:
    """The quadruple (F, Gx, Gu, H, D) describes the maps the simulator runs."""

    @pytest.mark.parametrize("kind", ["pi_closed", "observer"])
    @pytest.mark.parametrize("core_name", ["siso_core", "f16_core"])
    def test_quadruple_matches_runtime_maps(self, request, core_name, kind):
        core = request.getfixturevalue(core_name)
        ctrl = make_controller(spec_for(core, 0.05, -1e9, 1e9, kind=kind))
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = rng.normal(size=ctrl.state_dim)
            x = rng.normal(size=core.n)
            u = rng.normal(size=core.m)
            out = ctrl.H @ s + ctrl.D @ x
            np.testing.assert_allclose(ctrl.unsat_output(s, ctrl.measure(x)), out,
                                       rtol=1e-12, atol=1e-12 * np.max(np.abs(out)))
            ds = ctrl.F @ s + ctrl.Gx @ x + ctrl.Gu @ u
            np.testing.assert_allclose(ctrl.derivative(s, ctrl.measure(x), u), ds,
                                       rtol=1e-12, atol=1e-12 * np.max(np.abs(ds)))

    @pytest.mark.parametrize("core_name", ["siso_core", "f16_core"])
    def test_pi_response_closed_form(self, request, core_name):
        core = request.getfixturevalue(core_name)
        spec = spec_for(core, 0.2, -1e9, 1e9)
        Kp, Ki = pi_gains(core, 0.2)
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
        closed = closed_realization(make_controller(spec))
        s = 1j * np.logspace(-2, 2, 20)
        assert np.array_equal(closed.response(s), np.array([closed.response(v) for v in s]))
        assert np.array_equal(x_to_u_response(spec, s.imag), closed.response(s))
        # G(s) = (s I + Lam)^-1 C^T B, since the closed PI realization has a pole at s = 0
        G = LtiRealization(F=-core.Lam, G_in=core.CtB, H=np.eye(core.m), D=np.zeros((core.m, core.m)))
        assert G.response(0.0).dtype == float

    def test_response_solves_a_stack_of_matrices(self, siso_core, monkeypatch):
        # numpy 1.x reads a right-hand side with one dimension fewer than the
        # stack as a stack of vectors; response must hand over matrices
        closed = closed_realization(make_controller(spec_for(siso_core, 0.05, -1e9, 1e9, kind="observer")))
        solve, shapes = np.linalg.solve, []

        def checked_solve(a, b):
            shapes.append((a.shape, b.shape))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", checked_solve)
        closed.response(1j * np.logspace(-2, 2, 5))
        closed.response(0.5j)
        q, n = closed.G_in.shape
        assert shapes == [((5, q, q), (5, q, n)), ((q, q), (q, n))]
