"""Design layer: closed skeleton, output redefinition, transfer-path
realization, structural verification, and the additive output split
y = y_p + y_s that simulate(..., with_decomposition=True) records."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdinv import (
    ControllerSpec,
    DesignError,
    SimConfig,
    StateSpaceController,
    build_core,
    delayed_input_lti,
    make_controller,
    real_eig,
    simulate,
    verify_theorem1,
)

from conftest import F16_C, F16_K, spec_for


class TestBuildCore:
    def test_siso_gain_and_spectrum(self, siso_core):
        np.testing.assert_allclose(siso_core.K.ravel(), [-5.0, -8.0, -5.0], atol=1e-10)
        got = np.sort(np.linalg.eigvals(siso_core.A).real)
        np.testing.assert_allclose(got, [-3.0, -2.0, -1.0], atol=1e-8)

    def test_siso_output_direction(self, siso_core):
        # the A^T eigenvector at eigenvalue -1 is parallel to [6, 5, 1]
        ref = np.array([6.0, 5.0, 1.0]) / np.sqrt(62.0)
        c = siso_core.C[:, 0]
        angle = np.arccos(np.clip(abs(ref @ c), -1.0, 1.0))
        assert angle < 1e-8
        np.testing.assert_allclose(siso_core.lam_diag, [1.0], atol=1e-10)

    def test_f16_output_matrix(self, f16_core):
        # matches the published 4x2 matrix entrywise up to column sign
        for j in range(2):
            c = f16_core.C[:, j]
            ref = F16_C[:, j]
            err = min(np.max(np.abs(c - ref)), np.max(np.abs(c + ref)))
            assert err < 1e-3

    def test_trivial_diagonal_plant(self):
        # A0 = -I2, B = I2, K = 0: C must be (a permutation of) the
        # identity and Lambda = I
        core = build_core(-np.eye(2), np.eye(2), np.zeros((2, 2)), [-1.0, -1.0])
        np.testing.assert_allclose(np.abs(core.C), np.eye(2), atol=1e-10)
        np.testing.assert_allclose(core.Lam, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(core.P, 0.5 * np.eye(2), atol=1e-12)

    def test_identity_holds(self, siso_core, f16_core, quad_core):
        for core in (siso_core, f16_core, quad_core):
            resid = np.linalg.norm(core.C.T @ core.A + core.Lam @ core.C.T)
            assert resid < 1e-8 * np.linalg.norm(core.A)
            assert abs(np.linalg.det(core.CtB)) > 1e-6

    def test_lyapunov_member(self, siso_core):
        M = np.eye(siso_core.n)  # build_core's Lyapunov weight
        resid = np.linalg.norm(siso_core.P @ siso_core.A + siso_core.A.T @ siso_core.P + M)
        assert resid < 1e-8 * (
            np.linalg.norm(siso_core.P) * np.linalg.norm(siso_core.A) + np.linalg.norm(M)
        )
        assert np.min(np.linalg.eigvalsh(siso_core.P)) > 0

    def test_unstable_gain_rejected(self):
        A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(DesignError, match=r"^A = A0 \+ B K\^T is not Hurwitz: spectrum \[0\.0, 0\.0\]$"):
            build_core(A0, B, np.zeros((2, 1)), [-1.0])

    def test_selection_must_be_eigenvalue(self, siso_plant):
        with pytest.raises(DesignError) as exc:
            build_core(siso_plant.A0, siso_plant.B, [-1.0, -2.0, -3.0], [-7.0])
        assert str(exc.value) == "-7.0 is not an (unused) eigenvalue of A; spectrum [-3.0, -2.0, -1.0]"

    def test_singular_ctb_rejected(self):
        # selecting -2 would give C^T B = 0: the A^T eigenvector there, e2, is
        # orthogonal to b = e1. By the PBH test a single-input pair has such an
        # eigenvector only when it is uncontrollable, and A = A0 + b K^T keeps
        # it, so on a one-input plant build_core stops at the controllability
        # check and never reports a singular C^T B
        A0 = np.array([[-1.0, 1.0], [0.0, -2.0]])
        B = np.array([[1.0], [0.0]])
        (selected,) = [pair for pair in real_eig(A0) if pair.value == -2.0]
        assert selected.vector @ B[:, 0] == 0.0
        with pytest.raises(DesignError, match=r"^\(A0, B\) is not controllable$"):
            build_core(A0, B, np.zeros((2, 1)), [-2.0])


class TestBuildCoreFaults:
    """Each rejection of build_core, with its exception class and message."""

    def test_selection_count_must_equal_inputs(self):
        with pytest.raises(DesignError) as exc:
            build_core(-np.eye(2), np.eye(2), np.zeros((2, 2)), [-1.0])
        assert str(exc.value) == "need 2 selected eigenvalues, got 1"

    def test_singular_ctb_on_controllable_pair(self):
        # rows 1 and 2 of B are equal, so the A^T eigenvectors e1 and e2
        # at -1 and -2 both see only the first input: C^T B = [[1, 0], [1, 0]]
        A0 = np.diag([-1.0, -2.0, -3.0])
        B = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DesignError) as exc:
            build_core(A0, B, np.zeros((3, 2)), [-1.0, -2.0])
        assert str(exc.value) == (
            "sigma_min(C^T B) <= 1e-10 ||C|| ||B||; "
            "the selected eigenvectors do not give an invertible transfer path"
        )

    def test_poles_for_multi_input_plant(self):
        with pytest.raises(DesignError, match=r"^pole placement only covers single-input plants$"):
            build_core(-np.eye(2), np.eye(2), [-1.0, -2.0], [-1.0, -2.0])

    @pytest.mark.parametrize("select, shown", [
        ([-1.0, float("nan")], "nan"),
        ([-1.0, -1.0], "-1.0"),
    ], ids=["nan", "used"])
    def test_selection_not_an_unused_eigenvalue(self, select, shown):
        with pytest.raises(DesignError) as exc:
            build_core(np.diag([-1.0, -2.0]), np.eye(2), np.zeros((2, 2)), select)
        assert str(exc.value) == (
            f"{shown} is not an (unused) eigenvalue of A; spectrum [-2.0, -1.0]"
        )

    @pytest.mark.parametrize("A0, select, C", [
        (np.diag([-1.0, -2.0]), [-2.00001, -1.0], [[0.0, 1.0], [1.0, 0.0]]),
        (-np.eye(2), [-1.0, -1.0], np.eye(2)),  # a tie goes to the first eigenpair
    ], ids=["nearest", "tie"])
    def test_selection_takes_the_nearest_unused_eigenpair(self, A0, select, C):
        core = build_core(A0, np.eye(2), np.zeros((2, 2)), select)
        np.testing.assert_array_equal(core.C, C)

    @pytest.mark.parametrize("A0, K, message", [
        (-np.eye(3), np.zeros((2, 2)), "A0 shape (3, 3) inconsistent with B (2, 2)"),
        (-np.eye(2), np.zeros((3, 2)), "K_or_poles must be an 2x2 gain or 2 poles, got shape (3, 2)"),
    ], ids=["A0", "K"])
    def test_shape_fault_is_dimension_mismatch(self, A0, K, message):
        with pytest.raises(DesignError) as exc:
            build_core(A0, np.eye(2), K, [-1.0, -1.0])
        assert str(exc.value) == message


class TestRealization:
    def test_response_matches_closed_form(self, f16_core):
        G = StateSpaceController(-f16_core.Lam, f16_core.CtB, np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
        for w in (0.1, 1.0, 10.0):
            s = 1j * w
            want = np.linalg.solve(
                s * np.eye(2) + f16_core.Lam, f16_core.CtB.astype(complex)
            )
            np.testing.assert_allclose(G.response(s), want, atol=1e-12)

    def test_scaling_invariance(self, siso_core):
        # scaling the selected eigenvector scales C^T B but leaves the
        # x -> u controller map unchanged (20 frequencies, 1e-10)
        scale = 3.7
        omegas = np.logspace(-2, 2, 20)
        from asdinv import x_to_u_response

        r1 = x_to_u_response(spec_for(siso_core, 0.1, -5, 5), omegas)
        # the closed-form map (C^T B)^-1 (I/eps + ...) C^T is invariant
        # under C -> scale*C; verify via the explicit formula
        eps = 0.1
        CtB = siso_core.CtB * scale
        Ct = siso_core.C.T * scale
        lam = siso_core.lam_diag
        for k, w in enumerate(omegas):
            s = 1j * w
            Kp = (1 / eps) * np.linalg.solve(CtB, Ct)
            Ki = (1 / eps) * np.linalg.solve(CtB, np.diag(lam) @ Ct)
            np.testing.assert_allclose(r1[k], -Kp - Ki / s, atol=1e-10)


class TestDecompose:
    def test_primary_matches_observer_state(self, siso_trace):
        np.testing.assert_allclose(
            siso_trace.y_p + siso_trace.y_s, siso_trace.y, atol=1e-9
        )

    @pytest.mark.parametrize("kind", ["pi_closed", "observer"])
    def test_split_holds_on_delayed_plant(self, kind):
        # the y_s state integrates the delayed h the plant sees, so the
        # identity needs no undelayed input map (delay_demo, 3 s)
        plant = delayed_input_lti(0.05, g=1.0, S=np.array([[0.0, 0.0]]), d_amp=0.0, d_freq=1.0)
        core = build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])
        cfg = SimConfig(dt=1e-3, t_final=3.0, x0=np.array([1.0, 0.0]), record_stride=10)
        trace = simulate(plant, spec_for(core, 0.2, -1000.0, 1000.0, kind=kind), cfg,
                         with_decomposition=True)
        assert np.max(np.abs(trace.y_p + trace.y_s - trace.y)) <= 1e-12 * np.max(np.abs(trace.y))


class TestVerify:
    def test_reports_pass_on_built_cores(self, siso_core, f16_core, quad_core):
        for core in (siso_core, f16_core, quad_core):
            rep = verify_theorem1(core)
            assert all(rep.checks.values()), rep.checks

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_single_input_designs(self, seed):
        # any controllable single-input plant with distinct real target
        # poles yields an invertible transfer path
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        A0 = rng.standard_normal((n, n))
        b = rng.standard_normal((n, 1))
        from asdinv import controllability_rank

        if controllability_rank(A0, b) < n:
            return
        poles = -np.arange(1.0, n + 1.0) - rng.uniform(0, 0.5)
        core = build_core(A0, b, poles, [poles[0]])
        rep = verify_theorem1(core)
        assert all(rep.checks.values())


class TestCtbOnce:
    def test_ctb_and_inverse_are_computed_once(self, f16_plant):
        core = build_core(f16_plant.A0, f16_plant.B, F16_K, [-1.0, -2.0])
        assert core.CtB is core.CtB and core.CtB_inv is core.CtB_inv
        assert np.array_equal(core.CtB, core.C.T @ core.B)
        assert np.array_equal(core.CtB_inv, np.linalg.inv(core.C.T @ core.B))

    def test_singular_ctb_raises_from_every_controller(self, siso_core):
        # b is siso's B with its component along C removed, so C^T b = 0
        b = siso_core.B - siso_core.C @ (siso_core.C.T @ siso_core.B)
        core = dataclasses.replace(siso_core, B=b)
        assert not core.theorem1.checks["ctb_invertible"]
        singular = r"^C\^T B is numerically singular$"
        with pytest.raises(DesignError, match=singular):
            core.CtB_inv
        with pytest.raises(DesignError, match=singular):
            ControllerSpec(core, 0.1, -5.0, 5.0)
        for kind in ("pi_closed", "observer"):
            with pytest.raises(DesignError, match=singular):
                make_controller(ControllerSpec(core, 0.1, -5.0, 5.0, realization_kind=kind))


class TestCtbScale:
    def test_rescaled_input_matrix_accepted(self, quad_plant):
        # |det(C^T B)| = 3e-14 here, but cond(C^T B) = 1: invertibility is
        # judged relative to ||C|| ||B||, not by an absolute determinant
        core = build_core(quad_plant.A0, quad_plant.B * 1e-4, np.zeros((9, 3)), [-1.0, -1.0, -1.0])
        assert abs(np.linalg.det(core.CtB)) < 1e-12
        assert verify_theorem1(core).checks["ctb_invertible"]

    def test_verdict_is_scale_invariant(self, siso_core):
        for scale in (1e-8, 1.0, 1e8):
            core = dataclasses.replace(siso_core, B=siso_core.B * scale)
            assert verify_theorem1(core).checks["ctb_invertible"]
        # a B orthogonal to C stays singular however large it is
        b = siso_core.B - siso_core.C @ (siso_core.C.T @ siso_core.B)
        assert not verify_theorem1(dataclasses.replace(siso_core, B=b * 1e8)).checks["ctb_invertible"]
