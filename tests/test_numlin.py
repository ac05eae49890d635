"""Numerical kernel: eigendecomposition, Lyapunov solve, controllability,
pole placement. Oracles are constructed-by-hand systems whose answers are
known in closed form, plus residual identities checked independently."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdinv import (
    DesignError,
    ackermann_gain,
    controllability_rank,
    real_eig,
    solve_lyapunov,
)
from asdinv.numlin import _diagonal_blocks, as_float, rk4_step


@settings(max_examples=200, deadline=None)
@given(r=st.integers(1, 9), c=st.integers(1, 9), transposed=st.booleans(),
       cols=st.one_of(st.none(), st.integers(1, 9)), seed=st.integers(0, 10_000))
def test_dot_matches_matmul(r, c, transposed, cols, seed):
    """M.dot(v) and M @ v give the same bits on the simulator's shapes.

    sim, controller_rt and plants use ndarray.dot in the RK4 stages for
    speed; tests/test_sim.py's bit-identical oracle uses @. A numpy or
    BLAS build that routes the two differently fails here first.
    """
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-4, 4, shape)

    M = draw(c, r).T if transposed else draw(r, c)  # a transposed view, or C-ordered
    v = draw(c) if cols is None else draw(cols, c).T  # (c,), or (c, N) as plants see x.T
    assert np.array_equal(M.dot(v), M @ v)


def random_stable(rng, n):
    """Diagonalizable Hurwitz matrix with a known real spectrum."""
    w = -rng.uniform(0.5, 5.0, size=n)
    w.sort()
    T = rng.standard_normal((n, n))
    while abs(np.linalg.det(T)) < 1e-3:
        T = rng.standard_normal((n, n))
    return T @ np.diag(w) @ np.linalg.inv(T), w


class TestRealEig:
    def test_diagonal_oracle(self):
        A = np.diag([-3.0, -1.0, -2.0])
        pairs = real_eig(A)
        assert [p.value for p in pairs] == [-3.0, -2.0, -1.0]
        # left eigenvectors of a diagonal matrix are the unit axes
        for p, idx in zip(pairs, [0, 2, 1]):
            e = np.zeros(3)
            e[idx] = 1.0
            np.testing.assert_allclose(p.vector, e, atol=1e-12)

    def test_residual_and_unit_norm(self):
        rng = np.random.default_rng(7)
        A, w = random_stable(rng, 5)
        pairs = real_eig(A)
        np.testing.assert_allclose([p.value for p in pairs], w, atol=1e-8)
        for p in pairs:
            assert abs(np.linalg.norm(p.vector) - 1.0) < 1e-12
            resid = np.linalg.norm(A.T @ p.vector - p.value * p.vector)
            assert resid < 1e-8 * np.linalg.norm(A, 2)

    def test_sign_convention(self):
        A = np.array([[-2.0, 1.0], [0.0, -1.0]])
        for p in real_eig(A):
            assert p.vector[np.argmax(np.abs(p.vector))] > 0

    def test_block_diagonal_repeated_eigs(self):
        # two decoupled copies share the eigenvalue; vectors must stay
        # block-local so they remain orthogonal
        blk = np.array([[0.0, 1.0], [-2.0, -3.0]])  # eigs -1, -2
        A = np.zeros((4, 4))
        A[:2, :2] = blk
        A[2:, 2:] = blk
        pairs = real_eig(A)
        vals = [p.value for p in pairs]
        np.testing.assert_allclose(vals, [-2.0, -2.0, -1.0, -1.0], atol=1e-10)
        for p in pairs:
            lives_first = np.linalg.norm(p.vector[:2]) > 0.5
            lives_second = np.linalg.norm(p.vector[2:]) > 0.5
            assert lives_first != lives_second

    def test_complex_spectrum_raises(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigs +/- i
        with pytest.raises(DesignError, match=r"^eigenvalue 1j has imaginary part >= 1e-08$"):
            real_eig(A)

    def test_non_square_raises(self):
        with pytest.raises(DesignError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            real_eig(np.zeros((2, 3)))

    def test_roundtrip_reconstruction(self):
        # A^T = V W V^-1 from the returned pairs reproduces A^T
        rng = np.random.default_rng(11)
        A, _ = random_stable(rng, 4)
        pairs = real_eig(A)
        V = np.column_stack([p.vector for p in pairs])
        W = np.diag([p.value for p in pairs])
        recon = V @ W @ np.linalg.inv(V)
        assert np.linalg.norm(recon - A.T) < 1e-8 * np.linalg.norm(A)


class TestLyapunov:
    def test_known_scalar(self):
        # a = -2, m = 4: 2 p a = -m => p = 1
        P = solve_lyapunov(np.array([[-2.0]]), np.array([[4.0]]))
        np.testing.assert_allclose(P, [[1.0]], atol=1e-12)

    def test_diagonal_oracle(self):
        # A = diag(a_i), M = I => P = diag(-1/(2 a_i))
        a = np.array([-1.0, -2.0, -4.0])
        P = solve_lyapunov(np.diag(a), np.eye(3))
        np.testing.assert_allclose(P, np.diag(-0.5 / a), atol=1e-12)

    def test_residual_and_pd(self):
        rng = np.random.default_rng(3)
        A, _ = random_stable(rng, 6)
        M = np.eye(6)
        P = solve_lyapunov(A, M)
        assert np.linalg.norm(P - P.T) < 1e-12
        assert np.min(np.linalg.eigvalsh(P)) > 0
        assert np.linalg.norm(P @ A + A.T @ P + M) < 1e-8 * (
            np.linalg.norm(P) * np.linalg.norm(A) + np.linalg.norm(M)
        )

    def test_hundred_random_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            A, _ = random_stable(rng, n)
            M = np.eye(n)
            P = solve_lyapunov(A, M)
            resid = np.linalg.norm(P @ A + A.T @ P + M)
            assert resid < 1e-8 * (
                np.linalg.norm(P) * np.linalg.norm(A) + np.linalg.norm(M)
            )

    def test_unstable_raises(self):
        with pytest.raises(DesignError, match=r"^A_cl is not Hurwitz$"):
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_indefinite_m_raises(self):
        with pytest.raises(DesignError, match=r"^M is not positive definite$"):
            solve_lyapunov(-np.eye(2), np.diag([1.0, -1.0]))

    def test_asymmetric_m_raises(self):
        with pytest.raises(DesignError, match=r"^M is not symmetric$"):
            solve_lyapunov(-np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestControllability:
    def test_chain_is_controllable(self):
        A = np.diag(np.ones(3), 1)  # 4-state integrator chain
        b = np.zeros((4, 1))
        b[-1] = 1.0
        assert controllability_rank(A, b) == 4

    def test_decoupled_mode_not_controllable(self):
        A = np.diag([-1.0, -2.0])
        b = np.array([[1.0], [0.0]])
        assert controllability_rank(A, b) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_similarity_invariance(self, seed):
        # rank is invariant under a change of coordinates x -> T x
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, 1))
        T = rng.standard_normal((n, n))
        if abs(np.linalg.det(T)) < 1e-2:
            return
        r1 = controllability_rank(A, B)
        r2 = controllability_rank(T @ A @ np.linalg.inv(T), T @ B)
        assert r1 == r2

    def test_stiff_but_controllable(self):
        # wide eigenvalue spread across decoupled blocks: raw Krylov
        # columns span |15|^3 in norm, so this exercises the column
        # normalization before the rank decision
        blk = np.diag(np.ones(3), 1)
        blk[-1, :] = -np.poly([-15.0, -3.0, -1.0, -0.5])[1:][::-1]
        e4 = np.zeros((4, 1))
        e4[-1] = 1.0
        A = np.kron(np.eye(2), blk)
        B = np.kron(np.eye(2), e4)
        assert controllability_rank(A, B) == 8

    def test_overflowing_krylov_matrix_raises(self, recwarn):
        # A and b are finite, but A^2 b = 1e400 is not: a finite-matrix fault, not an SVD failure
        A = 1e200 * np.diag(np.ones(2), 1)
        b = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(DesignError) as exc:
            controllability_rank(A, b)
        assert str(exc.value) == "the controllability matrix [B, AB, ..., A^(n-1) B] overflows the float range"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestAckermann:
    def test_companion_oracle(self):
        # companion form of s^3 + s^2 + 3 s + 1; moving the poles to
        # {-1,-2,-3} (s^3 + 6 s^2 + 11 s + 6) needs K = old - new coeffs
        A0 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -3.0, -1.0]])
        b = np.array([[0.0], [0.0], [1.0]])
        K = ackermann_gain(A0, b, [-1.0, -2.0, -3.0])
        np.testing.assert_allclose(K.ravel(), [-5.0, -8.0, -5.0], atol=1e-10)

    def test_closed_loop_spectrum(self):
        rng = np.random.default_rng(5)
        A0 = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 1))
        poles = [-1.0, -2.5, -3.0, -4.0]
        K = ackermann_gain(A0, b, poles)
        got = np.sort(np.linalg.eigvals(A0 + b @ K.T).real)
        np.testing.assert_allclose(got, np.sort(poles), atol=1e-7)

    def test_quadrotor_channel_gain(self):
        # third-order actuator channel at bandwidth 15; exact gain for
        # poles {-15,-3,-1} rounds to the published [-3, -4.2, -0.27]
        om = 15.0
        A0 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -om]])
        b = np.array([[0.0], [0.0], [om]])
        K = ackermann_gain(A0, b, [-15.0, -3.0, -1.0])
        np.testing.assert_allclose(K.ravel(), [-3.0, -4.2, -4.0 / 15.0], atol=1e-10)
        np.testing.assert_allclose(K.ravel(), [-3.0, -4.2, -0.27], atol=1e-2)

    def test_weakly_controllable_high_gain(self):
        # ctrb has a 4e-3 singular value, so |K| ~ 4e4 and eig's forward
        # error on the closed loop is ~4e-7; the gain is still exact to
        # working precision and must be accepted
        rng = np.random.default_rng(2950)
        n = int(rng.integers(2, 6))
        A0 = rng.standard_normal((n, n))
        b = rng.standard_normal((n, 1))
        poles = -np.arange(1.0, n + 1.0) - rng.uniform(0, 0.5)
        K = ackermann_gain(A0, b, poles)
        assert np.max(np.abs(K)) > 1e4
        got = np.sort(np.linalg.eigvals(A0 + b @ K.T).real)
        np.testing.assert_allclose(got, np.sort(poles), atol=1e-5)

    def test_wrong_gain_fails_backward_check(self):
        # a 1e-6 relative error in K moves the spectrum far beyond the
        # backward-error tolerance used by the verifier
        rng = np.random.default_rng(5)
        A0 = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 1))
        poles = [-1.0, -2.5, -3.0, -4.0]
        A_cl = A0 + b @ (ackermann_gain(A0, b, poles) * (1 + 1e-6)).T
        scale = np.linalg.norm(A_cl, 2)
        worst = max(np.linalg.svd(A_cl - p * np.eye(4), compute_uv=False)[-1] for p in poles)
        assert worst > 1e-10 * scale

    def test_overflowing_placement_raises(self):
        # the characteristic polynomial of poles near 1e200 overflows, so K is not finite
        A0 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -3.0, -1.0]])
        b = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(DesignError, match=r"^pole placement overflows: the gain is not finite$"):
            ackermann_gain(A0, b, [-1e200, -2e200, -3e200])

    def test_uncontrollable_raises(self):
        A = np.diag([-1.0, -2.0])
        b = np.array([[1.0], [0.0]])
        with pytest.raises(DesignError, match=r"^\(A0, b\) is not controllable$"):
            ackermann_gain(A, b, [-3.0, -4.0])


def test_no_tolerance_parameters():
    # every pass/fail tolerance is a named constant of numlin, never an argument
    import inspect

    import asdinv
    from asdinv import analysis, asd_design, cli, controller_rt, numlin, plants, sim

    found = []
    for module in (asdinv, numlin, plants, asd_design, controller_rt, sim, analysis, cli):
        for name, obj in vars(module).items():
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith("asdinv"):
                continue
            if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, Exception)):
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{k}", v) for k, v in vars(obj).items()
                            if not k.startswith("_") and inspect.isfunction(v)]
            for qual, fn in members:
                params = inspect.signature(fn).parameters
                found += [f"{qual}({p})" for p in params if p == "tol" or p.endswith("_tol")]
    assert not found, found


def test_public_api_declared_once():
    # each module's __all__ is the one list of its public names; the package re-exports it
    import importlib
    import inspect
    import pkgutil

    import asdinv
    from asdinv import errors

    declared = set()
    for info in pkgutil.iter_modules(asdinv.__path__):
        module = importlib.import_module(f"asdinv.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert getattr(asdinv, name, None) is getattr(module, name), f"{info.name}.{name}"
            declared.add(name)
    stray = [name for name, obj in vars(asdinv).items()
             if not name.startswith("_") and not inspect.ismodule(obj) and name not in declared
             and not (inspect.isclass(obj) and obj.__module__ == errors.__name__)]
    assert not stray, stray


def test_as_float_converts_numbers_only():
    assert type(as_float(2, "a")) is float and as_float(np.float32(0.5), "a") == 0.5
    got = as_float([[1, 2.5]], "a", array=True)
    assert got.dtype == float and got.tolist() == [[1.0, 2.5]]
    assert as_float(3, "a", array=True).shape == ()
    for value, array in [(True, False), (np.False_, False), ([1, True], True), (np.eye(2, dtype=bool), True),
                         ("2", False), (None, False), ([1.0], False), ([[1, 2], [3]], True)]:
        with pytest.raises(ValueError, match="a must be a number"):
            as_float(value, "a", array=array)
    # NaN, +-inf and an int past the float range (float() raises OverflowError)
    for value, array in [(np.nan, False), (np.inf, False), (-np.inf, False), (10**400, False),
                         ([1.0, np.inf], True), ([[10**400]], True)]:
        with pytest.raises(ValueError, match="a must be finite"):
            as_float(value, "a", array=array)


@pytest.mark.parametrize("z", [0.0, -0.25, -1.0, -2.0, -2.7])
def test_rk4_step_linear_scalar(z):
    # on s' = lam s one classical RK4 step multiplies s by the degree-4
    # Taylor polynomial of exp(z), z = lam dt
    lam = -2.0
    dt = z / lam
    s0 = np.array([1.5, -0.25, 3.0])
    f = lambda t, s: lam * s
    got = rk4_step(f, 0.0, s0, dt, f(0.0, s0))
    want = s0 * (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_diagonal_blocks_recovers_permuted_partition():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
        A = np.zeros((n, n))
        groups = np.split(np.arange(n), cuts)
        for g in groups:
            # a random spanning chain keeps the block connected, whatever the
            # direction of each entry; extra entries inside the block only
            order = rng.permutation(g)
            for i, j in zip(order[:-1], order[1:]):
                if rng.random() < 0.5:
                    i, j = j, i
                A[i, j] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            extra = rng.random((len(g), len(g))) < 0.3
            A[np.ix_(g, g)] += extra * rng.standard_normal((len(g), len(g)))
        perm = rng.permutation(n)
        Ap = A[np.ix_(perm, perm)]  # index i of Ap is index perm[i] of A
        want = sorted((sorted(np.flatnonzero(np.isin(perm, g)).tolist()) for g in groups),
                      key=lambda b: b[0])
        got = [b.tolist() for b in _diagonal_blocks(Ap)]
        assert got == want, (A, perm)
