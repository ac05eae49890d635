"""The numerical kernel and the controller's frequency response against
scipy, an implementation that shares no code with asdinv. Skipped when
scipy is not installed."""

import numpy as np
import pytest

scipy = pytest.importorskip("scipy")
from scipy import linalg as sla  # noqa: E402
from scipy import signal  # noqa: E402

from asdinv import ackermann_gain, controllability_rank, make_controller, solve_lyapunov, x_to_u_response  # noqa: E402

from conftest import spec_for  # noqa: E402


def random_hurwitz(rng, n):
    """Dense random matrix shifted so its rightmost eigenvalue is at -0.5."""
    A = rng.standard_normal((n, n))
    return A - (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)


@pytest.mark.parametrize("n", range(1, 10))
def test_lyapunov_against_scipy(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        A = random_hurwitz(rng, n)
        R = rng.standard_normal((n, n))
        M = R @ R.T + n * np.eye(n)
        P = solve_lyapunov(A, M)
        # scipy solves A X + X A^T = Q; P A + A^T P = -M is X = P with A -> A^T
        want = sla.solve_continuous_lyapunov(A.T, -M)
        assert np.linalg.norm(P - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("n", range(2, 7))
def test_ackermann_against_place_poles(n):
    rng = np.random.default_rng(200 + n)
    checked = 0
    while checked < 5:
        A0 = rng.standard_normal((n, n))
        b = rng.standard_normal((n, 1))
        if controllability_rank(A0, b) < n:
            continue
        poles = -np.arange(1.0, n + 1.0) - rng.uniform(0.0, 0.5)
        K = ackermann_gain(A0, b, poles)
        # place_poles returns F with eig(A0 - b F) = poles; here A0 + b K^T
        want = -signal.place_poles(A0, b, poles).gain_matrix.T
        assert np.linalg.norm(K - want) <= 1e-8 * np.linalg.norm(want)
        checked += 1


@pytest.mark.parametrize("kind", ["pi_closed", "observer"])
@pytest.mark.parametrize("core_name", ["siso_core", "f16_core", "synthetic_core"])
def test_x_to_u_response_against_statespace(request, core_name, kind):
    core = request.getfixturevalue(core_name)
    spec = spec_for(core, 0.2, -1e9, 1e9, kind=kind)
    c = make_controller(spec)
    # close u = H s + D x around s' = F s + Gx x + Gu u
    A, B = c.F + c.Gu @ c.H, c.Gx + c.Gu @ c.D
    omegas = np.logspace(-2, 2, 20)
    want = np.empty((len(omegas), core.m, core.n), dtype=complex)
    for i in range(core.m):
        for j in range(core.n):
            channel = signal.StateSpace(A, B[:, [j]], c.H[[i], :], c.D[[i], [j]])
            want[:, i, j] = signal.freqresp(channel, omegas)[1]
    got = x_to_u_response(spec, omegas)
    # scipy goes through zeros and poles, the looser of the two paths:
    # 1.1e-10 relative on the f16 observer; a wrong realization gives O(1)
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
