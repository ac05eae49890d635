"""Dense small-matrix numerical kernel.

Real eigendecomposition (left eigenvectors), Lyapunov solve via the
Kronecker-sum linear system, one controllability staircase for both the
controllability rank and single-input (Ackermann) pole placement, and
the RK4 step of the closed-loop simulator. Everything here targets the
small systems (n <= 9) this library works with; correctness is defined
by explicit residual contracts, not by the algorithm used.

Every pass/fail tolerance of the library is a named constant below,
beside the scale it multiplies; the other modules import these names and
no function takes a tolerance argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DesignError

__all__ = [
    "EigenPair",
    "as_float",
    "real_eig",
    "solve_lyapunov",
    "controllability_rank",
    "ackermann_gain",
    "rk4_step",
]

# Pass/fail tolerances, each multiplying the scale named beside it.
EIG_RTOL = 1e-8  # |Im lambda| (absolute); A^T v - lambda v residual x max(||A||_2, 1)
RANK_RTOL = 1e-10  # singular values: staircase x ||B||_2 or ||A||_2, x ||C|| ||B|| for C^T B, x 1 for unit-column C
SYM_RTOL = 1e-12  # asymmetry of a Lyapunov M, x max(||M||_F, 1)
LYAP_RTOL = 1e-8  # Lyapunov residual, x (||P||_F ||A_cl||_F + ||M||_F)
POLE_RTOL = 1e-10  # pole-placement backward error, x max(||A_cl||_2, 1)
IDENTITY_RTOL = 1e-8  # C^T A + Lambda C^T residual, x ||A||_F
SELECT_RTOL = 1e-4  # selected vs computed eigenvalue, x max(max|lambda|, 1)
TRAJ_RTOL = 1e-6  # y_p + y_s = y and PI-vs-observer u along a trace, x the trace's max norm
FREQ_ULPS = 10  # PI-vs-observer response, x eps_mach x max cond(jwI - F_cl) x max|H|
CERT_ATOL = 1e-12  # slack on V <= ball radius, x 1 (absolute, in the units of V)
STIFF_DT_RHO = 2.5  # dt x spectral radius of the nominal loop; RK4's real-axis limit is 2.785
STEP_RTOL = 1e-9  # t_final/dt off a whole number of steps, x max(1, round(t_final/dt))


@dataclass(frozen=True)
class EigenPair:
    """A real eigenvalue of A and a unit-norm eigenvector of A^T.

    The vector satisfies ``A.T @ vector == value * vector`` up to
    EIG_RTOL times max(||A||_2, 1), with the sign fixed so the
    largest-magnitude entry is positive.
    """

    value: float
    vector: np.ndarray


def _require_finite(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise DesignError(f"{name} contains non-finite entries")
    return M


def as_float(value, name: str, array: bool = False):
    """value as a Python float, or with array=True as a float ndarray of its shape.

    Raises ValueError("<name> must be a number, not ...") unless each entry is
    a Python or numpy int or float, and without array=True unless value is a
    scalar. A bool is not a number here, although Python reads JSON true as 1.
    A NaN, +-inf or int past the float range raises "<name> must be finite".
    """
    entries = np.asarray(value, dtype=object)
    if (entries.ndim and not array) or not all(
            isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            for v in entries.flat):
        raise ValueError(f"{name} must be a number, not {value!r}")
    try:
        converted = np.asarray(value, dtype=float) if array else float(value)
    except OverflowError:
        converted = np.inf
    if not np.all(np.isfinite(converted)):
        raise ValueError(f"{name} must be finite, not {value!r}")
    return converted


def _fix_sign(v: np.ndarray) -> np.ndarray:
    if v[np.argmax(np.abs(v))] < 0:
        return -v
    return v


def _diagonal_blocks(A: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of A's symmetric zero pattern.

    A block-diagonal matrix (exact zeros off the blocks) decouples into
    independent eigenproblems; this keeps repeated eigenvalues of
    decoupled channels attached to per-channel eigenvectors.
    """
    n = A.shape[0]
    # transitive closure by boolean squaring: after k squarings reach[i, j]
    # holds for every path of length <= 2^k, and n.bit_length() covers n - 1
    reach = (A != 0.0) | (A.T != 0.0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach @ reach
    # each block once, from the row of its smallest member
    return [np.flatnonzero(row) for i, row in enumerate(reach) if row.argmax() == i]


def real_eig(A: np.ndarray) -> list[EigenPair]:
    """Eigenvalues of square A with unit eigenvectors of A^T.

    Returns pairs sorted by ascending eigenvalue. When A is exactly
    block diagonal the decomposition is computed per block so repeated
    eigenvalues of decoupled blocks get block-local eigenvectors.

    Raises DesignError if any eigenvalue has |imag| >= EIG_RTOL.
    """
    A = _require_finite(A, "A")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DesignError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    scale = max(np.linalg.norm(A, 2), 1.0)  # of the whole A, for every block's residual

    pairs: list[EigenPair] = []
    for idx in _diagonal_blocks(A):
        sub = A[np.ix_(idx, idx)]
        w, V = np.linalg.eig(sub.T)
        if np.any(np.abs(w.imag) >= EIG_RTOL):
            bad = w[np.argmax(np.abs(w.imag))]
            raise DesignError(f"eigenvalue {bad} has imaginary part >= {EIG_RTOL}")
        w = w.real
        V = V.real
        for k in range(len(idx)):
            v = np.zeros(n)
            vk = V[:, k]
            vk = vk / np.linalg.norm(vk)
            v[idx] = vk
            v = _fix_sign(v)
            resid = np.linalg.norm(A.T @ v - w[k] * v)
            if resid > EIG_RTOL * scale:
                raise DesignError(
                    f"eigenpair residual {resid:.3e} exceeds {EIG_RTOL:.1e}*||A||"
                )
            pairs.append(EigenPair(float(w[k]), v))
    pairs.sort(key=lambda p: p.value)
    return pairs


def solve_lyapunov(A_cl: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Solve P @ A_cl + A_cl.T @ P = -M for symmetric positive-definite P.

    Direct vectorized solve of the Kronecker-sum system; fine at the
    sizes used here (n <= 9). M must be symmetric positive definite and
    A_cl Hurwitz.
    """
    A_cl = _require_finite(A_cl, "A_cl")
    M = _require_finite(M, "M")
    if A_cl.ndim != 2 or A_cl.shape[0] != A_cl.shape[1]:
        raise DesignError(f"A_cl must be square, got {A_cl.shape}")
    if M.shape != A_cl.shape:
        raise DesignError(f"M shape {M.shape} != A_cl shape {A_cl.shape}")
    if not np.allclose(M, M.T, rtol=0, atol=SYM_RTOL * max(np.linalg.norm(M), 1.0)):
        raise DesignError("M is not symmetric")
    if np.min(np.linalg.eigvalsh((M + M.T) / 2)) <= 0:
        raise DesignError("M is not positive definite")
    if not np.all(np.linalg.eigvals(A_cl).real < 0.0):
        raise DesignError("A_cl is not Hurwitz")

    n = A_cl.shape[0]
    eye = np.eye(n)
    # vec(P A) + vec(A^T P) = (A^T (x) I + I (x) A^T) vec(P), column-major vec
    L = np.kron(A_cl.T, eye) + np.kron(eye, A_cl.T)
    try:
        p = np.linalg.solve(L, -M.flatten(order="F"))
    except np.linalg.LinAlgError as exc:
        raise DesignError(f"Kronecker-sum solve failed: {exc}") from exc
    P = p.reshape((n, n), order="F")
    P = (P + P.T) / 2.0

    resid = np.linalg.norm(P @ A_cl + A_cl.T @ P + M)
    budget = LYAP_RTOL * (np.linalg.norm(P) * np.linalg.norm(A_cl) + np.linalg.norm(M))
    if resid > budget:
        raise DesignError(
            f"Lyapunov residual {resid:.3e} exceeds budget {budget:.3e}"
        )
    return P


def _staircase(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthogonal Q and the rank r of (A, B), by the controllability staircase.

    SVDs of B, then of each block of Q^T A Q that couples the states reached
    so far into the rest, cut at RANK_RTOL ||B||_2, then at RANK_RTOL ||A||_2;
    no power of A is formed. Q^T A Q is block upper Hessenberg.
    """
    A = _require_finite(A, "A")
    B = _require_finite(B, "B")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DesignError(f"A must be square, got {A.shape}")
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise DesignError(f"B shape {B.shape} incompatible with A {A.shape}")
    n = A.shape[0]
    Q, r, block = np.eye(n), 0, B
    cut_B, cut_A = RANK_RTOL * np.linalg.norm(B, 2), RANK_RTOL * np.linalg.norm(A, 2)
    while r < n:
        U, s, _ = np.linalg.svd(block)
        step = int(np.sum(s > (cut_A if r else cut_B)))
        if not step:
            break
        Q[:, r:] = Q[:, r:] @ U
        block = Q[:, r + step:].T @ A @ Q[:, r:r + step]
        r += step
    return Q, r


def controllability_rank(A: np.ndarray, B: np.ndarray) -> int:
    """Dimension of the controllable subspace of (A, B), from the staircase."""
    return _staircase(A, B)[1]


def ackermann_gain(A0: np.ndarray, b: np.ndarray, poles) -> np.ndarray:
    """Single-input K (column) giving A0 + b K^T the poles: minus the textbook Ackermann gain."""
    A0 = _require_finite(A0, "A0")
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[1] != 1:
        raise DesignError(
            f"b must be one n x 1 column, got shape {b.shape}; supply K explicitly for multi-input plants"
        )
    poles = np.asarray(poles, dtype=float)
    n = A0.shape[0]
    if poles.size != n:
        raise DesignError(f"need {n} poles, got {poles.size}")
    Q, rank = _staircase(A0, b)
    if rank < n:
        raise DesignError("(A0, b) is not controllable")

    # Ackermann's K^T = -e_n^T ctrb^-1 p(A0) in staircase coordinates: A_h = Q^T A0 Q
    # is upper Hessenberg and Q^T b = beta e1, so [b_h, A_h b_h, ...] is upper triangular
    # and K^T Q is minus the last row of p(A_h) = prod(A_h - p_i I) over beta prod diag(A_h, -1)
    A_h = Q.T @ A0 @ Q
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite K, refused below
        row = np.eye(n)[-1]
        for p in poles:
            row = row @ A_h - p * row
        K = -Q @ (row / ((Q.T @ b)[0, 0] * np.prod(np.diag(A_h, -1)))).reshape(-1, 1)
    if not np.all(np.isfinite(K)):
        raise DesignError("pole placement overflows: the gain is not finite")

    # verify by backward error: each pole must be an exact eigenvalue of a matrix within
    # POLE_RTOL * ||A_cl|| of A_cl. eig's forward error exceeds any fixed tolerance on the
    # large, yet correct to working precision, K of a weakly controllable pair.
    A_cl = A0 + b @ K.T
    scale = max(np.linalg.norm(A_cl, 2), 1.0)
    sigma_min = np.linalg.svd(A_cl - poles[:, None, None] * np.eye(n), compute_uv=False)[:, -1]
    if np.any(sigma_min > POLE_RTOL * scale):
        raise DesignError("pole placement verification failed")
    return K


def rk4_step(f, t: float, s: np.ndarray, dt: float, k1: np.ndarray) -> np.ndarray:
    """One classical RK4 step of s' = f(t, s) from (t, s), given k1 = f(t, s).

    The caller evaluates k1 itself, so it can reuse the control it has
    already computed at the step point. k + k is 2 * k exactly, but cheaper.
    """
    half = dt / 2
    k2 = f(t + half, s + half * k1)
    k3 = f(t + half, s + half * k2)
    k4 = f(t + dt, s + dt * k3)
    return s + dt / 6 * (k1 + (k2 + k2) + (k3 + k3) + k4)
