"""Design of the closed linear skeleton and its structural verification.

Builds A = A0 + B K^T, redefines the output through eigenvectors of A^T
(so that C^T A = -Lambda C^T, giving the transfer path
G(s) = (s I + Lambda)^-1 C^T B), and checks every identity the design
relies on against the named tolerances of numlin. The additive split
y = y_p + y_s along a trajectory is Trace.y_p/y_s from
sim.simulate(..., with_decomposition=True).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DesignError
from .numlin import IDENTITY_RTOL, RANK_RTOL, SELECT_RTOL
from .numlin import ackermann_gain, controllability_rank, real_eig, solve_lyapunov

__all__ = [
    "LinearCore",
    "StructureReport",
    "build_core",
    "verify_theorem1",
]


@dataclass(frozen=True)
class LinearCore:
    """The designed linear skeleton shared by controller and analysis.

    Invariants (established by build_core): A = A0 + B K^T is Hurwitz
    with a real spectrum, C has unit-norm columns with C^T A = -Lambda C^T,
    C^T B invertible (see verify_theorem1), and P A + A^T P = -I with
    P > 0 (Theorem 2's Lyapunov weight M is the identity).
    """

    n: int
    m: int
    B: np.ndarray
    K: np.ndarray
    A: np.ndarray
    C: np.ndarray
    Lam: np.ndarray  # m x m diagonal, positive
    P: np.ndarray

    @cached_property
    def CtB(self) -> np.ndarray:
        return self.C.T @ self.B

    @cached_property
    def CtB_inv(self) -> np.ndarray:
        """(C^T B)^-1, once per core; DesignError unless theorem1 finds C^T B invertible."""
        if not self.theorem1.checks["ctb_invertible"]:
            raise DesignError("C^T B is numerically singular")
        return np.linalg.inv(self.CtB)

    @property
    def lam_diag(self) -> np.ndarray:
        return np.diag(self.Lam)

    @cached_property
    def theorem1(self) -> StructureReport:
        """verify_theorem1(self), computed once per core; build_core reads it first."""
        return verify_theorem1(self)


@dataclass(frozen=True)
class StructureReport:
    theorem1_residual: float
    det_ctb: float
    checks: dict


def build_core(
    A0: np.ndarray,
    B: np.ndarray,
    K_or_poles,
    selected_eigs: Sequence[float],
) -> LinearCore:
    """Run design steps 1-2: feedback gain, output matrix, Lyapunov matrix.

    K_or_poles is either an explicit n x m gain or, for single-input
    plants, a sequence of n desired real poles handed to Ackermann.
    selected_eigs are the m eigenvalues of A (negative reals, repeats
    allowed for decoupled blocks) whose A^T eigenvectors become the
    columns of C; Lambda collects their negatives.
    """
    A0 = np.asarray(A0, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n, m = B.shape
    if A0.shape != (n, n):
        raise DesignError(f"A0 shape {A0.shape} inconsistent with B {B.shape}")
    if controllability_rank(A0, B) < n:
        raise DesignError("(A0, B) is not controllable")

    K_arr = np.asarray(K_or_poles, dtype=float)
    if K_arr.ndim == 2 and K_arr.shape == (n, m):
        K = K_arr
    elif K_arr.ndim <= 1 and K_arr.size == n:
        if m != 1:
            raise DesignError("pole placement only covers single-input plants")
        K = ackermann_gain(A0, B, K_arr.ravel())
    else:
        raise DesignError(
            f"K_or_poles must be an {n}x{m} gain or {n} poles, got shape {K_arr.shape}"
        )

    A = A0 + B @ K.T
    pairs = real_eig(A)  # raises DesignError on a complex spectrum
    spectrum = np.array([p.value for p in pairs])
    if np.any(spectrum >= 0):
        raise DesignError(f"A = A0 + B K^T is not Hurwitz: spectrum {spectrum.tolist()}")

    selected = list(selected_eigs)
    if len(selected) != m:
        raise DesignError(f"need {m} selected eigenvalues, got {len(selected)}")
    # nearest unused eigenvalue, first index on a tie; a NaN error never passes
    tol = SELECT_RTOL * max(np.max(np.abs(spectrum)), 1.0)
    picks: list[int] = []
    for want in selected:
        err = np.abs(spectrum - want)
        err[picks] = np.inf
        i = int(np.argmin(err))
        if not err[i] <= tol:
            raise DesignError(
                f"{want} is not an (unused) eigenvalue of A; spectrum "
                f"{[round(p.value, 6) for p in pairs]}"
            )
        picks.append(i)
    C = np.column_stack([pairs[i].vector for i in picks])
    Lam = np.diag(-spectrum[picks])

    P = solve_lyapunov(A, np.eye(n))

    core = LinearCore(n=n, m=m, B=B, K=K, A=A, C=C, Lam=Lam, P=P)
    report = core.theorem1
    if not report.checks["ctb_invertible"]:
        raise DesignError(
            f"sigma_min(C^T B) <= {RANK_RTOL:.0e} ||C|| ||B||; "
            "the selected eigenvectors do not give an invertible transfer path"
        )
    if not report.checks["output_identity"]:
        raise DesignError(
            f"C^T A + Lambda C^T residual {report.theorem1_residual:.3e} exceeds tolerance"
        )
    return core


def verify_theorem1(core: LinearCore) -> StructureReport:
    """Residual report for the output-redefinition identities."""
    resid = float(np.linalg.norm(core.C.T @ core.A + core.Lam @ core.C.T))
    det_ctb = float(np.linalg.det(core.CtB))
    # sigma_min(C^T B) against ||C|| ||B||, so rescaling B (or C) keeps the verdict
    smin = np.linalg.svd(core.CtB, compute_uv=False)[-1]
    checks = {
        "output_identity": resid <= IDENTITY_RTOL * float(np.linalg.norm(core.A)),
        "ctb_invertible": bool(smin > RANK_RTOL * np.linalg.norm(core.C, 2) * np.linalg.norm(core.B, 2)),
        "c_full_column_rank": int(np.linalg.matrix_rank(core.C, tol=RANK_RTOL)) == core.m,
    }
    return StructureReport(theorem1_residual=resid, det_ctb=det_ctb, checks=checks)
