"""Stability-margin machinery: one Theorem-2 report per design and
assumption constants (the gamma constants, the admissible filter range,
the decay rate eta and the ultimate bounds), and a Lyapunov certificate
evaluated along simulated traces.

All matrix norms are spectral; vector norms Euclidean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .asd_design import LinearCore
from .numlin import CERT_ATOL
from .plants import AssumptionConstants, UncertainPlant
from .sim import Trace, entry_time

__all__ = [
    "BoundReport",
    "CertificateSeries",
    "bound_report",
    "lyapunov_certificate",
]


@dataclass(frozen=True)
class BoundReport:
    """Theorem 2 for one design and one set of assumption constants.

    The fields are the three closed-loop gammas and the extreme eigenvalues
    of P; every other quantity is derived from them. The ultimate bounds and
    the certificate's ball need the filter constant `epsilon` and are None
    where eta(epsilon) is not positive. Terms that leave the float range are
    refused with a ValueError that names them.
    """

    consts: AssumptionConstants
    gamma0: float
    gamma1: float
    gamma2: float
    p_min: float
    p_max: float
    epsilon: Optional[float] = None

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)!r} is not finite")
        try:
            term = self._filter_term
        except OverflowError:  # from the square; a NaN gamma0 still gives eta = NaN
            term = math.inf
        if math.isinf(term):
            raise ValueError("the filter term (2/gamma0)(gamma2 + l_sigma_t)^2 overflows")
        with np.errstate(all="ignore"):  # log10(0) is -inf, refused below
            grid = self.eps_grid
        if not np.all(grid > 0):
            raise ValueError(f"eps_max = {self.eps_max!r} is too small: eps_grid is not all positive")
        if self.epsilon is not None:
            self.eta(self.epsilon)  # rejects a non-positive or NaN epsilon up front

    @property
    def _filter_term(self) -> float:
        return (2.0 / self.gamma0) * (self.gamma2 + self.consts.l_sigma_t) ** 2

    @property
    def eps_max(self) -> float:
        """Largest admissible filter time constant; inf when the denominator vanishes."""
        denom = self.gamma1 + self._filter_term
        if denom == 0.0:
            return math.inf
        return self.consts.l_hu_low / denom

    def eta(self, epsilon):
        """Exponential decay rate of the Lyapunov function; positive iff epsilon
        is inside the admissible range. An array of epsilon gives one rate each."""
        epsilon = np.asarray(epsilon, dtype=float)
        if not np.all(epsilon > 0):
            raise ValueError("epsilon must be positive")
        first = self.gamma0 / (2.0 * self.p_max)
        with np.errstate(over="ignore"):  # 1/epsilon = inf leaves eta at first, as it should
            second = self.consts.l_hu_low / epsilon - self.gamma1 - self._filter_term
        return np.minimum(first, second)

    @property
    def eps_grid(self) -> np.ndarray:
        """25 log-spaced epsilons over [1e-3 eps_max, eps_max] (eps_max = 1 when unbounded)."""
        hi = self.eps_max if math.isfinite(self.eps_max) else 1.0
        return np.logspace(np.log10(hi * 1e-3), np.log10(hi), 25)

    @property
    def eta_grid(self) -> np.ndarray:
        return self.eta(self.eps_grid)

    @property
    def _positive_eta(self) -> Optional[float]:
        """eta(epsilon) when it is positive, else None."""
        if self.epsilon is None:
            return None
        ev = self.eta(self.epsilon)
        return ev if ev > 0 else None

    @property
    def _drive(self) -> float:
        c = self.consts
        return (c.l_ht / c.l_hu_low) * c.delta_sigma + c.d_sigma

    @property
    def ultimate_appendix(self) -> Optional[float]:
        """Ultimate bound on ||x||, appendix form. The two published variants
        differ by a lambda_min(P) factor; the appendix derivation is
        complete, so its form is the primary one."""
        ev = self._positive_eta
        if ev is None:
            return None
        return math.sqrt(self.epsilon / (self.p_min * ev * self.consts.l_hu_low)) * self._drive

    @property
    def ultimate_statement(self) -> Optional[float]:
        """Ultimate bound on ||x||, the form in the theorem's statement."""
        ev = self._positive_eta
        if ev is None:
            return None
        return math.sqrt(self.epsilon / (ev * self.consts.l_hu_low)) * self._drive

    @property
    def ball_radius(self) -> Optional[float]:
        """The terminal level of V = x^T P x + v^T v."""
        ev = self._positive_eta
        if ev is None:
            return None
        return (1.0 / ev) * (self.epsilon / self.consts.l_hu_low) * self._drive**2

    def to_dict(self) -> dict:
        return {
            "gamma0": self.gamma0,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "eps_max": "inf" if math.isinf(self.eps_max) else self.eps_max,
            "eps_grid": list(self.eps_grid),
            "eta_grid": list(self.eta_grid),
            "ultimate_bound_appendix": self.ultimate_appendix,
            "ultimate_bound_statement": self.ultimate_statement,
            "epsilon": self.epsilon,
            "lambda_min_P": self.p_min,
            "lambda_max_P": self.p_max,
        }


def bound_report(
    core: LinearCore,
    consts: AssumptionConstants,
    epsilon: Optional[float] = None,
) -> BoundReport:
    """The Theorem-2 report of a design under the given constants; a given
    epsilon must be positive. The Lyapunov weight is M = I (build_core solves
    P A + A^T P = -I)."""
    nA, nB, nK, nP = (float(np.linalg.norm(X, 2)) for X in (core.A, core.B, core.K, core.P))
    g0 = 1.0  # lambda_min(M) with M = I
    g1 = 2.0 * (nK + consts.l_sigma_x) * nB + 2.0 * consts.l_ht / consts.l_hu_low
    g2 = nP * nB + nA * (nK + consts.l_sigma_x) + nK + consts.k_sigma
    pw = np.linalg.eigvalsh(core.P)
    return BoundReport(consts, g0, g1, g2, float(pw[0]), float(pw[-1]), epsilon)


@dataclass(frozen=True)
class CertificateSeries:
    V: np.ndarray
    ball_radius: Optional[float]
    entered_ball_at: Optional[float]
    stays_in_ball: Optional[bool]


def lyapunov_certificate(
    trace: Trace,
    core: LinearCore,
    plant: UncertainPlant,
    epsilon: Optional[float],
) -> CertificateSeries:
    """V = x^T P x + v^T v along the trace, with the predicted terminal ball.

    The ball radius needs the plant's assumption constants and the run's
    filter constant epsilon; without either (epsilon None) only the series
    is returned.
    """
    if plant.input_delay > 0:
        raise ValueError("certificate needs an undelayed input map")
    t, X = trace.t, trace.x
    vs = plant.h(t, trace.u, X) + plant.sigma(t, X) - X @ core.K
    V = np.einsum("ij,jk,ik->i", X, core.P, X) + np.einsum("ij,ij->i", vs, vs)

    radius = entered = stays = None
    if plant.constants is not None and epsilon is not None:
        radius = bound_report(core, plant.constants, epsilon).ball_radius
    if radius is not None:
        entered = entry_time(t, V <= radius + CERT_ATOL)
        stays = entered is not None
    return CertificateSeries(V=V, ball_radius=radius, entered_ball_at=entered, stays_in_ball=stays)

