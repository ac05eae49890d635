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
    "sample_constants",
]


@dataclass(frozen=True)
class BoundReport:
    """Theorem 2 for one design and one set of assumption constants.

    The fields are the three closed-loop gammas and the extreme eigenvalues
    of P; every other quantity is derived from them. The ultimate bounds and
    the certificate's ball need the filter constant `epsilon` and are None
    where eta(epsilon) is not positive.
    """

    consts: AssumptionConstants
    gamma0: float
    gamma1: float
    gamma2: float
    p_min: float
    p_max: float
    epsilon: Optional[float] = None

    def __post_init__(self):
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
    epsilon must be positive."""
    norm = lambda M: float(np.linalg.norm(M, 2))
    g0 = float(np.min(np.linalg.eigvalsh(core.M)))
    g1 = 2.0 * (norm(core.K) + consts.l_sigma_x) * norm(core.B) + 2.0 * consts.l_ht / consts.l_hu_low
    g2 = (
        norm(core.P) * norm(core.B)
        + norm(core.A) * (norm(core.K) + consts.l_sigma_x)
        + norm(core.K)
        + consts.k_sigma
    )
    pw = np.linalg.eigvalsh(core.P)
    return BoundReport(consts, g0, g1, g2, float(pw[0]), float(pw[-1]), epsilon)


@dataclass(frozen=True)
class CertificateSeries:
    t: np.ndarray
    V: np.ndarray
    v: np.ndarray  # the lumped mismatch h - K^T x + sigma along the trace
    ball_radius: Optional[float]
    entered_ball_at: Optional[float]
    stays_in_ball: Optional[bool]


def lyapunov_certificate(
    trace: Trace,
    core: LinearCore,
    plant: UncertainPlant,
    epsilon: Optional[float] = None,
) -> CertificateSeries:
    """V = x^T P x + v^T v along the trace, with the predicted terminal ball.

    The ball radius needs the plant's assumption constants and the filter
    constant; without them only the series is returned.
    """
    if plant.input_delay > 0:
        raise ValueError("certificate needs an undelayed input map")
    P, X = core.P, trace.x
    vs = plant.mismatch(trace.t, X, trace.u) - X @ core.K
    V = np.einsum("ij,jk,ik->i", X, P, X) + np.einsum("ij,ij->i", vs, vs)

    radius = entered = stays = None
    eps = epsilon if epsilon is not None else trace.metadata.get("epsilon")
    if plant.constants is not None and eps is not None:
        radius = bound_report(core, plant.constants, eps).ball_radius
    if radius is not None:
        entered = entry_time(trace.t, V <= radius + CERT_ATOL)
        stays = entered is not None
    return CertificateSeries(
        t=trace.t.copy(), V=V, v=vs, ball_radius=radius,
        entered_ball_at=entered, stays_in_ball=stays,
    )


def sample_constants(
    plant: UncertainPlant,
    u_scale: float = 1.0,
    x_scale: float = 1.0,
    grid: int = 5,
) -> dict:
    """Rough finite-difference estimates of the assumption constants.

    One array evaluation over the 11 grid^2 (t, u, x) rows of t = 0, 1, ...,
    10 s and `grid` seeded draws each of u from [-u_scale, u_scale]^m and x
    from [-x_scale, x_scale]^n; forward differences of step 1e-6 in t and u.
    Diagnostic only: lower bounds on the true suprema, never to back an
    assertion.
    """
    fd_step = 1e-6
    if plant.input_delay > 0:
        raise ValueError("sampler needs an undelayed input map")
    m, n = plant.m, plant.n
    rng = np.random.default_rng(0)
    us = rng.uniform(-u_scale, u_scale, size=(grid, m))
    xs = rng.uniform(-x_scale, x_scale, size=(grid, n))
    ts = np.linspace(0.0, 10.0, 11)
    it, iu, ix = np.indices((len(ts), grid, grid)).reshape(3, -1)
    t, u, x = ts[it], us[iu], xs[ix]
    norm = lambda a: np.linalg.norm(a, axis=-1)
    h0 = plant.h(t, u, x)
    l_ht = norm(plant.h(t + fd_step, u, x) - h0) / fd_step / np.maximum(norm(u), 1e-9)
    J = np.empty((len(t), m, m))
    for j in range(m):
        up = u.copy()
        up[:, j] += fd_step
        J[:, :, j] = (plant.h(t, up, x) - h0) / fd_step
    sym = np.linalg.eigvalsh((J + J.transpose(0, 2, 1)) / 2)
    sig_t = norm(plant.sigma(t + fd_step, x) - plant.sigma(t, x)) / fd_step
    sig0 = norm(plant.sigma(ts, np.zeros((len(ts), n))))
    return {
        "l_ht_est": float(np.max(l_ht)),
        "l_hu_low_est": float(np.min(sym[:, 0])),
        "l_hu_high_est": float(np.max(np.linalg.norm(J, 2, axis=(1, 2)))),
        "sigma_t_est": float(np.max(sig_t)),
        "sigma_at_zero_est": float(np.max(sig0)),
    }
