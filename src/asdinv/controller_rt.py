"""Runtime controller: two realizations of u = -(I - Q)^-1 Q G^-1 C^T x.

Each realization is a state-space quadruple (F, Gx, Gu, H, D) with zero
initial state: s' = F s + Gx x + Gu sat(u), u = H s + D x; Q = 1/(eps s + 1).

PI form, s = integral(K_i x): F = 0, Gx = K_i, Gu = 0, H = -I, D = -K_p,
with K_p = (1/eps)(C^T B)^-1 C^T and K_i = (1/eps)(C^T B)^-1 Lam C^T.

Observer form, s = [y_p, w]: y_p' = -Lam y_p + C^T B u estimates
d = y - y_p from y = C^T x, and w is the low-pass state of the inverse
filter (s + lam_i)/(eps s + 1) = 1/eps + (lam_i - 1/eps)/(eps s + 1):
F = [[-Lam, 0], [-I/eps, -I/eps]], Gx = [[0], [C^T/eps]], Gu = [[C^T B], [0]],
H = -(C^T B)^-1 [-I/eps, Lam - I/eps], D = -(C^T B)^-1 C^T/eps.

The quadruple gives the frequency response; the simulator runs
`unsat_output(s, v)` (H s + D x) and `derivative(s, v, u)`
(F s + Gx x + Gu u) on v = `measure(x)`, x or C^T x, in the textbook
arithmetic of each form. Tests tie the two together. Each class sets its
quadruple, `state_dim`, `measure` and the fields its maps read. A
ControllerSpec keeps the PI gains K_p, K_i that it checks for overflow,
and builds its closed realization once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .asd_design import LinearCore, LtiRealization
from .numlin import as_float

__all__ = [
    "ControllerSpec",
    "PiController",
    "ObserverController",
    "make_controller",
    "x_to_u_response",
]


@dataclass(frozen=True)
class ControllerSpec:
    core: LinearCore
    epsilon: float
    u_min: np.ndarray
    u_max: np.ndarray
    realization_kind: str = "pi_closed"  # a key of _REALIZATIONS
    Kp: np.ndarray = field(init=False, repr=False, compare=False)
    Ki: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eps = as_float(self.epsilon, "epsilon")
        object.__setattr__(self, "epsilon", eps)
        if not eps > 0:
            raise ValueError("epsilon must be positive")
        core = self.core
        with np.errstate(all="ignore"):
            object.__setattr__(self, "Kp", (1.0 / eps) * core.CtB_inv @ core.C.T)
            object.__setattr__(self, "Ki", (1.0 / eps) * core.CtB_inv @ core.Lam @ core.C.T)
        if not (np.all(np.isfinite(self.Kp)) and np.all(np.isfinite(self.Ki))):
            raise ValueError(f"epsilon = {eps!r} is too small: the controller gains overflow")
        u_min = np.broadcast_to(as_float(self.u_min, "u_min", array=True), (self.core.m,)).copy()
        u_max = np.broadcast_to(as_float(self.u_max, "u_max", array=True), (self.core.m,)).copy()
        object.__setattr__(self, "u_min", u_min)
        object.__setattr__(self, "u_max", u_max)
        if not np.all(u_min < u_max):
            raise ValueError("u_min must be below u_max componentwise")
        if self.realization_kind not in _REALIZATIONS:
            raise ValueError(f"unknown realization {self.realization_kind!r}")

    @cached_property
    def closed_realization(self) -> LtiRealization:
        """The unsaturated x -> u map, built once per spec: u = H s + D x closed
        around s' = F s + Gx x + Gu u, i.e. D + H (sI - F - Gu H)^-1 (Gx + Gu D)."""
        c = make_controller(self)
        return LtiRealization(F=c.F + c.Gu @ c.H, G_in=c.Gx + c.Gu @ c.D, H=c.H, D=c.D)


class PiController:
    """Closed PI realization driven by the full state x."""

    def __init__(self, spec: ControllerSpec):
        m = self.state_dim = spec.core.m
        self.F, self.Gx, self.Gu = np.zeros((m, m)), spec.Ki, np.zeros((m, m))
        self.H, self.D = -np.eye(m), -spec.Kp

    def unsat_output(self, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.D.dot(x) - s

    def derivative(self, s: np.ndarray, x: np.ndarray, u_applied: np.ndarray) -> np.ndarray:
        return self.Gx.dot(x)

    measure = staticmethod(lambda x: x)  # PI reads x itself


class ObserverController:
    """Observer realization driven by the redefined output y = C^T x.

    State layout: [y_p (m), w (m)].
    """

    def __init__(self, spec: ControllerSpec):
        core, eps = spec.core, spec.epsilon
        m, n, lam = core.m, core.n, core.lam_diag
        self.eps, self.m, self.state_dim = eps, m, 2 * m
        self.CtB = core.CtB
        self._Ct = core.C.T
        self.measure = self._Ct.dot  # y = C^T x
        self._neg_CtB_inv = -core.CtB_inv
        self._neg_lam = -lam
        self._lam_minus_inv_eps = lam - 1.0 / eps
        I, Z = np.eye(m), np.zeros((m, m))
        self.F = np.block([[-core.Lam, Z], [-I / eps, -I / eps]])
        self.Gx = np.vstack((np.zeros((m, n)), self._Ct / eps))
        self.Gu = np.vstack((self.CtB, Z))
        self.H = self._neg_CtB_inv @ np.hstack((-I / eps, core.Lam - I / eps))
        self.D = self._neg_CtB_inv @ self._Ct / eps

    def unsat_output(self, s: np.ndarray, y: np.ndarray) -> np.ndarray:
        m = self.m
        return self._neg_CtB_inv.dot((y - s[:m]) / self.eps + self._lam_minus_inv_eps * s[m:])

    def derivative(self, s: np.ndarray, y: np.ndarray, u_applied: np.ndarray) -> np.ndarray:
        m = self.m
        yp, w = s[:m], s[m:]
        dyp = self._neg_lam * yp + self.CtB.dot(u_applied)
        return np.concatenate((dyp, (y - yp - w) / self.eps))  # (d_hat - w) / eps


_REALIZATIONS = {"pi_closed": PiController, "observer": ObserverController}


def make_controller(spec: ControllerSpec):
    return _REALIZATIONS[spec.realization_kind](spec)


def x_to_u_response(spec: ControllerSpec, omegas) -> np.ndarray:
    """Frequency response of the unsaturated x -> u map, shape (len(omegas), m, n).

    Evaluates the closed realization at all s = j omega at once; comparing the
    two kinds checks the algebraic equivalence u = -(I - Q)^-1 Q G^-1 C^T x.
    """
    return spec.closed_realization.response(1j * np.asarray(omegas, dtype=float))
