"""Runtime controller: two realizations of u = -(I - Q)^-1 Q G^-1 C^T x.

Each realization is a function from a ControllerSpec to a state-space
quadruple (F, Gx, Gu, H, D) on the full state x, with zero initial state:
s' = F s + Gx x + Gu sat(u), u = H s + D x; Q = 1/(eps s + 1).

PI form, s = integral(K_i x): F = 0, Gx = K_i, Gu = 0, H = -I, D = -K_p,
with K_p = (1/eps)(C^T B)^-1 C^T and K_i = (1/eps)(C^T B)^-1 Lam C^T.

Observer form, s = [y_p, w]: y_p' = -Lam y_p + C^T B u estimates
d = y - y_p from y = C^T x, and w is the low-pass state of the inverse
filter (s + lam_i)/(eps s + 1) = 1/eps + (lam_i - 1/eps)/(eps s + 1):
F = [[-Lam, 0], [-I/eps, -I/eps]], Gx = [[0], [C^T/eps]], Gu = [[C^T B], [0]],
H = -(C^T B)^-1 [-I/eps, Lam - I/eps], D = -(C^T B)^-1 C^T/eps.

One class, StateSpaceController, runs either quadruple: the simulator
calls its `unsat_output(s, x)` (H s + D x) and `derivative(s, x, u)`
(F s + Gx x + Gu u). The same class holds the closed quadruple
(F + Gu H, Gx + Gu D, 0, H, D), whose `response(s)` is the frequency
response. A ControllerSpec keeps its checked PI gains K_p, K_i, closes its
quadruple once, on first use, and closes that around a plant in loop_matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .asd_design import LinearCore
from .numlin import as_float

__all__ = [
    "ControllerSpec",
    "StateSpaceController",
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
    def closed_realization(self) -> StateSpaceController:
        """The unsaturated x -> u map, built once per spec: u = H s + D x closed
        around s' = F s + Gx x + Gu u, i.e. D + H (sI - F - Gu H)^-1 (Gx + Gu D)."""
        F, Gx, Gu, H, D = _REALIZATIONS[self.realization_kind](self)
        return StateSpaceController(F + Gu @ H, Gx + Gu @ D, np.zeros_like(Gu), H, D)

    def loop_matrix(self, A0: np.ndarray, B: np.ndarray) -> np.ndarray:
        """The unsaturated loop of x' = A0 x + B u under this controller, on [x; s] (inf or NaN past
        the float range). For the loop at a plant slope (h_u, sigma_x), pass A0 + B sigma_x and B h_u."""
        cl = self.closed_realization
        with np.errstate(all="ignore"):
            return np.block([[A0 + B @ cl.D, B @ cl.H], [cl.Gx, cl.F]])


class StateSpaceController:
    """Runs a quadruple on the full state x: u = H s + D x, s' = F s + Gx x + Gu u.

    derivative leaves out F and Gu when they are all zero, so the PI
    form's is Gx x alone.
    """

    def __init__(self, F, Gx, Gu, H, D):
        self.F, self.Gx, self.Gu, self.H, self.D = F, Gx, Gu, H, D
        self.state_dim = len(F)
        self._F_dot = F.dot if F.any() else None
        self._Gu_dot = Gu.dot if Gu.any() else None

    def unsat_output(self, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.H.dot(s) + self.D.dot(x)

    def derivative(self, s: np.ndarray, x: np.ndarray, u_applied: np.ndarray) -> np.ndarray:
        ds = self.Gx.dot(x)
        if self._F_dot is not None:
            ds += self._F_dot(s)  # the bits of F s + Gx x, since addition commutes
        if self._Gu_dot is not None:
            ds += self._Gu_dot(u_applied)
        return ds

    def response(self, s) -> np.ndarray:
        """D + H (sI - F)^-1 Gx of a closed quadruple; an array of s gives the stack, from one solve."""
        if self._Gu_dot is not None:
            raise ValueError("response needs a closed quadruple (Gu = 0)")
        a = np.asarray(s)[..., None, None] * np.eye(self.state_dim) - self.F
        b = np.broadcast_to(self.Gx, a.shape[:-2] + self.Gx.shape)  # else numpy 1.x sees vectors
        return self.D + self.H @ np.linalg.solve(a, b)


def _pi_quadruple(spec: ControllerSpec):
    m = spec.core.m
    return np.zeros((m, m)), spec.Ki, np.zeros((m, m)), -np.eye(m), -spec.Kp


def _observer_quadruple(spec: ControllerSpec):
    core, eps = spec.core, spec.epsilon
    m, n = core.m, core.n
    neg_CtB_inv, Ct = -core.CtB_inv, core.C.T
    I, Z = np.eye(m), np.zeros((m, m))
    F = np.block([[-core.Lam, Z], [-I / eps, -I / eps]])
    Gx = np.vstack((np.zeros((m, n)), Ct / eps))
    Gu = np.vstack((core.CtB, Z))
    H = neg_CtB_inv @ np.hstack((-I / eps, core.Lam - I / eps))
    D = neg_CtB_inv @ Ct / eps
    return F, Gx, Gu, H, D


_REALIZATIONS = {"pi_closed": _pi_quadruple, "observer": _observer_quadruple}


def make_controller(spec: ControllerSpec) -> StateSpaceController:
    return StateSpaceController(*_REALIZATIONS[spec.realization_kind](spec))


def x_to_u_response(spec: ControllerSpec, omegas) -> np.ndarray:
    """Frequency response of the unsaturated x -> u map, shape (len(omegas), m, n).

    Evaluates the closed realization at all s = j omega at once; comparing the
    two kinds checks the algebraic equivalence u = -(I - Q)^-1 Q G^-1 C^T x.
    """
    return spec.closed_realization.response(1j * np.asarray(omegas, dtype=float))
