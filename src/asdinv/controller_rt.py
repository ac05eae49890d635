"""Runtime controller in two equivalent realizations.

Observer form: advance the disturbance observer y_p' = -Lam y_p + C^T B u,
estimate d = y - y_p, and push it through the biproper inverse filter
Q G^-1 = (C^T B)^-1 diag((s + lam_i)/(eps s + 1)).

PI form: u = -K_p x - integral(K_i x) with
K_p = (1/eps)(C^T B)^-1 C^T and K_i = (1/eps)(C^T B)^-1 Lam C^T.

Both realize u = -(I - Q)^-1 Q G^-1 C^T x for Q = 1/(eps s + 1); the
equivalence is exercised by the test suite in time and frequency domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .asd_design import LinearCore
from .errors import NonFiniteInput, SingularCB

__all__ = [
    "ControllerSpec",
    "PiController",
    "ObserverController",
    "pi_gains",
    "make_controller",
    "x_to_u_response",
]


def pi_gains(core: LinearCore, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Proportional and integral gains of the closed realization."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    CtB = core.CtB
    if abs(np.linalg.det(CtB)) < 1e-12:
        raise SingularCB("C^T B is numerically singular")
    CtB_inv = np.linalg.inv(CtB)
    Kp = (1.0 / epsilon) * CtB_inv @ core.C.T
    Ki = (1.0 / epsilon) * CtB_inv @ core.Lam @ core.C.T
    return Kp, Ki


@dataclass(frozen=True)
class ControllerSpec:
    core: LinearCore
    epsilon: float
    u_min: np.ndarray
    u_max: np.ndarray
    realization_kind: str = "pi_closed"  # or "observer"
    anti_windup: bool = False

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        u_min = np.broadcast_to(np.asarray(self.u_min, dtype=float), (self.core.m,)).copy()
        u_max = np.broadcast_to(np.asarray(self.u_max, dtype=float), (self.core.m,)).copy()
        object.__setattr__(self, "u_min", u_min)
        object.__setattr__(self, "u_max", u_max)
        if np.any(u_min >= u_max):
            raise ValueError("u_min must be below u_max componentwise")
        if self.realization_kind not in ("pi_closed", "observer"):
            raise ValueError(f"unknown realization {self.realization_kind!r}")


class _ControllerBase:
    """Continuous-time controller block integrated jointly with the plant."""

    def __init__(self, spec: ControllerSpec):
        self.spec = spec
        self.core = spec.core
        self.eps = spec.epsilon
        self.m = spec.core.m
        self.state = self.initial_state()

    def initial_state(self) -> np.ndarray:
        return np.zeros(self.state_dim)

    def reset(self):
        self.state = self.initial_state()

    def saturate(self, u: np.ndarray) -> tuple[np.ndarray, bool]:
        u_sat = np.minimum(np.maximum(u, self.spec.u_min), self.spec.u_max)
        return u_sat, bool(np.any(u_sat != u))

    def _rk4_self_step(self, s, ext, u_prev, dt):
        # stepping with the external input held constant across the step
        d = self.derivative
        k1 = d(0.0, s, ext, u_prev)
        k2 = d(0.0, s + dt / 2 * k1, ext, u_prev)
        k3 = d(0.0, s + dt / 2 * k2, ext, u_prev)
        k4 = d(0.0, s + dt * k3, ext, u_prev)
        return s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


class PiController(_ControllerBase):
    """Closed PI realization driven by the full state x."""

    def __init__(self, spec: ControllerSpec):
        self.Kp, self.Ki = pi_gains(spec.core, spec.epsilon)
        self._neg_Kp = -self.Kp
        self._anti_windup = spec.anti_windup
        super().__init__(spec)
        self._last_u = np.zeros(spec.core.m)

    @property
    def state_dim(self) -> int:
        return self.m

    def unsat_output(self, t: float, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self._neg_Kp @ x - s

    def derivative(self, t, s, x, u_applied) -> np.ndarray:
        dz = self.Ki @ x
        if self._anti_windup:
            # conditional integration: freeze channels pushing further into
            # an already-saturated output
            u_unsat = self.unsat_output(t, s, x)
            u_sat, _ = self.saturate(u_unsat)
            over = u_unsat - u_sat
            dz = np.where((over != 0) & (np.sign(-dz) == np.sign(over)), 0.0, dz)
        return dz

    def step_pi(self, x: np.ndarray, dt: float) -> np.ndarray:
        """Advance the integrator by dt (x held) and return the saturated u."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise NonFiniteInput("state contains non-finite entries")
        u_unsat = self.unsat_output(0.0, self.state, x)
        u, _ = self.saturate(u_unsat)
        self.state = self._rk4_self_step(self.state, x, u, dt)
        self._last_u = u
        return u

    # sim-facing aliases
    def external_input(self, x, y):
        return x


class ObserverController(_ControllerBase):
    """Observer realization driven by the redefined output y = C^T x.

    State layout: [y_p (m), w (m)] where w is the low-pass state of the
    per-channel filter (s + lam_i)/(eps s + 1) = 1/eps + (lam_i - 1/eps)/(eps s + 1).
    """

    def __init__(self, spec: ControllerSpec):
        core = spec.core
        if abs(np.linalg.det(core.CtB)) < 1e-12:
            raise SingularCB("C^T B is numerically singular")
        self.CtB = core.CtB
        self.CtB_inv = np.linalg.inv(core.CtB)
        self.lam = core.lam_diag
        self._Ct = core.C.T
        self._neg_CtB_inv = -self.CtB_inv
        self._neg_lam = -self.lam
        self._lam_minus_inv_eps = self.lam - 1.0 / spec.epsilon
        super().__init__(spec)
        self._last_u = np.zeros(spec.core.m)

    @property
    def state_dim(self) -> int:
        return 2 * self.m

    def unsat_output(self, t: float, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self._u_from_y(s, self._Ct @ x)

    def _u_from_y(self, s: np.ndarray, y: np.ndarray) -> np.ndarray:
        m = self.m
        filt = (y - s[:m]) / self.eps + self._lam_minus_inv_eps * s[m:]
        return self._neg_CtB_inv @ filt

    def derivative(self, t, s, x, u_applied) -> np.ndarray:
        return self._deriv_from_y(s, self._Ct @ x, u_applied)

    def _deriv_from_y(self, s, y, u_applied) -> np.ndarray:
        m = self.m
        yp, w = s[:m], s[m:]
        d_hat = y - yp
        dyp = self._neg_lam * yp + self.CtB @ u_applied
        dw = (d_hat - w) / self.eps
        return np.concatenate((dyp, dw))

    def step_observer(self, y: np.ndarray, dt: float) -> np.ndarray:
        """Advance observer and filter by dt (y held) and return saturated u."""
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise NonFiniteInput("measurement contains non-finite entries")
        u_unsat = self._u_from_y(self.state, y)
        u, _ = self.saturate(u_unsat)
        d = lambda s: self._deriv_from_y(s, y, u)
        s = self.state
        k1 = d(s)
        k2 = d(s + dt / 2 * k1)
        k3 = d(s + dt / 2 * k2)
        k4 = d(s + dt * k3)
        self.state = s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        self._last_u = u
        return u


def make_controller(spec: ControllerSpec):
    if spec.realization_kind == "pi_closed":
        return PiController(spec)
    return ObserverController(spec)


def x_to_u_response(spec: ControllerSpec, omegas) -> np.ndarray:
    """Frequency response of the x -> u map, shape (len(omegas), m, n).

    Evaluated from the state-space realization of the requested kind, so
    comparing the two kinds checks the algebraic equivalence
    u = -(I - Q)^-1 Q G^-1 C^T x.
    """
    core = spec.core
    m, n = core.m, core.n
    out = np.empty((len(omegas), m, n), dtype=complex)
    if spec.realization_kind == "pi_closed":
        Kp, Ki = pi_gains(core, spec.epsilon)
        # u = -Kp x - (1/s) Ki x
        for k, w in enumerate(omegas):
            s = 1j * w
            out[k] = -Kp - Ki / s
    else:
        ctrl = ObserverController(spec)
        lam = core.lam_diag
        eps = spec.epsilon
        CtB_inv = ctrl.CtB_inv
        Ct = core.C.T
        # states [yp, w]; u = -CtB_inv ((y - yp)/eps + (lam - 1/eps) w), y = Ct x
        # yp' = -lam yp + CtB u, w' = ((y - yp) - w)/eps
        for k, w_ in enumerate(omegas):
            s = 1j * w_
            # steady response to x(s) = I, column by column; substituting u
            # into the observer dynamics gives the block system below:
            # (s + lam - 1/eps) yp + (lam - 1/eps) w = -(1/eps) y
            # (1/eps) yp + (s + 1/eps) w = (1/eps) y,     with y = Ct x
            Im = np.eye(m)
            M11 = np.diag(s + lam - 1.0 / eps)
            M12 = np.diag(lam - 1.0 / eps)
            M21 = (1.0 / eps) * Im
            M22 = (s + 1.0 / eps) * Im
            Mbig = np.block([[M11, M12], [M21, M22]])
            rhs = np.vstack([-(1.0 / eps) * Ct, (1.0 / eps) * Ct])
            sol = np.linalg.solve(Mbig, rhs)
            yp, wv = sol[:m], sol[m:]
            out[k] = -CtB_inv @ ((Ct - yp) / eps + (lam[:, None] - 1.0 / eps) * wv)
    return out
