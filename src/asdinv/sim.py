"""Fixed-step closed-loop integrator, trace recording, and metrics.

Classical RK4 on the augmented state (plant + controller + the primary
output y_p, and optionally the secondary output y_s). Saturation is
applied inside the derivative evaluation, so the plant always sees the
clamped input. The stages come from numlin.rk4_step, and each of the
four evaluates the controller output once: one pass of simulate's loop
computes the control at the step point, which is the recorded sample
u(t_k) and its saturation flag, the delay history's entry and the first
stage. Deterministic: identical configs give identical traces. Per-stage
products, here and in controller_rt and plants, are M.dot(v): M @ v's
bits (test_numlin pins this), ~0.6 us sooner a call. The blow-up test
max|s| <= 1e12 runs only where the pre-check s.s <= 0.99e24 fails.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .controller_rt import ControllerSpec, make_controller
from .errors import ConfigError, NonFiniteState
from .numlin import STEP_RTOL, STIFF_DT_RHO, as_float, rk4_step
from .plants import UncertainPlant

__all__ = ["SimConfig", "Trace", "Metrics", "simulate", "energy_index", "metrics", "entry_time",
           "export_csv"]

_BLOWUP = 1e12
_PRECHECK = 0.99 * _BLOWUP**2
_MAX_ROWS = 10**7  # recorded samples a SimConfig may ask for
_MAX_RECORD_BYTES = 2**30  # bytes of the recorded samples a simulate call may allocate
_THETA = 1e-2  # the ||x|| level whose last crossing is time_to_threshold


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_final: float
    x0: np.ndarray
    record_stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "dt", as_float(self.dt, "dt"))
        object.__setattr__(self, "t_final", as_float(self.t_final, "t_final"))
        object.__setattr__(self, "x0", as_float(self.x0, "x0", array=True))
        if not (0 < self.dt <= self.t_final):
            raise ValueError("need 0 < dt <= t_final")
        stride = self.record_stride
        if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
            raise ValueError("record_stride must be a positive integer")
        steps = self.t_final / self.dt
        if not (np.isfinite(steps) and round(steps) // stride + 1 <= _MAX_ROWS):
            raise ValueError(f"t_final/dt/record_stride gives over {_MAX_ROWS} recorded samples")
        if abs(steps - round(steps)) > STEP_RTOL * max(1, round(steps)):  # else the run ends off t_final
            raise ValueError(f"t_final = {self.t_final!r} is not a whole number of dt = {self.dt!r} steps "
                             f"(t_final/dt = {steps!r})")


@dataclass
class Trace:
    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    y: np.ndarray
    d_hat: np.ndarray
    sat: np.ndarray
    y_p: Optional[np.ndarray] = None
    y_s: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class Metrics:
    energy: float
    sup_tail: float
    time_to_threshold: Optional[float]
    max_abs_u: np.ndarray
    sat_fraction: float


def _bounded(s: np.ndarray):
    """max|s| <= _BLOWUP (false on NaN/inf), implied by s.s <= _PRECHECK despite round-off."""
    return s.dot(s) <= _PRECHECK or np.abs(s).max() <= _BLOWUP  # s.s may overflow to inf


def simulate(
    plant: UncertainPlant,
    controller: ControllerSpec,
    simcfg: SimConfig,
    with_decomposition: bool = False,
) -> Trace:
    """Integrate the closed loop and return the recorded Trace.

    Pass k of the loop computes the clamped control u(t_k) at t_k = k dt
    once: it fills recorded row k / stride (when the stride divides k), the
    delay history and the first RK4 stage. So unsat_output runs at most
    4 steps + 1 times. The pass at k = steps only records.

    With an input delay tau > 0, h receives u(t - tau): zero before
    t = tau, and after that the linear interpolation of the step-point
    samples u(k dt). The sample u(t_k) enters that history before any
    stage of the step from t_k reads it, which matters when tau < dt.
    Only the last L = ceil(tau/dt) + 2 samples are kept, u(k dt) in slot
    k % L, since no stage of the step from t_k reads a sample before
    k - ceil(tau/dt) - 1 (the 1 covers round-off in (t - tau)/dt).

    Raises ConfigError before the run when the recorded samples would take
    over _MAX_RECORD_BYTES (2**30) bytes, and NonFiniteState (carrying the
    truncated trace and blow-up time) if the augmented state leaves the
    finite range. The stiffness guard reads an overflowing loop as rho = inf.
    """
    core = controller.core
    n, m = core.n, core.m
    if plant.n != n or plant.m != m:
        raise ValueError("plant and controller dimensions disagree")
    if simcfg.x0.shape != (n,):
        raise ValueError(f"x0 must have length {n}")

    ctrl = make_controller(controller)
    unsat_output, ctrl_derivative = ctrl.unsat_output, ctrl.derivative
    q = ctrl.state_dim
    nq, nqm = n + q, n + q + m
    # augmented layout: [x (n), controller (q), y_p (m), (y_s (m))]
    dim = nqm + (m if with_decomposition else 0)
    dt = simcfg.dt
    nsteps = int(round(simcfg.t_final / dt))
    stride = simcfg.record_stride
    nrec = nsteps // stride + 1
    nbytes = nrec * ((dim + m) * 8 + 1)  # rec_s, rec_u and rec_sat below
    if nbytes > _MAX_RECORD_BYTES:
        raise ConfigError(f"bad 'sim' section: {nrec} recorded samples take {nbytes} bytes, over the "
                          f"{_MAX_RECORD_BYTES}-byte budget; raise record_stride or shorten t_final")

    A0, B = plant.A0, plant.B
    loop = controller.loop_matrix(A0, B)  # the nominal loop at the origin: h = u, sigma = 0
    rho = np.abs(np.linalg.eigvals(loop)).max() if np.isfinite(loop).all() else np.inf
    if dt * rho >= STIFF_DT_RHO:
        warnings.warn(f"dt*rho(nominal loop) = {dt * rho:.2f} >= {STIFF_DT_RHO}; RK4 may be unstable",
                      stacklevel=2)

    CtB = core.CtB
    Kt = core.K.T
    neg_lam = -core.lam_diag
    u_min, u_max = controller.u_min, controller.u_max
    h, sig = plant.h, plant.sigma
    tau = plant.input_delay
    L = int(min(np.ceil(tau / dt) + 2, nsteps))  # no more slots than samples
    u_ring = [None] * L  # u(k dt) in slot k % L, filled only when tau > 0

    # the controller and y_p start at zero
    s = np.zeros(dim)
    s[:n] = simcfg.x0
    if with_decomposition:
        s[nqm:] = core.C.T @ simcfg.x0  # y_s(0) = C^T x0; y_p(0) = 0

    def delayed_u(t: float) -> np.ndarray:
        """u(t - tau) in the step from t_k, which holds samples 0..k (k: the loop index)."""
        tq = t - tau
        if tq <= 0.0:
            return np.zeros(m)
        i = tq / dt
        i0 = min(int(i), k)
        i1 = min(i0 + 1, k)
        frac = i - i0
        return u_ring[i0 % L] * (1 - frac) + u_ring[i1 % L] * frac

    def deriv(t: float, s: np.ndarray, u: Optional[np.ndarray] = None) -> np.ndarray:
        """Closed-loop derivative at (t, s); u is the clamped control there, computed if not given."""
        x, sc = s[:n], s[n:nq]
        if u is None:
            u = np.minimum(np.maximum(unsat_output(sc, x), u_min), u_max)
        hv = h(t, delayed_u(t) if tau else u, x)
        sv = sig(t, x)
        dx = A0.dot(x) + B.dot(hv + sv)
        dc = ctrl_derivative(sc, x, u)
        dyp = neg_lam * s[nq:nqm] + CtB.dot(u)
        if with_decomposition:
            dys = neg_lam * s[nqm:] + CtB.dot(-u + hv - Kt.dot(x) + sv)
            return np.concatenate((dx, dc, dyp, dys))
        return np.concatenate((dx, dc, dyp))

    rec_s = np.empty((nrec, dim))
    rec_u = np.empty((nrec, m))
    rec_sat = np.empty(nrec, dtype=bool)

    t = 0.0
    blowup_time = None
    with np.errstate(all="ignore"):  # an overflow shows as a blown-up state, reported below
        for k in range(nsteps + 1):
            u_unsat = unsat_output(s[n:nq], s[:n])
            u = np.minimum(np.maximum(u_unsat, u_min), u_max)
            if k % stride == 0:
                rec_s[k // stride] = s
                rec_u[k // stride] = u
                rec_sat[k // stride] = np.any(u != u_unsat)
            if k == nsteps:
                break
            if tau:
                u_ring[k % L] = u
            s = rk4_step(deriv, t, s, dt, deriv(t, s, u))
            t = (k + 1) * dt
            if not _bounded(s):
                blowup_time = t
                nrec = k // stride + 1
                break

    S = rec_s[:nrec]
    X = S[:, :n]
    Y = X @ core.C
    trace = Trace(
        t=(np.arange(nrec) * stride) * dt,
        x=X,
        u=rec_u[:nrec],
        y=Y,
        d_hat=Y - S[:, nq:nqm],
        sat=rec_sat[:nrec],
        y_p=S[:, nq:nqm],
        y_s=S[:, nqm:] if with_decomposition else None,
    )
    if blowup_time is not None:
        raise NonFiniteState(
            f"closed loop diverged at t = {blowup_time:.4f} s",
            blowup_time=blowup_time,
            trace=trace,
        )
    return trace


def energy_index(trace: Trace) -> np.ndarray:
    """Cumulative total variation of u: E(t_k) = sum ||u_{j+1} - u_j||_1."""
    if len(trace) < 2:
        raise ValueError("energy index needs at least two samples")
    du = np.sum(np.abs(np.diff(trace.u, axis=0)), axis=1)
    return np.concatenate([[0.0], np.cumsum(du)])


def metrics(trace: Trace) -> Metrics:
    if len(trace) == 0:
        raise ValueError("empty trace")
    norms = np.linalg.norm(trace.x, axis=1)
    tail_start = int(np.floor(0.8 * len(norms)))
    sup_tail = float(np.max(norms[tail_start:]))

    return Metrics(
        energy=float(energy_index(trace)[-1]) if len(trace) >= 2 else 0.0,
        sup_tail=sup_tail,
        time_to_threshold=entry_time(trace.t, norms <= _THETA),
        max_abs_u=np.max(np.abs(trace.u), axis=0),
        sat_fraction=float(np.mean(trace.sat)),
    )


def entry_time(t: np.ndarray, inside: np.ndarray) -> Optional[float]:
    """The first t[k] from which inside holds to the end, or None if the
    last sample is outside."""
    if not inside[-1]:
        return None
    outside = np.flatnonzero(~inside)
    return float(t[outside[-1] + 1 if outside.size else 0])


def export_csv(trace: Trace, path) -> None:
    """Write the trace as CSV: t,x1..xn,u1..um,y1..ym,dhat1..dhatm,sat."""
    n = trace.x.shape[1]
    m = trace.u.shape[1]
    header = (
        ["t"]
        + [f"x{i+1}" for i in range(n)]
        + [f"u{i+1}" for i in range(m)]
        + [f"y{i+1}" for i in range(m)]
        + [f"dhat{i+1}" for i in range(m)]
        + ["sat"]
    )
    data = np.column_stack((trace.t, trace.x, trace.u, trace.y, trace.d_hat))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        # row by row: data.tolist() would hold ~5x the table's bytes at once
        for row, sat in zip(data, trace.sat.tolist()):
            fh.write(",".join(map(repr, row.tolist())))
            fh.write(f",{int(sat)}\n")
