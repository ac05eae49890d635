"""Uncertain-plant interface and the built-in benchmark plants.

Every plant is the linear-in-state form

    x' = A0 x + B (h(t, u, x) + sigma(t, x))

with an unknown input map h and an unknown state/time disturbance sigma.
The input map takes the full state as a third argument because the F-16
benchmark's input nonlinearities also depend on the state; plants with a
purely input-dependent h simply ignore it.

Both maps take one sample (t scalar, u (m,), x (n,)) and return (m,), or N
rows (t (N,), u (N, m), x (N, n)) and return (N, m). They index x.T and u.T,
which on one sample are x and u, so one sample costs the scalar arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .numlin import as_float

__all__ = [
    "AssumptionConstants",
    "UncertainPlant",
    "QuadrotorConfig",
    "hsu_siso",
    "f16_rollyaw",
    "quadrotor_attitude",
    "synthetic_lti",
    "dead_zone",
    "delayed_input_lti",
]


@dataclass(frozen=True)
class AssumptionConstants:
    """Known bounds on the uncertainty evaluators.

    l_ht, l_hu_low, l_hu_high bound the input map's time derivative and
    input Jacobian; k_sigma, delta_sigma, l_sigma_x, l_sigma_t, d_sigma
    bound the disturbance and its derivatives.
    """

    l_ht: float = 0.0
    l_hu_low: float = 1.0
    l_hu_high: float = 1.0
    k_sigma: float = 0.0
    delta_sigma: float = 0.0
    l_sigma_x: float = 0.0
    l_sigma_t: float = 0.0
    d_sigma: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, as_float(getattr(self, f.name), f.name))
        if not self.l_hu_low > 0:
            raise ValueError("l_hu_low must be positive")
        if not self.l_hu_low <= self.l_hu_high:
            raise ValueError("l_hu_low must not exceed l_hu_high")
        for name in ("l_ht", "k_sigma", "delta_sigma", "l_sigma_x", "l_sigma_t", "d_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class UncertainPlant:
    """x' = A0 x + B (h(t, u, x) + sigma(t, x)); h, sigma take one sample or N rows."""

    name: str
    A0: np.ndarray
    B: np.ndarray
    h: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    sigma: Callable[[float, np.ndarray], np.ndarray]
    constants: Optional[AssumptionConstants] = None
    input_delay: float = 0.0  # h receives u(t - input_delay) when > 0
    meta: dict = field(default_factory=dict)  # quadrotor_attitude's inner gain Kbar

    def __post_init__(self):
        A0 = np.asarray(self.A0, dtype=float)
        B = np.asarray(self.B, dtype=float)
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "B", B)
        if B.ndim != 2 or A0.shape != (len(B), len(B)):
            raise ValueError("B must be n x m and A0 n x n")

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def hsu_siso() -> UncertainPlant:
    """Third-order SISO benchmark with a nonlinear input gain.

    h(t, u) = (0.5 + 0.3 sin u + exp(0.2 |cos u|)) u
    sigma(t, x) = (0.3 + 0.2 cos x1) ||x|| - 0.5 sin x2
    """
    A0 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -3.0, -1.0]])
    B = np.array([[0.0], [0.0], [1.0]])

    def h(t, u, x):
        ui = u.T[0]
        return np.array([(0.5 + 0.3 * np.sin(ui) + np.exp(0.2 * abs(np.cos(ui)))) * ui]).T

    def sigma(t, x):
        xt = x.T
        r = np.sqrt(xt[0] * xt[0] + xt[1] * xt[1] + xt[2] * xt[2])
        return np.array([(0.3 + 0.2 * np.cos(xt[0])) * r - 0.5 * np.sin(xt[1])]).T

    return UncertainPlant("hsu_siso", A0, B, h, sigma)


def f16_rollyaw(f2_typo_fix: bool = False) -> UncertainPlant:
    """Lateral/directional F-16 model with aileron/rudder nonlinearities.

    State [beta, phi, p_s, r_s], inputs [delta_a, delta_r]. The published
    f2 expression contains tanh(delta_a - h2) where delta_r would be
    expected; the printed form is the default, f2_typo_fix=True swaps in
    delta_r.
    """
    if not isinstance(f2_typo_fix, (bool, np.bool_)):
        raise ValueError(f"f2_typo_fix must be true or false, not {f2_typo_fix!r}")
    A0 = np.array([
        [-0.3220, 0.064, 0.0364, -0.9917],
        [0.0, 0.0, 1.0, 0.0393],
        [-30.6490, 0.0, -3.6784, 0.6646],
        [8.5395, 0.0, -0.0254, -0.4764],
    ])
    B = np.array([[0.0, 0.0], [0.0, 0.0], [-0.7331, 0.1315], [-0.0319, -0.0620]])
    # input-nonlinearity constants, bound once for h
    A1, A2, A3, A4 = 0.33, 0.195, 0.45, 1.85
    D1, D2, D3, D4 = 0.295, -0.0865, 0.055, -0.007
    w1, w2, w3, w4 = 1.6, 0.0, -1.9, 0.0
    C1, C2, h1, h2 = 0.3, 0.3, 7.0, 2.7
    width1, width2, beta0 = 0.25, 0.25, 0.0
    g1, g2, s1, s2 = 1 - C1, 1 - C2, 2 * width1 ** 2, 2 * width2 ** 2

    def h(t, u, x):
        xt, ut = x.T, u.T
        beta, ps, rs = xt[0], xt[2], xt[3]
        da, dr = ut[0], ut[1]
        db2 = -((beta - beta0) ** 2)
        gauss1 = g1 * np.exp(db2 / s1) + C1
        gauss2 = g2 * np.exp(db2 / s2) + C2
        f1 = (
            gauss1 * (np.tanh(da + h1) + np.tanh(da - h1) + 0.001 * da)
            + D1 * np.cos(A1 * ps - w1) * np.sin(A2 * rs - w2)
            + D2
        )
        second = dr if f2_typo_fix else da
        f2 = (
            gauss2 * (np.tanh(dr + h2) + np.tanh(second - h2) + 0.001 * dr)
            + D3 * np.cos(A3 * ps - w3) * np.sin(A4 * rs - w4)
            + D4
        )
        return np.array([da + f1, dr + f2]).T

    def sigma(t, x):
        return np.zeros(x.shape[:-1] + (2,))

    return UncertainPlant("f16_rollyaw", A0, B, h, sigma)


@dataclass(frozen=True)
class QuadrotorConfig:
    omega: float = 15.0
    J0: np.ndarray = field(default_factory=lambda: np.diag([0.03, 0.03, 0.04]))
    J_true: Optional[np.ndarray] = None  # defaults to J0 (no uncertainty)

    def __post_init__(self):
        J0 = as_float(self.J0, "J0", array=True)
        object.__setattr__(self, "J0", J0)
        Jt = J0.copy() if self.J_true is None else as_float(self.J_true, "J_true", array=True)
        object.__setattr__(self, "J_true", Jt)
        object.__setattr__(self, "omega", as_float(self.omega, "omega"))
        if not self.omega > 0:
            raise ValueError("actuator bandwidth must be positive")
        for name, J in (("J0", J0), ("J_true", Jt)):
            if J.shape != (3, 3) or not np.allclose(J, J.T):
                raise ValueError(f"{name} must be 3x3 symmetric")
            if np.min(np.linalg.eigvalsh(J)) <= 0:
                raise ValueError(f"{name} must be positive definite")


def quadrotor_attitude(cfg: QuadrotorConfig | None = None) -> UncertainPlant:
    """Nine-state attitude model: three decoupled [angle, rate, torque] channels.

    The plant matrix already includes the stabilizing inner gain Kbar, which
    places each channel's spectrum at {-omega, -3, -1}, so the outer design
    uses K = 0 for any omega > 0. Inertia mismatch enters as
    h(t, u) = G u and sigma(t, x) = (G - I) Kbar^T x with G = J^-1 J0, so
    the assumption constants are l_hu_low = lambda_min(sym G),
    l_hu_high = ||G|| and k_sigma = l_sigma_x = ||(G - I) Kbar^T||, the rest
    0; the plant carries none where lambda_min(sym G) <= 0.
    """
    cfg = cfg or QuadrotorConfig()
    om = cfg.omega
    A0c = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -om]])
    B0c = np.array([[0.0], [0.0], [om]])
    Abar = np.kron(np.eye(3), A0c)
    B = np.kron(np.eye(3), B0c)
    # s^3 + omega (1 - k3) s^2 - omega k2 s - omega k1 = (s + omega)(s + 3)(s + 1);
    # at omega = 15 it rounds to the published [-3.0, -4.2, -0.27]
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite A0, refused below
        Kbar = np.kron(np.eye(3), np.array([[-3.0], [-(4 * om + 3) / om], [-4 / om]]))
        A0 = Abar + B @ Kbar.T
    if not np.all(np.isfinite(A0)):
        raise ValueError(f"omega = {om} puts the inner-loop gain Kbar out of the float range")

    G = np.linalg.solve(cfg.J_true, cfg.J0)  # J^-1 J0
    Gm1_K = (G - np.eye(3)) @ Kbar.T
    l_hu_low = float(np.linalg.eigvalsh((G + G.T) / 2)[0])
    # lambda_min(sym G) <= ||G|| exactly, but rounding can reverse them when G ~ c I
    l_hu_high = max(float(np.linalg.norm(G, 2)), l_hu_low)
    k_sigma = float(np.linalg.norm(Gm1_K, 2))
    consts = AssumptionConstants(l_hu_low=l_hu_low, l_hu_high=l_hu_high, k_sigma=k_sigma,
                                 l_sigma_x=k_sigma) if l_hu_low > 0 else None

    def h(t, u, x):
        return G.dot(u.T).T

    def sigma(t, x):
        return Gm1_K.dot(x.T).T

    return UncertainPlant("quadrotor_attitude", A0, B, h, sigma, constants=consts, meta={"Kbar": Kbar})


def synthetic_lti(
    g: float = 1.0,
    S: np.ndarray | None = None,
    d_amp: float = 0.0,
    d_freq: float = 1.0,
) -> UncertainPlant:
    """Single-input double integrator with every assumption constant known
    in closed form.

    x' = [[0, 1], [0, 0]] x + [0, 1]^T (h + sigma), with h(t, u) = g u and
    sigma(t, x) = S x + d_amp sin(d_freq t); S is 1 x 2 (zero by default).
    """
    g, d_amp, d_freq = as_float(g, "g"), as_float(d_amp, "d_amp"), as_float(d_freq, "d_freq")
    if not g > 0:
        raise ValueError("input gain g must be positive")
    A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    S = np.zeros((1, 2)) if S is None else as_float(S, "S", array=True).reshape(1, 2)

    s_norm = float(np.linalg.norm(S, 2))
    consts = AssumptionConstants(
        l_hu_low=g, l_hu_high=g, k_sigma=s_norm, l_sigma_x=s_norm,
        delta_sigma=abs(d_amp), d_sigma=abs(d_amp) * d_freq,
    )

    def h(t, u, x):
        return g * u

    def sigma(t, x):
        return (S.dot(x.T) + d_amp * np.sin(d_freq * t)).T

    return UncertainPlant("synthetic_lti", A0, B, h, sigma, constants=consts)


def dead_zone(mu: float):
    """Decorator wrapping a plant's input map with a componentwise dead zone.

    Inputs with |u_i| < mu are zeroed before reaching the original h;
    equivalently h(t, u) = h0(t, u + delta(t)) with ||delta|| <= mu sqrt(m).
    The wrapped plant carries no assumption constants: h has slope 0 on
    |u_i| < mu, so no positive l_hu_low bounds its input Jacobian.
    """
    mu = as_float(mu, "mu")
    if not mu > 0:
        raise ValueError("dead-zone width must be positive")

    def wrap(plant: UncertainPlant) -> UncertainPlant:
        inner = plant.h

        def h(t, u, x):
            uz = np.where(np.abs(u) >= mu, u, 0.0)
            return inner(t, uz, x)

        return replace(plant, name=plant.name + "+deadzone", h=h, constants=None)

    return wrap


def delayed_input_lti(tau: float, **synthetic_kwargs) -> UncertainPlant:
    """Synthetic plant whose input map sees u(t - tau).

    The simulator feeds h with u = 0 before t = tau, and after that with
    the linear interpolation of the input samples taken at the step
    points. Used to demonstrate that an aggressive filter constant
    destabilizes a delayed loop while a conservative one stays bounded.
    """
    tau = as_float(tau, "tau")
    if not tau > 0:
        raise ValueError("delay must be positive")
    base = synthetic_lti(**synthetic_kwargs)
    return replace(base, name="delayed_lti", input_delay=tau, constants=None)
