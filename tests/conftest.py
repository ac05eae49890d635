import math

import numpy as np
import pytest

from asdinv import ControllerSpec, cli, simulate
from asdinv import controller_rt

# the published F-16 gain and output matrix, the oracles for f16.json's design
F16_K = np.array([
    [-27.5037, 93.4020],
    [14.2953, 35.0244],
    [4.5010, 13.9005],
    [12.7039, 58.8096],
])

F16_C = np.array([
    [0.6537, -0.5473],
    [0.6819, 0.7985],
    [0.2285, 0.1961],
    [-0.2354, 0.1561],
])


def shipped(name, *overrides):
    """(plant, spec, cfg) of a bundled scenario as the CLI builds it, after
    --set style overrides; the design is spec.core."""
    return cli.build(cli.load_scenario(name, overrides))


@pytest.fixture(scope="session")
def siso_plant():
    return shipped("siso")[0]


@pytest.fixture(scope="session")
def siso_core():
    return shipped("siso")[1].core


@pytest.fixture(scope="session")
def f16_plant():
    return shipped("f16")[0]


@pytest.fixture(scope="session")
def f16_core():
    return shipped("f16")[1].core


@pytest.fixture(scope="session")
def quad_plant():
    return shipped("quadrotor")[0]


@pytest.fixture(scope="session")
def quad_core():
    return shipped("quadrotor")[1].core


@pytest.fixture(scope="session")
def synthetic_plant():
    return shipped("synthetic")[0]


@pytest.fixture(scope="session")
def synthetic_core():
    return shipped("synthetic")[1].core


@pytest.fixture
def realization_calls(monkeypatch):
    """(kind, spec) for each call of a realization function (spec -> quadruple)."""
    calls = []
    for kind, quadruple in controller_rt._REALIZATIONS.items():
        monkeypatch.setitem(controller_rt._REALIZATIONS, kind,
                            lambda spec, _kind=kind, _f=quadruple: calls.append((_kind, spec)) or _f(spec))
    return calls


def spec_for(core, epsilon, lo, hi, kind=ControllerSpec.realization_kind):
    return ControllerSpec(core=core, epsilon=epsilon, u_min=lo, u_max=hi, realization_kind=kind)


@pytest.fixture(scope="session")
def siso_trace():
    return simulate(*shipped("siso"), with_decomposition=True)


@pytest.fixture(scope="session")
def synthetic_trace():
    return simulate(*shipped("synthetic"), with_decomposition=True)


def sample_constants(plant, u_scale=1.0, x_scale=1.0, grid=5):
    """Finite-difference estimates of a plant's assumption constants.

    Loops over t = 0, 1, ..., 10 s and `grid` seeded draws each of u from
    [-u_scale, u_scale]^m and x from [-x_scale, x_scale]^n, with forward
    differences of step 1e-6 in t and u. The estimates are lower bounds on
    the suprema the constants bound, so a test may compare them with a
    declared constant but never take them for one.
    """
    fd_step = 1e-6
    m, n = plant.m, plant.n
    rng = np.random.default_rng(0)
    us = rng.uniform(-u_scale, u_scale, size=(grid, m))
    xs = rng.uniform(-x_scale, x_scale, size=(grid, n))

    l_ht = 0.0
    dhdu_min = math.inf
    dhdu_max = 0.0
    sig_t = 0.0
    sig0 = 0.0
    for t in np.linspace(0.0, 10.0, 11):
        for u in us:
            for x in xs:
                h0 = plant.h(t, u, x)
                ht = plant.h(t + fd_step, u, x)
                du_norm = max(np.linalg.norm(u), 1e-9)
                l_ht = max(l_ht, np.linalg.norm(ht - h0) / fd_step / du_norm)
                J = np.empty((m, m))
                for j in range(m):
                    up = u.copy()
                    up[j] += fd_step
                    J[:, j] = (plant.h(t, up, x) - h0) / fd_step
                sym = np.linalg.eigvalsh((J + J.T) / 2)
                dhdu_min = min(dhdu_min, float(sym[0]))
                dhdu_max = max(dhdu_max, float(np.linalg.norm(J, 2)))
                s0 = plant.sigma(t, x)
                st = plant.sigma(t + fd_step, x)
                sig_t = max(sig_t, np.linalg.norm(st - s0) / fd_step)
        sig0 = max(sig0, float(np.linalg.norm(plant.sigma(t, np.zeros(n)))))
    return {
        "l_ht_est": float(l_ht),
        "l_hu_low_est": float(dhdu_min),
        "l_hu_high_est": float(dhdu_max),
        "sigma_t_est": float(sig_t),
        "sigma_at_zero_est": float(sig0),
    }


# scenario overrides whose Theorem-2 terms leave the float range, and the term each names
OUT_OF_RANGE = [
    ("quadrotor", ["plant.J_scale=1e-160"],
     r"^the filter term \(2/gamma0\)\(gamma2 \+ l_sigma_t\)\^2 overflows$"),
    ("synthetic", ["plant.S=[[1e200,1e200]]"], r"^the filter term .* overflows$"),
    ("synthetic", ["plant.g=4e-301", "plant.S=[[1e10,1e10]]"],
     r"^eps_max = 1\.2\de-322 is too small: eps_grid is not all positive$"),
]
OUT_OF_RANGE_IDS = ["quadrotor_filter_term", "synthetic_filter_term", "synthetic_eps_grid"]
