#!/usr/bin/env python3
"""Sweep the filter time constant on the synthetic scenario and tabulate
the empirical tail against the predicted admissible range.

For each epsilon on a log grid the script simulates the closed loop and
prints the sup-tail of ||x|| next to eta(epsilon) and the ultimate bound,
making the sufficiency (and conservatism) of the bound visible at a
glance. Output is CSV on stdout. The last column, stiff, is 1 when
simulate warned that dt times the spectral radius of the nominal loop
reaches numlin.STIFF_DT_RHO: RK4 does not resolve that loop, so the row's
sup_tail is an integrator artifact, not a control outcome.
"""

import argparse
import sys
import warnings

import numpy as np

from asdinv import (
    SimConfig,
    build_core,
    ControllerSpec,
    metrics,
    simulate,
    synthetic_lti,
)
from asdinv.analysis import bound_report
from asdinv.errors import NonFiniteState


def sweep(points: int, t_final: float) -> None:
    plant = synthetic_lti(g=1.0, S=np.array([[0.05, 0.05]]), d_amp=0.1, d_freq=1.0)
    core = build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])
    rep = bound_report(core, plant.constants)
    print(f"# eps_max = {rep.eps_max:.6g}", file=sys.stderr)
    print("epsilon,eta,ultimate_bound_appendix,sup_tail,diverged,stiff")
    for eps in np.logspace(np.log10(rep.eps_max) - 2, np.log10(rep.eps_max) + 0.5, points):
        r = bound_report(core, plant.constants, epsilon=eps)
        ev = r.eta(eps)
        bound = r.ultimate_appendix if r.ultimate_appendix is not None else float("nan")
        spec = ControllerSpec(core, eps, np.array([-1000.0]), np.array([1000.0]))
        cfg = SimConfig(dt=1e-3, t_final=t_final, x0=np.array([1.0, 0.0]), record_stride=10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                tail = metrics(simulate(plant, spec, cfg)).sup_tail
                diverged = 0
            except NonFiniteState:
                tail = float("nan")
                diverged = 1
        stiff = int(any(issubclass(w.category, UserWarning) for w in caught))
        print(f"{eps:.6g},{ev:.6g},{bound:.6g},{tail:.6g},{diverged},{stiff}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=15)
    ap.add_argument("--t-final", type=float, default=20.0)
    args = ap.parse_args()
    sweep(args.points, args.t_final)
