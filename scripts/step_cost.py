#!/usr/bin/env python3
"""Microseconds per RK4 step of sim.simulate on the 7 bundled scenarios,
and the traced memory peak of one run.

    python3 scripts/step_cost.py [OTHER_SRC]

Each scenario runs at sim.t_final=0.5, BLAS on one thread, minimum over
interleaved repeats, twice: with its shipped realization ("shipped") and
with the observer realization ("observer"). Given a second checkout's src/,
both copies of asdinv alternate in this process: per kind, columns parent
(OTHER_SRC), change, parent/change. After the timed repeats, each side's
"peak KiB" column is the tracemalloc peak of one simulate plus export_csv
of the shipped realization at the scenario's shipped horizon.
"""

import dataclasses
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

REPEATS = 25
KINDS = ("shipped", "observer")


def load_runs(src) -> dict:
    """Build the runs of the asdinv in src (at t_final 0.5 per kind, and as shipped), then unimport it."""
    sys.path.insert(0, str(src))
    try:
        from asdinv import cli, sim

        def sim_args(sc):
            plant = cli.build_plant(sc)
            return plant, cli.build_controller_spec(sc, cli.build_core(sc, plant)), cli.build_sim_config(sc)

        runs = {}
        for name in cli.BUNDLED:
            plant, spec, cfg = sim_args(cli.load_scenario(name, ("sim.t_final=0.5",)))
            observer = (plant, dataclasses.replace(spec, realization_kind="observer"), cfg)
            kinds = dict(zip(KINDS, ((plant, spec, cfg), observer)))
            runs[name] = (sim, kinds, round(cfg.t_final / cfg.dt), sim_args(cli.load_scenario(name)))
    finally:
        sys.path.pop(0)
        for mod in [k for k in sys.modules if k == "asdinv" or k.startswith("asdinv.")]:
            del sys.modules[mod]
    return runs


def peak_kib(sim, args, path) -> float:
    """tracemalloc peak of one simulate plus export_csv of its trace, in KiB."""
    tracemalloc.start()
    try:
        sim.export_csv(sim.simulate(*args), path)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def main() -> None:
    sides = {"change": load_runs(Path(__file__).resolve().parents[1] / "src")}
    if len(sys.argv) > 1:
        sides = {"parent": load_runs(sys.argv[1]), **sides}
    names = list(sides["change"])
    best = {(side, name, kind): float("inf") for side in sides for name in names for kind in KINDS}
    for r in range(REPEATS):
        for name in names:
            for kind in KINDS:
                for side in (list(sides) if r % 2 else list(reversed(sides))):
                    sim, args, steps, _ = sides[side][name]
                    start = perf_counter()
                    sim.simulate(*args[kind])
                    key = side, name, kind
                    best[key] = min(best[key], (perf_counter() - start) / steps * 1e6)
    peak = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side in sides:
            for name in names:
                sim, _, _, shipped = sides[side][name]
                peak[side, name] = peak_kib(sim, shipped, Path(tmp) / "trace.csv")
    print(f"{'scenario':<18}" + "".join("".join(f"{side + ' ' + kind:>17}" for side in sides)
                                        + "    ratio" * (len(sides) > 1) for kind in KINDS)
          + "".join(f"{side + ' peak KiB':>18}" for side in sides))
    for name in names:
        cells = ""
        for kind in KINDS:
            row = [best[side, name, kind] for side in sides]
            cells += "".join(f"{v:17.1f}" for v in row) + (f"    x{row[0] / row[1]:.2f}" if len(row) > 1 else "")
        print(f"{name:<18}" + cells + "".join(f"{peak[side, name]:18.0f}" for side in sides))


if __name__ == "__main__":
    main()
