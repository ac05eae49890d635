#!/usr/bin/env python3
"""Microseconds per RK4 step of sim.simulate on the 7 bundled scenarios.

    python3 scripts/step_cost.py [OTHER_SRC]

Each scenario runs at sim.t_final=0.5, BLAS on one thread, minimum over
interleaved repeats. Given a second checkout's src/, both copies of asdinv
alternate in this process: columns parent (OTHER_SRC), change, parent/change.
"""

import os
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

REPEATS = 25


def load_runs(src) -> dict:
    """Build the runs of the asdinv in src, then unimport it for the next copy."""
    sys.path.insert(0, str(src))
    try:
        from asdinv import cli, sim
        runs = {}
        for name in cli.BUNDLED:
            sc = cli.load_scenario(name, ("sim.t_final=0.5",))
            plant, cfg = cli.build_plant(sc), cli.build_sim_config(sc)
            spec = cli.build_controller_spec(sc, cli.build_core(sc, plant))
            runs[name] = (sim.simulate, (plant, spec, cfg), round(cfg.t_final / cfg.dt))
    finally:
        sys.path.pop(0)
        for mod in [k for k in sys.modules if k == "asdinv" or k.startswith("asdinv.")]:
            del sys.modules[mod]
    return runs


def main() -> None:
    sides = {"change": load_runs(Path(__file__).resolve().parents[1] / "src")}
    if len(sys.argv) > 1:
        sides = {"parent": load_runs(sys.argv[1]), **sides}
    best = {(side, name): float("inf") for side in sides for name in sides["change"]}
    for r in range(REPEATS):
        for name in sides["change"]:
            for side in (list(sides) if r % 2 else list(reversed(sides))):
                simulate, args, steps = sides[side][name]
                start = perf_counter()
                simulate(*args)
                best[side, name] = min(best[side, name], (perf_counter() - start) / steps * 1e6)
    print(f"{'scenario':<18}" + "".join(f"{side:>9}" for side in sides) + "    ratio" * (len(sides) > 1))
    for name in sides["change"]:
        row = [best[side, name] for side in sides]
        ratio = f"    x{row[0] / row[1]:.2f}" if len(row) > 1 else ""
        print(f"{name:<18}" + "".join(f"{v:9.1f}" for v in row) + ratio)


if __name__ == "__main__":
    main()
