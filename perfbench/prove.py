#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/prove.py --workload sweep --seeds 1 2 3 4 5 \\
        [--trace 0] [--out perfbench/results/baseline.json]

Runs ``run.py`` once per seed for BENCHMARK.json's ``run_seconds``, one
run at a time, and prints for every metric the median and the spread
(Q3 - Q1) / median over the runs, with quartiles as
``statistics.quantiles(values, n=4)`` gives them. With
``--out`` the runs and the summary are merged into that JSON file under
the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, quartile_spread


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        runs.append({"seed": seed, "result": result, "detail": detail})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        summary[name] = {
            "unit": first["unit"],
            "median": statistics.median(values),
            "spread": quartile_spread(values),
            "values": values,
        }
        s = summary[name]["spread"]
        print(f"{name:45s} median {summary[name]['median']:.6g} {first['unit']:10s} "
              f"spread {'-' if s is None else f'{s:.4f}'}")

    if args.out:
        data = json.loads(args.out.read_text()) if args.out.is_file() else {}
        key = args.workload + (".trace" if args.trace else "")
        data[key] = {"seconds": seconds, "machine": runs[0]["detail"]["machine"],
                     "summary": summary, "runs": runs}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
