#!/usr/bin/env python3
"""One-off measurement: ``asdinv simulate`` on all bundled scenarios in one
``cli.main`` call, serial against ``--jobs 2``.

    python3 perfbench/jobs_compare.py

Alternates the two settings, three calls each, starting every call on an
empty output directory. After each call it checks the exit code (the
highest of the scenarios', as ``cli.main`` returns it) and every
scenario's outputs against the scenarios reference, and stops if any
differ. Prints the median wall time of each setting and their ratio as
one JSON line. Not a workload: ``--jobs`` runs scenarios on a thread pool,
so it starts two threads.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
from time import perf_counter

from run import HERE, OUT, cpu_model, import_asdinv

REPEATS = 3


def main() -> None:
    import_asdinv()
    import check
    import workloads
    from asdinv import cli

    reference = json.loads((HERE / "reference" / "scenarios.json").read_text())["outcomes"]
    ops = workloads.ops("scenarios")
    argv = ["simulate"]
    for op in ops:
        argv += ["--scenario", op.scenario]
    expected_code = max(reference[op.key]["exit"] for op in ops)
    work = OUT / "jobs-work"
    times = {1: [], 2: []}
    max_dev = 0.0
    try:
        for rep in range(REPEATS):
            for jobs in ((1, 2) if rep % 2 == 0 else (2, 1)):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = perf_counter()
                    code = cli.main([*argv, "--out", str(work), "--jobs", str(jobs)])
                    times[jobs].append(perf_counter() - t0)
                if code != expected_code:
                    sys.exit(f"--jobs {jobs}: exit code {code}, reference {expected_code}")
                for op in ops:
                    # one call returns one exit code, checked above; each
                    # scenario is compared on its written outputs
                    out = workloads.outcome(op, code, [], work)
                    del out["exit"]
                    ref = {k: v for k, v in reference[op.key].items() if k != "exit"}
                    dev = check.deviation(out, ref)
                    if dev > check.TOLERANCE:
                        sys.exit(f"--jobs {jobs}: {op.key} deviates from reference by {dev:.3g}")
                    max_dev = max(max_dev, dev)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    serial, jobs2 = statistics.median(times[1]), statistics.median(times[2])
    print(json.dumps({
        "serial_s": times[1], "jobs2_s": times[2],
        "median_serial_s": serial, "median_jobs2_s": jobs2,
        "jobs2_over_serial": jobs2 / serial, "max_rel_dev": max_dev, "cpu": cpu_model(),
    }))


if __name__ == "__main__":
    main()
