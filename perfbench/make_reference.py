#!/usr/bin/env python3
"""Record the reference outcome of every operation of every workload.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/<workload>.json``. The stored outcomes are
what later commits must reproduce, so run this only at the commit whose
outputs define "correct" (the one that added the benchmark), never to make
a failing change pass.
"""

from __future__ import annotations

import json
import platform
import shutil

from run import HERE, OUT, git_sha, import_asdinv


def main() -> None:
    import_asdinv()
    import numpy
    import workloads

    work = OUT / "reference-work"
    work.mkdir(parents=True, exist_ok=True)
    capture = workloads.SimCapture()
    capture.install()
    try:
        for workload in workloads.WORKLOADS:
            outcomes = {}
            for op in workloads.ops(workload):
                result = workloads.run_op(op, work)
                outcomes[op.key] = workloads.outcome(op, result, capture.take(), work)
            path = HERE / "reference" / f"{workload}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({
                "made_at": {"git_sha": git_sha(), "python": platform.python_version(),
                            "numpy": numpy.__version__},
                "outcomes": outcomes,
            }) + "\n")
            exits = {k: v["exit"] for k, v in outcomes.items()}
            print(f"{workload}: {len(outcomes)} operations, exit codes {exits}")
    finally:
        capture.uninstall()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
