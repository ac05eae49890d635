#!/usr/bin/env python3
"""Run design, simulate, verify, and bound on every bundled scenario.

Writes per-scenario outputs under --out (default ./out) and prints one
summary line per command. Scenarios without assumption constants skip
the bound command instead of failing the batch.
"""

import argparse
import sys

from asdinv.cli import BUNDLED, EXIT_CONSTANTS, main as cli_main


def run(out: str) -> int:
    worst = 0
    for command in ("design", "simulate", "verify"):
        refs = [a for name in BUNDLED for a in ("--scenario", name)]
        code = cli_main([command, *refs, "--out", out])
        print(f"== {command}: exit {code}")
        worst = max(worst, code)
    for name in BUNDLED:
        code = cli_main(["bound", "--scenario", name, "--out", out])
        if code == EXIT_CONSTANTS:
            print(f"== bound {name}: skipped (no assumption constants)")
            continue
        print(f"== bound {name}: exit {code}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out")
    args = ap.parse_args()
    sys.exit(run(args.out))
