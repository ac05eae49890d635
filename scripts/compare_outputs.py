#!/usr/bin/env python3
"""Check that the CLI's outputs match a second checkout's byte for byte.

    python3 scripts/compare_outputs.py OTHER_SRC

Runs design, simulate, verify and bound on the 7 bundled scenarios, once
per checkout (OTHER_SRC, then this checkout's src/), each command as one
subprocess `python -m asdinv.cli <cmd> --scenario <all 7> --out <tmp>/<side>/<cmd>`
with PYTHONPATH set to that src and BLAS on one thread. Compares the exit
codes, stdout, stderr and every output file, with each side's src and output
paths replaced by placeholders. Prints the items that differ and exits 1
when any do. Takes about a minute per side.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ("design", "simulate", "verify", "bound")

sys.path.insert(0, str(SRC))
from asdinv.cli import BUNDLED  # noqa: E402


def run_side(src: Path, out: Path) -> dict:
    """{item: bytes} for each command's exit code, stdout, stderr and output files."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

    def scrub(text: bytes) -> bytes:
        return text.replace(os.fsencode(src), b"<src>").replace(os.fsencode(out), b"<out>")

    items = {}
    out.mkdir(parents=True)
    for cmd in COMMANDS:
        argv = [sys.executable, "-m", "asdinv.cli", cmd, "--out", str(out / cmd)]
        for name in BUNDLED:
            argv += ["--scenario", name]
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=out)
        items[f"{cmd}: exit code"] = str(proc.returncode).encode()
        items[f"{cmd}: stdout"] = scrub(proc.stdout)
        items[f"{cmd}: stderr"] = scrub(proc.stderr)
        for path in sorted((out / cmd).rglob("*")):
            if path.is_file():
                items[f"{cmd}: {path.relative_to(out / cmd)}"] = path.read_bytes()
    return items


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        other = run_side(Path(sys.argv[1]).resolve(), Path(tmp) / "other")
        this = run_side(SRC, Path(tmp) / "this")
    names = sorted(other.keys() | this.keys())
    differ = [name for name in names if other.get(name) != this.get(name)]
    for name in differ:
        missing = " (missing in OTHER_SRC)" if name not in other else " (missing here)" if name not in this else ""
        print(f"differs: {name}{missing}")
    print(f"{len(COMMANDS)} commands x {len(BUNDLED)} scenarios: {len(names)} items compared, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
