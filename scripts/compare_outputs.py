#!/usr/bin/env python3
"""Check that the CLI's outputs match a second checkout's byte for byte.

    python3 scripts/compare_outputs.py OTHER_SRC

Runs design, simulate, verify and bound on the 7 bundled scenarios, once
per checkout (OTHER_SRC, then this checkout's src/), each command as one
subprocess `python -m asdinv.cli <cmd> --scenario <all 7> --out <tmp>/<side>/<cmd>`
with PYTHONPATH set to that src and BLAS on one thread. Then runs each
command of EDGE_CASES (below, each with its reason) as one subprocess.
Compares the exit codes, stdout, stderr and every output file, with each
side's src and output paths replaced by placeholders, and each warning's
`<file>:<line>:` location and the source line echoed below it scrubbed, so
that moving code does not show as a difference. Prints the items that
differ, then each side's line total of src/asdinv/*.py, and exits 1 when
any item differs. Takes about a minute per side.
"""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ("design", "simulate", "verify", "bound")
EDGE_CASES = (
    # a stiff verify whose observer run diverges; each run warns
    ("verify", "--scenario", "siso", "--set", "epsilon=0.0002", "--set", "sim.t_final=0.01"),
    # a diverging simulate, which still writes its truncated trace
    ("simulate", "--scenario", "delay_demo", "--set", "epsilon=0.001",
     "--set", "saturation.min=-1e12", "--set", "saturation.max=1e12"),
    # a design fault: -7 is not an eigenvalue of A
    ("design", "--scenario", "siso", "--set", "design.select=[-7]"),
    # a rejected epsilon
    ("simulate", "--scenario", "siso", "--set", "epsilon=-1"),
    # an integer t_final
    ("simulate", "--scenario", "synthetic", "--set", "sim.t_final=1"),
    # an integer epsilon and integer saturation bounds
    ("simulate", "--scenario", "siso", "--set", "epsilon=1", "--set", "saturation.min=-5",
     "--set", "saturation.max=5", "--set", "sim.t_final=1"),
    # an epsilon that overflows a float
    ("design", "--scenario", "siso", "--set", "epsilon=1e999"),
    # a 2x2 quadrotor inertia
    ("design", "--scenario", "quadrotor", "--set", "plant.J0_diag=[0.03,0.03]"),
    # a flat quadrotor K
    ("design", "--scenario", "quadrotor", "--set", "design.K=[0,0,0,0,0,0,0,0,0]"),
    # a design.select that is not a list
    ("design", "--scenario", "siso", "--set", "design.select=1"),
    # a bound past eps_max: eta < 0, so both ultimate bounds are null
    ("bound", "--scenario", "synthetic", "--set", "epsilon=0.05"),
    # design failure: poles that are not Hurwitz
    ("design", "--scenario", "siso", "--set", "design.poles=[1.0,-2.0,-3.0]"),
    # design failure: a complex spectrum
    ("design", "--scenario", "f16", "--set", "design.K=[[0,0],[0,0],[0,0],[0,0]]"),
    # design failure: a gain of the wrong shape
    ("design", "--scenario", "f16", "--set", "design.K=[[0,0]]"),
    # design failure: too few selected eigenvalues
    ("design", "--scenario", "f16", "--set", "design.select=[-1.0]"),
    # design failure: a singular C^T B
    ("design", "--scenario", "quadrotor", "--set", "design.select=[-1.0,-1.0,-15.0]"),
    # a verify whose scenario run is the observer with its decomposition states
    ("verify", "--scenario", "quadrotor", "--set", "realization=observer", "--set", "sim.t_final=0.5"),
    # an epsilon so small that the controller gains overflow
    ("design", "--scenario", "siso", "--set", "epsilon=1e-308"),
    # poles so large that the placement overflows
    ("design", "--scenario", "siso", "--set", "design.poles=[-1e200,-2e200,-3e200]"),
    # gains that fit a float but overflow the stiffness guard's loop matrix
    ("simulate", "--scenario", "quadrotor", "--set", "epsilon=2e-308", "--set", "sim.t_final=0.01"),
    # recorded samples over simulate's byte budget, in simulate and in verify
    ("simulate", "--scenario", "quadrotor", "--set", "sim.t_final=9000", "--set", "sim.record_stride=1"),
    ("verify", "--scenario", "quadrotor", "--set", "sim.t_final=9000", "--set", "sim.record_stride=1"),
    # a batch that repeats a stiff scenario: each run prints its own warning
    ("simulate", "--scenario", "synthetic", "--scenario", "synthetic", "--scenario", "siso",
     "--set", "epsilon=0.0002", "--set", "sim.t_final=0.01"),
    # a t_final that is not a whole number of dt steps
    ("simulate", "--scenario", "synthetic", "--set", "sim.t_final=1", "--set", "sim.record_stride=1",
     "--set", "sim.dt=0.3"),
    # bounds whose Theorem-2 terms leave the float range: a config error, no bound.json
    ("bound", "--scenario", "quadrotor", "--set", "plant.J_scale=1e-160"),
    ("bound", "--scenario", "synthetic", "--set", "plant.S=[[1e200,1e200]]"),
    ("bound", "--scenario", "synthetic", "--set", "plant.g=4e-301", "--set", "plant.S=[[1e10,1e10]]"),
    # a diverging simulate whose first step overflows: no numpy warnings on stderr
    ("simulate", "--scenario", "siso", "--set", "sim.x0=[1e300,1,1]", "--set", "sim.t_final=0.01"),
    # an eps_max near the float floor: 1/epsilon overflows at eps_grid's first entry, silently
    ("bound", "--scenario", "synthetic", "--set", "plant.S=[[1e152,1e152]]"),
    # a simulate whose summary.json config has a non-default realization and stride: 101 rows
    ("simulate", "--scenario", "quadrotor", "--set", "realization=observer", "--set", "sim.record_stride=7",
     "--set", "sim.t_final=0.7"),
    # a verify that passes only because stride 1000 records no row after t = 0 (ROADMAP item 14)
    ("verify", "--scenario", "siso", "--set", "epsilon=0.01", "--set", "sim.t_final=0.5",
     "--set", "sim.record_stride=1000"),
    # a quadrotor omega other than 15: the inner gain Kbar places each channel at {-20, -3, -1}
    ("design", "--scenario", "quadrotor", "--set", "plant.omega=20"),
    # an omega the Krylov rank test calls uncontrollable: build_core refuses it, not the plant
    ("design", "--scenario", "quadrotor", "--set", "plant.omega=1e5"),
    # an omega whose [B, AB, ..., A^8 B] overflows: one line naming the overflow, no numpy warning
    ("design", "--scenario", "quadrotor", "--set", "plant.omega=1e40"),
    # an omega whose inner gain Kbar leaves the float range: one line naming omega
    ("design", "--scenario", "quadrotor", "--set", "plant.omega=1e308"),
)
# "<file>:<line>: <Category>: <message>" and the "  <source line>" below it
WARNING = re.compile(rb"^\S+:\d+: (\w+: .*\n)(?:  .*\n)?", re.MULTILINE)

sys.path.insert(0, str(SRC))
from asdinv.cli import BUNDLED  # noqa: E402


def run_side(src: Path, out: Path) -> dict:
    """{item: bytes} for each command's exit code, stdout, stderr and output files."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

    def scrub(text: bytes) -> bytes:
        text = text.replace(os.fsencode(src), b"<src>").replace(os.fsencode(out), b"<out>")
        return WARNING.sub(rb"<where>: \1", text)

    runs = [(cmd, cmd, [cmd] + [arg for name in BUNDLED for arg in ("--scenario", name)])
            for cmd in COMMANDS]
    runs += [(" ".join(case), f"edge{i}", list(case)) for i, case in enumerate(EDGE_CASES)]
    items = {}
    out.mkdir(parents=True)
    for label, subdir, args in runs:
        argv = [sys.executable, "-m", "asdinv.cli", *args, "--out", str(out / subdir)]
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=out)
        items[f"{label}: exit code"] = str(proc.returncode).encode()
        items[f"{label}: stdout"] = scrub(proc.stdout)
        items[f"{label}: stderr"] = scrub(proc.stderr)
        for path in sorted((out / subdir).rglob("*")):
            if path.is_file():
                items[f"{label}: {path.relative_to(out / subdir)}"] = path.read_bytes()
    return items


def src_lines(src: Path) -> int:
    return sum(len(path.read_bytes().splitlines()) for path in (src / "asdinv").glob("*.py"))


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    other_src = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        other = run_side(other_src, Path(tmp) / "other")
        this = run_side(SRC, Path(tmp) / "this")
    names = sorted(other.keys() | this.keys())
    differ = [name for name in names if other.get(name) != this.get(name)]
    for name in differ:
        missing = " (missing in OTHER_SRC)" if name not in other else " (missing here)" if name not in this else ""
        print(f"differs: {name}{missing}")
    print(f"{len(COMMANDS)} commands x {len(BUNDLED)} scenarios and {len(EDGE_CASES)} edge cases: "
          f"{len(names)} items compared, {len(differ)} differ")
    print(f"src/asdinv/*.py lines: {src_lines(other_src)} in OTHER_SRC, {src_lines(SRC)} here")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
