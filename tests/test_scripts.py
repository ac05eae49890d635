"""Smoke tests of the scripts under scripts/, each run as a subprocess."""

import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_epsilon_sweep_marks_stiff_rows():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "epsilon_sweep.py"), "--points", "2", "--t-final", "0.05"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split(",")[-1] == "stiff"
    # row 1 is eps_max / 100, where dt * rho of the nominal loop is about 11
    assert [row.split(",")[-1] for row in rows] == ["1", "0"]
    # row 1 is admissible and bounded; row 2, at eps_max * 10^0.5, is not
    cols = [dict(zip(header.split(","), row.split(","))) for row in rows]
    assert cols[0]["eta"] == "0.190983"
    assert math.isfinite(float(cols[0]["ultimate_bound_appendix"]))
    assert float(cols[1]["eta"]) < 0
    assert cols[1]["ultimate_bound_appendix"] == "nan"
