#!/usr/bin/env python3
"""asdinv benchmark: one closed-loop client driving the library in-process.

    python3 perfbench/run.py --workload {scenarios,verify,sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; asdinv is imported from ``src/``
of that checkout and nothing is installed. One single-threaded process
runs one operation at a time, each starting after the previous one ends.

Workloads (an operation in brackets):
  scenarios  [``asdinv simulate`` on one bundled scenario at its shipped
             settings, writing trace.csv and summary.json]
  verify     [``asdinv verify`` on one bundled scenario, 3 s horizon]
  sweep      [one library-API point: plant, build_core, bound_report,
             simulate, metrics, lyapunov_certificate when undelayed]

A pass runs every operation of the workload once, in an order drawn from
the seed; the run repeats passes until ``--seconds`` have elapsed. Every
metric is normalized by whole passes, so the operation mix is the same in
every run.

Each operation's outcome is checked against ``reference/<workload>.json``
(made by ``make_reference.py`` at the commit that defined the benchmark):
same exit code and flags, numbers within 1e-12 relative.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-module metrics (per pass)
and the tracing overhead. The last stdout line is the result JSON; the
line before it carries run details (percentile used, machine, spreads).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# numpy's BLAS pool would start one thread per core; the matrices are n <= 9
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_PROBES = 11
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "sim_steps_per_s": "1/s",
    "ok_ops_frac": "frac",
    "peak_rss_mb": "MB",
}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_asdinv():
    """Import asdinv from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "asdinv" / "__init__.py").is_file():
        fail(f"no asdinv sources under {src}; run from the root of a source checkout")
    sys.path.insert(0, str(src))
    import asdinv

    if Path(asdinv.__file__).resolve().parent != (src / "asdinv").resolve():
        fail(f"imported asdinv from {asdinv.__file__}, not from {src}")
    return asdinv


def setup_probe(workload: str) -> float:
    """Import asdinv and design every input of the workload, in a fresh process."""
    t0 = perf_counter()
    import_asdinv()
    import workloads

    workloads.design(workload)
    return perf_counter() - t0


class SetupProbes:
    """Fresh-process set-up probes, spaced evenly over the measured seconds.

    The machine's speed drifts between regimes over tens of seconds, so
    probes taken back to back all land in one regime; spread over the run,
    their median covers the same mix of regimes as the operations do.
    ``due`` is called between operations, and runs a probe when the next
    one's time has come.
    """

    def __init__(self, workload: str, seconds: float):
        self.workload, self.seconds = workload, seconds
        self.values: list[float] = []
        self.start = perf_counter()

    def probe(self):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", self.workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        self.values.append(float(proc.stdout.strip().splitlines()[-1]))

    def due(self):
        next_at = len(self.values) * self.seconds / SETUP_PROBES
        if len(self.values) < SETUP_PROBES and perf_counter() - self.start >= next_at:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.values) < SETUP_PROBES:
            self.probe()
        return self.values


def speed_probe() -> float:
    """Median time of a fixed small numpy loop.

    The machine is shared, and its speed drifts by tens of percent over
    minutes; taken at the start and end of a run, this shows which regime
    a run measured in.
    """
    import numpy as np

    A = np.eye(4)
    times = []
    for _ in range(5):
        x = np.ones(4)
        t0 = perf_counter()
        for _ in range(5000):
            x = A @ x + 0.0 * np.sin(x)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # the benchmark's checkout is not a git repository


def quartile_spread(values) -> float | None:
    """(Q3 - Q1) / median, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class Runner:
    """Runs passes of one workload and checks every operation's outcome."""

    def __init__(self, workload: str, seed: int):
        import check
        import workloads

        self.check, self.workloads = check, workloads
        ref_path = HERE / "reference" / f"{workload}.json"
        if not ref_path.is_file():
            fail(f"missing reference outcomes {ref_path}")
        self.reference = json.loads(ref_path.read_text())["outcomes"]
        self.ops = workloads.ops(workload)
        missing = [op.key for op in self.ops if op.key not in self.reference]
        if missing:
            fail(f"no reference outcome for {missing}")
        self.rng = random.Random(seed)
        self.work = OUT / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.capture = workloads.SimCapture()
        self.capture.install()
        self.failures: list[str] = []
        self.max_dev = 0.0

    def order(self) -> list:
        return self.rng.sample(self.ops, len(self.ops))

    def run_pass(self, order, tracer=None, between=None) -> list[tuple[str, float, int]]:
        """(key, wall time, RK4 steps) per operation, in order.

        ``between`` is called before each operation, outside its timing.
        """
        wrap_plant = tracer.wrap_plant if tracer else (lambda plant: plant)
        samples = []
        for index, op in enumerate(order):
            if between:
                between()
            if tracer:
                tracer.op = index
            if op.command:  # no output of an earlier pass may pass the check
                shutil.rmtree(self.work / op.scenario, ignore_errors=True)
            error = None
            t0 = perf_counter()
            try:
                result = self.workloads.run_op(op, self.work, wrap_plant)
            except Exception as exc:  # an unexpected exception fails the operation
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            runs = self.capture.take()
            samples.append((op.key, elapsed, self.workloads.rk4_steps(runs)))
            if error is None:
                try:
                    out = self.workloads.outcome(op, result, runs, self.work)
                except Exception as exc:  # a missing or malformed output fails it too
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error is None:
                dev = self.check.deviation(out, self.reference[op.key])
                self.max_dev = max(self.max_dev, dev)
                if dev > self.check.TOLERANCE:
                    error = f"deviates from reference by {dev:.3g} relative"
            if error is not None:
                self.failures.append(f"{op.key}: {error}")
        return samples

    def close(self):
        self.capture.uninstall()
        shutil.rmtree(self.work, ignore_errors=True)


def tail(times: list[float]) -> tuple[float, int]:
    """Highest listed percentile with at least ten samples beyond it."""
    import numpy as np

    n = len(times)
    pct = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= TAIL_MIN_BEYOND), 50)
    return float(np.percentile(times, pct)), pct


def end_to_end(runner: Runner, workload: str, seconds: float):
    passes = []
    probes = SetupProbes(workload, seconds)
    start = perf_counter()
    while True:
        passes.append(runner.run_pass(runner.order(), between=probes.due))
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            break
    setup = probes.finish()
    samples = [s for p in passes for s in p]
    times = [t for _, t, _ in samples]
    busy = sum(times)
    attempted = len(samples)
    failed = len(runner.failures)
    tail_value, tail_pct = tail(times)
    pass_rates = [len(p) / sum(t for _, t, _ in p) for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": attempted / busy,
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_value,
        "sim_steps_per_s": sum(s for _, _, s in samples) / busy,
        "ok_ops_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "passes": len(passes),
        "measured_s": elapsed,
        "op_s.tail_percentile": tail_pct,
        "op_s.samples": attempted,
        "failed_ops_frac": failed / attempted,
        "ops_per_s.pass_spread": quartile_spread(pass_rates),
        "setup_s.probes": setup,
        "samples": samples,
    }
    return attempted, True, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, detail


# per-layer metrics: (name, unit); busy times and counts are per traced pass
LAYER_BUSY = (
    "sim.simulate", "plants.h", "plants.sigma", "controller_rt.unsat_output",
    "controller_rt.derivative", "controller_rt.x_to_u_response", "sim.export_csv",
    "sim.metrics", "asd_design.build_core", "asd_design.verify_theorem1",
    "numlin.real_eig", "numlin.solve_lyapunov", "numlin.controllability_rank",
    "analysis.bound_report", "analysis.lyapunov_certificate", "cli.load_scenario", "cli.main",
)
LAYER_CALLS = (
    "plants.h", "plants.sigma", "controller_rt.unsat_output", "controller_rt.derivative",
    "asd_design.build_core", "numlin.real_eig", "numlin.solve_lyapunov",
    "numlin.controllability_rank",
)
LAYER_SELF = ("sim.simulate", "cli.main")
# sim.simulate evaluates the RHS four times per RK4 step, and each
# evaluation calls these once
FOUR_PER_STEP = ("plants.h", "plants.sigma", "controller_rt.derivative")
# traced sim.simulate encloses SimCapture's clock; what lies between them
# is two call frames per simulation, far below these allowances
WRAP_SLACK_FRAC = 1e-3
WRAP_SLACK_S = 1e-3


def per_layer(runner: Runner, workload: str, seed: int, seconds: float):
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, steps, sim_wall = [], [], 0, 0.0
    start = perf_counter()
    while True:
        order = runner.order()
        untraced.append(sum(t for _, t, _ in runner.run_pass(order)))
        wall0 = runner.capture.wall_s
        with tracer.installed():
            samples = runner.run_pass(order, tracer)
        sim_wall += runner.capture.wall_s - wall0
        traced.append(sum(t for _, t, _ in samples))
        steps += sum(s for _, _, s in samples)
        if perf_counter() - start >= seconds:
            break
    n = len(traced)
    metrics = {}
    for name in LAYER_BUSY:
        metrics[f"{name}.busy_s"] = (tracer.busy[name] / n, "s")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "count")
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = (tracer.self_time[name] / n, "s")
    metrics["sim.rk4_steps"] = (steps / n, "count")
    metrics["controller_rt.unsat_output.calls_per_step"] = (
        tracer.calls["controller_rt.unsat_output"] / steps if steps else 0.0, "calls/step")
    metrics["sim.export_csv.bytes"] = (tracer.counts["sim.export_csv.bytes"] / n, "B")
    t_med, u_med = statistics.median(traced), statistics.median(untraced)
    metrics["trace.overhead_s"] = (t_med - u_med, "s")
    metrics["trace.overhead_frac"] = (t_med / u_med - 1.0, "frac")
    metrics["check.max_rel_dev"] = (runner.max_dev, "frac")

    # the tracer's accounting against a clock and counts it does not make:
    # simulate's self time plus its children's busy time must match the
    # wall time SimCapture measured inside the traced call, and the RHS
    # boundaries must be called four times per RK4 step of the inputs
    children = tracer.children_busy("sim.simulate")
    gap = tracer.self_time["sim.simulate"] + children - sim_wall
    slack = WRAP_SLACK_FRAC * sim_wall + WRAP_SLACK_S * tracer.calls["sim.simulate"]
    per_step = {name: tracer.calls_in_sim[name] / steps if steps else 0.0 for name in FOUR_PER_STEP}
    accounting_ok = (-1e-9 <= gap <= slack and steps > 0
                     and all(tracer.calls_in_sim[name] == 4 * steps for name in FOUR_PER_STEP))

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [(nm, s - start, e - start, p, op) for nm, s, e, p, op in tracer.spans],
    }))
    detail = {
        "pairs": n,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "sim.simulate.children_s": children / n,
        "sim.simulate.capture_wall_s": sim_wall / n,
        "sim.simulate.accounting_gap_s": gap,
        "sim.simulate.accounting_slack_s": slack,
        "calls_in_sim_per_step": per_step,
        "accounting_ok": accounting_ok,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
    }
    return 2 * n * len(runner.ops), accounting_ok, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="asdinv benchmark")
    ap.add_argument("--workload", required=True, choices=("scenarios", "verify", "sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload)))
        return 0

    import_asdinv()
    import numpy

    speed = [speed_probe()]

    runner = Runner(args.workload, args.seed)
    try:
        runner.workloads.design(args.workload)
        if args.trace:
            attempted, ok, metrics, detail = per_layer(runner, args.workload, args.seed, args.seconds)
        else:
            attempted, ok, metrics, detail = end_to_end(runner, args.workload, args.seconds)
    finally:
        runner.close()

    speed.append(speed_probe())
    failed = len(runner.failures)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "max_rel_dev": runner.max_dev,
        "failures": runner.failures[:20],
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": git_sha(),
            "threads": threading.active_count(),
            "speed_probe_s": speed,
        },
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
