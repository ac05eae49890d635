"""The operations of the three workloads, and the outcome each one produces.

An operation is either one CLI command on one bundled scenario (driven
through ``asdinv.cli.main``) or one sweep point (driven through the
library API). Every operation in a workload's pool has a stable key; the
reference outcomes in ``reference/<workload>.json`` are stored under those
keys. ``run_op`` executes an operation and returns its raw result;
``outcome`` turns that into the JSON-able summary that is compared with
the reference, and is never inside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from asdinv import analysis, asd_design, cli, plants, sim
from asdinv.controller_rt import ControllerSpec
from asdinv.errors import NonFiniteState

WORKLOADS = ("scenarios", "verify", "sweep")

# verify runs three full simulations per scenario; a 3 s horizon keeps one
# pass over the seven scenarios near 8 s, so several passes fit in a run
VERIFY_T_FINAL = 3.0

SWEEP_DT = 1e-3
SWEEP_T_FINAL = 2.0
SWEEP_STRIDE = 10
# epsilon on synthetic straddles its Theorem-2 eps_max (about 0.00903)
SWEEP_SYNTHETIC_EPS = (0.0009, 0.0018, 0.0045, 0.009, 0.018, 0.045, 0.09, 0.18)
SWEEP_PAYLOAD_J_SCALE = (0.6, 0.8, 0.9, 1.0, 1.1, 1.3, 1.6, 2.0)
# the smallest filter constants destabilize the 50 ms delayed loop; with
# +-1e12 limits the state crosses the simulator's 1e12 blow-up threshold
SWEEP_DELAY_EPS = (0.001, 0.0015, 0.002, 0.003, 0.005, 0.01, 0.03, 0.1)
SWEEP_DELAY_U_LIMIT = 1e12

DECIMATED_ROWS = 50


@dataclass(frozen=True)
class Op:
    key: str
    command: str = ""  # CLI operations: command, scenario, --set overrides
    scenario: str = ""
    overrides: tuple = ()
    family: str = ""  # sweep operations: family and its varied parameter
    value: float = 0.0

    @property
    def argv(self) -> list:
        argv = [self.command, "--scenario", self.scenario]
        for ov in self.overrides:
            argv += ["--set", ov]
        return argv


def ops(workload: str) -> list[Op]:
    if workload == "scenarios":
        return [Op(f"simulate:{name}", "simulate", name) for name in cli.BUNDLED]
    if workload == "verify":
        return [
            Op(f"verify:{name}", "verify", name, (f"sim.t_final={VERIFY_T_FINAL}",))
            for name in cli.BUNDLED
        ]
    if workload == "sweep":
        return (
            [Op(f"synthetic:epsilon={e}", family="synthetic", value=e) for e in SWEEP_SYNTHETIC_EPS]
            + [Op(f"quadrotor_payload:J_scale={j}", family="payload", value=j) for j in SWEEP_PAYLOAD_J_SCALE]
            + [Op(f"delay:epsilon={e}", family="delay", value=e) for e in SWEEP_DELAY_EPS]
        )
    raise ValueError(f"unknown workload {workload!r}")


# --- sweep points: plant, design and constants, all built from the API ---

@dataclass(frozen=True)
class SweepPoint:
    plant: plants.UncertainPlant
    K_or_poles: object
    select: list
    constants: plants.AssumptionConstants
    epsilon: float
    u_limit: float
    x0: np.ndarray


def sweep_point(op: Op) -> SweepPoint:
    if op.family == "synthetic":
        plant = plants.synthetic_lti(g=1.0, S=np.array([[0.05, 0.05]]), d_amp=0.1, d_freq=1.0)
        return SweepPoint(plant, [-0.5, -1.0], [-1.0], plant.constants, op.value, 1000.0,
                          np.array([1.0, 0.0]))
    if op.family == "payload":
        J0 = np.diag([0.03, 0.03, 0.04])
        plant = plants.quadrotor_attitude(plants.QuadrotorConfig(omega=15.0, J0=J0, J_true=op.value * J0))
        # h = u / J_scale and sigma = (1/J_scale - 1) Kbar^T x, so the
        # assumption constants are known in closed form
        gain = 1.0 / op.value
        k_sigma = abs(gain - 1.0) * float(np.linalg.norm(plant.meta["Kbar"].T, 2))
        consts = plants.AssumptionConstants(l_hu_low=gain, l_hu_high=gain, k_sigma=k_sigma,
                                            l_sigma_x=k_sigma)
        return SweepPoint(plant, np.zeros((9, 3)), [-1.0, -1.0, -1.0], consts, 0.2, 10.0,
                          np.array([0.2, 0.0, 0.0] * 3))
    if op.family == "delay":
        kwargs = dict(g=1.0, S=np.array([[0.0, 0.0]]), d_amp=0.0, d_freq=1.0)
        plant = plants.delayed_input_lti(tau=0.05, **kwargs)
        # the undelayed plant's constants: the Theorem-2 bound ignores delay
        consts = plants.synthetic_lti(**kwargs).constants
        return SweepPoint(plant, [-0.5, -1.0], [-1.0], consts, op.value, SWEEP_DELAY_U_LIMIT,
                          np.array([1.0, 0.0]))
    raise ValueError(f"unknown sweep family {op.family!r}")


def _spec(p: SweepPoint, core) -> ControllerSpec:
    limit = p.u_limit * np.ones(core.m)
    return ControllerSpec(core, p.epsilon, -limit, limit)


def _run_sweep(op: Op, wrap_plant) -> dict:
    p = sweep_point(op)
    plant = wrap_plant(p.plant)
    core = asd_design.build_core(plant.A0, plant.B, p.K_or_poles, p.select)
    report = analysis.bound_report(core, p.constants, epsilon=p.epsilon)
    spec = _spec(p, core)
    cfg = sim.SimConfig(dt=SWEEP_DT, t_final=SWEEP_T_FINAL, x0=p.x0, record_stride=SWEEP_STRIDE)
    result = {"report": report}
    try:
        trace = sim.simulate(plant, spec, cfg)
    except NonFiniteState as exc:
        result.update(diverged=True, blowup_time=exc.blowup_time, trace=exc.trace)
        return result
    result.update(diverged=False, trace=trace, metrics=sim.metrics(trace))
    if plant.input_delay == 0:
        result["certificate"] = analysis.lyapunov_certificate(trace, core, plant, p.epsilon)
    return result


def run_op(op: Op, out_dir: Path, wrap_plant=lambda plant: plant):
    """Execute one operation; the caller times this call.

    ``wrap_plant`` lets the traced run instrument the sweep's plant, which
    the CLI would otherwise build through ``cli.build_plant``.
    """
    if op.command:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([*op.argv, "--out", str(out_dir)])
    return _run_sweep(op, wrap_plant)


def design(workload: str) -> None:
    """Load and design every scenario or sweep point of the workload.

    This is the set-up work whose time ``setup_s`` reports.
    """
    for op in ops(workload):
        if op.command:
            sc = cli.load_scenario(op.scenario, op.overrides)
            plant = cli.build_plant(sc)
            core = cli.build_core(sc, plant)
            cli.build_controller_spec(sc, core)
            cli.build_sim_config(sc)
        else:
            p = sweep_point(op)
            _spec(p, asd_design.build_core(p.plant.A0, p.plant.B, p.K_or_poles, p.select))


# --- capture of every simulation an operation runs ---

class SimCapture:
    """Wraps ``sim.simulate`` to keep what each simulation returned.

    The CLI writes no trace for ``verify`` and keeps none in memory after
    a command returns, so the output check and the RK4 step count read the
    simulations from here. One extra call frame per simulation.

    ``wall_s`` adds up the wall time of every simulation. The traced run
    checks its tracer's ``sim.simulate`` busy time against this clock.
    """

    def __init__(self):
        self.runs: list[tuple] = []  # (simcfg, blowup_time or None, trace)
        self.wall_s = 0.0
        self._orig = None

    def install(self):
        self._orig = orig = sim.simulate

        def simulate(plant, controller, simcfg, *args, **kwargs):
            t0 = perf_counter()
            try:
                trace = orig(plant, controller, simcfg, *args, **kwargs)
            except NonFiniteState as exc:
                self.wall_s += perf_counter() - t0
                self.runs.append((simcfg, exc.blowup_time, exc.trace))
                raise
            self.wall_s += perf_counter() - t0
            self.runs.append((simcfg, None, trace))
            return trace

        sim.simulate = simulate

    def uninstall(self):
        sim.simulate = self._orig

    def take(self) -> list[tuple]:
        runs, self.runs = self.runs, []
        return runs


def rk4_steps(runs) -> int:
    """round(t_final/dt) per simulation, cut at the blow-up time."""
    total = 0
    for cfg, blowup_time, _ in runs:
        horizon = cfg.t_final if blowup_time is None else blowup_time
        total += int(round(horizon / cfg.dt))
    return total


# --- outcomes: what is compared with the reference ---

def _decimate(columns: dict) -> dict:
    n = len(next(iter(columns.values())))
    idx = np.unique(np.linspace(0, n - 1, min(n, DECIMATED_ROWS + 1)).round().astype(int))
    return {"rows": n, **{k: np.asarray(v)[idx].tolist() for k, v in columns.items()}}


def _trace_columns(trace) -> dict:
    cols = {"t": trace.t, "sat": trace.sat.astype(float)}
    for name in ("x", "u", "d_hat", "y_p", "y_s"):
        arr = getattr(trace, name)
        if arr is not None:
            cols.update({f"{name}{i + 1}": arr[:, i] for i in range(arr.shape[1])})
    return cols


def _csv_columns(path: Path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _jsonable(obj):
    return json.loads(json.dumps(obj, default=lambda v: v.tolist()))  # numpy arrays and scalars


def outcome(op: Op, result, runs, out_dir: Path) -> dict:
    if op.command:
        folder = out_dir / op.scenario
        out = {"exit": int(result)}
        if op.command == "simulate":
            out["summary"] = json.loads((folder / "summary.json").read_text())
            out["trace_csv"] = _decimate(_csv_columns(folder / "trace.csv"))
            return out
        report = json.loads((folder / "verify.json").read_text())
        # "detail" holds round-off residuals; the checks decide the outcome.
        # verify writes no trace, so its three simulations are compared.
        out.update(checks=report["checks"], passed=report["pass"])
        out["simulations"] = [
            {"blowup_time": b, "trace": _decimate(_trace_columns(tr)) if tr is not None else None}
            for _, b, tr in runs
        ]
        return out
    rep = result["report"]
    out = {
        "exit": 3 if result["diverged"] else 0,
        "bound": _jsonable(rep.to_dict()),
        "trace": _decimate(_trace_columns(result["trace"])),
    }
    if result["diverged"]:
        out["blowup_time"] = result["blowup_time"]
        return out
    m = result["metrics"]
    out["metrics"] = _jsonable({
        "energy": m.energy, "sup_tail": m.sup_tail, "time_to_threshold": m.time_to_threshold,
        "max_abs_u": m.max_abs_u, "sat_fraction": m.sat_fraction,
    })
    cert = result.get("certificate")
    if cert is not None:
        out["certificate"] = _jsonable({
            "V": _decimate({"V": cert.V})["V"], "ball_radius": cert.ball_radius,
            "entered_ball_at": cert.entered_ball_at, "stays_in_ball": cert.stays_in_ball,
        })
    return out
