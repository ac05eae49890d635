"""Scenario runner: design, simulate, verify, and bound commands.

Scenarios are JSON files (bundled under asdinv/scenarios or given by
path); dotted-path --set overrides make parameter sweeps reproducible
from the command line. Exit codes: 0 ok, 2 config error, 3 divergence,
4 verification failure, 5 no assumption constants apply (none given, or an input delay).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis, asd_design, plants, sim
from .controller_rt import ControllerSpec, x_to_u_response
from .errors import AsdinvError, ConfigError, MissingConstants, NonFiniteState
from .numlin import FREQ_ULPS, TRAJ_RTOL, as_float

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFY = 4
EXIT_CONSTANTS = 5

BUNDLED = ("siso", "f16", "quadrotor", "quadrotor_payload", "synthetic", "deadzone", "delay_demo")


@dataclasses.dataclass
class Scenario:
    name: str
    raw: dict


def _load_raw(ref: str) -> dict:
    path = Path(ref)
    try:
        if path.suffix == ".json" and path.exists():
            text = path.read_text()
        elif ref in BUNDLED:
            text = resources.files("asdinv.scenarios").joinpath(f"{ref}.json").read_text()
        else:
            raise ConfigError(f"unknown scenario {ref!r}: not a bundled name {BUNDLED} or a .json path")
        return json.loads(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"scenario {ref!r} cannot be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario {ref!r} is not valid JSON: {exc}") from exc


def _apply_override(raw: dict, key: str, value: str) -> None:
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    parts = key.split(".")
    if len(parts) == 1 and parts[0] not in raw:
        # bare key: find it in exactly one sub-table
        hits = [k for k, v in raw.items() if isinstance(v, dict) and parts[0] in v]
        if len(hits) == 1:
            raw[hits[0]][parts[0]] = parsed
            return
        raise ConfigError(f"--set field {key!r} not found (or ambiguous) in scenario")
    node = raw
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise ConfigError(f"--set path {key!r}: no field {p!r}")
        node = node[p]
    if not isinstance(node, dict):
        raise ConfigError(f"--set path {key!r} does not address a field")
    if parts[-1] not in node:
        raise ConfigError(f"--set path {key!r}: no field {parts[-1]!r}")
    node[parts[-1]] = parsed


def _known_fields(where: str, section: dict, known: tuple) -> None:
    unknown = [k for k in section if k not in known]
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {unknown}, expected some of {list(known)}")


def load_scenario(ref: str, overrides=()) -> Scenario:
    raw = _load_raw(ref)
    if not isinstance(raw, dict):
        raise ConfigError(f"scenario {ref!r} must be a JSON object")
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"--set needs key=value, got {ov!r}")
        key, value = ov.split("=", 1)
        _apply_override(raw, key, value)
    _known_fields(f"scenario {ref!r}", raw, ("name", "plant", "design", "epsilon", "saturation",
                                             "realization", "sim", "constants"))
    for fieldname in ("plant", "design", "epsilon", "saturation", "sim"):
        if fieldname not in raw:
            raise ConfigError(f"scenario {ref!r} is missing the {fieldname!r} field")
    for fieldname in ("plant", "design", "saturation", "sim", "constants"):  # constants is optional
        if not isinstance(raw.get(fieldname, {}), dict):
            raise ConfigError(f"field {fieldname!r} must be a JSON object")
    name = raw.get("name", Path(ref).stem)  # names the output directory <out>/<name>
    if not isinstance(name, str) or name in ("", ".", "..") or "\0" in name or Path(name).name != name:
        raise ConfigError(f"field 'name' must be one path component, not {name!r}")
    return Scenario(name=name, raw=raw)


def _deadzone(mu, **kw) -> plants.UncertainPlant:
    return plants.dead_zone(mu)(plants.synthetic_lti(**kw))


def _quadrotor(J0_diag=(0.03, 0.03, 0.04), J_scale=1.0, **kw) -> plants.UncertainPlant:
    J0 = np.diag(as_float(J0_diag, "J0_diag", array=True))
    J_true = as_float(J_scale, "J_scale") * J0
    return plants.quadrotor_attitude(plants.QuadrotorConfig(J0=J0, J_true=J_true, **kw))


# plant.kind -> factory; the rest of the plant section is its keyword arguments
_PLANTS = {"hsu_siso": plants.hsu_siso, "f16_rollyaw": plants.f16_rollyaw, "quadrotor": _quadrotor,
           "synthetic": plants.synthetic_lti, "deadzone": _deadzone, "delay": plants.delayed_input_lti}


def build_plant(sc: Scenario) -> plants.UncertainPlant:
    cfg = dict(sc.raw["plant"])
    kind = cfg.pop("kind", None)
    if not isinstance(kind, str) or kind not in _PLANTS:
        raise ConfigError(f"field 'plant.kind': unknown kind {kind!r}")
    try:
        return _PLANTS[kind](**cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad plant configuration for kind {kind!r}: {exc}") from exc


def _design_array(design: dict, key: str, form: str) -> np.ndarray:
    """design[key] as floats; K must be 2-D and poles or select 1-D, so a
    flat K is never read as poles, nor a column of poles as a gain."""
    value = as_float(design[key], f"design.{key}", array=True)
    if value.ndim != (2 if key == "K" else 1):
        raise ConfigError(f"field 'design.{key}' must be {form}, got shape {value.shape}")
    return value


def build_core(sc: Scenario, plant: plants.UncertainPlant) -> asd_design.LinearCore:
    design = sc.raw["design"]
    _known_fields("field 'design'", design, ("K", "poles", "select"))
    if "select" not in design:
        raise ConfigError("field 'design.select' is required")
    K, poles = design.get("K"), design.get("poles")
    if (K is None) == (poles is None):
        raise ConfigError("field 'design': exactly one of 'K' or 'poles' is required")
    try:
        if K == "zero":
            K_or_poles = np.zeros((plant.n, plant.m))
        elif K is None:
            K_or_poles = _design_array(design, "poles", f"a flat list of {plant.n} poles")
        else:
            K_or_poles = _design_array(design, "K", f'a {plant.n}x{plant.m} nested list or "zero"')
        select = _design_array(design, "select", f"a flat list of {plant.m} eigenvalues")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'design' section: {exc}") from exc
    return asd_design.build_core(plant.A0, plant.B, K_or_poles, select)


def build_controller_spec(sc: Scenario, core) -> ControllerSpec:
    sat = sc.raw["saturation"]
    _known_fields("field 'saturation'", sat, ("min", "max"))
    try:
        return ControllerSpec(core=core, epsilon=sc.raw["epsilon"], u_min=sat["min"], u_max=sat["max"],
                              realization_kind=sc.raw.get("realization", "pi_closed"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'epsilon', 'saturation' or 'realization' field: {exc!r}") from exc


def build_sim_config(sc: Scenario) -> sim.SimConfig:
    try:
        return sim.SimConfig(**sc.raw["sim"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'sim' section: {exc}") from exc


def build(sc: Scenario) -> tuple[plants.UncertainPlant, ControllerSpec, sim.SimConfig]:
    """The scenario's plant, controller spec (its core is spec.core) and sim config."""
    plant = build_plant(sc)
    spec = build_controller_spec(sc, build_core(sc, plant))
    cfg = build_sim_config(sc)
    if cfg.x0.shape != (plant.n,):
        raise ConfigError(f"field 'sim.x0' must have length {plant.n}, got shape {cfg.x0.shape}")
    return plant, spec, cfg


def _constants(sc: Scenario, plant) -> plants.AssumptionConstants:
    if plant.input_delay > 0:  # Theorem 2 is stated for h(t, u(t)), so no constants cover a delay
        raise MissingConstants(f"scenario {sc.name!r}: Theorem 2 excludes input delay {plant.input_delay} s")
    if sc.raw.get("constants"):  # {} falls back to the plant's own
        try:
            return plants.AssumptionConstants(**sc.raw["constants"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad 'constants' section: {exc}") from exc
    if plant.constants is not None:
        return plant.constants
    raise MissingConstants(
        f"scenario {sc.name!r}: the plant carries no assumption constants; "
        "add a 'constants' section to run the bound command"
    )


def _out_dir(args, sc: Scenario) -> Path:
    out = Path(args.out) / sc.name
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {args.out!r} cannot hold the outputs: {exc}") from exc
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, default=_json_default, allow_nan=False) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def cmd_design(sc: Scenario, plant, spec, cfg, args) -> int:
    core = spec.core
    report = core.theorem1
    summary = {
        "scenario": sc.name,
        "K": core.K,
        "C": core.C,
        "Lambda": np.diag(core.Lam),
        "CtB": core.CtB,
        "pi_gains": {"Kp": spec.Kp, "Ki": spec.Ki},
        "theorem1": {
            "residual": report.theorem1_residual,
            "det_CtB": report.det_ctb,
            "checks": report.checks,
        },
        "eigenvalues": sorted(np.linalg.eigvals(core.A).real.tolist()),
    }
    _write_json(_out_dir(args, sc) / "design.json", summary)
    print(f"[{sc.name}] K =\n{core.K}")
    print(f"[{sc.name}] C =\n{core.C}")
    print(f"[{sc.name}] Lambda = {np.diag(core.Lam)}")
    print(f"[{sc.name}] theorem1 residual = {report.theorem1_residual:.3e}, "
          f"|det CtB| = {abs(report.det_ctb):.3e}")
    return EXIT_OK


def cmd_simulate(sc: Scenario, plant, spec, cfg, args) -> int:
    out = _out_dir(args, sc)
    try:
        trace = sim.simulate(plant, spec, cfg)
    except NonFiniteState as exc:
        _write_json(out / "summary.json", {
            "scenario": sc.name, "diverged": True, "blowup_time": exc.blowup_time,
        })
        sim.export_csv(exc.trace, out / "trace.csv")
        print(f"[{sc.name}] DIVERGED at t = {exc.blowup_time:.4f} s", file=sys.stderr)
        return EXIT_DIVERGENCE
    sim.export_csv(trace, out / "trace.csv")
    m = sim.metrics(trace)
    _write_json(out / "summary.json", {
        "scenario": sc.name,
        "diverged": False,
        "metrics": dataclasses.asdict(m),
        "config": {
            "scenario": sc.name, "plant": plant.name, "epsilon": spec.epsilon,
            "realization": spec.realization_kind, "u_min": spec.u_min.tolist(), "u_max": spec.u_max.tolist(),
            "dt": cfg.dt, "t_final": cfg.t_final, "x0": cfg.x0.tolist(), "record_stride": cfg.record_stride,
        },
    })
    print(f"[{sc.name}] sup-tail ||x|| = {m.sup_tail:.3e}, E = {m.energy:.3f}, "
          f"max|u| = {np.max(m.max_abs_u):.3f}, sat = {100 * m.sat_fraction:.1f}%")
    return EXIT_OK


def cmd_verify(sc: Scenario, plant, spec, cfg, args) -> int:
    out = _out_dir(args, sc)
    checks: dict[str, bool] = {}
    detail: dict[str, float] = {}

    report = spec.core.theorem1
    checks.update({f"theorem1.{k}": v for k, v in report.checks.items()})
    detail["theorem1_residual"] = report.theorem1_residual

    # the scenario's run, then both realizations unsaturated; a divergence and
    # the warnings of a run name it, and each run warns on its own
    wide = ControllerSpec(spec.core, spec.epsilon, -1e9, 1e9)
    wide_obs = dataclasses.replace(wide, realization_kind="observer")
    traces = []
    for label, run_spec, decomposed in [("scenario", spec, True), ("unsaturated PI", wide, False),
                                        ("unsaturated observer", wide_obs, False)]:
        try:
            with warnings.catch_warnings(record=True) as caught:
                traces.append(sim.simulate(plant, run_spec, cfg, decomposed))
        except NonFiniteState as exc:
            raise NonFiniteState(f"{label} run: {exc}", blowup_time=exc.blowup_time, trace=exc.trace)
        finally:
            for w in caught:
                warnings.warn_explicit(f"{label} run: {w.message}", w.category, w.filename, w.lineno)
    trace, tr_pi, tr_ob = traces

    if plant.input_delay == 0:
        resid = np.max(np.linalg.norm(trace.y_p + trace.y_s - trace.y, axis=1))
        scale = max(np.max(np.linalg.norm(trace.y, axis=1)), 1e-30)
        detail["asd_identity_relative"] = float(resid / scale)
        checks["asd_identity"] = resid <= TRAJ_RTOL * scale

    du = np.max(np.abs(tr_pi.u - tr_ob.u))
    uscale = max(np.max(np.abs(tr_pi.u)), 1e-30)
    detail["realization_equivalence_relative"] = float(du / uscale)
    checks["realization_equivalence"] = du <= TRAJ_RTOL * uscale

    # the responses agree to round-off amplified by cond(jwI - F_cl) of the
    # closed realizations, which grows as epsilon and omega shrink; each spec
    # builds its closed realization once, for its response and for this bound
    omegas = np.logspace(-2, 2, 20)
    H_pi, H_ob = (x_to_u_response(s, omegas) for s in (wide, wide_obs))
    dH = np.max(np.abs(H_pi - H_ob))
    hscale = max(np.max(np.abs(H_pi)), 1e-30)
    cond = max(np.linalg.cond(1j * omegas[:, None, None] * np.eye(len(F)) - F).max()
               for F in (wide.closed_realization.F, wide_obs.closed_realization.F))
    detail["frequency_response_relative"] = float(dH / hscale)
    detail["frequency_response_tolerance"] = FREQ_ULPS * np.finfo(float).eps * cond
    checks["frequency_response_match"] = dH <= detail["frequency_response_tolerance"] * hscale

    ok = all(checks.values())
    _write_json(out / "verify.json", {"scenario": sc.name, "checks": checks, "detail": detail, "pass": ok})
    for name, passed in checks.items():
        print(f"[{sc.name}] {name}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_bound(sc: Scenario, plant, spec, cfg, args) -> int:
    consts = _constants(sc, plant)
    try:
        report = analysis.bound_report(spec.core, consts, epsilon=spec.epsilon)
    except ValueError as exc:  # epsilon > 0 holds, so a term left the float range
        raise ConfigError(f"Theorem 2 out of float range: {exc}") from exc
    out = _out_dir(args, sc)
    _write_json(out / "bound.json", {"scenario": sc.name, **report.to_dict()})
    eps_max = report.eps_max
    print(f"[{sc.name}] gamma = ({report.gamma0:.4g}, {report.gamma1:.4g}, {report.gamma2:.4g}), "
          f"eps_max = {eps_max if eps_max != float('inf') else 'inf'}")
    if report.ultimate_appendix is not None:
        print(f"[{sc.name}] ultimate bound (appendix) = {report.ultimate_appendix:.4g}, "
              f"(statement) = {report.ultimate_statement:.4g}")
    return EXIT_OK


COMMANDS = {
    "design": cmd_design,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "bound": cmd_bound,
}


def _run_one(command, ref, overrides, args) -> int:
    try:
        sc = load_scenario(ref, overrides)
        plant, spec, cfg = build(sc)  # every command builds and validates the whole scenario first
        with warnings.catch_warnings():  # a fresh record of shown warnings: each run of a batch warns
            return COMMANDS[command](sc, plant, spec, cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingConstants as exc:
        print(f"missing constants: {exc}", file=sys.stderr)
        return EXIT_CONSTANTS
    except NonFiniteState as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except AsdinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="asdinv",
        description="Design, simulate, verify, and bound the additive-decomposition "
        "dynamic-inversion controller on benchmark scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", action="append", required=True,
                       help="bundled scenario name or path to a scenario JSON (repeatable)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-path override, e.g. --set sim.dt=0.0005")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; no effect, scenarios run serially")
    args = parser.parse_args(argv)
    return max(_run_one(args.command, r, args.set, args) for r in args.scenario)


if __name__ == "__main__":
    sys.exit(main())
