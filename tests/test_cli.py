"""Command-line interface: scenario loading, overrides, outputs, exit codes."""

import contextlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import asdinv
from asdinv import asd_design, cli, controller_rt, numlin, plants, sim
from asdinv.cli import (
    EXIT_CONFIG,
    EXIT_CONSTANTS,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_VERIFY,
    BUNDLED,
    load_scenario,
    main,
)
from asdinv.errors import ConfigError

from conftest import OUT_OF_RANGE, OUT_OF_RANGE_IDS


def run(args):
    return main(args)


@contextlib.contextmanager
def warns_stiff_runs():
    """Each of verify's three runs warns that RK4 may be unstable, under its label."""
    with pytest.warns(UserWarning) as record:
        yield
    assert [str(w.message).split(" run: ")[0] for w in record] == ["scenario", "unsaturated PI",
                                                                   "unsaturated observer"]
    assert all(str(w.message).endswith("RK4 may be unstable") for w in record)


def run_fresh(argv):
    """The CLI in a fresh interpreter, under Python's default once-per-location
    warnings filter: (the completed process, the text of each UserWarning)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(asdinv.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-m", "asdinv.cli", *argv], capture_output=True, text=True, env=env)
    return res, [line.split("UserWarning: ")[1] for line in res.stderr.splitlines() if "UserWarning: " in line]


class TestScenarioLoading:
    def test_all_bundled_scenarios_load(self):
        for name in BUNDLED:
            sc = load_scenario(name)
            assert sc.raw["epsilon"] > 0
            assert "plant" in sc.raw and "sim" in sc.raw

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            load_scenario("does_not_exist")

    def test_path_loading(self, tmp_path):
        src = load_scenario("synthetic").raw
        p = tmp_path / "custom.json"
        p.write_text(json.dumps(src))
        sc = load_scenario(str(p))
        assert sc.raw["plant"]["kind"] == "synthetic"

    def test_nameless_path_scenario_is_named_after_its_file(self, tmp_path):
        raw = load_scenario("synthetic").raw
        del raw["name"]
        p = tmp_path / "custom.json"
        p.write_text(json.dumps(raw))
        assert load_scenario(str(p)).name == "custom"

    def test_dotted_override(self):
        sc = load_scenario("siso", overrides=["sim.dt=0.002", "epsilon=0.25"])
        assert sc.raw["sim"]["dt"] == 0.002
        assert sc.raw["epsilon"] == 0.25

    def test_bare_key_override_resolved_in_subtable(self):
        sc = load_scenario("quadrotor", overrides=["J_scale=1.3"])
        assert sc.raw["plant"]["J_scale"] == 1.3

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            load_scenario("siso", overrides=["no.such.path=1"])
        with pytest.raises(ConfigError):
            load_scenario("siso", overrides=["missing_equals"])


class TestExitCodes:
    def test_ok(self, tmp_path):
        assert run(["design", "--scenario", "siso", "--out", str(tmp_path)]) == EXIT_OK

    def test_quadrotor_designs_at_any_omega(self, tmp_path):
        # the inner gain follows omega, so -1 stays an eigenvalue of A to select
        args = ["design", "--scenario", "quadrotor", "--set", "plant.omega=20", "--out", str(tmp_path)]
        assert run(args) == EXIT_OK
        d = json.loads((tmp_path / "quadrotor" / "design.json").read_text())
        np.testing.assert_allclose(sorted(d["eigenvalues"]), [-20.0] * 3 + [-3.0] * 3 + [-1.0] * 3, rtol=1e-12)

    @pytest.mark.parametrize("omega", ["6e4", "1e5", "1e6", "1e8"])
    def test_quadrotor_designs_at_large_omega(self, tmp_path, omega):
        # each channel is a controllable companion form for every omega > 0, and the
        # staircase keeps the chain coupling above its cut up to omega ~ 1.9e9
        args = ["design", "--scenario", "quadrotor", "--set", f"plant.omega={omega}", "--out", str(tmp_path)]
        assert run(args) == EXIT_OK

    @pytest.mark.parametrize("omega, line", [
        ("1e-320", "config error: bad plant configuration for kind 'quadrotor': "
                   "omega = 1e-320 puts the inner-loop gain Kbar out of the float range"),
        # from omega ~ 2e9 the unit chain coupling falls under RANK_RTOL ||A0|| in the staircase
        ("1e40", "error: (A0, B) is not controllable"),
        ("4.4e307", "error: (A0, B) is not controllable"),
        ("1e308", "config error: bad plant configuration for kind 'quadrotor': "
                  "omega = 1e+308 puts the inner-loop gain Kbar out of the float range"),
        *[(omega, "config error: bad plant configuration for kind 'quadrotor': actuator bandwidth must be positive")
          for omega in ("0", "-1")],
    ], ids=["1e-320", "1e40", "4.4e307", "1e308", "0", "-1"])
    def test_quadrotor_omega_out_of_range_is_one_line(self, tmp_path, omega, line):
        # in a fresh interpreter, so a numpy RuntimeWarning would print as the user sees it
        res, _ = run_fresh(["design", "--scenario", "quadrotor", "--set", f"plant.omega={omega}",
                            "--out", str(tmp_path)])
        assert res.returncode == EXIT_CONFIG
        assert res.stderr.splitlines() == [line]

    def test_config_error(self, tmp_path, capsys):
        code = run(["simulate", "--scenario", "nope", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_negative_epsilon_is_config_error(self, tmp_path):
        code = run([
            "simulate", "--scenario", "siso", "--set", "epsilon=-1",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_CONFIG

    def test_boolean_epsilon_is_config_error(self, tmp_path, capsys):
        # JSON true is a bool, which Python counts as the int 1
        code = run([
            "simulate", "--scenario", "synthetic", "--set", "epsilon=true",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_divergence(self, tmp_path):
        # widen saturation and shrink the filter constant far below the
        # loop delay: the delayed loop blows up past the finite range
        code = run([
            "simulate", "--scenario", "delay_demo",
            "--set", "epsilon=0.005",
            "--set", "saturation.min=-1e30", "--set", "saturation.max=1e30",
            "--set", "sim.t_final=40", "--out", str(tmp_path),
        ])
        assert code == EXIT_DIVERGENCE
        summary = json.loads((tmp_path / "delay_demo" / "summary.json").read_text())
        assert summary["diverged"] is True
        assert summary["blowup_time"] > 0

    def test_missing_constants(self, tmp_path, capsys):
        code = run(["bound", "--scenario", "f16", "--out", str(tmp_path)])
        assert code == EXIT_CONSTANTS
        assert "missing constants" in capsys.readouterr().err

    @pytest.mark.parametrize("command, override", [
        ("simulate", "saturation.min=10"),
        ("simulate", "realization=smith"),
        ("simulate", "sim.x0=[1,0]"),
        ("design", "saturation={}"),
        ("design", 'design.poles=[-1,"a",-3]'),
        ("design", 'design.select=["a"]'),
    ])
    def test_scenario_fault_is_config_error(self, tmp_path, capsys, command, override):
        code = run([command, "--scenario", "siso", "--set", override, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "epsilon=Infinity",
        "sim.t_final=Infinity",
        "sim.x0=[NaN,0,0]",
        "design.poles=[-1,-2,NaN]",
        "saturation.max=Infinity",
        "sim.record_stride=2.7",
        "sim.record_stride=true",
        "epsilon=1e999",
        "saturation.max=1e999",
        "sim.dt=1" + "0" * 400,
        "design.poles=[-1,-2,-1e999]",
    ])
    def test_non_finite_or_fractional_number_is_config_error(self, tmp_path, capsys, override):
        # json.loads reads NaN, +-Infinity and 1e999 as floats, and 1 followed by 400 zeros as an int
        code = run(["simulate", "--scenario", "siso", "--set", override, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, override", [
        ("synthetic", "plant.g=true"),
        ("synthetic", "plant.d_amp=true"),
        ("synthetic", "plant.d_freq=true"),
        ("deadzone", "plant.mu=true"),
        ("delay_demo", "plant.tau=true"),
        ("quadrotor", "plant.omega=true"),
        ("quadrotor_payload", "plant.J_scale=true"),
        ("f16", 'plant.f2_typo_fix="false"'),
        ("f16", "plant.f2_typo_fix=1"),
        ("deadzone", "plant.mu=1e999"),
        ("delay_demo", "plant.tau=1e999"),
        ("synthetic", "plant.g=1e999"),
        ("quadrotor", "plant.omega=1e999"),
        ("quadrotor", "plant.J0_diag=[0.03,0.03]"),
        ("quadrotor_payload", "plant.J_scale=-1"),
    ])
    def test_plant_field_of_wrong_type_is_config_error(self, tmp_path, capsys, scenario, override):
        # JSON true is not a number, 1e999 is not finite, only true or false is
        # a flag, and an inertia must be 3x3 symmetric positive definite
        code = run(["design", "--scenario", scenario, "--set", override, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, override, field", [
        ("siso", "sim.dt=true", "dt"),
        ("siso", "sim.t_final=true", "t_final"),
        ("siso", "sim.x0=[true,0,0]", "x0"),
        ("siso", "saturation.min=false", "u_min"),
        ("siso", "saturation.max=true", "u_max"),
        ("synthetic", "plant.S=[[true,false]]", "S"),
        ("quadrotor", "plant.J0_diag=[true,true,true]", "J0_diag"),
        ("siso", "design.poles=[-1,-2,true]", "design.poles"),
    ])
    def test_bool_in_number_field_is_config_error(self, tmp_path, capsys, scenario, override, field):
        # JSON true/false reads as 1/0 in Python; outside f2_typo_fix it is not a number
        code = run(["design", "--scenario", scenario, "--set", override, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"{field} must be a number" in err

    @pytest.mark.parametrize("scenario, override, message", [
        ("synthetic", 'design={"K": [-1.0, -2.0], "select": [-1.0]}',
         "field 'design.K' must be a 2x1 nested list"),
        ("synthetic", 'design={"poles": [[-0.5], [-1.0]], "select": [-1.0]}',
         "field 'design.poles' must be a flat list of 2 poles"),
        ("quadrotor", "design.K=[0,0,0,0,0,0,0,0,0]", "field 'design.K' must be a 9x3 nested list"),
        ("siso", "design.select=1", "field 'design.select' must be a flat list of 1 eigenvalues"),
        ("siso", "design.select=NaN", "design.select must be finite, not nan"),
        ("siso", 'design.select={"a": 1}', "design.select must be a number, not {'a': 1}"),
        ("siso", 'design.select="-1"', "design.select must be a number, not '-1'"),
    ], ids=["flat_K", "column_poles", "flat_K_multi_input", "select_int", "select_nan",
            "select_dict", "select_str"])
    def test_design_field_of_wrong_shape_is_config_error(self, tmp_path, capsys, scenario, override,
                                                         message):
        # a flat K would read as poles and a column of poles as a gain
        code = run(["design", "--scenario", scenario, "--set", override, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("scenario, override, recorded", [
        ("f16", "plant.f2_typo_fix=true", None),
        ("siso", "epsilon=1", '"epsilon": 1.0,'),
        ("siso", "sim.t_final=1", '"t_final": 1.0,'),
    ])
    def test_integer_number_and_bool_flag_stay_valid(self, tmp_path, scenario, override, recorded):
        argv = ["simulate", "--scenario", scenario, "--set", "sim.t_final=0.2", "--set", override,
                "--out", str(tmp_path)]
        assert run(argv) == EXIT_OK
        if recorded:
            assert recorded in (tmp_path / scenario / "summary.json").read_text()

    @pytest.mark.parametrize("command", ["design", "verify"])
    def test_theorem1_verified_once(self, tmp_path, monkeypatch, command):
        calls = []
        verify = asd_design.verify_theorem1
        monkeypatch.setattr(asd_design, "verify_theorem1", lambda core: calls.append(1) or verify(core))
        argv = [command, "--scenario", "siso", "--set", "sim.t_final=0.2", "--out", str(tmp_path)]
        assert run(argv) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("scenario", BUNDLED)
    def test_controllability_decided_once(self, monkeypatch, scenario):
        # build_core decides it, for a gain through controllability_rank and for poles
        # through ackermann_gain, each by one staircase; the plant runs no test of its own
        calls = []
        staircase = numlin._staircase
        monkeypatch.setattr(numlin, "_staircase", lambda A, B: calls.append(1) or staircase(A, B))
        cli.build(load_scenario(scenario))
        assert len(calls) == 1
        assert not hasattr(plants, "controllability_rank") and not hasattr(plants, "DesignError")

    def test_verify_builds_each_spec_twice(self, tmp_path, monkeypatch, realization_calls):
        # each of the three runs builds the controller it runs, and each spec closes its
        # quadruple once more: the stiffness guard's, the response's and the cond bound's.
        # So 3 controllers are built, and each spec's realization function runs twice
        built, closed = [], []
        make = sim.make_controller
        monkeypatch.setattr(sim, "make_controller", lambda spec: built.append(spec) or make(spec))
        prop = controller_rt.ControllerSpec.__dict__["closed_realization"]
        monkeypatch.setattr(prop, "func", lambda spec, _func=prop.func: closed.append(spec) or _func(spec))
        argv = ["verify", "--scenario", "siso", "--set", "sim.t_final=0.2", "--out", str(tmp_path)]
        assert run(argv) == EXIT_OK
        specs = list({id(spec): spec for _, spec in realization_calls}.values())
        assert len(specs) == 3 and [sum(s is spec for _, s in realization_calls) for spec in specs] == [2, 2, 2]
        assert len(built) == 3 and all(any(b is spec for b in built) for spec in specs)
        assert len(closed) == 3 and all(any(c is spec for c in closed) for spec in specs)
        assert not hasattr(cli, "make_controller") and not hasattr(controller_rt, "closed_realization")
        assert not hasattr(asd_design, "LtiRealization")

    @pytest.mark.parametrize("command, scenario, overrides", [
        ("design", "siso", ["epsilon=1e-308"]),
        ("design", "synthetic", ["epsilon=1e-320"]),
        ("simulate", "synthetic", ["epsilon=1e-320", "sim.t_final=0.01"]),
        ("verify", "quadrotor", ["epsilon=1e-308"]),
        ("bound", "synthetic", ["epsilon=1e-320"]),
    ], ids=["design_siso", "design_synthetic", "simulate_synthetic", "verify_quadrotor", "bound_synthetic"])
    def test_epsilon_overflowing_the_gains_is_config_error(self, tmp_path, capsys, command, scenario,
                                                           overrides):
        # the gains scale as 1/epsilon; an overflow is the scenario's fault, not the 'sim' section's
        argv = [command, "--scenario", scenario, "--out", str(tmp_path)]
        for ov in overrides:
            argv += ["--set", ov]
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: bad 'epsilon'") and err.count("\n") == 1
        assert f"epsilon = {overrides[0].split('=')[1]} is too small: the controller gains overflow" in err
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    def test_record_byte_budget_is_config_error(self, tmp_path, capsys):
        # 9e6 + 1 rows of the quadrotor's PI run at (15 + 3) * 8 + 1 bytes: over 2**30,
        # though under SimConfig's 10**7-row cap
        code = run(["simulate", "--scenario", "quadrotor", "--set", "sim.t_final=9000",
                    "--set", "sim.record_stride=1", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: bad 'sim' section: 9000001 recorded samples take 1305000145 bytes, "
            "over the 1073741824-byte budget; raise record_stride or shorten t_final\n")
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    def test_record_byte_budget_in_verify_is_config_error(self, tmp_path, capsys):
        # the scenario run, the widest of verify's three, trips first: (18 + 3) * 8 + 1
        # bytes a row; the message is simulate's own, without a run label
        code = run(["verify", "--scenario", "quadrotor", "--set", "sim.t_final=9000",
                    "--set", "sim.record_stride=1", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: bad 'sim' section: 9000001 recorded samples take 1521000169 bytes, "
            "over the 1073741824-byte budget; raise record_stride or shorten t_final\n")
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    @pytest.mark.parametrize("epsilon", ["2e-308", "3e-308", "1e-307"])
    @pytest.mark.parametrize("command, err", [
        ("simulate", "[quadrotor] DIVERGED at t = 0.0010 s\n"),
        ("verify", "divergence: scenario run: closed loop diverged at t = 0.0010 s\n"),
    ], ids=["simulate", "verify"])
    def test_nominal_loop_overflow_diverges(self, tmp_path, capsys, command, err, epsilon):
        # ControllerSpec accepts these gains, but B @ D overflows the stiffness
        # guard's block: it warns rho = inf, and the run diverges at its first step
        argv = [command, "--scenario", "quadrotor", "--set", f"epsilon={epsilon}",
                "--set", "sim.t_final=0.01", "--out", str(tmp_path)]
        with pytest.warns(UserWarning, match=r"dt\*rho\(nominal loop\) = inf >= 2\.5"):
            assert run(argv) == EXIT_DIVERGENCE
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("scenario, overrides, message", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_bound_out_of_float_range_is_config_error(self, tmp_path, capsys, scenario, overrides, message):
        # Theorem 2's terms overflow, or eps_max is so small that its grid underflows to 0
        argv = ["bound", "--scenario", scenario, "--out", str(tmp_path)]
        for ov in overrides:
            argv += ["--set", ov]
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        prefix = "config error: Theorem 2 out of float range: "
        assert err.startswith(prefix) and err.count("\n") == 1
        assert re.match(message, err[len(prefix):-1])
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    def test_bound_near_the_float_floor_is_quiet(self, tmp_path, capsys):
        # eps_max = 3.1e-306: 1/epsilon overflows at the grid's first entry, silently
        argv = ["bound", "--scenario", "synthetic", "--set", "plant.S=[[1e152,1e152]]", "--out", str(tmp_path)]
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "synthetic" / "bound.json").read_text())["eps_max"] < 1e-305

    @pytest.mark.parametrize("override", ["plant=3", 'sim="x"', "saturation=5", "design=[1]"])
    def test_section_not_an_object_is_config_error(self, tmp_path, capsys, override):
        code = run(["simulate", "--scenario", "siso", "--set", override, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["3", "[1]", '"x"', "null"])
    def test_scenario_not_an_object_is_config_error(self, tmp_path, capsys, top):
        path = tmp_path / "bad.json"
        path.write_text(top)
        assert run(["design", "--scenario", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("make", [Path.mkdir, lambda path: path.write_bytes(b"\xff{}")],
                             ids=["directory", "not_utf8"])
    def test_unreadable_scenario_path_is_config_error(self, tmp_path, capsys, make):
        path = tmp_path / "scenario.json"
        make(path)
        assert run(["design", "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("name", ["3", "null", "[1]", '"../escaped"', '""', '"."', '".."', '"a/b"'])
    def test_name_not_one_path_component_is_config_error(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        code = run(["design", "--scenario", "siso", "--set", f"name={name}", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []  # nothing written, in --out or beside it

    def test_runaway_record_size_is_config_error(self, tmp_path, capsys):
        code = run(["simulate", "--scenario", "siso", "--set", "sim.dt=1e-300",
                    "--set", "sim.t_final=0.1", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, edit, overrides, code, prefix", [
        ("verify", None, ["epsilon=0.0002", "sim.t_final=0.01"], EXIT_DIVERGENCE, "divergence:"),
        ("design", None, ["design.select=[-7]"], EXIT_CONFIG, "error:"),
        ("design", lambda raw: raw["plant"].update(kind="nope"), [], EXIT_CONFIG, "config error:"),
        ("design", lambda raw: raw["design"].pop("select"), [], EXIT_CONFIG, "config error:"),
        ("design", lambda raw: raw.update(design={"select": raw["design"]["select"]}), [],
         EXIT_CONFIG, "config error:"),
        ("bound", lambda raw: raw.update(constants={"bogus": 1}), [], EXIT_CONFIG, "config error:"),
        ("design", "{not json", [], EXIT_CONFIG, "config error:"),
        ("design", None, ["nosuchfield=1"], EXIT_CONFIG, "config error:"),
        ("design", None, ["epsilon.x=1"], EXIT_CONFIG, "config error:"),
        ("simulate", None, ["sim.t_finl=0.5"], EXIT_CONFIG, "config error:"),
        ("design", None, ["sim.dt=-1"], EXIT_CONFIG, "config error:"),
        ("bound", None, ["saturation.min=10"], EXIT_CONFIG, "config error:"),
        ("design", lambda raw: raw["plant"].update(J_scale=1.3), [], EXIT_CONFIG, "config error:"),
        ("design", lambda raw: raw.pop("sim"), [], EXIT_CONFIG,
         "config error: scenario '<path>' is missing the 'sim' field\n"),
        ("design", lambda raw: raw["sim"].update(recordstride=10), [], EXIT_CONFIG, "config error:"),
        ("design", lambda raw: raw["design"].update(Poles=[-1.0, -2.0, -3.0]), [], EXIT_CONFIG,
         "config error:"),
        ("design", lambda raw: raw["saturation"].update(mx=1.0), [], EXIT_CONFIG, "config error:"),
        ("design", lambda raw: raw.update(realisation="observer"), [], EXIT_CONFIG, "config error:"),
        ("design", lambda raw: raw["design"].update(K=[[-7.0], [-11.0], [-6.0]]), [], EXIT_CONFIG,
         "config error:"),
        *[("bound", lambda raw, value=value: raw.update(constants=value), [], EXIT_CONFIG,
           "config error: field 'constants' must be a JSON object\n")
          for value in (False, 0, "", [], None)],
        # the dead zone's h has slope 0 on |u| < mu, so no constants hold
        ("bound", lambda raw: raw.update(load_scenario("deadzone").raw), [], EXIT_CONSTANTS,
         "missing constants:"),
        # Theorem 2 is stated for h(t, u(t)): a constants section does not cover an input delay
        ("bound", lambda raw: raw.update(load_scenario("delay_demo").raw,
                                         constants={"l_hu_low": 1, "l_hu_high": 1}),
         [], EXIT_CONSTANTS, "missing constants: scenario 'delay_demo': Theorem 2 excludes input delay 0.05 s\n"),
        # each design precondition that fails ends the command with exit 2
        ("design", None, ["design.poles=[1.0,-2.0,-3.0]"], EXIT_CONFIG, "error:"),
        ("design", None, ["design.poles=[-1e200,-2e200,-3e200]"], EXIT_CONFIG,
         "error: pole placement overflows: the gain is not finite\n"),
        *[("design", lambda raw, name=name: raw.update(load_scenario(name).raw), [override], EXIT_CONFIG,
           "error:")
          for name, override in (("f16", "design.K=[[0,0],[0,0],[0,0],[0,0]]"), ("f16", "design.K=[[0,0]]"),
                                 ("f16", "design.select=[-1.0]"),
                                 ("quadrotor", "design.select=[-1.0,-1.0,-15.0]"))],
    ], ids=["verify_diverges", "design_fault", "unknown_kind", "no_select", "no_gain",
            "bad_constants", "not_json", "unknown_field", "path_through_number",
            "mistyped_leaf", "design_checks_sim", "bound_fault_before_constants",
            "unknown_plant_field", "no_sim", "unknown_sim_field", "unknown_design_field",
            "unknown_saturation_field", "unknown_top_level_field", "both_K_and_poles",
            "constants_false", "constants_zero", "constants_empty_string", "constants_list",
            "constants_null", "deadzone_bound", "delay_bound", "not_hurwitz", "pole_overflow",
            "complex_spectrum", "gain_shape",
            "selection_count", "singular_ctb"])
    def test_exit_path(self, tmp_path, capsys, command, edit, overrides, code, prefix):
        # edit is None for the bundled siso, a str for a file's text, or a
        # function that changes siso's raw scenario before it is written;
        # <path> in prefix stands for the scenario file's path
        scenario = "siso"
        if edit is not None:
            if isinstance(edit, str):
                text = edit
            else:
                raw = load_scenario("siso").raw
                edit(raw)
                text = json.dumps(raw)
            scenario = tmp_path / "scenario.json"
            scenario.write_text(text)
        argv = [command, "--scenario", str(scenario), "--out", str(tmp_path / "out")]
        for ov in overrides:
            argv += ["--set", ov]
        with warns_stiff_runs() if code == EXIT_DIVERGENCE else contextlib.nullcontext():
            assert run(argv) == code
        assert capsys.readouterr().err.startswith(prefix.replace("<path>", str(scenario)))
        assert list(tmp_path.glob("out/*/*.json")) == []  # no verify.json on divergence

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        # every scenario of the batch is tried, and each is a config error
        afile = tmp_path / "afile"
        afile.write_text("")
        code = run(["design", "--scenario", "siso", "--scenario", "f16", "--out", str(afile)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[0] for line in err] == ["config error", "config error"]
        assert all(repr(str(afile)) in line for line in err)

    def test_verify_divergence_names_its_run(self, tmp_path, capsys):
        # the scenario run and the unsaturated PI run finish; the observer run blows up
        argv = ["verify", "--scenario", "siso", "--set", "epsilon=0.0002", "--set", "sim.t_final=0.01",
                "--out", str(tmp_path)]
        with warns_stiff_runs():
            assert run(argv) == EXIT_DIVERGENCE
        assert capsys.readouterr().err == ("divergence: unsaturated observer run: "
                                           "closed loop diverged at t = 0.0090 s\n")

    def test_verify_warns_once_per_run(self, tmp_path):
        # all three runs are stiff here; each run's warning names it
        argv = ["verify", "--scenario", "siso", "--set", "epsilon=0.0002", "--set", "sim.t_final=0.01",
                "--out", str(tmp_path)]
        res, warned = run_fresh(argv)
        assert res.returncode == EXIT_DIVERGENCE
        assert [w.split(" run: ")[0] for w in warned] == ["scenario", "unsaturated PI", "unsaturated observer"]
        assert all(w.endswith("dt*rho(nominal loop) = 4.99 >= 2.5; RK4 may be unstable") for w in warned)
        assert res.stderr.endswith("divergence: unsaturated observer run: closed loop diverged at t = 0.0090 s\n")

    def test_repeated_scenario_warns_on_every_run(self, tmp_path):
        # the two synthetic runs warn from the same line with the same text; the
        # default once-per-location filter must not swallow the second
        argv = ["simulate", "--scenario", "synthetic", "--scenario", "synthetic", "--scenario", "siso",
                "--set", "epsilon=0.0002", "--set", "sim.t_final=0.01", "--out", str(tmp_path)]
        res, warned = run_fresh(argv)
        assert res.returncode == EXIT_OK
        assert [w.split(" = ")[1].split(" ")[0] for w in warned] == ["5.00", "5.00", "4.99"]
        assert all(w.endswith(" >= 2.5; RK4 may be unstable") for w in warned)

    @pytest.mark.parametrize("command", ["design", "simulate", "verify", "bound"])
    @pytest.mark.parametrize("dt, steps", [("0.3", "3.3333333333333335"), ("0.6", "1.6666666666666667")])
    def test_t_final_off_the_step_grid_is_config_error(self, tmp_path, capsys, command, dt, steps):
        # round(t_final/dt) steps would end at t = 0.9 or 1.2, not at t_final = 1
        argv = [command, "--scenario", "synthetic", "--set", "sim.t_final=1", "--set", "sim.record_stride=1",
                "--set", f"sim.dt={dt}", "--out", str(tmp_path)]
        assert run(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: bad 'sim' section: t_final = 1.0 is not a whole number of dt = {dt} steps "
            f"(t_final/dt = {steps})\n")
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    def test_verify_checks_on_delayed_plant(self, tmp_path):
        # no asd_identity on a delayed plant, though the split holds there (TestDecompose);
        # adding it changes this list on purpose
        argv = ["verify", "--scenario", "delay_demo", "--set", "sim.t_final=0.2", "--out", str(tmp_path)]
        assert run(argv) == EXIT_OK
        v = json.loads((tmp_path / "delay_demo" / "verify.json").read_text())
        assert list(v["checks"]) == ["theorem1.output_identity", "theorem1.ctb_invertible",
                                     "theorem1.c_full_column_rank", "realization_equivalence",
                                     "frequency_response_match"]
        assert v["pass"] is True

    @pytest.mark.parametrize("stride", [
        1,
        10,
        pytest.param(1000, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 14: verify compares only recorded rows, here the row at t = 0")),
    ])
    def test_verify_verdict_does_not_depend_on_record_stride(self, tmp_path, stride):
        # at this epsilon the realizations part by about 5e-3 relative within 0.5 s
        argv = ["verify", "--scenario", "siso", "--set", "epsilon=0.01", "--set", "sim.t_final=0.5",
                "--set", f"sim.record_stride={stride}", "--out", str(tmp_path)]
        assert run(argv) == EXIT_VERIFY


class TestOutputs:
    def test_design_outputs(self, tmp_path):
        assert run(["design", "--scenario", "siso", "--out", str(tmp_path)]) == EXIT_OK
        d = json.loads((tmp_path / "siso" / "design.json").read_text())
        np.testing.assert_allclose(np.ravel(d["K"]), [-5.0, -8.0, -5.0], atol=1e-10)
        np.testing.assert_allclose(d["eigenvalues"], [-3.0, -2.0, -1.0], atol=1e-8)
        assert all(d["theorem1"]["checks"].values())

    def test_simulate_outputs(self, tmp_path):
        code = run([
            "simulate", "--scenario", "synthetic",
            "--set", "sim.t_final=2.0", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        out = tmp_path / "synthetic"
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,u1,y1,dhat1,sat"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] is False
        assert summary["metrics"]["energy"] >= 0
        # config names the scenario, and its plant apart from it: every key, in order
        assert list(summary["config"].items()) == [
            ("scenario", "synthetic"), ("plant", "synthetic_lti"), ("epsilon", 0.005),
            ("realization", "pi_closed"), ("u_min", [-1000.0]), ("u_max", [1000.0]), ("dt", 0.001),
            ("t_final", 2.0), ("x0", [1.0, 0.0]), ("record_stride", 10),
        ]

    def test_simulate_deterministic(self, tmp_path):
        argv = [
            "simulate", "--scenario", "synthetic",
            "--set", "sim.t_final=1.0",
        ]
        run(argv + ["--out", str(tmp_path / "a")])
        run(argv + ["--out", str(tmp_path / "b")])
        csv_a = (tmp_path / "a" / "synthetic" / "trace.csv").read_text()
        csv_b = (tmp_path / "b" / "synthetic" / "trace.csv").read_text()
        assert csv_a == csv_b

    def test_verify_outputs(self, tmp_path):
        code = run([
            "verify", "--scenario", "synthetic",
            "--set", "sim.t_final=2.0", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        v = json.loads((tmp_path / "synthetic" / "verify.json").read_text())
        assert v["pass"] is True
        assert v["checks"]["asd_identity"] is True
        assert v["checks"]["realization_equivalence"] is True
        assert v["checks"]["frequency_response_match"] is True

    def test_verify_small_epsilon_f16(self, tmp_path):
        # the PI and observer responses differ by round-off amplified by
        # cond(jwI - F_cl), about 7e-10 relative here; correct controllers pass
        code = run([
            "verify", "--scenario", "f16", "--set", "epsilon=0.005",
            "--set", "sim.t_final=0.5", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK

    def test_bound_outputs(self, tmp_path):
        code = run(["bound", "--scenario", "synthetic", "--out", str(tmp_path)])
        assert code == EXIT_OK
        b = json.loads((tmp_path / "synthetic" / "bound.json").read_text())
        assert b["eps_max"] > 0
        assert b["ultimate_bound_appendix"] > 0
        assert len(b["eps_grid"]) == len(b["eta_grid"])

    def test_multi_scenario_worst_exit_code(self, tmp_path):
        code = run([
            "bound", "--scenario", "synthetic", "--scenario", "f16",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_CONSTANTS

    def test_jobs_flag(self, tmp_path):
        code = run([
            "design", "--scenario", "siso", "--scenario", "synthetic",
            "--jobs", "2", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        assert (tmp_path / "siso" / "design.json").exists()
        assert (tmp_path / "synthetic" / "design.json").exists()

    def test_outputs_are_strict_json(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        for command in ("design", "simulate", "verify", "bound"):
            for name in BUNDLED:
                code = run([command, "--scenario", name, "--set", "sim.t_final=0.2",
                            "--out", str(tmp_path)])
                assert code in ((EXIT_OK, EXIT_CONSTANTS) if command == "bound" else (EXIT_OK,))
        written = sorted(tmp_path.glob("*/*.json"))
        assert len(written) >= 3 * len(BUNDLED)
        for path in written:
            json.loads(path.read_text(), parse_constant=reject)

    def test_unserializable_value_refused(self, tmp_path):
        # only arrays and numpy scalars are converted; anything else json cannot write is refused
        path = tmp_path / "out.json"
        with pytest.raises(TypeError, match=r"^not JSON-serializable: <class 'complex'>$"):
            cli._write_json(path, {"response": 1j})
        assert not path.exists()
