"""CLI subcommands, exit codes, and artifact formats."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import nan_f_system, v_scalar, with_system
import nclbf
from nclbf import cli, plotting
from nclbf.certificate import UNSAFE, Certificate
from nclbf.cli import _read_record, build_parser, main
from nclbf.scenario import builtin_scenario, json_doc, save_scenario
from nclbf.systems import ControlAffineSystem
from nclbf.simulator import read_trajectory_csv, trajectory_csv_text
from nclbf.verify import (ASSUMPTIONS_FLOOR, DECREASE_FLOOR, check_assumptions,
                          grid_decrease_check)


def run_cli(*argv):
    return main(list(argv))


def scenario_doc() -> dict:
    """linear2d_single as a JSON document, one start, t_max = 2."""
    return {"system": "linear2d", "state_box": [[-5, 5], [-5, 5]],
            "obstacles": [{"center": [2.0, 2.0], "radius": 1.4142135623730951}],
            "params": [{"eta1": 9.0, "w": 0.9, "c1": [10.0, 20.0]}],
            "gamma": 0.1, "integrator": {"t_max": 2.0}, "initial_states": [[5.0, 5.0]]}


def scenario_file(tmp_path, **changes) -> str:
    """scenario_doc() with its top-level keys changed, written to a file."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(scenario_doc(), **changes)))
    return str(path)


def set_path(doc: dict, path: tuple, value) -> dict:
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# (path into scenario_doc, value): structurally malformed documents
MALFORMED_SCENARIOS = [
    (("obstacles", 0), 5),
    (("obstacles",), 5),
    (("params", 0), "eta1"),
    (("gamma",), "abc"),
    (("integrator",), [1]),
    (("system",), [1]),
    (("state_box", 0), [5.0, -5.0]),
    (("state_box", 1), [1.0, 1.0]),
]


class TestSimulateCommand:
    def test_writes_trajectories_and_summary(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = run_cli("simulate", "--scenario", "linear2d_single", "--out", str(out))
        assert code == 0
        csvs = sorted(out.glob("run_*.csv"))
        assert len(csvs) == 5
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["runs"]) == 5
        assert all(r["outcome"]["kind"] == "converged" for r in summary["runs"])
        assert all(r["min_min_dist"] > 0 for r in summary["runs"])
        assert len(summary["invariants"]) == 5

    def test_failed_invariant_check_exits_1(self, tmp_path):
        # the run converges, but its shrunk-band check (c) fails: exit 1
        config = builtin_scenario("nonlinear_mech_three")
        scenario = tmp_path / "one.json"
        scenario.write_text(save_scenario(dataclasses.replace(
            config, initial_states=(np.array([3.2191, -4.5025]),))))
        out = tmp_path / "runs"
        assert run_cli("simulate", "--scenario", str(scenario), "--out", str(out),
                       "--t-max", "60") == 1
        summary = json.loads((out / "summary.json").read_text())
        outcome = summary["runs"][0]["outcome"]
        assert outcome["kind"] == "converged" and outcome["t"] == pytest.approx(48.617)
        checks = summary["invariants"][0]["checks"]
        assert [c["passed"] for c in checks] == [True, True, False, True]

    def test_missing_scenario_file_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--scenario", "missing.json",
                       "--out", str(tmp_path)) == 2

    def test_scenario_directory_is_usage_error(self, tmp_path, capsys):
        assert run_cli("validate-params", "--scenario", str(tmp_path)) == 2
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_scenario_not_utf8_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(json.dumps(scenario_doc()).encode() + b" \xff")
        assert run_cli("validate-params", "--scenario", str(bad)) == 2
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_bad_scenario_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run_cli("simulate", "--scenario", str(bad), "--out", str(tmp_path)) == 2

    def test_step_and_horizon_overrides(self, tmp_path):
        out = tmp_path / "runs"
        assert run_cli("simulate", "--scenario", "linear2d_single", "--out", str(out),
                       "--dt", "2e-3", "--t-max", "0.5") == 1  # timeout at 0.5 s
        rows = (out / "run_00.csv").read_text().splitlines()[1:]
        assert len(rows) == 251
        assert float(rows[1].split(",")[0]) == 2e-3

    def test_non_finite_horizon_is_usage_error(self, tmp_path):
        doc = {"system": "linear2d", "state_box": [[-5, 5], [-5, 5]],
               "obstacles": [{"center": [2.0, 2.0], "radius": 1.4142135623730951}],
               "params": [{"eta1": 9.0, "w": 0.9, "c1": [10.0, 20.0]}],
               "gamma": 0.1, "integrator": {"t_max": float("inf")},
               "initial_states": [[5.0, 5.0]]}
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        assert run_cli("simulate", "--scenario", str(path), "--out", str(tmp_path)) == 2
        assert run_cli("simulate", "--scenario", "linear2d_single",
                       "--out", str(tmp_path), "--t-max", "inf") == 2

    @pytest.mark.parametrize("path, value", MALFORMED_SCENARIOS)
    def test_malformed_scenario_is_usage_error(self, tmp_path, path, value):
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(set_path(scenario_doc(), path, value)))
        out = tmp_path / "runs"
        assert run_cli("simulate", "--scenario", str(scenario), "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "verify-derivative",
                                         "check-assumptions"])
    @pytest.mark.parametrize("c1", [[10.0], [10.0, 20.0, 30.0]])
    def test_c1_length_must_match_inputs(self, tmp_path, capsys, command, c1):
        # linear2d has m = 2 inputs: one weight per input, checked at load
        scenario = tmp_path / "c1.json"
        scenario.write_text(json.dumps(set_path(scenario_doc(), ("params", 0, "c1"), c1)))
        out = tmp_path / "out"
        assert run_cli(command, "--scenario", str(scenario), "--out", str(out)) == 2
        assert f"c1 has {len(c1)} entries" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.rglob("*.csv"))

    def test_unknown_system_is_usage_error(self, tmp_path):
        scenario = tmp_path / "sys.json"
        scenario.write_text(json.dumps(set_path(scenario_doc(), ("system",), "nope")))
        assert run_cli("geometry", "--scenario", str(scenario)) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate") == 2

    def test_start_inside_the_convergence_ball(self, tmp_path, capsys):
        # converged at t = 0 with one sample: the record has no step
        scenario = tmp_path / "ball.json"
        scenario.write_text(json.dumps(dict(scenario_doc(), initial_states=[[0.005, 0.005]])))
        out = tmp_path / "runs"
        assert run_cli("simulate", "--scenario", str(scenario), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        run, invariants = summary["runs"][0], summary["invariants"][0]
        assert run["outcome"] == {"kind": "converged", "t": 0.0}
        assert run["n_samples"] == 1 and run["max_v_increase"] == 0.0
        # no step qualifies, so V did not rise: summary and check (b) both read 0
        assert invariants["checks"][1]["detail"] == "max per-step increase = 0"
        assert invariants["checks"][-1]["detail"] == "C = 0 over 0 smooth steps"
        csv_path = out / "run_00.csv"
        text = csv_path.read_text()
        rec = read_trajectory_csv(io.StringIO(text))
        assert trajectory_csv_text(rec) == text
        assert rec.v_increase(0.01) == (0.0, None)
        assert run_cli("check-trajectory", "--csv", str(csv_path),
                       "--scenario", str(scenario)) == 0
        assert run_cli("check-trajectory", "--csv", str(csv_path)) == 0
        assert run_cli("plot", "--scenario", str(scenario), "--out", str(tmp_path / "svg"),
                       str(csv_path)) == 0

    def test_override_init(self, tmp_path, capsys):
        # (2, 3.5) lies in the barrier region, so the start is inadmissible
        doc = scenario_doc()
        doc["integrator"]["t_max"] = 20.0
        doc["initial_states"] = [[2.0, 3.5]]
        scenario = tmp_path / "barrier_start.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "rejected"
        assert run_cli("simulate", "--scenario", str(scenario), "--out", str(out)) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"][0]["outcome"] == {"kind": "init_rejected"}
        assert not (out / "run_00.csv").exists()
        out = tmp_path / "overridden"
        assert run_cli("simulate", "--scenario", str(scenario), "--out", str(out),
                       "--override-init") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"][0]["outcome"] == {"kind": "converged", "t": 5.236}
        assert summary["invariants"][0]["passed"]
        assert (out / "run_00.csv").exists()

    def test_artifacts_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("simulate", "--scenario", "linear2d_single",
                           "--out", str(out), "--t-max", "2.0") == 1  # timeout at 2 s
        for name in sorted(p.name for p in out1.glob("run_*.csv")):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        s1.pop("wall_time_s"), s2.pop("wall_time_s")
        assert s1 == s2


@pytest.mark.parametrize("command", ["geometry", "validate-params", "plot",
                                     "verify-derivative", "check-assumptions"])
@pytest.mark.parametrize("flag", ["--dt", "--t-max"])
def test_integrator_flags_only_where_used(command, flag, tmp_path):
    assert run_cli(command, "--scenario", "linear2d_single", "--out", str(tmp_path),
                   flag, "0.01") == 2


@pytest.mark.parametrize("command,floor,check", [
    ("verify-derivative", DECREASE_FLOOR, grid_decrease_check),
    ("check-assumptions", ASSUMPTIONS_FLOOR, check_assumptions)])
def test_resolution_below_the_floor_is_usage_error(command, floor, check, capsys):
    # the CLI and the library function share one floor
    assert (DECREASE_FLOOR, ASSUMPTIONS_FLOOR) == (11, 2)
    config = builtin_scenario("linear2d_single")
    with pytest.raises(ValueError, match=f">= {floor}"):
        check(config, floor - 1)
    assert json_doc(check(config, floor))
    assert run_cli(command, "--scenario", "linear2d_single", "--resolution", str(floor - 1)) == 2
    assert f"--resolution: must be >= {floor}" in capsys.readouterr().err
    assert run_cli(command, "--scenario", "linear2d_single", "--resolution", str(floor)) != 2


class TestGeometryCommand:
    def test_values(self, capsys):
        assert run_cli("geometry", "--scenario", "linear2d_single") == 0
        doc = json.loads(capsys.readouterr().out)
        ob = doc["obstacles"][0]
        assert ob["boundary_center"] == pytest.approx([1.8, 1.8])
        assert ob["boundary_radius_sq"] == pytest.approx(2.97)
        assert ob["buffer_width"] == pytest.approx(0.3)
        assert ob["phi"] == pytest.approx(3.51)
        pts = ob["contact_points"]
        assert pts[0] == pytest.approx([1.87, 0.08], abs=0.02)
        assert pts[1] == pytest.approx([0.08, 1.87], abs=0.02)

    def test_multi_obstacle(self, capsys):
        assert run_cli("geometry", "--scenario", "nonlinear_mech_three") == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["obstacles"]) == 3
        assert doc["obstacles"][2]["boundary_center"][0] == pytest.approx(-36.0 / 19.0)


# sha256 of the printed report; "file" is scenario_doc() read from JSON, so
# its radius goes through ObstacleSpec.from_radius.  The virtual-boundary
# formulas (Certificate.cbars, rbars_sq, phis) must not move these bytes.
BOUNDARY_REPORT_SHA256 = {
    ("geometry", "linear2d_single"):
        "a4c25f2e9110e0d77a5919f9db30fada98f0b4e96a467f058d865e6cc27fb259",
    ("geometry", "nonlinear_mech_three"):
        "f491bae2da9d488ebc72e309a5fd65c92b6740249a195df09556352dca99f201",
    ("geometry", "file"):
        "a4c25f2e9110e0d77a5919f9db30fada98f0b4e96a467f058d865e6cc27fb259",
    ("validate-params", "linear2d_single"):
        "cb5374d8adafc58c8c33cba80b9188fac07093dedf1697057bf4227c9582f19c",
    ("validate-params", "nonlinear_mech_three"):
        "29f0f9d27331c31bedb248a94c5080e13d28d3caabaa3cdbfe6aa297833a907b",
    ("validate-params", "file"):
        "cdd7ac1d3371c9ed66ec250d8a28759fd4a6f169dafb6f210e72008301458f75",
}


@pytest.mark.parametrize("command,scenario", sorted(BOUNDARY_REPORT_SHA256))
def test_boundary_reports_are_pinned(command, scenario, tmp_path, capsys):
    arg = scenario_file(tmp_path) if scenario == "file" else scenario
    assert run_cli(command, "--scenario", arg) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == BOUNDARY_REPORT_SHA256[command, scenario]


def test_grid_checks_fail_a_failed_design(tmp_path, capsys):
    """eta2 = 35.5 (no w) lies below eta1*r + max L(closure) = 36, so the
    ball's far point (3, 3) is where L > B and the head-on start (3.5, 3.5)
    enters the ball, though V decreases at every scored grid point:
    validate-params fails the design, and both grid checks fail with it and
    name the entry.  The builtins, whose designs hold, still pass."""
    arg = scenario_file(tmp_path, params=[{"eta1": 9.0, "eta2": 35.5, "c1": [10.0, 20.0]}])
    config = nclbf.load_scenario(Path(arg).read_text())
    assert nclbf.simulate(config, np.array([3.5, 3.5])).outcome.kind == "safety_violation"
    assert run_cli("validate-params", "--scenario", arg) == 1
    capsys.readouterr()
    for command in ("verify-derivative", "check-assumptions"):
        assert run_cli(command, "--scenario", arg, "--resolution", "11") == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["design_failures"] == ["obstacle[0] eta1*r + max L(closure) <= eta2"]
        assert doc["passed"] is False and doc.get("rho0_star", 1.0) > 0.0
        assert all(e["passed"] for e in doc.get("entries", ()))
        for name in ("linear2d_single", "nonlinear_mech_three"):
            assert run_cli(command, "--scenario", name, "--resolution", "11") == 0
            assert json.loads(capsys.readouterr().out)["design_failures"] == []


@pytest.mark.parametrize("eta2,message", [
    (5.0, "obstacle 0: boundary sphere is empty"),     # rbar^2 < 0
    (80.0, "obstacle 0: no real contact points"),      # phi < 0: the sphere holds the origin
])
@pytest.mark.parametrize("command", ["geometry", "plot"])
def test_degenerate_boundary_is_usage_error(command, eta2, message, tmp_path, capsys):
    path = scenario_file(tmp_path, params=[{"eta1": 9.0, "eta2": eta2, "c1": [10.0, 20.0]}])
    out = ["--out", str(tmp_path / "fig")] if command == "plot" else []
    assert run_cli(command, "--scenario", path, *out) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


class TestValidateParamsCommand:
    def test_fixtures_pass(self, capsys):
        assert run_cli("validate-params", "--scenario", "linear2d_single") == 0
        assert json.loads(capsys.readouterr().out)["passed"]
        assert run_cli("validate-params", "--scenario", "nonlinear_mech_three") == 0

    def test_overflowing_start_norm_is_null(self, tmp_path, capsys):
        # ||x0|| of (1e200, 1e200) overflows: inf, quietly, which the report
        # writes as null; the start itself is admissible
        path = scenario_file(tmp_path, initial_states=[[1e200, 1e200]])
        assert run_cli("validate-params", "--scenario", path) == 0
        check = json.loads(capsys.readouterr().out)["checks"][-1]
        assert check["name"].startswith("initial_state[0] admissible")
        assert check["passed"] is True and check["value"] is None

    def test_failing_scenario_exits_one(self, tmp_path, capsys):
        doc = {
            "system": "linear2d", "state_box": [[-5, 5], [-5, 5]],
            "obstacles": [{"center": [2.0, 2.0], "radius": 1.4142135623730951}],
            # eta2 exactly at its open upper bound
            "params": [{"eta1": 9.0, "eta2": 72.0, "c1": [10.0, 20.0]}],
            "gamma": 0.1,
        }
        path = tmp_path / "bad_params.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate-params", "--scenario", str(path)) == 1
        assert not json.loads(capsys.readouterr().out)["passed"]

    def test_overlapping_boundary_spheres_exit_one(self, tmp_path, capsys):
        # the obstacle centres lie 3.61 apart, but the spheres B_i = L sit at
        # cbar_i = eta1_i c_i / (1 + eta1_i): (1.2, 0) and (3.485, -1.394),
        # 2.677 apart with radii 1.118 and 2.356, so they overlap by 0.797
        doc = {"system": "linear2d", "state_box": [[-6, 6], [-6, 6]],
               "obstacles": [{"center": [2.0, 0.0], "radius": 0.3},
                             {"center": [5.0, -2.0], "radius": 0.3}],
               "params": [{"eta1": 1.5, "w": 0.1, "c1": [10.0, 20.0]},
                          {"eta1": 2.3, "w": 6.0, "c1": [10.0, 20.0]}],
               "gamma": 0.1}
        path = tmp_path / "spheres.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate-params", "--scenario", str(path)) == 1
        failed = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]]
        assert [c["name"].split()[0] for c in failed] == ["spheres[0,1]"]
        assert failed[0]["slack"] == pytest.approx(-0.797, abs=1e-3)


class TestVerifyDerivativeCommand:
    def test_report(self, capsys):
        assert run_cli("verify-derivative", "--scenario", "linear2d_single",
                       "--resolution", "41") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] and doc["rho0_star"] > 0
        assert doc["grid_shape"] == [41, 41]

    def test_out_file_holds_the_printed_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("verify-derivative", "--scenario", "linear2d_single",
                       "--resolution", "21", "--out", str(out)) == 0
        assert out.read_text() == capsys.readouterr().out
        assert json.loads(out.read_text())["grid_shape"] == [21, 21]

    def test_grid_inside_an_obstacle_fails(self, tmp_path, capsys):
        # every point of a +-0.05 box around obstacle 1's center is unsafe
        config = builtin_scenario("linear2d_single")
        center = config.obstacles[0].center
        box = np.stack([center - 0.05, center + 0.05], axis=1)
        path = tmp_path / "inside.json"
        path.write_text(save_scenario(dataclasses.replace(config, state_box=box)))
        assert run_cli("verify-derivative", "--scenario", str(path),
                       "--resolution", "11") == 1
        text = capsys.readouterr().out
        doc = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        assert not doc["passed"] and doc["rho0_star"] is None
        assert doc["counts"]["excluded_unsafe"] == doc["counts"]["total"] == 121


class TestCheckAssumptionsCommand:
    def test_report(self, capsys):
        assert run_cli("check-assumptions", "--scenario", "linear2d_single",
                       "--resolution", "21") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] and doc["g_full_rank"]
        assert "not machine-checked" in doc["zero_state_detectability"]

    def test_non_finite_g_reports_and_exits_1(self, tmp_path, capsys):
        # g = NaN * I on the x1 = 5 column: the report says so instead of a crash
        nan_g = ControlAffineSystem(
            "nan_g_cli", 2, 2, lambda x: [-a for a in x],
            lambda x: np.eye(2) * (math.nan if x[0] > 4.9 else 1.0))
        path = tmp_path / "nan_g.json"
        path.write_text(save_scenario(with_system(builtin_scenario("linear2d_single"), nan_g)))
        assert run_cli("check-assumptions", "--scenario", str(path),
                       "--resolution", "11") == 1
        out = capsys.readouterr()
        doc = json.loads(out.out)
        assert not doc["passed"] and not doc["fields_finite"]
        assert doc["g_min_singular_value"] == 1.0 and "error" not in out.err


@pytest.mark.parametrize("gain", [1.0, 0.0])
def test_non_finite_f_reports_are_strict_json(gain, tmp_path, capsys):
    # f is NaN on the x1 = 5 column; every non-finite value is written as null
    path = tmp_path / "nan_f.json"
    path.write_text(save_scenario(with_system(builtin_scenario("linear2d_single"),
                                              nan_f_system(gain))))
    docs = []
    for command in ("verify-derivative", "check-assumptions"):
        assert run_cli(command, "--scenario", str(path), "--resolution", "11") == 1
        out = capsys.readouterr()
        assert not out.err
        docs.append(json.loads(out.out, parse_constant=lambda c: pytest.fail(f"non-JSON {c}")))
    vd, ca = docs
    assert vd["fields_finite"] is False and not vd["passed"]
    assert ca["fields_finite"] is False and not ca["passed"]
    if gain:
        # every channel is live: the column's NaN ratios poison the minimum,
        # though the finite points alone would certify
        assert vd["rho0_star"] is None and vd["worst_point"] == [5.0, -5.0]
        assert vd["degenerate_ok"]
    else:
        # no channel anywhere: the column's NaN drifts fail and have no maximum
        assert vd["degenerate_max_drift"] is None and not vd["degenerate_ok"]
        assert [5.0, -5.0, None] in ca["entries"][0]["violations"]


class TestCheckTrajectoryCommand:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        out = tmp_path / "runs"
        assert run_cli("simulate", "--scenario", "linear2d_single",
                       "--out", str(out)) == 0
        return out

    def test_with_scenario(self, run_dir, capsys):
        code = run_cli("check-trajectory", "--csv", str(run_dir / "run_00.csv"),
                       "--scenario", "linear2d_single")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] and len(doc["checks"]) == 4

    def test_step_override(self, run_dir, tmp_path, capsys):
        # the derivative check takes the step from the record, so scenarios
        # that differ only in dt give the same report; no flag overrides it
        cfg = builtin_scenario("linear2d_single")
        csv = str(run_dir / "run_00.csv")
        reports = []
        for dt in (1e-3, 5e-4):
            path = tmp_path / f"dt_{dt}.json"
            integ = dataclasses.replace(cfg.integrator, dt=dt)
            path.write_text(save_scenario(dataclasses.replace(cfg, integrator=integ)))
            assert run_cli("check-trajectory", "--csv", csv, "--scenario", str(path)) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["passed"]
        for flag in ("--dt", "--t-max"):
            assert run_cli("check-trajectory", "--csv", csv, "--scenario",
                           "linear2d_single", flag, "5e-4") == 2

    def test_without_scenario(self, run_dir, capsys):
        code = run_cli("check-trajectory", "--csv", str(run_dir / "run_03.csv"))
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] and "note" in doc

    def test_scenario_checks_judge_the_states(self, tmp_path, capsys):
        # the sample at t = 0.099 moved to the obstacle centre, its V, region
        # and mindist left as written: with a scenario those columns are
        # rebuilt from x, so the safety and decrease checks fail; without
        # one, the file's own columns are judged and pass
        out = tmp_path / "runs"
        assert run_cli("simulate", "--scenario", "linear2d_single", "--t-max", "2",
                       "--out", str(out)) == 1
        lines = (out / "run_00.csv").read_text().splitlines(keepends=True)
        t, _, _, rest = lines[100].split(",", 3)
        lines[100] = ",".join((t, "2.0", "2.0", rest))
        inside = tmp_path / "inside.csv"
        inside.write_text("".join(lines))
        capsys.readouterr()
        assert run_cli("check-trajectory", "--csv", str(inside),
                       "--scenario", "linear2d_single") == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["passed"] for c in checks] == [False, False, True, True]
        assert checks[0]["detail"] == "min over run = -1.41421"
        assert run_cli("check-trajectory", "--csv", str(inside)) == 0
        # an untouched file's rebuilt columns are its own, bit for bit
        cfg = builtin_scenario("linear2d_single")
        with open(out / "run_00.csv", newline="") as fp:
            written = read_trajectory_csv(fp)
        rebuilt = _read_record(str(out / "run_00.csv"), cfg)
        for name in ("x", "V", "kind", "index", "min_dist"):
            assert getattr(rebuilt, name).tobytes() == getattr(written, name).tobytes()
        doctored = _read_record(str(inside), cfg)
        assert doctored.V[99] == v_scalar(Certificate(cfg), np.array([2.0, 2.0])) != written.V[99]
        assert (doctored.kind[99], doctored.index[99]) == (UNSAFE, 0)

    def test_missing_csv(self):
        assert run_cli("check-trajectory", "--csv", "nothing.csv") == 2

    def test_csv_directory_is_usage_error(self, tmp_path, capsys):
        assert run_cli("check-trajectory", "--csv", str(tmp_path)) == 2
        assert "cannot read trajectory file" in capsys.readouterr().err

    def test_dimensions_must_match_the_scenario(self, run_dir, capsys):
        assert run_cli("check-trajectory", "--csv", str(run_dir / "run_00.csv"),
                       "--scenario", "nonlinear_mech_three") == 2
        assert "(n, m, N) = (2, 2, 1)" in capsys.readouterr().err


HEADER = "t,x1,x2,u1,u2,V,region,law,mindist1\n"
ROW = "0.0,5.0,5.0,-1.0,-2.0,50.0,R2,K2,2.8\n"
NEXT = ROW.replace("0.0,", "0.001,", 1)
# file text and the 1-based row its error names
MALFORMED_CSV = {
    "empty": ("", 1),
    "header only": (HEADER, 2),
    "bad header": ("t,x1,x2,u1,u2,V,law,region,mindist1\n" + ROW, 1),
    "no mindist column": (HEADER.replace(",mindist1", "") + ROW.replace(",2.8", ""), 1),
    "no x column": (HEADER.replace("x1,x2,", "") + ROW.replace("5.0,5.0,", ""), 1),
    "short row": (HEADER + ROW + "0.001,4.9,4.9\n", 3),
    "non-numeric field": (HEADER + ROW + ROW.replace("5.0,5.0", "5.0,abc"), 3),
    "unknown region code": (HEADER + ROW + ROW.replace("R2", "X:1"), 3),
    "region of no obstacle": (HEADER + ROW + ROW.replace("R2", "R1:2"), 3),
    "unknown law": (HEADER + ROW + NEXT.replace("K2", "bogus"), 3),
    "law of no obstacle": (HEADER + ROW + NEXT.replace("K2", "K1:2"), 3),
    "non-finite x": (HEADER + ROW + NEXT.replace("5.0,5.0", "nan,5.0"), 3),
    "non-finite t": (HEADER + ROW + NEXT.replace("0.001", "inf"), 3),
    "repeated t": (HEADER + ROW + ROW, 3),
    "dropped row": (HEADER + ROW + NEXT + ROW.replace("0.0,", "0.003,", 1), 4),
    "dropped second row": (HEADER + ROW + ROW.replace("0.0,", "0.002,", 1)
                           + ROW.replace("0.0,", "0.003,", 1), 3),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
@pytest.mark.parametrize("argv", [["check-trajectory", "--csv"],
                                  ["check-trajectory", "--scenario", "linear2d_single", "--csv"],
                                  ["plot", "--scenario", "linear2d_single", "--out", "fig"]])
def test_malformed_trajectory_csv_is_usage_error(case, argv, tmp_path, monkeypatch, capsys):
    text, row = MALFORMED_CSV[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.csv").write_text(text)
    assert run_cli(*argv, "run.csv") == 2
    err = capsys.readouterr().err
    assert "run.csv" in err and f"row {row}:" in err
    assert not (tmp_path / "fig").exists()


class TestPlotCommand:
    def test_renders_deterministic_svgs(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert run_cli("simulate", "--scenario", "linear2d_single",
                       "--out", str(runs)) == 0
        csvs = [str(p) for p in sorted(runs.glob("run_*.csv"))]
        out1, out2 = tmp_path / "fig1", tmp_path / "fig2"
        assert run_cli("plot", "--scenario", "linear2d_single",
                       "--out", str(out1), *csvs) == 0
        assert run_cli("plot", "--scenario", "linear2d_single",
                       "--out", str(out2), *csvs) == 0
        phase = (out1 / "phase.svg").read_text()
        assert phase == (out2 / "phase.svg").read_text()
        assert phase.startswith("<svg")
        assert "<circle" in phase and "<polyline" in phase
        assert (out1 / "value.svg").read_text() == (out2 / "value.svg").read_text()

    def test_csv_of_another_scenario_is_usage_error(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert run_cli("simulate", "--scenario", "nonlinear_mech_three", "--t-max", "0.01",
                       "--out", str(runs)) == 1
        assert run_cli("plot", "--scenario", "linear2d_single", "--out", str(tmp_path / "fig"),
                       str(runs / "run_00.csv")) == 2
        assert "(n, m, N) = (2, 1, 3)" in capsys.readouterr().err
        assert not (tmp_path / "fig").exists()

    def test_empty_record_list_gives_axes_only(self, tmp_path):
        out = tmp_path / "fig"
        assert run_cli("plot", "--scenario", "linear2d_single", "--out", str(out)) == 0
        phase = (out / "phase.svg").read_text()
        assert phase.startswith("<svg") and phase.rstrip().endswith("</svg>")
        assert "<polyline" not in phase  # no trajectories, just geometry/axes


def test_plot_leaves_non_finite_v_out(tmp_path):
    # ||x0||^2 overflows: the run records one sample with V = inf
    path = scenario_file(tmp_path, initial_states=[[1e200, 1e200]], integrator={"t_max": 0.01})
    runs, fig = tmp_path / "runs", tmp_path / "fig"
    assert run_cli("simulate", "--scenario", path, "--out", str(runs)) == 1
    csv_path = runs / "run_00.csv"
    assert read_trajectory_csv(io.StringIO(csv_path.read_text())).V.tolist() == [math.inf]
    assert run_cli("plot", "--scenario", path, "--out", str(fig), str(csv_path)) == 0
    value = (fig / "value.svg").read_text()
    assert "nan" not in value and "inf" not in value and "<polyline" not in value


def test_phase_plot_draws_far_samples_on_the_canvas_edge(tmp_path):
    # the run from (1e200, 1e200) sits far outside the state box: its start
    # marker lands on the canvas corner, and no number grows with the state
    path = scenario_file(tmp_path, initial_states=[[1e200, 1e200]], integrator={"t_max": 0.01})
    runs, fig = tmp_path / "runs", tmp_path / "fig"
    assert run_cli("simulate", "--scenario", path, "--out", str(runs)) == 1
    assert run_cli("plot", "--scenario", path, "--out", str(fig), str(runs / "run_00.csv")) == 0
    phase = (fig / "phase.svg").read_text()
    assert '<circle cx="680.00" cy="0.00" r="3"' in phase
    assert max(map(len, re.findall(r"[-+.\w]+", phase))) <= 20


def test_value_plot_scales_to_the_largest_finite_v(tmp_path):
    runs = tmp_path / "runs"
    assert run_cli("simulate", "--scenario", "linear2d_single", "--t-max", "0.5",
                   "--out", str(runs)) == 1
    rec = _read_record(str(runs / "run_00.csv"), None)
    V = rec.V.copy()
    V[-1] = math.inf
    svg = plotting.render_value_svg([dataclasses.replace(rec, V=V)])
    assert f">{float(V[:-1].max()):g}</text>" in svg
    assert "nan" not in svg and "inf" not in svg


def test_overflowing_run_writes_strict_json(tmp_path):
    # f = 1e43 x: the last finite state's ||x||^2 overflows, so the run's
    # final_norm and max_v_increase are inf, which summary.json writes as null
    stiff = ControlAffineSystem("stiff", 2, 2, lambda x: [1e43 * a for a in x],
                                lambda x: np.eye(2))
    config = dataclasses.replace(with_system(builtin_scenario("linear2d_single"), stiff),
                                 initial_states=(np.array([5.0, 5.0]),))
    path = tmp_path / "stiff.json"
    path.write_text(save_scenario(config))
    out = tmp_path / "runs"
    assert run_cli("simulate", "--scenario", str(path), "--out", str(out)) == 1
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
    run = summary["runs"][0]
    assert run["final_norm"] is None and run["max_v_increase"] is None


@pytest.mark.parametrize("command,target", [
    ("validate-params", "missing/x.json"),
    ("plot", "file"),
    ("simulate", "file"),
    ("verify-derivative", "dir"),
])
def test_unwritable_out_is_usage_error(command, target, tmp_path, capsys):
    # an --out under a missing directory, an existing file where a directory
    # goes, or a directory where a file goes: the write fails, and exits 2
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / target)
    extra = ["--resolution", "11"] if command == "verify-derivative" else []
    assert run_cli(command, "--scenario", "linear2d_single", "--out", out, *extra) == 2
    captured = capsys.readouterr()
    assert f"cannot write {out}" in captured.err and not captured.out


def test_shared_parser_gives_what_a_fresh_parser_gives(tmp_path, capsys, monkeypatch):
    # main reuses one parser; valid commands interleaved with a usage error,
    # --help, an unknown subcommand and a failing check must leave nothing
    # behind that a later call sees
    config = builtin_scenario("linear2d_single")
    center = config.obstacles[0].center
    inside = tmp_path / "inside.json"
    inside.write_text(save_scenario(dataclasses.replace(
        config, state_box=np.stack([center - 0.05, center + 0.05], axis=1))))
    out = tmp_path / "out"
    commands = [
        ("validate-params", "--scenario", "linear2d_single", "--out", str(out / "vp.json")),
        ("verify-derivative", "--scenario", "linear2d_single", "--resolution", "5"),
        ("validate-params", "--scenario", "nonlinear_mech_three"),
        ("--help",),
        ("verify-derivative", "--scenario", str(inside), "--resolution", "11"),
        ("check-assumptions", "--scenario", "linear2d_single", "--resolution", "11"),
        ("frobnicate",),
        ("verify-derivative", "--scenario", "linear2d_single", "--resolution", "11"),
        ("geometry", "--scenario", "linear2d_single", "--help"),
        ("geometry", "--scenario", "nonlinear_mech_three"),
    ]

    def session():
        out.mkdir()
        seen = []
        for argv in commands:
            code = main(list(argv))
            captured = capsys.readouterr()
            seen.append((argv, code, captured.out, captured.err))
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return seen, files

    assert build_parser() is build_parser()
    shared = session()
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = session()
    assert [code for _, code, _, _ in shared[0]] == [0, 2, 0, 0, 1, 0, 2, 0, 0, 0]
    assert shared == fresh
    assert list(shared[1]) == ["vp.json"]


def test_polyline_rows_equal_the_unique_formula():
    # every path length from 1 to 5,000 at the stride _MAX_POLYLINE_POINTS gives it
    for n in range(1, 5001):
        want = np.unique(np.r_[0:n:max(1, math.ceil(n / plotting._MAX_POLYLINE_POINTS)), n - 1])
        got = plotting._polyline_rows(n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n


# one process runs every command through nclbf.cli.main and prints, after
# importing numpy and after each command, its name, exit code and whether
# numpy.ma is loaded
NUMPY_MA_SCRIPT = """
import contextlib, io, json, sys
import numpy
print(json.dumps(["import numpy", 0, "numpy.ma" in sys.modules]))
from nclbf.cli import main
d = sys.argv[1]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([a.replace("{d}", d) for a in argv])
    print(json.dumps([" ".join(argv), code, "numpy.ma" in sys.modules]))
"""

NUMPY_MA_COMMANDS = [
    ["simulate", "--scenario", "linear2d_single", "--t-max", "0.05", "--out", "{d}"],
    ["plot", "--scenario", "linear2d_single", "--out", "{d}/fig", "{d}/run_00.csv"],
    ["check-trajectory", "--csv", "{d}/run_00.csv"],
    ["check-trajectory", "--csv", "{d}/run_00.csv", "--scenario", "linear2d_single"],
    ["verify-derivative", "--scenario", "nonlinear_mech_three", "--resolution", "21"],
    ["check-assumptions", "--scenario", "nonlinear_mech_three", "--resolution", "21"],
    ["geometry", "--scenario", "nonlinear_mech_three"],
    ["validate-params", "--scenario", "nonlinear_mech_three"],
]


def test_no_command_loads_numpy_ma(tmp_path):
    # numpy 2 imports numpy.ma only when asked (np.median and np.unique ask),
    # and it adds about 1.2 MB resident to a process that loads it
    src = str(Path(nclbf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA_SCRIPT, str(tmp_path / "run"),
                           json.dumps(NUMPY_MA_COMMANDS)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    if lines[0][2]:
        pytest.skip("numpy < 2 imports numpy.ma with numpy itself (the 1.24 floor), "
                    "so no command can keep it out")
    assert [code for _, code, _ in lines[1:]] == [1, 0, 0, 0, 0, 0, 0, 0]
    assert not [name for name, _, loaded in lines if loaded], lines
