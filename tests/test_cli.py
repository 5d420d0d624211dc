"""CLI subcommands, exit codes, and artifact formats."""

from __future__ import annotations

import dataclasses
import io
import json

import numpy as np
import pytest

from nclbf.cli import main
from nclbf.scenario import builtin_scenario, save_scenario
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

    def test_missing_scenario_file_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--scenario", "missing.json",
                       "--out", str(tmp_path)) == 2

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
    assert check(config, floor).to_dict()
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


class TestValidateParamsCommand:
    def test_fixtures_pass(self, capsys):
        assert run_cli("validate-params", "--scenario", "linear2d_single") == 0
        assert json.loads(capsys.readouterr().out)["passed"]
        assert run_cli("validate-params", "--scenario", "nonlinear_mech_three") == 0

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

    def test_missing_csv(self):
        assert run_cli("check-trajectory", "--csv", "nothing.csv") == 2

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
    "short row": (HEADER + ROW + "0.001,4.9,4.9\n", 3),
    "non-numeric field": (HEADER + ROW + ROW.replace("5.0,5.0", "5.0,abc"), 3),
    "unknown region code": (HEADER + ROW + ROW.replace("R2", "X:1"), 3),
    "region of no obstacle": (HEADER + ROW + ROW.replace("R2", "R1:2"), 3),
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

    def test_empty_record_list_gives_axes_only(self, tmp_path):
        out = tmp_path / "fig"
        assert run_cli("plot", "--scenario", "linear2d_single", "--out", str(out)) == 0
        phase = (out / "phase.svg").read_text()
        assert phase.startswith("<svg") and phase.rstrip().endswith("</svg>")
        assert "<polyline" not in phase  # no trajectories, just geometry/axes
