"""Scenario types, parameter inequalities, and file round trips."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from nclbf.cli import main
from nclbf.scenario import (IntegratorSettings, ObstacleParams, ObstacleSpec,
                            ScenarioError, builtin_scenario, derive_eta2,
                            eta1_lower_bound, load_scenario, save_scenario,
                            w_upper_bound)
from nclbf.verify import validate_params

OB_A = ObstacleSpec(center=np.array([2.0, 2.0]), radius_sq=2.0)
OB_B1 = ObstacleSpec(center=np.array([2.0, 0.0]), radius_sq=0.7)


class TestDeriveEta2:
    def test_published_single_obstacle_value_is_exact(self):
        assert derive_eta2(9.0, OB_A, 0.9) == 36.9

    def test_first_multi_obstacle_value(self):
        # the published table rounds this to 16
        expected = 11.0 * 0.7 + (2.0 + math.sqrt(0.7)) ** 2 + 0.3
        got = derive_eta2(11.0, OB_B1, 0.3)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(16.0467, abs=1e-3)

    def test_vanishing_buffer_limit(self):
        assert derive_eta2(9.0, OB_A, 1e-12) == pytest.approx(36.0, abs=1e-9)

    def test_eta1_below_lower_bound_names_inequality(self):
        with pytest.raises(ScenarioError, match=r"eta1 .*\|\|c\|\|"):
            derive_eta2(2.5, OB_A, 0.9)

    def test_w_outside_range_names_inequality(self):
        wub = w_upper_bound(9.0, OB_A)
        with pytest.raises(ScenarioError, match="w violates"):
            derive_eta2(9.0, OB_A, wub + 1.0)
        with pytest.raises(ScenarioError, match="w violates"):
            derive_eta2(9.0, OB_A, 0.0)

    def test_output_in_admissible_interval_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = rng.normal(size=2)
            c = d / np.linalg.norm(d) * rng.uniform(1.5, 4.0)
            r = rng.uniform(0.1, 0.5 * float(c @ c))
            ob = ObstacleSpec(center=c, radius_sq=r)
            eta1 = eta1_lower_bound(ob) * rng.uniform(1.01, 4.0)
            w = w_upper_bound(eta1, ob) * rng.uniform(0.01, 0.99)
            eta2 = derive_eta2(eta1, ob, w)
            assert eta1 * r + ob.max_L_over_closure() <= eta2 < eta1 * ob.center_norm_sq


class TestObstacleSpec:
    def test_origin_inside_ball_rejected(self):
        with pytest.raises(ScenarioError, match="origin inside unsafe ball"):
            ObstacleSpec(center=np.array([0.5, 0.5]), radius_sq=1.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ScenarioError, match="radius"):
            ObstacleSpec(center=np.array([2.0, 2.0]), radius_sq=0.0)

    def test_max_L_closure_exact_for_perfect_square(self):
        # ||c||^2 * r = 16 makes the cross term exact
        assert OB_A.max_L_over_closure() == 18.0


class TestValidateParams:
    def test_single_obstacle_fixture_passes_with_reported_slack(self, cfg_a):
        report = validate_params(cfg_a)
        assert report.passed
        eta1_check = next(c for c in report.checks if "eta1 >=" in c.name)
        assert eta1_check.bound == pytest.approx(3.0, abs=1e-12)
        assert eta1_check.slack == pytest.approx(6.0, abs=1e-12)

    def test_multi_obstacle_fixture_passes_all_bounds(self, cfg_b):
        report = validate_params(cfg_b)
        assert report.passed
        sphere_checks = [c for c in report.checks if "spheres" in c.name]
        assert len(sphere_checks) == 3
        assert all(c.slack > 0 for c in sphere_checks)

    def test_eta2_at_upper_bound_fails_strict_inequality(self, cfg_a):
        import dataclasses
        bad = ObstacleParams(eta1=9.0, eta2=9.0 * 8.0, c1=np.array([10.0, 20.0]))
        cfg = dataclasses.replace(cfg_a, params=(bad,))
        report = validate_params(cfg)
        assert not report.passed
        failed = [c for c in report.checks if not c.passed]
        assert any("eta2 < eta1*||c||^2" in c.name for c in failed)

    def test_initial_state_admissibility_reported(self, cfg_a):
        import dataclasses
        cfg = dataclasses.replace(cfg_a, initial_states=(np.array([2.0, 2.0]),))
        report = validate_params(cfg)
        bad = [c for c in report.checks if "initial_state" in c.name]
        assert len(bad) == 1 and not bad[0].passed


class TestScenarioIO:
    def scenario_text(self):
        return json.dumps({
            "system": "linear2d",
            "state_box": [[-5, 5], [-5, 5]],
            "obstacles": [{"center": [2.0, 2.0], "radius": 1.4142135623730951}],
            "params": [{"eta1": 9.0, "w": 0.9, "c1": [10.0, 20.0]}],
            "gamma": 0.1,
            "integrator": {"dt": 0.001, "t_max": 20.0, "eps_conv": 0.01, "eps_band": 0.001},
            "initial_states": [[5.0, 5.0], [3.0, 5.0]],
        })

    def test_load_derives_eta2_from_w(self):
        cfg = load_scenario(self.scenario_text())
        assert cfg.params[0].eta2 == pytest.approx(36.9, rel=1e-12)

    def test_round_trip_values_bit_exact(self):
        cfg = load_scenario(self.scenario_text())
        text = save_scenario(cfg)
        cfg2 = load_scenario(text)
        assert save_scenario(cfg2) == text
        assert cfg2.obstacles[0].radius == cfg.obstacles[0].radius
        assert cfg2.params[0].eta2 == cfg.params[0].eta2
        assert np.array_equal(cfg2.initial_states[1], cfg.initial_states[1])

    def test_parse_error_reports_location(self):
        with pytest.raises(ScenarioError, match="parse error at line"):
            load_scenario("{not valid json")

    def test_missing_field_named(self):
        doc = json.loads(self.scenario_text())
        del doc["obstacles"]
        with pytest.raises(ScenarioError, match="missing field 'obstacles'"):
            load_scenario(json.dumps(doc))

    def test_dimension_mismatch_rejected(self):
        doc = json.loads(self.scenario_text())
        doc["initial_states"] = [[1.0, 2.0, 3.0]]
        with pytest.raises(ScenarioError, match="dimension"):
            load_scenario(json.dumps(doc))

    def test_obstacle_containing_origin_rejected(self):
        doc = json.loads(self.scenario_text())
        doc["obstacles"][0] = {"center": [0.5, 0.0], "radius": 1.0}
        with pytest.raises(ScenarioError, match="origin inside unsafe ball"):
            load_scenario(json.dumps(doc))

    def test_disagreeing_w_and_eta2_rejected(self):
        doc = json.loads(self.scenario_text())
        # the published pair for the first multi-obstacle entry disagrees
        doc["obstacles"][0] = {"center": [2.0, 0.0], "radius": math.sqrt(0.7)}
        doc["params"][0] = {"eta1": 11.0, "w": 0.3, "eta2": 16.0, "c1": [10.0]}
        with pytest.raises(ScenarioError, match="disagrees"):
            load_scenario(json.dumps(doc))

    def test_consistent_w_and_eta2_accepted(self):
        doc = json.loads(self.scenario_text())
        doc["params"][0]["eta2"] = 36.9
        cfg = load_scenario(json.dumps(doc))
        assert cfg.params[0].eta2 == 36.9

    @pytest.mark.parametrize("path, value", [
        (("gamma",), math.inf),
        (("params", 0, "c1"), [math.inf, 20.0]),
        (("params", 0, "eta1"), math.inf),
        (("params", 0, "eta2"), math.nan),
        (("integrator", "eps_band"), math.inf),
        (("integrator", "t_max"), math.inf),
        (("state_box", 0, 1), math.nan),
    ])
    def test_non_finite_numbers_rejected(self, path, value):
        doc = json.loads(self.scenario_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ScenarioError, match="finite"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("path, value", [
        (("obstacles", 0), 5),
        (("obstacles",), 5),
        (("params", 0), "eta1"),
        (("params", 0, "c1"), "ab"),
        (("gamma",), "abc"),
        (("integrator",), [1]),
        (("integrator", "dtt"), 0.001),
        (("system",), [1]),
        (("initial_states",), {"a": 1}),
        (("state_box", 0), [5.0, -5.0]),
        (("state_box", 1), [1.0, 1.0]),
    ])
    def test_malformed_documents_rejected(self, path, value):
        doc = json.loads(self.scenario_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ScenarioError):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("via, make, match", [
        # documents: load_scenario raises and validate-params exits 2
        ("doc", lambda d: d["obstacles"][0].update(center=[[2.0, 2.0]]), "flat vector"),
        ("doc", lambda d: d["obstacles"][0].update(center=[math.inf, 2.0]), "must be finite"),
        ("doc", lambda d: d["initial_states"].append([math.inf, 1.0]), "states must be finite"),
        ("doc", lambda d: d["params"][0].pop("w"), "need w or eta2"),
        ("doc", lambda d: d.update(state_box=[-5.0, 5.0]), r"shape \(n, 2\)"),
        ("doc", lambda d: d.update(obstacles=[], params=[]), "at least one obstacle"),
        ("doc", lambda d: d["obstacles"][0].update(center=[2.0, 2.0, 1.0]), "dimension 3 != "),
        ("doc", lambda d: d["params"].append(d["params"][0]), "arrays must have the same length"),
        # a JSON string or boolean where a number belongs, which float() would take
        ("doc", lambda d: d["integrator"].update(dt="0.001"), "integrator.dt must be a number"),
        ("doc", lambda d: d.update(gamma=True), "gamma must be a number"),
        ("doc", lambda d: d["params"][0].update(c1=[10, "20"]), r"params\[0\].c1 entry must be a number"),
        ("doc", lambda d: d["state_box"][1].__setitem__(1, "5"), "state_box entry must be a number"),
        ("doc", lambda d: d.update(initial_states=[[True, 5.0]]), "initial_states entry must be a number"),
        # squared, a negative radius would pass and save back positive
        ("doc", lambda d: d["obstacles"][0].update(radius=-1.4142135623730951),
         "radius must be positive"),
        # constructors: checks no document reaches, because an earlier check
        # stops it or the document cannot express it
        ("new", lambda: ObstacleParams(eta1=9.0, eta2=36.9, c1=[1.0], w=math.inf),
         "w must be finite"),
        ("new", lambda: dataclasses.replace(builtin_scenario("linear2d_single"), params=()),
         "lists must have the same length"),
    ])
    def test_load_time_rejections(self, via, make, match, tmp_path, capsys):
        if via == "new":
            with pytest.raises(ValueError, match=match):
                make()
            return
        doc = json.loads(self.scenario_text())
        make(doc)
        with pytest.raises(ScenarioError, match=match):
            load_scenario(json.dumps(doc))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate-params", "--scenario", str(path)]) == 2
        assert "bad scenario file" in capsys.readouterr().err

    def test_bytes_input_accepted(self):
        cfg = load_scenario(self.scenario_text().encode())
        assert cfg.system_id == "linear2d"


class TestBuiltinFixtures:
    def test_single_obstacle_fixture(self, cfg_a):
        assert cfg_a.system_id == "linear2d"
        assert cfg_a.params[0].eta1 == 9.0
        assert cfg_a.params[0].eta2 == 36.9
        assert np.array_equal(cfg_a.params[0].c1, [10.0, 20.0])
        assert cfg_a.gamma == 0.1
        assert len(cfg_a.initial_states) == 5

    def test_multi_obstacle_fixture(self, cfg_b):
        assert cfg_b.system_id == "nonlinear_mech"
        assert [p.eta1 for p in cfg_b.params] == [11.0, 19.0, 18.0]
        assert cfg_b.params[0].eta2 == 16.0
        assert cfg_b.params[1].eta2 == pytest.approx(22.7, rel=1e-12)
        assert cfg_b.params[2].eta2 == pytest.approx(27.2, rel=1e-12)
        assert cfg_b.gamma == 5.0
        assert len(cfg_b.initial_states) == 8

    def test_first_obstacle_effective_buffer_recovered(self, cfg_b):
        w = cfg_b.params[0].effective_w(cfg_b.obstacles[0])
        assert w == pytest.approx(16.0 - 11.0 * 0.7 - (2 + math.sqrt(0.7)) ** 2, rel=1e-9)
        assert 0 < w < 0.3

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ScenarioError, match="unknown builtin"):
            builtin_scenario("nope")


class TestImmutability:
    def test_frozen_dataclasses(self, cfg_a):
        with pytest.raises(AttributeError):
            cfg_a.system_id = "other"
        with pytest.raises((ValueError, RuntimeError)):
            cfg_a.obstacles[0].center[0] = 9.9

    def test_integrator_bounds(self):
        with pytest.raises(ScenarioError):
            IntegratorSettings(dt=2.0, t_max=1.0)
        with pytest.raises(ScenarioError):
            IntegratorSettings(eps_band=0.0)
