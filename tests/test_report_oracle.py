"""json_doc against the hand-written report serializers it replaced.

Each report class used to build its own JSON in a ``to_dict`` method, with
non-finite floats mapped to null by ``json_float`` at each call site.  Those
bodies are kept below verbatim except for their names (one function per
class, taking the report as its argument) and the grid reports' later
design_failures lists; ``json_doc``, the one rule that
now writes every report, must give the same document, compared with ``==``.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import nan_f_system, with_system
from nclbf import cli
from nclbf.scenario import json_doc
from nclbf.simulator import Outcome, SimulationSummary, run_batch
from nclbf.systems import ControlAffineSystem
from nclbf.verify import (AssumptionEntry, AssumptionReport, DecreaseReport,
                          InvariantCheck, InvariantReport, ValidationCheck,
                          ValidationReport, check_assumptions, grid_decrease_check,
                          record_checks, trajectory_invariants)


def json_float(v: float) -> float | None:
    """v as a report writes it: a non-finite value, which standard JSON cannot
    hold, is null."""
    return v if math.isfinite(v) else None


def validation_check(self) -> dict:
    return {"name": self.name, "passed": self.passed, "value": self.value,
            "bound": self.bound, "slack": self.slack}


def validation_report(self) -> dict:
    return {"passed": self.passed,
            "checks": [validation_check(c) for c in self.checks],
            "notes": list(self.notes)}


def outcome(self) -> dict:
    return {k: v for k, v in (("kind", self.kind), ("t", self.t),
                              ("obstacle", self.obstacle)) if v is not None}


def simulation_summary(self) -> dict:
    return {"runs": list(self.runs), "wall_time_s": self.wall_time_s}


def decrease_report(self) -> dict:
    # rho0_star is inf when no point was evaluated: null
    return {"passed": self.passed,
            "rho0_star": json_float(self.rho0_star),
            "worst_point": list(self.worst_point),
            "grid_shape": list(self.grid_shape), "counts": dict(self.counts),
            "degenerate_max_drift": json_float(self.degenerate_max_drift),
            "degenerate_ok": self.degenerate_ok,
            "fields_finite": self.fields_finite,
            "design_failures": list(self.design_failures),
            "degenerate_escapes_in_finite_time": self.degenerate_escapes_in_finite_time}


def assumption_entry(self) -> dict:
    return {"condition": self.condition, "points_checked": self.points_checked,
            "degenerate_points": self.degenerate_points,
            "violations": [list(map(json_float, v)) for v in self.violations],
            "escape_in_finite_time": [list(map(json_float, v))
                                      for v in self.escape_in_finite_time],
            "passed": self.passed}


def assumption_report(self) -> dict:
    return {"passed": self.passed,
            "entries": [assumption_entry(e) for e in self.entries],
            # NaN when no g row is finite: there is no value to report
            "g_min_singular_value": json_float(self.g_min_singular_value),
            "g_full_rank": self.g_full_rank,
            "fields_finite": self.fields_finite,
            "design_failures": list(self.design_failures),
            "zero_state_detectability": self.zero_state_detectability,
            "notes": list(self.notes)}


def invariant_check(self) -> dict:
    return {"name": self.name, "passed": self.passed, "detail": self.detail}


def invariant_report(self) -> dict:
    return {"passed": self.passed, "checks": [invariant_check(c) for c in self.checks],
            "fd_constant": json_float(self.fd_constant)}


ORACLES = {ValidationCheck: validation_check, ValidationReport: validation_report,
           Outcome: outcome, SimulationSummary: simulation_summary,
           DecreaseReport: decrease_report, AssumptionEntry: assumption_entry,
           AssumptionReport: assumption_report, InvariantCheck: invariant_check,
           InvariantReport: invariant_report}


def oracle(report) -> dict:
    # geometry's document was a dict of plain values, dumped as built
    return report if isinstance(report, dict) else ORACLES[type(report)](report)


def assert_same(report) -> dict:
    doc = json_doc(report)
    assert doc == oracle(report)
    return doc


FIXTURES = ("linear2d_single", "nonlinear_mech_three")


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("command", ["verify-derivative", "check-assumptions",
                                     "validate-params", "geometry"])
def test_cli_reports(name, command, monkeypatch, capsys):
    # the CLI prints the old text: the oracle's document, dumped as before
    seen = []
    monkeypatch.setattr(cli, "json_doc", lambda v: seen.append(v) or json_doc(v))
    assert cli.main([command, "--scenario", name]) == 0
    (report,) = seen
    want = json.dumps(oracle(report), indent=2, sort_keys=True, allow_nan=False)
    assert capsys.readouterr().out == want + "\n"
    assert_same(report)


def test_trajectory_reports(records_a, cfg_a):
    for record in records_a.values():
        assert assert_same(trajectory_invariants(record, cfg_a))["passed"]
        checks = record_checks(record, cfg_a.integrator.eps_conv)
        assert json_doc(checks) == [invariant_check(c) for c in checks]


def test_run_batch_summary(cfg_a):
    # a start that times out and one inside the barrier region, rejected
    config = dataclasses.replace(
        cfg_a, integrator=dataclasses.replace(cfg_a.integrator, t_max=0.5),
        initial_states=(np.array([5.0, 5.0]), np.array([2.0, 3.5])))
    summary, records = run_batch(config)
    assert [rec.outcome.kind for rec in records] == ["timeout", "init_rejected"]
    for run, rec in zip(summary.runs, records):
        assert run["outcome"] == (outcome(rec.outcome) if rec.outcome else None)
    assert summary.runs[1]["outcome"] == {"kind": "init_rejected"}
    assert assert_same(summary)["runs"][0]["outcome"]["kind"] == "timeout"


def test_empty_grid_rho0_star(cfg_a):
    center = cfg_a.obstacles[0].center
    box = np.stack([center - 0.05, center + 0.05], axis=1)
    report = grid_decrease_check(dataclasses.replace(cfg_a, state_box=box), 11)
    assert report.rho0_star == math.inf
    assert assert_same(report)["rho0_star"] is None


def test_nan_g_min_singular_value(cfg_a):
    nan_g = ControlAffineSystem("nan_g_oracle", 2, 2, lambda x: [-a for a in x],
                                lambda x: np.eye(2) * math.nan)
    report = check_assumptions(with_system(cfg_a, nan_g), 11)
    assert math.isnan(report.g_min_singular_value)
    assert assert_same(report)["g_min_singular_value"] is None


def test_nan_drift_in_a_violation(cfg_a):
    report = check_assumptions(with_system(cfg_a, nan_f_system(0.0)), 11)
    assert any(math.isnan(v[-1]) for v in report.entries[0].violations)
    assert [5.0, -5.0, None] in assert_same(report)["entries"][0]["violations"]


def test_infinite_fd_constant():
    report = InvariantReport(checks=(InvariantCheck("check", True, "detail"),),
                             fd_constant=math.inf)
    assert assert_same(report)["fd_constant"] is None
