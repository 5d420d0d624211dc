"""Benchmark systems, their row evaluators and the sampled structural checks.

The bit-for-bit property of the row evaluators is in test_row_property.py.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import spy_system, with_system
from nclbf.controller import Controller
from nclbf.scenario import builtin_scenario, json_doc
from nclbf.simulator import rk4_step, simulate
from nclbf.systems import (ControlAffineSystem, builtin_linear2d, builtin_nonlinear_mech,
                           pointwise_rows, register_system, resolve_system)
from nclbf.verify import check_assumptions, control_row_transversal, grid_decrease_check

BUILTINS = (builtin_linear2d, builtin_nonlinear_mech)


class TestLinear2d:
    sys = builtin_linear2d()

    def test_equilibrium(self):
        assert np.array_equal(self.sys.f(np.zeros(2)), np.zeros(2))

    def test_drift(self):
        assert np.array_equal(self.sys.f(np.array([5.0, 5.0])), [-5.0, -5.0])

    def test_input_matrix_identity(self):
        assert np.array_equal(self.sys.g(np.array([3.0, -1.0])), np.eye(2))
        assert (self.sys.n, self.sys.m) == (2, 2)


class TestNonlinearMech:
    sys = builtin_nonlinear_mech()

    def test_equilibrium(self):
        assert np.array_equal(self.sys.f(np.zeros(2)), np.zeros(2))

    def test_damping_vanishes_on_axis(self):
        assert np.array_equal(self.sys.f(np.array([1.0, 0.0])), [0.0, -1.0])

    def test_unit_velocity_point(self):
        expected_x2dot = -1.0 - (0.8 + 0.2 * math.exp(-100.0)) * math.tanh(10.0)
        f = self.sys.f(np.array([0.0, 1.0]))
        assert f[0] == 1.0
        assert f[1] == pytest.approx(expected_x2dot, rel=1e-15)
        assert f[1] == pytest.approx(-1.8, abs=1e-7)

    def test_input_column(self):
        assert np.array_equal(self.sys.g(np.array([2.0, 2.0])), [[0.0], [1.0]])
        assert (self.sys.n, self.sys.m) == (2, 1)

    def test_radial_drift_vanishes_with_gradient(self):
        # wherever grad L . g = 0 (the x2 = 0 line), grad L . f = 0 exactly
        for a in (-3.0, 0.5, 4.0):
            x = np.array([a, 0.0])
            f = self.sys.f(x)
            assert float(2.0 * x @ f) == 0.0


class TestCheckAssumptions:
    def test_linear2d_passes(self, cfg_a):
        report = check_assumptions(cfg_a, resolution=41)
        assert report.passed
        assert report.g_full_rank
        assert "not machine-checked" in report.zero_state_detectability

    def test_nonlinear_mech_passes_with_escape_notes(self, cfg_b):
        report = check_assumptions(cfg_b, resolution=101)
        assert report.passed
        # the x2 = 2 line inside obstacle 1's barrier region drifts upward but
        # leaves the degenerate set in finite time
        b2 = next(e for e in report.entries if "B[1]" in e.condition)
        assert b2.escape_in_finite_time and not b2.violations

    def test_uncontrollable_unstable_system_fails_everywhere(self, cfg_a):
        def f(x):
            return list(x)

        def g(x):
            return np.zeros((2, 2))

        degenerate = ControlAffineSystem("degenerate", 2, 2, f, g)
        report = check_assumptions(with_system(cfg_a, degenerate), resolution=21)
        assert not report.passed
        assert not report.g_full_rank
        entry = report.entries[0]
        # every checked grid point is degenerate; all but the origin violate
        assert entry.degenerate_points == entry.points_checked
        assert len(entry.violations) >= entry.points_checked - 1

    @pytest.mark.parametrize("edge,g_min_sv", [(4.9, 1.0), (-math.inf, None)])
    def test_non_finite_g_is_reported(self, cfg_a, edge, g_min_sv):
        # g = NaN * I for x1 > edge: the x1 = 5 column of an 11^2 grid, or every row
        def g(x):
            return np.eye(2) * (math.nan if x[0] > edge else 1.0)

        nan_g = ControlAffineSystem(f"nan_g_{edge}", 2, 2, lambda x: [-a for a in x], g)
        doc = json_doc(check_assumptions(with_system(cfg_a, nan_g), resolution=11))
        assert doc["fields_finite"] is False and doc["passed"] is False
        assert doc["g_min_singular_value"] == g_min_sv
        assert doc["g_full_rank"] is (g_min_sv is not None)

    def test_registry_round_trip(self, cfg_a):
        register_system("linear2d_alias", builtin_linear2d)
        cfg = dataclasses.replace(cfg_a, system_id="linear2d_alias")
        assert resolve_system(cfg).name == "linear2d"

    def test_unknown_system_id(self, cfg_a):
        cfg = dataclasses.replace(cfg_a, system_id="missing")
        with pytest.raises(ValueError, match="unknown system id"):
            resolve_system(cfg)


class TestRowEvaluators:
    @pytest.mark.parametrize("factory", BUILTINS)
    def test_no_rows(self, factory):
        system = factory()
        F, G = system.fg_rows(np.empty((0, system.n)))
        assert F.shape == (0, system.n) and G.shape == (0, system.n, system.m)

    @pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three"])
    def test_grid_checks_equal_pointwise_path(self, name):
        config = builtin_scenario(name)
        system = resolve_system(config)
        pointwise = with_system(config, dataclasses.replace(
            system, name=f"{system.name}_pointwise", fg_rows=None))
        assert resolve_system(pointwise).fg_rows.func is pointwise_rows
        assert (json_doc(grid_decrease_check(pointwise, 41))
                == json_doc(grid_decrease_check(config, 41)))
        assert (json_doc(check_assumptions(pointwise, 33))
                == json_doc(check_assumptions(config, 33)))

    def test_system_without_rows_uses_pointwise_path(self, cfg_3d):
        # a system given no rows gets them built from its own f and g
        pointwise = with_system(cfg_3d, dataclasses.replace(
            resolve_system(cfg_3d), name="linear3d_pointwise", fg_rows=None))
        system = resolve_system(pointwise)
        X = np.random.default_rng(3).uniform(-5.0, 5.0, size=(50, 3))
        F, G = system.fg_rows(X)
        assert F.tobytes() == np.array([system.f(x) for x in X.tolist()]).tobytes()
        assert G.tobytes() == np.array([system.g(x) for x in X.tolist()]).tobytes()
        assert np.array_equal(F, -X) and np.array_equal(G, np.broadcast_to(np.eye(3), (50, 3, 3)))
        assert (json_doc(grid_decrease_check(pointwise, resolution=11))
                == json_doc(grid_decrease_check(cfg_3d, resolution=11)))


class TestStateContract:
    """f and g take the state as a list of n Python floats, from every caller:
    spy_system's f and g assert it on each call."""

    def test_every_caller_passes_a_list_of_floats(self, cfg_a):
        spy, calls = spy_system(builtin_linear2d())
        config = with_system(cfg_a, spy)

        def evals(run):
            before = dict(calls)
            run()
            return calls["f"] - before["f"], calls["g"] - before["g"]

        x, u = np.array([4.0, 3.5]), np.array([1.0, -2.0])
        assert min(evals(lambda: simulate(config, np.array([5.0, 5.0])))) > 0
        assert evals(lambda: rk4_step(spy, x, u, 1e-3)) == (4, 4)
        ctrl = Controller(config)
        assert evals(lambda: ctrl.kappa1(0, x)) == (1, 1)
        assert evals(lambda: ctrl.kappa2(x)) == (1, 1)
        X = np.random.default_rng(4).uniform(-5.0, 5.0, size=(7, 2))
        assert evals(lambda: spy.fg_rows(X)) == (7, 7)
        assert evals(lambda: control_row_transversal(spy, lambda y: 2.0 * y, x)) == (1, 0)

    def test_degenerate_rule_passes_a_list_of_floats(self, cfg_a):
        # every point but the origin is degenerate with a positive drift, so
        # beyond the built rows' 25 calls each, the transversal test evaluates f,
        # and g through the control row, at those points
        spy, calls = spy_system(ControlAffineSystem("degenerate", 2, 2, lambda x: list(x),
                                                    lambda x: np.zeros((2, 2))))
        report = check_assumptions(with_system(cfg_a, spy), resolution=5)
        assert report.entries[0].degenerate_points > 0
        assert calls["f"] > 25 and calls["g"] > 25
