"""The certificate's clear ball and the engine's shortcut through it.

``Certificate.clear_radius`` is the radius rho of an origin-centred ball in
which the full obstacle pass (``dominant_gap_L`` then ``label``) always gives
(R2, -1) with h < -eps_band and every dd_j >= radius_sq_j.  A free step that
ends with ||x||^2 < rho^2 therefore skips that pass.  These tests run the
engine with and without the shortcut and compare every recorded bit, and pin
rho; ``test_clear_ball_property.py`` checks the ball itself.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from nclbf import builtin_scenario
from nclbf.certificate import Certificate, row_sq
from nclbf.scenario import ObstacleParams, ScenarioConfig
from nclbf.simulator import _Engine


def with_eta2(eta2: float, t_max: float = 3.0) -> ScenarioConfig:
    """linear2d_single with eta2 in place of its w-derived value: 35.5 lets
    the unsafe ball poke out of the barrier region, 73 puts the origin in it
    (rho = 0) and 5 leaves the boundary sphere empty."""
    cfg = builtin_scenario("linear2d_single")
    pa = ObstacleParams(eta1=9.0, eta2=eta2, c1=np.array([10.0, 20.0]))
    return dataclasses.replace(cfg, params=(pa,), integrator=dataclasses.replace(
        cfg.integrator, t_max=t_max))


def engine_run(config, x0, full_pass: bool):
    """One run from x0 (admission overridden), and the number of
    dominant_gap_L calls it made; full_pass forces clear_sq to 0, so every
    gap is the full pass."""
    eng = _Engine(config)
    if full_pass:
        eng.clear_sq = 0.0
    calls = [0]
    gap_L = eng.cert.dominant_gap_L

    def counted(x):
        calls[0] += 1
        return gap_L(x)

    eng.cert.dominant_gap_L = counted
    return eng.run(config.initial_state(x0), override_init=True), calls[0]


def mech_to(t_max: float) -> ScenarioConfig:
    cfg = builtin_scenario("nonlinear_mech_three")
    return dataclasses.replace(cfg, integrator=dataclasses.replace(cfg.integrator, t_max=t_max))


DIFF_CASES = {
    "linear2d_single-5,5": (lambda: builtin_scenario("linear2d_single"), (5.0, 5.0)),
    "linear2d_single-0.5,0.3": (lambda: builtin_scenario("linear2d_single"), (0.5, 0.3)),
    "nonlinear_mech_three-t10": (lambda: mech_to(10.0), (3.2191, -4.5025)),
    "eta2=35.5-5,5": (lambda: with_eta2(35.5), (5.0, 5.0)),
    "eta2=35.5-0.5,0.3": (lambda: with_eta2(35.5), (0.5, 0.3)),
    "eta2=73-5,5": (lambda: with_eta2(73.0), (5.0, 5.0)),
    "eta2=73-0.5,0.3": (lambda: with_eta2(73.0), (0.5, 0.3)),
    "eta2=5-5,5": (lambda: with_eta2(5.0), (5.0, 5.0)),
    "eta2=5-0.5,0.3": (lambda: with_eta2(5.0), (0.5, 0.3)),
}


def assert_same_run(config, x0):
    """The shortcut run equals the full-pass run in x, u, law and outcome,
    bit for bit; returns the run and both runs' dominant_gap_L call counts."""
    fast, fast_calls = engine_run(config, x0, full_pass=False)
    full, full_calls = engine_run(config, x0, full_pass=True)
    assert fast.outcome == full.outcome
    assert len(fast) == len(full)
    assert fast.x.tobytes() == full.x.tobytes()
    assert fast.u.tobytes() == full.u.tobytes()
    assert fast.law == full.law
    return fast, fast_calls, full_calls


class TestShortcutParity:
    @pytest.mark.parametrize("case", DIFF_CASES)
    def test_run_matches_full_pass(self, case):
        make, x0 = DIFF_CASES[case]
        config = make()
        rec, fast_calls, full_calls = assert_same_run(config, np.array(x0))
        # a pass is saved exactly when the run has samples in the ball (none
        # where rho = 0, as for eta2 = 73, or the run ends before reaching it)
        reached = bool((row_sq(rec.x) < Certificate(config).clear_radius ** 2).any())
        assert reached == (fast_calls < full_calls)
        assert fast_calls <= full_calls

    def test_shortcut_fires_on_the_nonlinear_run(self):
        # 94.6 % of the samples of the t = 60 run lie in the ball; to t = 10
        # the run reaches it too, and most steps there skip the pass
        _, fast_calls, full_calls = assert_same_run(mech_to(10.0), np.array([3.2191, -4.5025]))
        assert fast_calls < 0.5 * full_calls

    def test_three_dimensional_head_on_start(self, cfg_3d):
        _, fast_calls, full_calls = assert_same_run(cfg_3d, cfg_3d.initial_states[0])
        assert fast_calls < full_calls


class TestClearRadius:
    def test_builtins_pinned(self, cfg_a, cfg_b):
        # linear2d_single: the boundary sphere binds (the unsafe-ball term is
        # 1.414); nonlinear_mech_three: obstacle 3's sphere binds
        assert Certificate(cfg_a).clear_radius == pytest.approx(0.8221866056114411, abs=1e-12)
        assert Certificate(cfg_b).clear_radius == pytest.approx(0.784698286212566, abs=1e-12)

    def test_degenerate_designs(self):
        c_norm, r = math.sqrt(8.0), math.sqrt(2.0)
        # origin in the barrier region: no clear ball
        assert Certificate(with_eta2(73.0)).clear_radius == 0.0
        # the unsafe ball pokes out of the barrier region: the sphere binds
        assert 0.0 < Certificate(with_eta2(35.5)).clear_radius < c_norm - r - 0.5
        # empty boundary sphere (rbar^2 < 0): the unsafe ball binds
        assert Certificate(with_eta2(5.0)).clear_radius == pytest.approx(c_norm - r, abs=1e-9)
        assert Certificate(with_eta2(5.0)).clear_radius < c_norm - r

    def test_engine_squares_the_radius(self, cfg_a):
        assert _Engine(cfg_a).clear_sq == Certificate(cfg_a).clear_radius ** 2

    @pytest.mark.parametrize("x", [[math.nan, 0.0], [0.0, -math.nan], [math.inf, 0.0],
                                   [-math.inf, math.nan], [1e200, 1e200]])
    def test_non_finite_states_take_the_full_pass(self, cfg_a, x):
        eng = _Engine(cfg_a)
        gap = eng._gap(x)
        assert gap[2] is not None
        assert len(gap) == 4 and len(gap[2]) == cfg_a.n_obstacles

    def test_clear_gap_only_inside(self, cfg_a):
        eng = _Engine(cfg_a)
        rho = Certificate(cfg_a).clear_radius
        assert eng._gap([0.0, 0.0]) == (-1, -math.inf, None, 0.0)
        assert eng._gap([rho, 0.0])[2] is not None

