"""Integrator order, closed-loop runs, records, and CSV round trips."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import math
import sys
import tracemalloc
import types
from collections import namedtuple

import numpy as np
import pytest

from conftest import spy_system, with_system
from nclbf import builtin_scenario
from nclbf.certificate import R1, R3, UNSAFE, Certificate
from nclbf.controller import Controller
from nclbf.scenario import IntegratorSettings, ObstacleParams, ObstacleSpec, ScenarioConfig
from nclbf.simulator import (_Engine, _rk4, _Slide, read_trajectory_csv, run_batch,
                             simulate, trajectory_csv_text, trajectory_header,
                             write_trajectory_csv)
from nclbf.systems import (ControlAffineSystem, builtin_linear2d, fg_at, register_system,
                           resolve_system)
from nclbf.verify import record_checks


def assert_columns_are_the_scalar_forms(rec, config):
    """Every row's (kind, index), V and min_dist, which the engine derives from
    one row pass over x, equal the scalar forms at that x: the label of
    dominant_gap (R2 at index -1), the step's own L + h rule, and
    sqrt(dd) - radii."""
    cert = Certificate(config)
    assert len(rec) and rec.kind.shape == rec.index.shape == (len(rec),)
    for k, x in enumerate(rec.x):
        i, h, dd = cert.dominant_gap(x)
        assert (rec.kind[k], rec.index[k]) == cert.label(i, h, dd), k
        L = cert.L(x)
        assert rec.V[k] == (L + h if h > 0.0 else L), k
        assert rec.min_dist[k].tolist() == (np.sqrt(dd) - cert.radii).tolist(), k


def held_linear2d(x, u, tau: float) -> np.ndarray:
    """linear2d's flow xdot = -x + u with u held: e^-tau x + (1 - e^-tau) u,
    for any real tau."""
    return math.exp(-tau) * np.asarray(x) - math.expm1(-tau) * np.asarray(u)


class TestRk4Step:
    """The engine's RK4 step, _rk4, on lists of floats with f and g at x from
    fg_at, as the engine calls it; a non-finite state is the engine's
    numeric_blowup outcome (TestSimulate.test_numeric_blowup_outcome)."""
    sys = builtin_linear2d()
    held_u = [0.7, -1.3]   # a held input other than 0

    def step(self, x, u, dt):
        return _rk4(self.sys, x, u, dt, *fg_at(self.sys, x))

    def test_against_exact_exponential(self):
        x1 = self.step([1.0, 0.0], [0.0, 0.0], 1e-3)
        assert x1[0] == pytest.approx(math.exp(-1e-3), abs=1e-14)
        assert x1[0] == pytest.approx(0.9990005, abs=1e-7)
        assert x1[1] == 0.0
        x1 = self.step([1.0, 0.0], self.held_u, 1e-3)
        exact = held_linear2d([1.0, 0.0], self.held_u, 1e-3)
        assert x1 == pytest.approx(exact.tolist(), abs=1e-14)

    def test_fixed_point(self):
        x = [2.0, -3.0]
        assert self.step(x, [*x], 0.05) == x

    def test_global_error_fourth_order(self):
        def final_error(dt, u):
            x = [1.0, 0.0]
            for _ in range(int(round(1.0 / dt))):
                x = self.step(x, u, dt)
            return float(np.abs(np.array(x) - held_linear2d([1.0, 0.0], u, 1.0)).max())

        for u in ([0.0, 0.0], self.held_u):
            assert final_error(1e-3, u) < 1e-10
            ratio = final_error(0.02, u) / final_error(0.01, u)
            assert 12.0 < ratio < 20.0, u


class TestSimulate:
    def test_far_start_converges_safely(self, cfg_a, records_a):
        rec = records_a[(5.0, 5.0)]
        assert rec.outcome.kind == "converged"
        assert rec.outcome.t < cfg_a.integrator.t_max
        assert rec.min_clearance() > 0.0
        # the path detours along the virtual boundary: some samples sit in the band
        assert (rec.kind == R3).any()

    def test_obstacle_center_start_rejected(self, cfg_a):
        rec = simulate(cfg_a, np.array([2.0, 2.0]))
        assert rec.outcome.kind == "init_rejected"
        assert len(rec) == 0
        assert (rec.t.shape, rec.x.shape, rec.u.shape, rec.V.shape, rec.min_dist.shape) == (
            (0,), (0, 2), (0, 2), (0,), (0, 1))
        assert rec.kind.shape == rec.index.shape == (0,) and rec.law == ()

    def test_barrier_region_start_rejected_without_override(self, cfg_a):
        assert simulate(cfg_a, np.array([2.0, 3.5])).outcome.kind == "init_rejected"
        rec = simulate(cfg_a, np.array([2.0, 3.5]), override_init=True)
        assert rec.outcome.kind == "converged"
        assert rec.min_clearance() > 0.0

    def test_multi_obstacle_start_converges_with_clearance(self, records_b):
        rec = records_b[(-5.0, 5.0)]
        assert rec.outcome.kind == "converged"
        assert rec.min_clearance() > 0.0

    def test_sample_grid_and_consistency(self, cfg_a, records_a):
        # the other runs that check their columns this way: the 3-D run, the
        # safety violation, the numeric blowup and the slide pin failures
        rec = records_a[(5.0, 2.0)]
        dt = cfg_a.integrator.dt
        assert np.allclose(np.diff(rec.t), dt, atol=1e-12)
        assert_columns_are_the_scalar_forms(rec, cfg_a)

    def test_determinism_bitwise(self, cfg_a):
        a = simulate(cfg_a, np.array([3.0, 5.0]))
        b = simulate(cfg_a, np.array([3.0, 5.0]))
        assert len(a) == len(b)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.V, b.V) and a.law == b.law

    def test_numeric_blowup_outcome(self, cfg_a):
        def f(x):
            x = np.asarray(x)
            return np.array([x[0] ** 3, -x[1]])

        def g(x):
            return np.array([[0.0], [1.0]])

        register_system("runaway", lambda: ControlAffineSystem("runaway", 2, 1, f, g))
        ob = ObstacleSpec(center=np.array([2.0, 2.0]), radius_sq=0.5)
        pa = ObstacleParams.resolve(ob, eta1=9.0, c1=[10.0], w=1.0)
        cfg = ScenarioConfig(system_id="runaway", state_box=cfg_a.state_box,
                             obstacles=(ob,), params=(pa,),
                             gamma=0.1,
                             integrator=IntegratorSettings(dt=1e-3, t_max=2.0))
        rec = simulate(cfg, np.array([4.0, 0.0]))
        assert rec.outcome.kind == "numeric_blowup"
        assert len(rec)  # aborted mid-run, samples up to the failure
        with np.errstate(over="ignore", invalid="ignore"):
            assert_columns_are_the_scalar_forms(rec, cfg)

    def test_safety_violation_outcome(self, cfg_a):
        # a constant drift into the ball and a dead input channel: kappa1
        # takes over in the barrier region but cannot act, and the run stops
        # at the first sample inside the ball
        register_system("drift_left", lambda: ControlAffineSystem(
            "drift_left", 2, 1, lambda x: np.array([-1.0, 0.0]), lambda x: np.zeros((2, 1))))
        pa = ObstacleParams.resolve(cfg_a.obstacles[0], eta1=9.0, c1=[10.0], w=0.9)
        cfg = dataclasses.replace(cfg_a, system_id="drift_left", params=(pa,))
        rec = simulate(cfg, np.array([5.0, 2.0]))
        assert (rec.outcome.kind, rec.outcome.obstacle) == ("safety_violation", 0)
        assert rec.outcome.t == pytest.approx(1.586)
        assert (rec.kind[-1], rec.index[-1], rec.law[-1]) == (UNSAFE, 0, "-")
        assert not rec.u[-1].any()
        assert_columns_are_the_scalar_forms(rec, cfg)
        assert "K1:1" in rec.law
        assert not record_checks(rec, cfg.integrator.eps_conv)[0].passed


class TestSlidePinFailure:
    """The slide's fallbacks when the pinning correction finds no input."""

    @staticmethod
    def run(cfg, monkeypatch, fails):
        pinned = _Engine._pinned
        monkeypatch.setattr(_Engine, "_pinned",
                            lambda self, *a: None if fails(self) else pinned(self, *a))
        rec = simulate(cfg, np.array([5.0, 5.0]))
        assert_columns_are_the_scalar_forms(rec, cfg)
        return rec

    def test_halved_substeps_keep_the_slide(self, cfg_a, monkeypatch):
        # every pin above dt/8 fails, so each slide step halves its substep
        # before a pin holds (dt/64, the smallest substep, gives the same
        # outcome at ten times the cost)
        rec = self.run(cfg_a, monkeypatch, lambda e: e.mode.sub > e.dt / 8)
        assert rec.outcome.kind == "converged"
        assert rec.outcome.t == pytest.approx(6.881)
        assert any(law.startswith("K3") for law in rec.law)
        assert rec.min_clearance() > 0.0

    def test_slide_ends_when_no_pin_holds(self, cfg_a, monkeypatch):
        # without a slide the state chatters between kappa1 and kappa2 near
        # (2.71, 3.26) from t = 2 on; the full 20 s horizon times out there too
        integ = dataclasses.replace(cfg_a.integrator, t_max=3.0)
        rec = self.run(dataclasses.replace(cfg_a, integrator=integ), monkeypatch,
                       lambda e: True)
        assert rec.outcome.kind == "timeout"
        assert rec.min_clearance() == pytest.approx(0.0219, abs=1e-4)
        assert {"K1:1", "K2"} == set(rec.law)
        assert np.linalg.norm(rec.x[-1]) > 4.0


def test_barrier_entry_latch_holds_kappa1(cfg_a, monkeypatch):
    """The step from sample 2 of this admissible start crosses into the
    barrier region where both fields point inward (dh/dt = +148.8 under
    kappa2, +397.6 under kappa1): the event enters latched(0), whose kappa1,
    not dispatch's band law, governs the rest of that step."""
    calls = []   # ("rates", x, hd2, hd1), ("k1", x) outside _rates, ("dispatch", x)
    in_rates = []
    rates, kappa1, dispatch = _Engine._rates, Controller.kappa1, Controller.dispatch

    def rates_spy(self, i, x, *a):
        in_rates.append(True)
        try:
            out = rates(self, i, x, *a)
        finally:
            in_rates.pop()
        calls.append(("rates", list(x), out[2], out[4]))
        return out

    def kappa1_spy(self, i, x, *a):
        if not in_rates:
            calls.append(("k1", list(x)))
        return kappa1(self, i, x, *a)

    def dispatch_spy(self, region, x, *a):
        calls.append(("dispatch", list(x)))
        return dispatch(self, region, x, *a)

    monkeypatch.setattr(_Engine, "_rates", rates_spy)
    monkeypatch.setattr(Controller, "kappa1", kappa1_spy)
    monkeypatch.setattr(Controller, "dispatch", dispatch_spy)
    cfg = dataclasses.replace(cfg_a, integrator=dataclasses.replace(cfg_a.integrator,
                                                                    t_max=0.3))
    x0 = np.array([3.5285, 1.9299])
    assert Certificate(cfg).admissible(x0)[0]
    rec = simulate(cfg, x0)
    assert rec.x[3].tolist() == [3.5228277373280354, 1.7602712111174612]
    assert (rec.kind[3], rec.index[3], rec.law[3]) == (R1, 0, "K1:1")
    assert rec.law[:3] == ("K2",) * 3
    # the located crossing: sample 2's dispatch, then _rates at the crossing
    # with both rates positive, then kappa1 there with no dispatch between
    first = next(k for k, c in enumerate(calls) if c[0] == "rates")
    (_, x2), (_, xc, hd2, hd1), after = calls[first - 1], calls[first], calls[first + 1]
    assert x2 == rec.x[2].tolist()
    assert xc == pytest.approx([3.5189, 1.9246], abs=1e-4)
    assert hd2 == pytest.approx(148.8, abs=0.1) and hd1 == pytest.approx(397.6, abs=0.1)
    assert after == ("k1", xc)
    assert_columns_are_the_scalar_forms(rec, cfg)


RATES = (-1.0, -0.0, 0.0, 1.0, math.inf, -math.inf, math.nan)
_SlideState = namedtuple("_SlideState", "i h_tgt sub alpha", defaults=(0.0,))


def latch_and_slide_entry(self, i, h, hd2, hd1):
    """The located event's if-chain from before the engine had one mode, kept
    verbatim: self carries dt, forced_k1 = -1 (free) and slide = None."""
    if hd2 > 0.0 > hd1:
        self.slide = _SlideState(i, min(h, 0.0), self.dt / 4.0)
        self.forced_k1 = -1
    elif hd2 > 0.0 and hd1 >= 0.0:
        # both fields point inward: the flow properly enters the
        # barrier region, where kappa1 governs
        self.forced_k1 = i
    else:
        self.forced_k1 = -1


def test_entered_mode_matches_the_latch_and_slide_chain(cfg_a):
    """_Engine._entered gives the mode the two-field chain gave for every pair
    of signed zeros, units, infinities and NaN rates: a NaN stays free."""
    engine = _Engine(cfg_a)
    wrong = []
    for (hd2, hd1), h in itertools.product(itertools.product(RATES, repeat=2), (-3e-4, 2e-4)):
        old = types.SimpleNamespace(dt=engine.dt, forced_k1=-1, slide=None)
        latch_and_slide_entry(old, 0, h, hd2, hd1)
        mode = engine._entered(0, h, hd2, hd1)
        if type(mode) is _Slide:
            new = (-1, _SlideState(mode.i, mode.h_tgt, mode.sub, mode.alpha))
        else:
            new = (-1 if mode is None else mode, None)
        if new != (old.forced_k1, old.slide):
            wrong.append((hd2, hd1, h, new, (old.forced_k1, old.slide)))
    assert not wrong


def test_locate_finds_the_held_closed_form_root(cfg_a):
    """_locate's crossing time is the root of B - L along linear2d's held
    closed form, bisected to 1e-15 of the span.  Each start lies just off
    the surface, on the held flow that meets it at 0.4 of the span."""
    engine = _Engine(cfg_a)
    cert, span = engine.cert, 1e-3
    c, r = cert.cbars[0], math.sqrt(cert.rbars_sq[0])

    def h(x):
        return cert.B(0, x) - cert.L(x)

    for theta, speed in ((0.3, 20.0), (1.2, -20.0), (2.5, 5.0), (4.0, -5.0)):
        n = np.array([math.cos(theta), math.sin(theta)])
        p = c + r * n                                        # a point of B = L
        u = p + speed * n + 3.0 * np.array([-n[1], n[0]])    # xdot at p is u - p
        x = held_linear2d(p, u, -0.4 * span)
        h0 = cert.dominant_gap(x)[1]
        assert (h0 > 0.0) != (h(held_linear2d(x, u, span)) > 0.0)
        lo, hi = 0.0, span
        while hi - lo > 1e-15 * span:
            mid = 0.5 * (lo + hi)
            if (h(held_linear2d(x, u, mid)) > 0.0) == (h0 > 0.0):
                lo = mid
            else:
                hi = mid
        tau = engine._locate(x, u, span, h0, *fg_at(engine.system, x))
        assert abs(tau - hi) <= 1e-12 * span, (theta, (tau - hi) / span)


def is_numpy(fn) -> bool:
    """fn, the callee of a c_call event, is numpy's: its module is numpy, or
    it is bound to a numpy object or module."""
    owner = getattr(fn, "__self__", None)
    names = [getattr(fn, "__module__", None) or "", type(owner).__module__,
             owner.__name__ if isinstance(owner, types.ModuleType) else ""]
    return any(n == "numpy" or n.startswith("numpy.") for n in names)


@pytest.mark.parametrize("name, x0", [("linear2d_single", (5.0, 5.0)),
                                      ("nonlinear_mech_three", (-5.0, 5.0))])
def test_no_numpy_call_inside_a_step(name, x0, monkeypatch):
    """A sys.setprofile hook over each _Engine.advance counts the c_call events
    of numpy functions and methods: after the first step, which converts g's
    array to rows, a step makes none (the engine that kept its products
    ndarray.dot made 47.3 and 20.1 per step), sliding from (5, 5) too, and it
    returns its state and input as lists."""
    counts, steps = [], []
    advance = _Engine.advance

    def hook(frame, event, arg):
        if event == "c_call" and is_numpy(arg):
            counts[-1] += 1

    def counted(self, *args):
        counts.append(0)
        before = sys.getprofile()
        sys.setprofile(hook)
        try:
            out = advance(self, *args)
        finally:
            sys.setprofile(before)
        steps.append(out)
        return out

    monkeypatch.setattr(_Engine, "advance", counted)
    cfg = builtin_scenario(name)
    simulate(dataclasses.replace(cfg, integrator=dataclasses.replace(
        cfg.integrator, t_max=2.0)), np.array(x0))
    assert len(counts) == 2000 and counts[0] > 0
    assert sum(counts[1:]) == 0
    assert any(law.startswith("K3") for *_, law in steps)
    assert all(type(x) is list and type(u) is list for x, _, _, _, u, _ in steps)


class TestSampledData:
    """A run is the zero-order-hold loop with sample period dt, and it
    converges at first order in dt to the continuous closed loop."""

    @staticmethod
    def run(dt, t_max, x0):
        cfg = builtin_scenario("linear2d_single")
        return simulate(dataclasses.replace(cfg, integrator=dataclasses.replace(
            cfg.integrator, dt=dt, t_max=t_max)), np.array(x0))

    def test_k2_error_is_first_order_in_dt(self):
        # from (-5, -3) the first second is K2 alone; x(1)'s error against
        # dt_ref is C (dt - dt_ref) to first order, so from one dt to the next
        # it shrinks by (dt_a - dt_ref)/(dt_b - dt_ref): 2.0667, 2.1429 and
        # 2.3333 (measured 2.0675, 2.1433 and 2.3336)
        dt_ref, dts = 6.25e-5, (2e-3, 1e-3, 5e-4, 2.5e-4)
        x_ref = self.run(dt_ref, 1.0, (-5.0, -3.0)).x[-1]
        errors = []
        for dt in dts:
            rec = self.run(dt, 1.0, (-5.0, -3.0))
            assert set(rec.law) == {"K2"} and rec.outcome.t == pytest.approx(1.0)
            errors.append(float(np.linalg.norm(rec.x[-1] - x_ref)))
        for k in range(3):
            predicted = (dts[k] - dt_ref) / (dts[k + 1] - dt_ref)
            assert errors[k] / errors[k + 1] == pytest.approx(predicted, rel=0.01), k

    def test_slide_run_converges_in_dt(self):
        # from (5, 5) about 2 s of the run slide; at dt = 5e-3, 2e-3, 1e-3 and
        # 5e-4 the outcome t went 6.825, 6.866, 6.876, 6.8795, the K3 time
        # 1.98, 2.02, 2.031, 2.0345 and the clearance 0.02631437, 0.02631296,
        # 0.02631261, 0.02631252: every successive difference shrinks
        ts, k3_times, clearances = [], [], []
        for dt in (5e-3, 2e-3, 1e-3, 5e-4):
            rec = self.run(dt, 20.0, (5.0, 5.0))
            assert rec.outcome.kind == "converged"
            ts.append(rec.outcome.t)
            k3_times.append(dt * sum(law.startswith("K3") for law in rec.law))
            clearances.append(rec.min_clearance())
        for q in (ts, k3_times, clearances):
            steps = np.abs(np.diff(q))
            assert (steps[1:] < steps[:-1]).all(), q
        # the spread at 5e-3 is 1.85e-6
        assert max(clearances[1:]) - min(clearances[1:]) < 1e-6, clearances


class TestThreeDimensional:
    def test_head_on_start_slides_and_converges_safely(self, cfg_3d):
        from nclbf.verify import trajectory_invariants, validate_params
        assert validate_params(cfg_3d).passed
        rec = simulate(cfg_3d, cfg_3d.initial_states[0])
        assert rec.outcome.kind == "converged"
        assert rec.min_clearance() > 0.0
        # (4, 4, 2) lies behind the obstacle on the ray through its center
        assert any(law.startswith("K3") for law in rec.law)
        assert trajectory_invariants(rec, cfg_3d).passed
        assert_columns_are_the_scalar_forms(rec, cfg_3d)


@pytest.mark.parametrize("name, x0, t_max, evals", [
    ("linear2d_single", (5.0, 5.0), 20.0, 40104),
    ("nonlinear_mech_three", (-5.0, 5.0), 2.0, 10106),
])
def test_rhs_evaluations_per_run(name, x0, t_max, evals):
    """f and g evaluations of a run, and f and g go together.  The engine
    that took the state as an array made the same calls; with index-order
    products the slide pins from (5, 5) need three secant evaluations (nine
    calls) fewer in all than with ndarray.dot, which made 40,113."""
    cfg = builtin_scenario(name)
    spy, calls = spy_system(resolve_system(cfg))
    cfg = with_system(dataclasses.replace(
        cfg, integrator=dataclasses.replace(cfg.integrator, t_max=t_max)), spy)
    simulate(cfg, np.array(x0))
    assert calls == {"f": evals, "g": evals}


def test_run_memory_is_its_columns():
    # nonlinear_mech_three from (-5, 5) needs about 50 s, so t_max = 2 gives
    # 2,001 samples; a short run first keeps one-time allocations out
    cfg = builtin_scenario("nonlinear_mech_three")
    x0 = np.array([-5.0, 5.0])
    simulate(dataclasses.replace(cfg, integrator=dataclasses.replace(
        cfg.integrator, t_max=0.01)), x0)
    cfg = dataclasses.replace(cfg, integrator=dataclasses.replace(cfg.integrator, t_max=2.0))
    tracemalloc.start()
    try:
        rec = simulate(cfg, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    K = len(rec)
    assert K == 2001 and rec.outcome.kind == "timeout"
    # the record keeps 88 B per sample (n = 2, m = 1, N = 3); an ndarray per
    # sample for x and u and a law string per step would take about 500 B
    assert peak < 250 * K, peak / K
    assert rec.t.tolist() == [k * cfg.integrator.dt for k in range(K)]
    assert len(set(map(id, rec.law))) == len(set(rec.law))


class TestRunBatch:
    def test_five_starts_all_converge(self, cfg_a):
        summary, records = run_batch(cfg_a)
        assert len(records) == 5
        assert all(r.outcome.kind == "converged" for r in records)
        assert all(run["min_min_dist"] > 0 for run in summary.runs)
        assert [run["index"] for run in summary.runs] == list(range(5))

    def test_multi_obstacle_batch_converges(self, records_b):
        assert len(records_b) == 8
        assert all(r.outcome.kind == "converged" for r in records_b.values())
        assert all(r.min_clearance() > 0 for r in records_b.values())

    def test_empty_initial_states(self, cfg_a):
        cfg = dataclasses.replace(cfg_a, initial_states=())
        summary, records = run_batch(cfg)
        assert summary.runs == () and records == ()

    def test_init_rejected_entry(self, cfg_a):
        cfg = dataclasses.replace(cfg_a, initial_states=(np.array([2.0, 2.0]),))
        summary, records = run_batch(cfg)
        assert summary.runs[0]["outcome"]["kind"] == "init_rejected"
        assert summary.runs[0]["n_samples"] == 0


class TestTrajectoryCsv:
    def test_header_format(self, cfg_b):
        assert trajectory_header(2, 1, 3) == [
            "t", "x1", "x2", "u1", "V", "region", "law",
            "mindist1", "mindist2", "mindist3"]

    def test_round_trip_exact(self, records_a):
        rec = records_a[(0.2, 0.8)]
        text = trajectory_csv_text(rec)
        back = read_trajectory_csv(io.StringIO(text))
        assert len(back) == len(rec)
        assert np.array_equal(rec.t, back.t) and np.array_equal(rec.V, back.V)
        assert np.array_equal(rec.x, back.x)
        assert np.array_equal(rec.u, back.u)
        assert np.array_equal(rec.kind, back.kind) and np.array_equal(rec.index, back.index)
        assert rec.kind.dtype == back.kind.dtype and rec.law == back.law
        assert np.array_equal(rec.min_dist, back.min_dist)

    def test_region_and_law_codes(self, records_a):
        rec = records_a[(5.0, 5.0)]
        text = trajectory_csv_text(rec)
        lines = text.splitlines()
        # columns: t, x1, x2, u1, u2, V, region, law, mindist1
        assert lines[0].split(",") == ["t", "x1", "x2", "u1", "u2", "V",
                                       "region", "law", "mindist1"]
        assert lines[1].split(",")[6] == "R2"
        codes = {line.split(",")[6] for line in lines[1:]}
        assert "R3:1" in codes
        laws = {line.split(",")[7] for line in lines[1:]}
        assert "K2" in laws and "K3:1>K2" in laws

    def test_read_holds_each_float_about_once(self, records_a):
        # each column group reads into its own buffer, so the columns need no
        # copy at the end: the read peaks well below twice the record
        text = trajectory_csv_text(records_a[(5.0, 2.0)])
        read_trajectory_csv(io.StringIO("".join(text.splitlines(True)[:3])))
        fp = io.StringIO(text)
        tracemalloc.start()
        try:
            rec = read_trajectory_csv(fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (rec.t, rec.x, rec.u, rec.V, rec.kind, rec.index,
                                      rec.min_dist)) + sys.getsizeof(rec.law)
        assert len(rec) >= 2000 and all(a.flags.c_contiguous for a in (rec.t, rec.x, rec.u))
        assert peak < 1.5 * kept, peak / kept

    def test_empty_record_rejected(self, cfg_a):
        rec = simulate(cfg_a, np.array([2.0, 2.0]))   # init_rejected: no samples
        with pytest.raises(ValueError):
            write_trajectory_csv(rec, io.StringIO())

    def test_overflowed_u_V_and_mindist_are_read(self):
        # a run that ends in numeric_blowup can record these; t and x stay finite
        text = ("t,x1,x2,u1,u2,V,region,law,mindist1\n"
                "0.0,5.0,5.0,inf,-inf,inf,R2,K2,nan\n")
        rec = read_trajectory_csv(io.StringIO(text))
        assert np.isinf(rec.u).all() and np.isinf(rec.V[0]) and np.isnan(rec.min_dist[0, 0])


class TestRecordColumns:
    def test_samples_property_rebuilds_rows(self, records_a):
        from nclbf.simulator import StepSample
        rec = records_a[(5.0, 5.0)]
        samples = rec.samples
        assert len(samples) == len(rec)
        for k in (0, 1, len(rec) // 2, len(rec) - 1):
            s = samples[k]
            assert isinstance(s, StepSample) and type(s.t) is float and type(s.V) is float
            assert s.t == rec.t[k] and s.V == rec.V[k]
            assert np.array_equal(s.x, rec.x[k]) and np.array_equal(s.u, rec.u[k])
            assert (s.kind, s.index) == (rec.kind[k], rec.index[k]) and s.law is rec.law[k]
            assert np.array_equal(s.min_dist, rec.min_dist[k])
        assert [s.law for s in samples] == list(rec.law)

    def test_min_dist_is_clearance_from_centre_distances(self, cfg_b, records_b):
        rec = records_b[(2.0, 5.0)]
        cert = Certificate(cfg_b)
        for k in (0, 1234, len(rec) - 1):
            dd = cert.dominant_gap(rec.x[k])[2]
            assert rec.min_dist[k].tolist() == (np.sqrt(dd) - cert.radii).tolist()
        assert rec.min_clearance() == min(rec.min_dist.ravel().tolist())


# (outcome t, sample count, final state) of every fixture start, recorded
# from the engine whose products are index-order sums; all outcomes are
# "converged"
PINNED_A = {
    (5.0, 5.0): (6.876, 6877, (0.00041692053640937963, 0.009989588369031608)),
    (4.0, 4.0): (6.689, 6690, (0.0004167482251315198, 0.009985383350257287)),
    (3.5, 3.5): (6.5760000000000005, 6577, (0.00041667142599469863, 0.00998349386508595)),
    (5.0, 2.0): (5.389, 5390, (0.009979855697943595, 0.00041651347390754616)),
    (3.0, 5.0): (5.633, 5634, (0.00041671041283838526, 0.009984454252222313)),
    (0.2, 0.8): (3.729, 3730, (0.002424682738351756, 0.009698730953407024)),
    (0.55, 0.55): (3.68, 3681, (0.007065928948405943, 0.007065928948405943)),
    (0.8, 0.2): (3.729, 3730, (0.009698730953407024, 0.002424682738351756)),
}
PINNED_B = {
    (-5.0, 5.0): (50.082, 50083, (-0.009962718414698507, 0.0008562544908924004)),
    (-4.0, -5.0): (51.389, 51390, (-0.009963222046594727, 0.0008562983332751556)),
    (-5.0, 0.0): (51.295, 51296, (-0.009963269101100103, 0.0008563024294872397)),
    (5.0, -5.0): (50.713, 50714, (0.009963060136126278, -0.0008562842385686372)),
    (5.0, 0.0): (51.928000000000004, 51929, (0.009962629801805728, -0.0008562467769300659)),
    (4.0, 4.0): (51.815, 51816, (0.009963137108312942, -0.0008562909391870468)),
    (3.0, 2.0): (50.177, 50178, (0.009962702898461673, -0.0008562531401670863)),
    (2.0, 5.0): (50.082, 50083, (0.00996269887431866, -0.0008562527898558759)),
}

# the same, recorded from the engine whose products were ndarray.dot (OpenBLAS
# fuses the multiply-add) before they became index-order sums, and the sha256
# of each start's law column ("\n".join(record.law)) recorded from that engine
PINNED_A_BLAS = {
    (5.0, 5.0): (6.876, 6877, (0.00041692053640937535, 0.009989588369031431)),
    (4.0, 4.0): (6.689, 6690, (0.0004167482251315248, 0.009985383350257296)),
    (3.5, 3.5): (6.5760000000000005, 6577, (0.0004166714259947032, 0.009983493865085992)),
    (5.0, 2.0): (5.389, 5390, (0.009979855697943628, 0.00041651347390753586)),
    (3.0, 5.0): (5.633, 5634, (0.0004167104128383825, 0.009984454252222313)),
    (0.2, 0.8): (3.729, 3730, (0.002424682738351756, 0.009698730953407024)),
    (0.55, 0.55): (3.68, 3681, (0.007065928948405943, 0.007065928948405943)),
    (0.8, 0.2): (3.729, 3730, (0.009698730953407024, 0.002424682738351756)),
}
PINNED_B_BLAS = {
    (-5.0, 5.0): (50.082, 50083, (-0.009962718414698507, 0.0008562544908924004)),
    (-4.0, -5.0): (51.389, 51390, (-0.009963222046594727, 0.0008562983332751556)),
    (-5.0, 0.0): (51.295, 51296, (-0.009963269101100103, 0.0008563024294872397)),
    (5.0, -5.0): (50.713, 50714, (0.00996306013612628, -0.0008562842385686373)),
    (5.0, 0.0): (51.928000000000004, 51929, (0.009962629801805728, -0.0008562467769300659)),
    (4.0, 4.0): (51.815, 51816, (0.009963137108312928, -0.0008562909391870456)),
    (3.0, 2.0): (50.177, 50178, (0.009962702898461673, -0.0008562531401670863)),
    (2.0, 5.0): (50.082, 50083, (0.009962698874318648, -0.0008562527898558749)),
}
PINNED_LAW_A = {
    (5.0, 5.0):
        "7f0ff09f8d17c54be6da4d5a43ce133fa2ff3423600c56c993efa0fc97d5f7b9",
    (4.0, 4.0):
        "e00a5259e939215c71c9757663b04590d59db363f6cc40b12a2ecc925e677fd1",
    (3.5, 3.5):
        "30ad281e0d668ccd8379d231b5c13ae44f7866a502c2387c5ff0e86bc424a2f2",
    (5.0, 2.0):
        "80539646e55c4506ab0f0d172281233209c4ddc2fb3dba7194824e96be1bb5bb",
    (3.0, 5.0):
        "18ab153f50f65e242741f808efac63521efba8cde7be2197089a8128748baf53",
    (0.2, 0.8):
        "1885bc30432b85ee55919c57e756bafe659ad862bd9c33829786beb3477501c3",
    (0.55, 0.55):
        "fbdebbdc9999da90d50f5e8df803e6624ce82a11cea3ead2558b9e7c4258af90",
    (0.8, 0.2):
        "1885bc30432b85ee55919c57e756bafe659ad862bd9c33829786beb3477501c3",
}
PINNED_LAW_B = {
    (-5.0, 5.0):
        "6ffed9086639ad711187b2dfbfbbaba27ceb47519e2b94c1f852c730196ae5c4",
    (-4.0, -5.0):
        "dab92cef5ec96e1a8e4917f53cc69359d4f9e9ada578e4d34b5f79c62048eba5",
    (-5.0, 0.0):
        "2d1326d9f9f17fec937bcb890a6091f0ead10b344d518d481bdb0c3aef0346a7",
    (5.0, -5.0):
        "8f71ea8c3c23dde16309598e8a1a63453fc92095969559dc0e03ab9926e85fbd",
    (5.0, 0.0):
        "e85f20386a1167326bba0840f2a230e9d0be16ad19d8459171c5fd3d21de8b05",
    (4.0, 4.0):
        "a0130d3592b987410d15c2c8fcdcbbb5cb7b0828e813865e32ecbfcd805c06aa",
    (3.0, 2.0):
        "5b7d683efa87f2d7a623e2e515ab8765bc3c9466b7db1aa9d38747c28176f5aa",
    (2.0, 5.0):
        "81137dba76ed9d2a85fefeb01587adc2b608105e58c810ba6e47784ea38f6306",
}

# sha256 of trajectory_csv_text(record) of every fixture start, recorded from
# the engine whose products are index-order sums: the whole trajectory, not
# only its end, stays bit for bit
PINNED_CSV_A = {
    (5.0, 5.0):
        "9a032fe5bd2aa25eaa21a7ac3d1bb6c525b1f1f89454e04fd3b6a010ed86c7d5",
    (4.0, 4.0):
        "738556e281b3ed55bca09195125fc966404777b7c4416a24515ef46dad8352d9",
    (3.5, 3.5):
        "5a1c83dd2eb82a28c1c7c7c043af0c0062b653f7461bc8eb015e1b1dbdf8eaa1",
    (5.0, 2.0):
        "70c4f38b3b820343d4d297776d76ce824dbc1c986a2acdbc5fa491152c515c4c",
    (3.0, 5.0):
        "95fe1e816e17d625c11fd276ff1b42d1acf44c4d69d12d640d52ba64caead5af",
    (0.2, 0.8):
        "1c7466a06ab1bfbf2fe48541d27d714bf2705d72e1c44467cb0bf93402f9ab44",
    (0.55, 0.55):
        "0d941cf5c7b70f89b01e4fb5c5fbc6d4c2cc9a831f92b0b62ebcdee3624759a8",
    (0.8, 0.2):
        "a7298f31d113a45d5df85176fa860879a4e861d137810477af45b433484859dd",
}
PINNED_CSV_B = {
    (-5.0, 5.0):
        "64af6b3a0f0202dda9a54062f8fb78b231d3ef11155d81662e6b92a5e6fbe1b1",
    (-4.0, -5.0):
        "fce196938b7f06c900fd4a3b85cf8c3fbd3fc378a5a224f623bac28e6aca0c0d",
    (-5.0, 0.0):
        "94ec2433e8d80130f70a8fe27e0c7782570a7fe6a788dee14e83c5465dc7fc3f",
    (5.0, -5.0):
        "c1b46b4b56ef8b7080e60572cf25fdd6edad474f4450c1b5520e6f84cbe86156",
    (5.0, 0.0):
        "07b94127cf6118d32c26d35dd2fc7f510a9e65e5edad2ac3d7488964c08aa2bb",
    (4.0, 4.0):
        "888aa07177e0cd55cf12c93d02a28717a4940dfa9f6cdabe554c93ab5ab9b66f",
    (3.0, 2.0):
        "5b835cb33ca14a97f78aa5360b768fcb00f921d00f122dc2d4936035033085ea",
    (2.0, 5.0):
        "004a6c98b019cf403737bf702c3a0ae9759c844b9eb7f861108e5c98184ae30d",
}


class TestEngineParity:
    @pytest.mark.parametrize("fixture, pinned", [("records_a", PINNED_A),
                                                 ("records_b", PINNED_B)])
    def test_fixture_starts_match_recorded_engine(self, request, fixture, pinned):
        records = request.getfixturevalue(fixture)
        assert set(records) == set(pinned)
        for x0, (t, n_samples, final) in pinned.items():
            rec = records[x0]
            assert rec.outcome.kind == "converged", x0
            assert rec.outcome.t == t, x0
            assert len(rec) == n_samples, x0
            assert tuple(rec.x[-1].tolist()) == final, x0

    @pytest.mark.parametrize("fixture, pinned", [("records_a", PINNED_CSV_A),
                                                 ("records_b", PINNED_CSV_B)])
    def test_fixture_trajectories_match_recorded_engine(self, request, fixture, pinned):
        records = request.getfixturevalue(fixture)
        assert set(records) == set(pinned)
        for x0, digest in pinned.items():
            text = trajectory_csv_text(records[x0])
            assert hashlib.sha256(text.encode()).hexdigest() == digest, x0

    @pytest.mark.parametrize("fixture, pinned, laws", [
        ("records_a", PINNED_A_BLAS, PINNED_LAW_A), ("records_b", PINNED_B_BLAS, PINNED_LAW_B)])
    def test_fixture_starts_match_the_blas_engine(self, request, fixture, pinned, laws):
        """Against the engine whose products were ndarray.dot: the outcome t,
        the sample count and the law column are the same, and the final state
        is within 1e-12 (index-order and fused sums differ in the last bit)."""
        records = request.getfixturevalue(fixture)
        assert set(records) == set(pinned) == set(laws)
        for x0, (t, n_samples, final) in pinned.items():
            rec = records[x0]
            assert (rec.outcome.kind, rec.outcome.t, len(rec)) == ("converged", t, n_samples), x0
            assert np.abs(rec.x[-1] - final).max() <= 1e-12, x0
            law = hashlib.sha256("\n".join(rec.law).encode()).hexdigest()
            assert law == laws[x0], x0
