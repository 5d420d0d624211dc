"""Generalized-derivative evaluation, grid certification, trajectory checks."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from nclbf import verify
from nclbf.certificate import R1, R2, R3, UNSAFE, Certificate, row_dot
from nclbf.controller import Controller, band_takes_kappa1
from nclbf.scenario import ObstacleParams, builtin_scenario, json_doc
from conftest import doctored_record, rows, zero_gain
from nclbf.simulator import read_trajectory_csv, simulate, trajectory_csv_text
from nclbf.verify import (fd_constant, grid_decrease_check, shrunk_band_check,
                          trajectory_invariants, upper_derivative, validate_params)


def shrunk_band_oracle(record, config):
    """Detail of invariant check (c) by the per-sample loop it replaced."""
    cert = Certificate(config)
    eps_band = config.integrator.eps_band
    hits = []
    margins = [cert.shrunk_band_margin(i) for i in range(cert.n_obstacles)]
    for s in rows(record):
        for i in range(cert.n_obstacles):
            if (abs(cert.B(i, s.x) - cert.L(s.x)) <= eps_band
                    and cert.L(s.x) < cert.phis[i] - margins[i]):
                hits.append((s.t, i))
    return f"{len(hits)} samples flagged" + (f", first at t = {hits[0][0]:.4g}" if hits else "")


def relabelling_derivative_rows(ctrl, X, U, prev=None):
    """derivative_rows as it was when it labelled its own rows: (kind, index, d)."""
    cert = ctrl.cert
    kind, index = cert.label_rows(*cert.dominant_gap_rows(X))
    F, G = ctrl.system.fg_rows(X)
    F = F + (G @ U[:, :, None])[:, :, 0]
    d1 = row_dot(cert.grad_B(index, X), F)
    d2 = row_dot(cert.grad_L(X), F)
    if prev is None:
        band = 0.5 * (d1 + d2) + 0.5 * np.abs(d1 - d2)
    else:
        band = np.where(band_takes_kappa1(prev, index), d1, d2)
    d = np.where((kind == R1) | (kind == UNSAFE), d1, np.where(kind == R2, d2, band))
    return kind, index, d


@pytest.fixture(scope="module")
def ctrl_a():
    return Controller(builtin_scenario("linear2d_single"))


class TestUpperDerivative:
    def test_barrier_branch_matches_gain_identity(self, ctrl_a):
        x = np.array([2.0, 3.2])
        u = ctrl_a.kappa1(0, x)
        d = upper_derivative(ctrl_a, x, u)[2]
        assert d == pytest.approx(-20.0 * 14.24, rel=1e-9)
        assert d == pytest.approx(-284.8, rel=1e-9)

    def test_stabilizer_branch_matches_sontag_identity(self, ctrl_a):
        x = np.array([1.0, 0.0])
        u = ctrl_a.kappa2(x)
        kind, index, d = upper_derivative(ctrl_a, x, u)
        assert (kind, index) == (R2, -1)
        assert d == pytest.approx(-math.sqrt(4.0 + 1.6), rel=1e-12)

    def test_band_without_memory_is_max_of_branches(self, ctrl_a):
        cert = ctrl_a.cert
        cbar, rbar_sq = cert.boundary_sphere(0)
        x = cbar + math.sqrt(rbar_sq) * np.array([math.cos(2.2), math.sin(2.2)])
        u = np.array([0.3, -0.4])
        d = upper_derivative(ctrl_a, x, u, prev=None)[2]
        F = ctrl_a.system.f(x) + ctrl_a.system.g(x) @ u
        d1 = float(cert.grad_B(0, x) @ F)
        d2 = float(cert.grad_L(x) @ F)
        assert d == pytest.approx(max(d1, d2), rel=1e-12)
        assert d == pytest.approx(0.5 * (d1 + d2) + 0.5 * abs(d1 - d2), rel=1e-12)

    def test_band_memory_resolution(self, ctrl_a):
        cert = ctrl_a.cert
        cbar, rbar_sq = cert.boundary_sphere(0)
        x = cbar + math.sqrt(rbar_sq) * np.array([math.cos(0.7), math.sin(0.7)])
        u = np.array([0.1, 0.2])
        F = ctrl_a.system.f(x) + ctrl_a.system.g(x) @ u
        d1 = float(cert.grad_B(0, x) @ F)
        d2 = float(cert.grad_L(x) @ F)
        got_r1 = upper_derivative(ctrl_a, x, u, (R1, 0))
        got_r2 = upper_derivative(ctrl_a, x, u, (R2, -1))
        got_r3 = upper_derivative(ctrl_a, x, u, (R3, 0))
        assert got_r1[2] == pytest.approx(d1, rel=1e-12)
        assert got_r2[2] == pytest.approx(d2, rel=1e-12)
        assert got_r3[2] == pytest.approx(d2, rel=1e-12)


class TestGridDecrease:
    def test_single_obstacle_fixture(self, cfg_a):
        report = grid_decrease_check(cfg_a, resolution=51)
        assert report.passed
        # Sontag gives a constant decrease ratio for this system
        assert report.rho0_star == pytest.approx(math.sqrt(5.6), rel=1e-6)
        assert report.counts["excluded_unsafe"] > 0

    def test_multi_obstacle_fixture(self, cfg_b):
        report = grid_decrease_check(cfg_b, resolution=51)
        assert report.passed
        assert report.rho0_star > 0.0
        assert report.degenerate_ok

    def test_three_dimensional_fixture(self, cfg_3d):
        report = grid_decrease_check(cfg_3d, resolution=21)
        assert report.passed
        assert report.grid_shape == (21, 21, 21)
        # f = -x, g = I gives the same Sontag ratio as the planar linear system
        assert report.rho0_star == pytest.approx(math.sqrt(5.6), rel=1e-6)
        assert report.counts["excluded_unsafe"] > 0

    def test_degenerate_gain_fails(self, cfg_a):
        cfg = zero_gain(cfg_a)   # force the rejected-upstream degenerate case
        report = grid_decrease_check(cfg, resolution=31)
        assert not report.passed
        assert report.rho0_star <= 0.0
        # the worst point sits on the barrier side, where the decrease is
        # proportional to the (now zero) gain sum
        wp = np.asarray(report.worst_point)
        assert Certificate(cfg).classify(wp)[0] in (R1, R3)

    def test_empty_grid_certifies_nothing(self, cfg_a):
        # a +-0.05 box around obstacle 1's center: all 121 points are unsafe
        center = cfg_a.obstacles[0].center
        box = np.stack([center - 0.05, center + 0.05], axis=1)
        report = grid_decrease_check(dataclasses.replace(cfg_a, state_box=box),
                                     resolution=11)
        assert report.counts["excluded_unsafe"] == report.counts["total"] == 121
        assert report.counts["evaluated"] == 0
        assert not report.passed
        doc = json_doc(report)
        assert doc["rho0_star"] is None and doc["worst_point"] == []
        json.dumps(doc, allow_nan=False)

    def test_resolution_floor(self, cfg_a):
        with pytest.raises(ValueError):
            grid_decrease_check(cfg_a, resolution=5)

    def test_mech_rate_is_a_property_of_the_grid(self, cfg_b):
        # On x2 = 0 both L_g = 2 x2 and L_f vanish, so -dV/dt / ||x||^2 falls
        # like x2^2 next to that line: the worst point sits one cell off it at
        # the box edge x1 = -5, and halving the cell quarters rho0*.
        reports = {res: grid_decrease_check(cfg_b, resolution=res) for res in (201, 401)}
        assert 3.0 < reports[201].rho0_star / reports[401].rho0_star < 5.0
        for res, report in reports.items():
            cell = 10.0 / (res - 1)
            x1, x2 = report.worst_point
            assert x1 == -5.0
            assert abs(x2) == pytest.approx(cell, rel=1e-9)


def traced_peak(check, config, resolution) -> int:
    """tracemalloc's peak in bytes over one check call, after a first call
    has made the one-time allocations."""
    check(config, resolution)
    tracemalloc.start()
    try:
        check(config, resolution)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridMemory:
    @pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three"])
    def test_decrease_check_memory_does_not_grow_with_the_grid(self, name):
        # each BLOCK_ROWS block builds its own grid rows: about 1.3 MB at 201
        # and at 401 alike on linear2d_single, where the whole grid held up
        # front gave 1.98 and 5.16 MB
        config = builtin_scenario(name)
        small, large = (traced_peak(grid_decrease_check, config, r) for r in (201, 401))
        assert large < 1.25 * small, (small, large)

    @pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three"])
    def test_assumptions_memory_per_point(self, name):
        # the per-point labels (kind, index) and the norms and drifts of the
        # 1 + N control rows, 16 + 16 (1 + N) B, which the grid median needs,
        # plus 32 B for the block's temporaries, the masks and the nonzero
        # norms the median reorders; the whole grid held up front took 16 B
        # more (88.7 and 122.8 B at 201)
        config = builtin_scenario(name)
        stored = 16 + 16 * (1 + config.n_obstacles)
        per_point = traced_peak(verify.check_assumptions, config, 201) / 201 ** 2
        assert per_point < stored + 32, per_point


@pytest.mark.parametrize("a", [
    [3.0], [2.0, 1.0], [5.0, 1.0, 3.0], [0.1, 0.7, 0.2, 0.3],
    [math.inf, 1.0], [math.inf, 1.0, 2.0], [math.inf, math.inf, 1.0, 0.5], [math.inf] * 4,
    np.random.default_rng(11).uniform(1e-3, 7.0, 4097).tolist(),
    np.random.default_rng(12).lognormal(0.0, 3.0, 4096).tolist()])
def test_median_equals_numpy_median(a):
    a = np.array(a)
    want = np.median(a)
    got = verify._median(a.copy())
    assert type(got) is float and got.hex() == float(want).hex()


class TestTrajectoryInvariants:
    def test_single_obstacle_run_passes_all(self, cfg_a, records_a):
        report = trajectory_invariants(records_a[(5.0, 5.0)], cfg_a)
        assert report.passed
        assert len(report.checks) == 4
        assert report.fd_constant >= 0.0

    def test_corrupted_record_fails_safety(self, cfg_a, records_a):
        # sample 100 moved to (2, 2), obstacle 1's centre
        doctored = doctored_record(records_a[(5.0, 2.0)], cfg_a)
        report = trajectory_invariants(doctored, cfg_a)
        safety = next(c for c in report.checks if c.name.startswith("safety"))
        assert not safety.passed
        band = next(c for c in report.checks if c.name.startswith("shrunk-band"))
        assert band.detail == shrunk_band_oracle(doctored, cfg_a)

    def test_multi_obstacle_run_reports_attracting_surface(self, cfg_b, records_b):
        # The (2,5) run crosses an attracting patch of obstacle 2's surface
        # where every admissible input yields dV/dt ~ +1.4, and later rides
        # obstacle 1's sphere well below phi (the drift keeps pushing inward
        # there, so the "bounce back" premise fails).  The checks report both
        # honestly while safety holds throughout; see the README's discussion.
        report = trajectory_invariants(records_b[(2.0, 5.0)], cfg_b)
        names = {c.name: c for c in report.checks}
        assert names[[n for n in names if n.startswith("safety")][0]].passed
        decrease = names[[n for n in names if "certificate decrease" in n][0]]
        assert not decrease.passed
        assert "0.0013" in decrease.detail or "0.0014" in decrease.detail
        band = names[[n for n in names if "shrunk-band" in n][0]]
        assert not band.passed

    @pytest.mark.parametrize("fixture, cfg", [("records_a", "cfg_a"),
                                              ("records_b", "cfg_b")])
    def test_shrunk_band_check_matches_per_sample_loop(self, request, fixture, cfg):
        config = request.getfixturevalue(cfg)
        cert = Certificate(config)
        for x0, rec in request.getfixturevalue(fixture).items():
            expected = shrunk_band_oracle(rec, config)
            back = read_trajectory_csv(io.StringIO(trajectory_csv_text(rec)))
            assert shrunk_band_check(rec, cert).detail == expected, x0
            assert shrunk_band_check(back, cert).detail == expected, x0

    @pytest.mark.parametrize("fixture, cfg", [("records_a", "cfg_a"),
                                              ("records_b", "cfg_b")])
    def test_fd_constant_matches_relabelling_oracle(self, request, monkeypatch, fixture, cfg):
        # check (d) passes the record's own labels to derivative_rows; the
        # oracle labels every block again, and both give C bit for bit
        config = request.getfixturevalue(cfg)
        ctrl, eps_conv = Controller(config), config.integrator.eps_conv
        records = request.getfixturevalue(fixture)
        got = {x0: fd_constant(rec, ctrl, eps_conv) for x0, rec in records.items()}

        def relabelled(ctrl, X, U, kind, index):
            want_kind, want_index, d = relabelling_derivative_rows(ctrl, X, U)
            assert np.array_equal(kind, want_kind) and np.array_equal(index, want_index)
            return d

        monkeypatch.setattr(verify, "derivative_rows", relabelled)
        for x0, rec in records.items():
            C, n_smooth = fd_constant(rec, ctrl, eps_conv)
            assert n_smooth > 0, x0
            assert (C.hex(), n_smooth) == (got[x0][0].hex(), got[x0][1]), x0

    def test_invariant_memory_scales_with_band_rows(self, cfg_b, records_b):
        # check (c) reads the record's labels and evaluates only its R3 rows
        # (1,624 here), and check (d) works BLOCK_ROWS steps at a time: about
        # 20 B per sample; full-length B_i - L temporaries per obstacle take 57
        rec = records_b[(-5.0, 5.0)]
        trajectory_invariants(rec, cfg_b)   # one-time allocations first
        tracemalloc.start()
        try:
            trajectory_invariants(rec, cfg_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rec) == 50083
        assert peak < 40 * len(rec), peak / len(rec)

    def test_other_multi_obstacle_runs_decrease(self, cfg_b, records_b):
        for x0, rec in records_b.items():
            if x0 == (2.0, 5.0):
                continue
            assert rec.v_increase(cfg_b.integrator.eps_conv)[0] <= 1e-6

    def test_fd_residual_bound_halves_with_dt(self, cfg_a):
        # the residual bound is C*dt with C a per-run constant, so halving dt
        # halves the bound while C itself stays of the same order
        rec1 = simulate(cfg_a, np.array([5.0, 2.0]))
        c1 = trajectory_invariants(rec1, cfg_a).fd_constant
        cfg_half = dataclasses.replace(
            cfg_a, integrator=dataclasses.replace(cfg_a.integrator, dt=5e-4))
        rec2 = simulate(cfg_half, np.array([5.0, 2.0]))
        c2 = trajectory_invariants(rec2, cfg_half).fd_constant
        assert c1 > 0.0
        bound1 = c1 * cfg_a.integrator.dt
        bound2 = c2 * cfg_half.integrator.dt
        assert bound2 <= 0.65 * bound1
        assert 0.5 * c1 <= c2 <= 2.0 * c1

    def test_slide_entry_increase_shrinks_with_dt(self, cfg_a):
        # eta1 = 3.5 and w = 1.5 pass validate_params; the run from (5, 5)
        # enters a slide at t = 0.416, where a deeper band target raises L.
        # The target deepens at a rate in time, so at dt = 2.5e-4 the entry
        # step's V increase stays below the decrease check's 1e-6 (a fixed
        # deepening per recorded step would give +1.56e-6 there)
        pa = ObstacleParams.resolve(cfg_a.obstacles[0], eta1=3.5, c1=cfg_a.params[0].c1, w=1.5)
        config = dataclasses.replace(cfg_a, params=(pa,), integrator=dataclasses.replace(
            cfg_a.integrator, dt=2.5e-4, t_max=1.0))
        assert validate_params(config).passed
        rec = simulate(config, np.array([5.0, 5.0]))
        assert "K3:1>K2" in rec.law
        report = trajectory_invariants(rec, config)
        decrease = next(c for c in report.checks if "certificate decrease" in c.name)
        assert decrease.passed, decrease.detail

    def test_empty_record_rejected(self, cfg_a):
        rec = simulate(cfg_a, np.array([2.0, 2.0]))   # init_rejected: no samples
        with pytest.raises(ValueError):
            trajectory_invariants(rec, cfg_a)
