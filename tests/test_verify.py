"""Generalized-derivative evaluation, grid certification, trajectory checks."""

from __future__ import annotations

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from nclbf.certificate import Certificate, RegionLabel
from nclbf.controller import Controller
from nclbf.scenario import builtin_scenario
from conftest import doctored_record, rows, zero_gain
from nclbf.simulator import read_trajectory_csv, simulate, trajectory_csv_text
from nclbf.verify import (grid_decrease_check, shrunk_band_check,
                          trajectory_invariants, upper_derivative)


def shrunk_band_oracle(record, config):
    """Detail of invariant check (c) by the per-sample loop it replaced."""
    cert = Certificate(config)
    eps_band = config.integrator.eps_band
    hits = []
    margins = [cert.shrunk_band_margin(i) for i in range(cert.n_obstacles)]
    phis = [cert.phi(i) for i in range(cert.n_obstacles)]
    for s in rows(record):
        for i in range(cert.n_obstacles):
            if (abs(cert.gap(i, s.x)) <= eps_band
                    and cert.L(s.x) < phis[i] - margins[i]):
                hits.append((s.t, i))
    return f"{len(hits)} samples flagged" + (f", first at t = {hits[0][0]:.4g}" if hits else "")


@pytest.fixture(scope="module")
def ctrl_a():
    return Controller(builtin_scenario("linear2d_single"))


class TestUpperDerivative:
    def test_barrier_branch_matches_gain_identity(self, ctrl_a):
        x = np.array([2.0, 3.2])
        u = ctrl_a.kappa1(0, x)
        d = upper_derivative(ctrl_a, x, u)
        assert d.d_value == pytest.approx(-20.0 * 14.24, rel=1e-9)
        assert d.d_value == pytest.approx(-284.8, rel=1e-9)

    def test_stabilizer_branch_matches_sontag_identity(self, ctrl_a):
        x = np.array([1.0, 0.0])
        u = ctrl_a.kappa2(x)
        d = upper_derivative(ctrl_a, x, u)
        assert d.region == RegionLabel("R2")
        assert d.d_value == pytest.approx(-math.sqrt(4.0 + 1.6), rel=1e-12)

    def test_band_without_memory_is_max_of_branches(self, ctrl_a):
        cert = ctrl_a.cert
        sph = cert.boundary_sphere(0)
        x = sph.center + sph.radius * np.array([math.cos(2.2), math.sin(2.2)])
        u = np.array([0.3, -0.4])
        d = upper_derivative(ctrl_a, x, u, prev=None)
        F = ctrl_a.system.f(x) + ctrl_a.system.g(x) @ u
        d1 = float(cert.grad_B(0, x) @ F)
        d2 = float(cert.grad_L(x) @ F)
        assert d.d_value == pytest.approx(max(d1, d2), rel=1e-12)
        assert d.d_value == pytest.approx(0.5 * (d1 + d2) + 0.5 * abs(d1 - d2), rel=1e-12)

    def test_band_memory_resolution(self, ctrl_a):
        cert = ctrl_a.cert
        sph = cert.boundary_sphere(0)
        x = sph.center + sph.radius * np.array([math.cos(0.7), math.sin(0.7)])
        u = np.array([0.1, 0.2])
        F = ctrl_a.system.f(x) + ctrl_a.system.g(x) @ u
        d1 = float(cert.grad_B(0, x) @ F)
        d2 = float(cert.grad_L(x) @ F)
        got_r1 = upper_derivative(ctrl_a, x, u, RegionLabel("R1", 0))
        got_r2 = upper_derivative(ctrl_a, x, u, RegionLabel("R2"))
        got_r3 = upper_derivative(ctrl_a, x, u, RegionLabel("R3", 0))
        assert got_r1.d_value == pytest.approx(d1, rel=1e-12)
        assert got_r2.d_value == pytest.approx(d2, rel=1e-12)
        assert got_r3.d_value == pytest.approx(d2, rel=1e-12)


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
        assert Certificate(cfg).classify(wp).kind in ("R1", "R3")

    def test_empty_grid_certifies_nothing(self, cfg_a):
        # a +-0.05 box around obstacle 1's center: all 121 points are unsafe
        center = cfg_a.obstacles[0].center
        box = np.stack([center - 0.05, center + 0.05], axis=1)
        report = grid_decrease_check(dataclasses.replace(cfg_a, state_box=box),
                                     resolution=11)
        assert report.counts["excluded_unsafe"] == report.counts["total"] == 121
        assert report.counts["evaluated"] == 0
        assert not report.passed
        doc = report.to_dict()
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

    def test_empty_record_rejected(self, cfg_a):
        rec = simulate(cfg_a, np.array([2.0, 2.0]))   # init_rejected: no samples
        with pytest.raises(ValueError):
            trajectory_invariants(rec, cfg_a)
