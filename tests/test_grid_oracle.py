"""Array grid checks against the per-point loops they replaced.

``decrease_oracle`` and ``assumptions_oracle`` are the point-by-point
``grid_decrease_check`` and ``check_assumptions`` kept verbatim except for
their names and the lines that build their controller or system, which come
from the scenario as in the checks; they call only the scalar certificate and
controller forms.  The
array versions must reproduce their reports exactly: every ``to_dict()`` is
compared with ``==``, no tolerance.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import with_system, zero_gain
from nclbf.certificate import Certificate
from nclbf.controller import TOL_G, Controller
from nclbf.scenario import builtin_scenario
from nclbf.systems import ControlAffineSystem, resolve_system
from nclbf.verify import (BLOCK_ROWS, AssumptionEntry, AssumptionReport,
                          DecreaseReport, check_assumptions,
                          control_row_transversal, grid_decrease_check)


def _grid(config, resolution):
    axes = [np.linspace(lo, hi, resolution) for lo, hi in config.state_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def decrease_oracle(config, resolution=201, tol_f=1e-9):
    ctrl = Controller(config)
    sys_ = ctrl.system
    cert = ctrl.cert
    integ = config.integrator
    pts = _grid(config, resolution)

    counts = {"total": len(pts), "evaluated": 0, "excluded_unsafe": 0,
              "excluded_shrunk_band": 0, "excluded_origin_ball": 0,
              "degenerate_channel": 0}
    rho0 = math.inf
    worst = None
    max_drift = -math.inf
    escapes = 0

    tol_g = TOL_G
    for x in pts:
        L = float(x @ x)
        if L <= integ.eps_conv ** 2:
            counts["excluded_origin_ball"] += 1
            continue
        lab = cert.classify(x)
        if lab.kind == "UNSAFE":
            counts["excluded_unsafe"] += 1
            continue
        if (lab.kind == "R3" and abs(cert.gap(lab.index, x)) <= integ.eps_band
                and cert.L(x) < cert.phi(lab.index)):
            counts["excluded_shrunk_band"] += 1
            continue

        f0 = sys_.f(x)
        g0 = sys_.g(x)
        cands = []
        drift_rows = []
        if lab.kind in ("R1", "R3"):
            i = lab.index
            gB = cert.grad_B(i, x)
            Bg = gB @ g0
            if math.sqrt(float(Bg @ Bg)) > tol_g:
                u = ctrl.kappa1(i, x)
                cands.append(float(gB @ (f0 + g0 @ u)))
            else:
                drift_rows.append((float(gB @ f0),
                                   lambda y, i=i: cert.grad_B(i, y) @ sys_.g(y)))
        if lab.kind in ("R2", "R3"):
            gL = cert.grad_L(x)
            Lg = gL @ g0
            if math.sqrt(float(Lg @ Lg)) > tol_g:
                u = ctrl.kappa2(x)
                cands.append(float(gL @ (f0 + g0 @ u)))
            else:
                drift_rows.append((float(gL @ f0),
                                   lambda y: cert.grad_L(y) @ sys_.g(y)))
        if not cands:
            counts["degenerate_channel"] += 1
            for drift, row_fn in drift_rows:
                if drift <= tol_f:
                    continue
                if control_row_transversal(sys_, row_fn, x):
                    escapes += 1
                else:
                    max_drift = max(max_drift, drift)
            continue
        counts["evaluated"] += 1
        d = max(cands)
        ratio = -d / L
        if ratio < rho0:
            rho0 = ratio
            worst = x
    if max_drift == -math.inf:
        max_drift = 0.0
    return DecreaseReport(
        rho0_star=rho0, worst_point=tuple(map(float, worst)) if worst is not None else (),
        grid_shape=tuple([resolution] * config.n),
        counts=counts, degenerate_max_drift=max_drift,
        degenerate_ok=max_drift <= tol_f, degenerate_escapes=escapes)


def assumptions_oracle(config, grid_resolution=101, tol_f=1e-9):
    system = resolve_system(config)
    cert = Certificate(config)
    pts = _grid(config, grid_resolution)

    fs = np.array([system.f(x) for x in pts])
    gs = [system.g(x) for x in pts]
    svals = np.array([np.linalg.svd(g, compute_uv=False)[-1] for g in gs])
    g_min_sv = float(np.min(svals))
    g_full_rank = g_min_sv > 1e-9
    fields_finite = bool(np.all(np.isfinite(fs))
                         and all(np.all(np.isfinite(g)) for g in gs))

    labels = [cert.classify(x) for x in pts]
    entries = []

    def run_condition(name, member, grad, tol_scale_rows):
        norms = np.array([float(np.linalg.norm(r)) for r in tol_scale_rows])
        med = float(np.median(norms[norms > 0])) if np.any(norms > 0) else 1.0
        tol_g = 1e-6 * med
        checked = degenerate = 0
        violations, escapes = [], []
        for k, x in enumerate(pts):
            if not member(labels[k], x):
                continue
            checked += 1
            row = grad(x) @ gs[k]
            if float(np.linalg.norm(row)) > tol_g:
                continue
            degenerate += 1
            drift = float(grad(x) @ fs[k])
            if drift <= tol_f:
                continue
            if control_row_transversal(system, lambda y: grad(y) @ system.g(y), x):
                escapes.append(tuple(x.tolist()) + (drift,))
            else:
                violations.append(tuple(x.tolist()) + (drift,))
        entries.append(AssumptionEntry(condition=name, points_checked=checked,
                                       degenerate_points=degenerate,
                                       violations=tuple(violations),
                                       escape_notes=tuple(escapes)))

    rows_L = [cert.grad_L(x) @ gs[k] for k, x in enumerate(pts)]
    run_condition("grad L . f <= 0 where grad L . g = 0 (in R2 or any band)",
                  lambda lab, x: lab.kind in ("R2", "R3"),
                  cert.grad_L, rows_L)
    for i in range(config.n_obstacles):
        rows_B = [cert.grad_B(i, x) @ gs[k] for k, x in enumerate(pts)]
        run_condition(
            f"grad B[{i}] . f <= 0 where grad B[{i}] . g = 0 (in R1[{i}] or band[{i}])",
            lambda lab, x, i=i: lab.kind in ("R1", "R3") and lab.index == i,
            lambda x, i=i: cert.grad_B(i, x), rows_B)

    notes = []
    if any(e.escape_notes for e in entries):
        notes.append("pointwise drift-positive degenerate points leave the degenerate "
                     "set in finite time (transversal drift); reported informationally")
    return AssumptionReport(
        entries=tuple(entries), g_min_singular_value=g_min_sv, g_full_rank=g_full_rank,
        fields_finite=fields_finite,
        zero_state_detectability="not machine-checked (not decidable by sampling); "
                                 "grid evidence attached",
        notes=tuple(notes))


def shifted(name, seed):
    """The fixture with its box moved by less than one 201-grid cell."""
    config = builtin_scenario(name)
    box = config.state_box
    cell = float(np.min(box[:, 1] - box[:, 0])) / 200
    shift = np.round(np.random.default_rng([seed, 3]).uniform(
        -0.99, 0.99, size=(config.n, 1)) * cell, 6)
    return dataclasses.replace(config, state_box=box + shift)


def assert_same_decrease(config, resolution):
    got = grid_decrease_check(config, resolution=resolution)
    want = decrease_oracle(config, resolution=resolution)
    assert got.to_dict() == want.to_dict()
    return got


def assert_same_assumptions(config, resolution):
    got = check_assumptions(config, resolution=resolution)
    want = assumptions_oracle(config, grid_resolution=resolution)
    assert got.to_dict() == want.to_dict()
    return got


FIXTURES = ("linear2d_single", "nonlinear_mech_three")


class TestDecreaseMatchesLoop:
    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("resolution", [201, 101])
    def test_fixtures(self, name, resolution):
        report = assert_same_decrease(builtin_scenario(name), resolution)
        assert report.counts["total"] % BLOCK_ROWS  # the last block is partial
        if (name, resolution) == ("nonlinear_mech_three", 201):
            # the escape path: grid points whose control channel vanishes
            # while the drift pushes outward
            assert report.counts["degenerate_channel"] == 134
            assert report.degenerate_escapes > 0

    @pytest.mark.parametrize("name,seed", [("linear2d_single", 1),
                                           ("nonlinear_mech_three", 4),
                                           ("linear2d_single", 9)])
    def test_shifted_boxes(self, name, seed):
        assert_same_decrease(shifted(name, seed), 201)

    def test_three_dimensional(self, cfg_3d):
        assert_same_decrease(cfg_3d, 21)

    def test_zero_gain_controller(self, cfg_a):
        assert not assert_same_decrease(zero_gain(cfg_a), 31).passed

    def test_grid_smaller_than_one_block(self, cfg_b):
        assert 41 ** 2 < BLOCK_ROWS
        assert_same_decrease(cfg_b, 41)

    def test_grid_of_whole_and_partial_blocks(self, cfg_a):
        # 65^2 = 4225 rows: one full block and a 129-row remainder
        assert 65 ** 2 > BLOCK_ROWS and 65 ** 2 % BLOCK_ROWS
        assert_same_decrease(cfg_a, 65)

    def test_degenerate_channel_failure(self, cfg_a):
        # g = 0 leaves no control channel anywhere, and f = x drifts outward
        # along grad L and across the ball without moving the zero row
        degenerate = ControlAffineSystem("degenerate", 2, 2, lambda x: x.copy(),
                                         lambda x: np.zeros((2, 2)))
        report = assert_same_decrease(with_system(cfg_a, degenerate), 21)
        assert report.degenerate_ok is False
        assert report.counts["evaluated"] == 0 and report.degenerate_escapes == 0


class TestAssumptionsMatchLoop:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        assert_same_assumptions(builtin_scenario(name), 101)

    @pytest.mark.parametrize("name,seed", [("linear2d_single", 1),
                                           ("nonlinear_mech_three", 4),
                                           ("nonlinear_mech_three", 9)])
    def test_shifted_boxes(self, name, seed):
        assert_same_assumptions(shifted(name, seed), 101)

    def test_three_dimensional(self, cfg_3d):
        assert_same_assumptions(cfg_3d, 21)

    def test_violations_path(self, cfg_a):
        degenerate = ControlAffineSystem("degenerate", 2, 2, lambda x: x.copy(),
                                         lambda x: np.zeros((2, 2)))
        report = assert_same_assumptions(with_system(cfg_a, degenerate), 21)
        assert report.entries[0].violations
