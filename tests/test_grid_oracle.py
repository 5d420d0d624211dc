"""Array grid checks against the per-point loops they replaced.

``decrease_oracle`` and ``assumptions_oracle`` are the point-by-point
``grid_decrease_check`` and ``check_assumptions`` kept verbatim except for
their names and the lines that build their controller or system, which come
from the scenario as in the checks, and the non-finite rules that
``decrease_oracle`` shares with the check: ``fields_finite`` over the points
where f and g are evaluated, a NaN degenerate drift kept by the maximum, and
a NaN ratio kept by the minimum (the first in grid order), and
``assumptions_oracle``'s median over the finite nonzero row norms.  They call
only the scalar certificate forms and the array-form laws with ndarray.dot
(``kappa1_oracle``, ``kappa2_oracle``), the grid's rounding, and each product
and ||x||^2 is an ndarray.dot; at each degenerate point
``control_row_transversal``, the per-point test the checks ran before their
degenerate rule took rows.  Both take ``design_failures`` from
``validate_params``' failed entries, its initial-state entries left out
(``design_oracle``).  The array
versions must reproduce their reports exactly: every report's ``json_doc`` is
compared with ``==``, no tolerance.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import nan_f_system, with_system, zero_gain
from nclbf import verify
from nclbf.certificate import R1, R2, R3, UNSAFE, Certificate
from nclbf.controller import TOL_G, Controller
from nclbf.scenario import builtin_scenario, json_doc
from nclbf.systems import ControlAffineSystem, resolve_system
from nclbf.verify import (BLOCK_ROWS, AssumptionEntry, AssumptionReport,
                          DecreaseReport, check_assumptions, grid_decrease_check, grid_points)
from test_engine_oracle import kappa1_oracle, kappa2_oracle


def _grid(config, resolution):
    """The whole grid as the checks built it when they held all of it."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in config.state_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def design_oracle(config) -> tuple[str, ...]:
    """validate_params' failed entries but the initial-state ones, by name."""
    return tuple(c.name for c in verify.validate_params(config).checks
                 if not (c.passed or c.name.startswith("initial_state")))


def control_row_transversal(system: ControlAffineSystem, row_fn, x: np.ndarray) -> bool:
    """Does the row x -> row_fn(x) change along the drift at x?

    True means the drift carries the state off the row's zero set in finite
    time (finite-difference directional derivative along f).
    """
    fx = np.asarray(system.f(x.tolist()), float)
    nf = float(np.linalg.norm(fx))
    if nf == 0.0:
        return False
    h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    r0, r1 = row_fn(x), row_fn(x + (h / nf) * fx)
    return float(np.linalg.norm(r1 - r0)) / h > 1e-6


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
    fields_finite = True

    tol_g = TOL_G
    for x in pts:
        L = float(x @ x)
        if L <= integ.eps_conv ** 2:
            counts["excluded_origin_ball"] += 1
            continue
        kind, i = cert.classify(x)
        if kind == UNSAFE:
            counts["excluded_unsafe"] += 1
            continue
        if (kind == R3 and abs(cert.B(i, x) - cert.L(x)) <= integ.eps_band
                and L < cert.phis[i]):
            counts["excluded_shrunk_band"] += 1
            continue

        f0 = sys_.f(x)
        g0 = sys_.g(x)
        fields_finite = fields_finite and bool(np.isfinite(f0).all() and np.isfinite(g0).all())
        cands = []
        drift_rows = []
        if kind in (R1, R3):
            gB = cert.grad_B(i, x)
            Bg = gB @ g0
            if math.sqrt(float(Bg @ Bg)) > tol_g:
                u = kappa1_oracle(ctrl, i, x, f0, g0, dot=np.dot)
                cands.append(float(gB @ (f0 + g0 @ u)))
            else:
                drift_rows.append((float(gB @ f0),
                                   lambda y, i=i: cert.grad_B(i, y) @ sys_.g(y)))
        if kind in (R2, R3):
            gL = cert.grad_L(x)
            Lg = gL @ g0
            if math.sqrt(float(Lg @ Lg)) > tol_g:
                u = kappa2_oracle(ctrl, x, f0, g0, dot=np.dot)
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
                    max_drift = float(np.max([max_drift, drift]))
            continue
        counts["evaluated"] += 1
        d = max(cands)
        ratio = -d / L
        if ratio < rho0 or math.isnan(ratio) and not math.isnan(rho0):
            rho0 = ratio
            worst = x
    if max_drift == -math.inf:
        max_drift = 0.0
    return DecreaseReport(
        rho0_star=rho0, worst_point=tuple(map(float, worst)) if worst is not None else (),
        grid_shape=tuple([resolution] * config.n),
        counts=counts, degenerate_max_drift=max_drift,
        degenerate_ok=max_drift <= tol_f, fields_finite=fields_finite,
        design_failures=design_oracle(config), degenerate_escapes_in_finite_time=escapes)


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
        finite = norms[(norms > 0) & np.isfinite(norms)]
        med = float(np.median(finite)) if finite.size else 1.0
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
                                       escape_in_finite_time=tuple(escapes)))

    rows_L = [cert.grad_L(x) @ gs[k] for k, x in enumerate(pts)]
    run_condition("grad L . f <= 0 where grad L . g = 0 (in R2 or any band)",
                  lambda lab, x: lab[0] in (R2, R3),
                  cert.grad_L, rows_L)
    for i in range(config.n_obstacles):
        rows_B = [cert.grad_B(i, x) @ gs[k] for k, x in enumerate(pts)]
        run_condition(
            f"grad B[{i}] . f <= 0 where grad B[{i}] . g = 0 (in R1[{i}] or band[{i}])",
            lambda lab, x, i=i: lab in ((R1, i), (R3, i)),
            lambda x, i=i: cert.grad_B(i, x), rows_B)

    notes = []
    if any(e.escape_in_finite_time for e in entries):
        notes.append("pointwise drift-positive degenerate points leave the degenerate "
                     "set in finite time (transversal drift); reported informationally")
    return AssumptionReport(
        entries=tuple(entries), g_min_singular_value=g_min_sv, g_full_rank=g_full_rank,
        fields_finite=fields_finite, design_failures=design_oracle(config),
        zero_state_detectability="not machine-checked (not decidable by sampling); "
                                 "grid evidence attached",
        notes=tuple(notes))


def shifted(name, seed):
    """The fixture with its box moved by less than one 201-grid cell."""
    return shift_box(builtin_scenario(name), seed)


def shift_box(config, seed):
    """config with its box moved by less than one 201-grid cell per axis."""
    box = config.state_box
    cell = float(np.min(box[:, 1] - box[:, 0])) / 200
    shift = np.round(np.random.default_rng([seed, 3]).uniform(
        -0.99, 0.99, size=(config.n, 1)) * cell, 6)
    return dataclasses.replace(config, state_box=box + shift)


def assert_same_decrease(config, resolution):
    got = grid_decrease_check(config, resolution=resolution)
    want = decrease_oracle(config, resolution=resolution)
    assert json_doc(got) == json_doc(want)
    return got


def assert_same_assumptions(config, resolution):
    got = check_assumptions(config, resolution=resolution)
    want = assumptions_oracle(config, grid_resolution=resolution)
    assert json_doc(got) == json_doc(want)
    return got


FIXTURES = ("linear2d_single", "nonlinear_mech_three")

# state-dependent g without fg_rows, so runs of equal g rows are the grid's x2
# lines; the corner variant differs only at (5, 5), the last row of its only block
STATE_G = ControlAffineSystem("state_g", 2, 2, lambda x: [-a for a in x],
                              lambda x: np.diag([1.0, 0.1 + x[0] ** 2]))
CORNER_G = ControlAffineSystem("corner_g", 2, 2, lambda x: [-a for a in x],
                               lambda x: np.diag([1.0, 0.5 if sum(x) == 10.0 else 1.0]))
# a dense constant g that fg_rows returns as a broadcast view, as the builtins
# do, whose entries are not 0 or 1: the stacked matmuls over the view must
# round like the oracle's per-point dot products
DENSE = np.array([[1.3, -0.7], [0.4, 2.1]])
DENSE_G = ControlAffineSystem(
    "dense_g", 2, 2, lambda x: [-x[0] + 0.3 * x[1], -x[1]], lambda x: DENSE,
    fg_rows=lambda X: (np.stack([-X[:, 0] + 0.3 * X[:, 1], -X[:, 1]], axis=1),
                       np.broadcast_to(DENSE, (len(X), 2, 2))))

# a dense g that changes from row to row in its last entry only, and one
# whose first entry is NaN at one point of the 41^2 grid over [-5, 5]^2
LAST_ENTRY_G = ControlAffineSystem(
    "last_entry_g", 2, 2, lambda x: [-a for a in x],
    lambda x: np.array([[1.3, -0.7], [0.4, 0.2 + 0.1 * (x[1] * x[1])]]))
ONE_NAN_G = ControlAffineSystem(
    "one_nan_g", 2, 2, lambda x: [-a for a in x],
    lambda x: np.array([[math.nan if (x[0], x[1]) == (2.5, -1.25) else 1.3, -0.7], [0.4, 2.1]]))

# f = -x, g = I where x1 > 0; f = x, g = 0 elsewhere, so every point with
# x1 <= 0 is degenerate and its outward drift fails
HALF_G = ControlAffineSystem("half_g", 2, 2, lambda x: [a if x[0] <= 0.0 else -a for a in x],
                             lambda x: np.eye(2) * (x[0] > 0.0))

# one input, g = (1, 0) and f = (x1 - 2, 1): grad B_i . g vanishes on the line
# x1 = c_i1, that is x1 = 2 for obstacles 0 and 1 and x1 = -2 for obstacle 2,
# and the drift along grad B_i is positive where x2 < c_i2.  On x1 = 2 f keeps
# the state on the line, so a positive drift fails; on x1 = -2 f carries it
# off, so the row moves and the point escapes.  In grid order obstacle 2's
# rows, those with a drift <= TOL_F among them, come before obstacle 1's: a
# kept row read with an earlier row's obstacle would see a control row that
# moves, and escape where it fails
E1_G = ControlAffineSystem("e1_g", 2, 1, lambda x: [x[0] - 2.0, 1.0],
                           lambda x: np.array([[1.0], [0.0]]))


def wide_band(name):
    """The fixture with eps_band = 3, so the shrunk band excludes tens of
    points of the 101^2 grid rather than 0 or 2."""
    config = builtin_scenario(name)
    return dataclasses.replace(config, integrator=dataclasses.replace(
        config.integrator, eps_band=3.0))


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
            assert report.degenerate_escapes_in_finite_time > 0

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

    def test_state_dependent_g(self, cfg_a):
        assert_same_decrease(with_system(cfg_a, STATE_G), 41)

    def test_blocks_without_kept_or_degenerate_rows(self, cfg_a):
        # 91^2 rows over x1 in [-1, 2] make two full blocks and an 89-row one:
        # g vanishes on the lines x1 <= 0, all in the first block, and the last
        # block lies on the line x1 = 2 through obstacle 1's ball, inside it
        config = dataclasses.replace(with_system(cfg_a, HALF_G),
                                     state_box=np.array([[-1.0, 2.0], [0.9, 3.1]]))
        total = 91 ** 2
        assert 2 * BLOCK_ROWS < total < 3 * BLOCK_ROWS
        X = grid_points(config, 91)(np.arange(total))
        cert = Certificate(config)
        kind, _ = cert.label_rows(*cert.dominant_gap_rows(X))
        assert (kind[2 * BLOCK_ROWS:] == UNSAFE).all()
        degenerate = np.flatnonzero(X[:, 0] <= 0.0)
        assert degenerate[-1] < BLOCK_ROWS and not (kind[degenerate] == UNSAFE).any()
        report = assert_same_decrease(config, 91)
        # the degenerate points are exactly those with x1 <= 0: the other
        # blocks have none
        assert report.counts["degenerate_channel"] == len(degenerate)
        assert report.counts["excluded_unsafe"] >= total - 2 * BLOCK_ROWS
        assert report.degenerate_max_drift > 0.0 and report.rho0_star > 0.0

    def test_dense_constant_g(self, cfg_a):
        config = with_system(cfg_a, DENSE_G)
        assert resolve_system(config).fg_rows(np.zeros((3, 2)))[1].strides[0] == 0
        assert_same_decrease(config, 101)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_wide_shrunk_band(self, name):
        report = assert_same_decrease(wide_band(name), 101)
        assert report.counts["excluded_shrunk_band"] >= 40

    def test_degenerate_rows_of_several_obstacles(self, cfg_b, monkeypatch):
        # one block, so one call of the rule takes the barrier-side degenerate
        # rows of more than one obstacle: some with a drift <= TOL_F, which it
        # drops, and among the others some that escape and some that fail
        calls, rule = [], verify._degenerate_rule

        def spy(system, cert, X, obstacle):
            out = rule(system, cert, X, obstacle)
            if obstacle is not None:
                calls.append((set(obstacle.tolist()), len(X), *map(len, out)))
            return out

        monkeypatch.setattr(verify, "_degenerate_rule", spy)
        report = assert_same_decrease(with_system(cfg_b, E1_G), 41)
        [(obstacles, rows, escapes, failures)] = calls
        assert len(obstacles) >= 2 and escapes and failures and escapes + failures < rows
        assert not report.degenerate_ok

    def test_degenerate_channel_failure(self, cfg_a):
        # g = 0 leaves no control channel anywhere, and f = x drifts outward
        # along grad L and across the ball without moving the zero row
        degenerate = ControlAffineSystem("degenerate", 2, 2, lambda x: list(x),
                                         lambda x: np.zeros((2, 2)))
        report = assert_same_decrease(with_system(cfg_a, degenerate), 21)
        assert report.degenerate_ok is False
        assert (report.counts["evaluated"] == 0
                and report.degenerate_escapes_in_finite_time == 0)

    @pytest.mark.parametrize("gain", [1.0, 0.0])
    def test_non_finite_f(self, cfg_a, gain):
        report = assert_same_decrease(with_system(cfg_a, nan_f_system(gain)), 11)
        assert report.fields_finite is False and not report.passed
        if not gain:
            assert math.isnan(report.degenerate_max_drift)


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

    def test_state_dependent_g(self, cfg_a):
        # 65^2 rows: a full block and a partial one, each with many runs of
        # equal g; the smallest singular value is on the x1 = 0 line, mid-block
        report = assert_same_assumptions(with_system(cfg_a, STATE_G), 65)
        assert report.g_min_singular_value == pytest.approx(0.1)

    def test_dense_constant_g(self, cfg_a):
        assert_same_assumptions(with_system(cfg_a, DENSE_G), 101)

    def test_g_differing_only_in_the_last_row(self, cfg_a):
        assert cfg_a.state_box.max() == 5.0 and 41 ** 2 < BLOCK_ROWS
        report = assert_same_assumptions(with_system(cfg_a, CORNER_G), 41)
        assert report.g_min_singular_value == 0.5

    def test_g_changing_only_in_its_last_entry(self, cfg_a):
        # every run of equal g rows is one row long; a missed change would
        # skip the SVD of rows whose smallest singular value differs
        report = assert_same_assumptions(with_system(cfg_a, LAST_ENTRY_G), 41)
        first = np.linalg.svd(LAST_ENTRY_G.g([-5.0, -5.0]), compute_uv=False)[-1]
        assert report.g_min_singular_value < first

    def test_g_with_one_nan_entry(self, cfg_a, monkeypatch):
        # the oracle's per-point SVD does not converge on a NaN g, and the
        # check takes no SVD of a non-finite g row: here such a g's singular
        # values read +inf, which the oracle's minimum then skips
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda g, compute_uv: (
            svd(g, compute_uv=compute_uv) if np.isfinite(g).all() else np.full(2, math.inf)))
        report = assert_same_assumptions(with_system(cfg_a, ONE_NAN_G), 41)
        assert report.fields_finite is False and report.g_full_rank

    @pytest.mark.parametrize("gain", [1.0, 0.0])
    def test_non_finite_f(self, cfg_a, gain):
        assert not assert_same_assumptions(with_system(cfg_a, nan_f_system(gain)), 11).passed

    def test_violations_path(self, cfg_a):
        degenerate = ControlAffineSystem("degenerate", 2, 2, lambda x: list(x),
                                         lambda x: np.zeros((2, 2)))
        report = assert_same_assumptions(with_system(cfg_a, degenerate), 21)
        assert report.entries[0].violations


class TestGridPoints:
    """grid_points(config, resolution)(rows) against the whole meshgrid,
    compared as bytes."""

    @staticmethod
    def assert_rows(config, resolution, rows):
        got = grid_points(config, resolution)(rows)
        want = _grid(config, resolution)[rows]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["builtin", "shifted 1", "shifted 9"])
    @pytest.mark.parametrize("resolution", [11, 65, 201])
    def test_planar(self, case, resolution):
        config = builtin_scenario("linear2d_single") if case == "builtin" else shifted(
            "nonlinear_mech_three", int(case.split()[1]))
        total = resolution ** 2
        self.assert_rows(config, resolution, np.arange(total))
        rng = np.random.default_rng([resolution, 7])
        self.assert_rows(config, resolution, rng.choice(total, size=min(total, 500), replace=False))
        self.assert_rows(config, resolution, np.array([total - 1, 0, total - 1]))

    @pytest.mark.parametrize("seed", [None, 2, 5])
    @pytest.mark.parametrize("resolution", [11, 30, 41])
    def test_three_dimensional(self, cfg_3d, seed, resolution):
        config = cfg_3d if seed is None else shift_box(cfg_3d, seed)
        total = resolution ** 3
        self.assert_rows(config, resolution, np.arange(total))
        rng = np.random.default_rng([resolution, 8])
        self.assert_rows(config, resolution, rng.choice(total, size=500, replace=False))
        for lo in range(0, total, BLOCK_ROWS):
            self.assert_rows(config, resolution, np.arange(lo, min(lo + BLOCK_ROWS, total)))


# the cfg_3d reports of both grid checks recorded when the checks held the
# whole grid: rho0_star and worst_point as float.hex, counts, and per entry
# (points_checked, degenerate_points, violations, escape_in_finite_time)
PINNED_3D_DECREASE = {
    30: ("0x1.2ee73dadc9b55p+1",
         {"total": 27000, "evaluated": 26894, "excluded_unsafe": 106,
          "excluded_shrunk_band": 0, "excluded_origin_ball": 0, "degenerate_channel": 0},
         (-5.0, -1.206896551724138, -1.8965517241379306)),
    41: ("0x1.2ee73dadc9b55p+1",
         {"total": 68921, "evaluated": 68667, "excluded_unsafe": 251,
          "excluded_shrunk_band": 2, "excluded_origin_ball": 1, "degenerate_channel": 0},
         (-2.0, -3.25, -0.25)),
}
PINNED_3D_ASSUMPTIONS = {
    30: [(26757, 0, (), ()), (137, 0, (), ())],
    41: [(68286, 1, (), ()), (389, 0, (), ())],
}


@pytest.mark.parametrize("resolution", sorted(PINNED_3D_DECREASE))
def test_three_dimensional_reports_are_pinned(cfg_3d, resolution):
    rho0_star, counts, worst_point = PINNED_3D_DECREASE[resolution]
    report = grid_decrease_check(cfg_3d, resolution)
    assert report.passed and report.grid_shape == (resolution,) * 3
    assert report.rho0_star.hex() == rho0_star
    assert report.counts == counts
    assert [v.hex() for v in report.worst_point] == [v.hex() for v in worst_point]
    report = check_assumptions(cfg_3d, resolution)
    assert report.passed
    assert [(e.points_checked, e.degenerate_points, e.violations, e.escape_in_finite_time)
            for e in report.entries] == PINNED_3D_ASSUMPTIONS[resolution]
