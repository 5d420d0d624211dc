"""Numerical certification: the grid checks, the trajectory checks and the
design inequalities (validate_params).

Every check resolves its system from the scenario's system_id.  The grid checks
of the decreasing condition (grid_decrease_check) and of the drift conditions
on f and g (check_assumptions) share one degenerate rule, and both fail where
a design inequality fails (design_failures): their region labels assume it.

The upper generalized derivative of V along the closed loop, derivative_rows,
takes the barrier-side form in R1, the stabilizer-side form in R2, and in the
band the side the band rule picks from the previous-sample region; without a
history the conservative max of the two (0.5*(d1+d2) + 0.5*|d1-d2|).  The
trajectory checks read a record's own regions (its kind and index columns, in
label_rows' int pairs): check (d) passes them to derivative_rows, and check (c)
tests only R3 samples, each against its dominant obstacle alone.
upper_derivative is one row labelled by classify: Python scalars (kind, index, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import R1, R2, R3, UNSAFE, Certificate, row_dot, row_vecmat
from .controller import Controller, band_takes_kappa1, control_terms
from .scenario import ScenarioConfig, eta1_lower_bound, w_upper_bound
from .simulator import TrajectoryRecord
from .systems import ControlAffineSystem, resolve_system


def derivative_rows(ctrl: Controller, X: np.ndarray, U: np.ndarray, kind: np.ndarray,
                    index: np.ndarray, prev: tuple[int, int] | None = None) -> np.ndarray:
    """The generalized derivative of V at rows X (P, n) under inputs U (P, m),
    given the rows' label_rows result (kind, index).  V = B of the row's
    obstacle in R1 and UNSAFE (B dominates L on and inside the ball) and V = L
    in R2; prev, the previous sample's (kind, index) or None, resolves the band."""
    cert = ctrl.cert
    F, G = ctrl.system.fg_rows(X)
    F = F + (G @ U[:, :, None])[:, :, 0]
    d1 = row_dot(cert.grad_B(index, X), F)
    d2 = row_dot(cert.grad_L(X), F)
    if prev is None:
        band = 0.5 * (d1 + d2) + 0.5 * np.abs(d1 - d2)
    else:
        band = np.where(band_takes_kappa1(prev, index), d1, d2)
    return np.where((kind == R1) | (kind == UNSAFE), d1, np.where(kind == R2, d2, band))


def upper_derivative(ctrl: Controller, x: np.ndarray, u: np.ndarray,
                     prev: tuple[int, int] | None = None) -> tuple[int, int, float]:
    """derivative_rows for the one row x under input u, labelled by classify:
    (kind, index, d)."""
    kind, index = ctrl.cert.classify(np.asarray(x, float))
    d = derivative_rows(ctrl, np.atleast_2d(x), np.atleast_2d(u), np.array([kind]),
                        np.array([index]), prev)
    return kind, index, float(d[0])


# ---------------------------------------------------------------------------
# Grid certification
# ---------------------------------------------------------------------------

# Drift derivatives up to this count as nonpositive at degenerate points.
TOL_F = 1e-9

# Default and smallest grid points per axis of grid_decrease_check and
# check_assumptions, which the CLI's --resolution options share.
DECREASE_RESOLUTION, DECREASE_FLOOR = 201, 11
ASSUMPTIONS_RESOLUTION, ASSUMPTIONS_FLOOR = 101, 2

# Grid checks and check (d) evaluate this many rows per array pass, which
# bounds their temporaries; ties across blocks still go to the first row in
# grid order.
BLOCK_ROWS = 4096


def grid_points(config: ScenarioConfig, resolution: int):
    """The function that gives the rows of the resolution^n grid over the state
    box at flat C-order indices rows, one point per row, with the axes built
    once: the grid checks build their grid a block at a time and never hold
    all of it.  A row's index on each axis, the last first, is its remainder
    by resolution."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in config.state_box]
    def points(rows: np.ndarray) -> np.ndarray:
        X = np.empty((len(rows), config.n))
        for k in reversed(range(config.n)):
            q = rows // resolution
            X[:, k] = axes[k][rows - q * resolution]
            rows = q
        return X
    return points


def _median(a: np.ndarray) -> float:
    """np.median of the nonempty 1-D array a, which holds no NaN, bit for bit:
    the middle element, or the two middle ones added and divided by 2.0 as
    np.mean does.  a is partitioned in place, so no copy of it is made;
    np.median would import numpy.ma, which no command needs."""
    h = len(a) // 2
    a.partition(h if len(a) % 2 else (h - 1, h))
    return float(a[h] if len(a) % 2 else (a[h - 1] + a[h]) / 2.0)


def _degenerate_rule(system: ControlAffineSystem, cert: Certificate, X: np.ndarray,
                     obstacle: np.ndarray | None) -> tuple[list, list]:
    """The drift condition on rows X whose control row (grad L . g for obstacle
    None, else grad B . g of each row's obstacle) vanished: a drift grad . f
    above TOL_F (or NaN) escapes in finite time where the row changes along
    the drift, else fails.  The change is a finite difference along f / ||f||
    with step 1e-6 (1 + ||x||), transversal above 1e-6; a zero f row has a
    zero drift, so it never gets there.  Returns (escapes, failures),
    point + (drift,) tuples in row order."""
    F, G = system.fg_rows(X)
    grad = cert.grad_L(X) if obstacle is None else cert.grad_B(obstacle, X)
    drift = row_dot(grad, F)
    k = np.flatnonzero(~(drift <= TOL_F))
    if not len(k):   # no step to take, as on most calls
        return [], []
    X, F, G, grad, drift = (a.take(k, axis=0) for a in (X, F, G, grad, drift))
    nf = np.sqrt(row_dot(F, F))
    h = 1e-6 * (1.0 + np.sqrt(row_dot(X, X)))
    Y = X + (h / nf)[:, None] * F
    grad_y = cert.grad_L(Y) if obstacle is None else cert.grad_B(obstacle.take(k), Y)
    diff = row_vecmat(grad_y, system.fg_rows(Y)[1]) - row_vecmat(grad, G)
    transversal = np.sqrt(row_dot(diff, diff)) / h > 1e-6
    out = ([], [])
    for x, d, t in zip(X.tolist(), drift.tolist(), transversal.tolist()):
        out[not t].append((*x, d))
    return out


@dataclass(frozen=True)
class DecreaseReport:
    rho0_star: float                # inf when no point was evaluated, NaN on a NaN ratio
    worst_point: tuple[float, ...]
    grid_shape: tuple[int, ...]
    counts: dict
    degenerate_max_drift: float
    degenerate_ok: bool
    fields_finite: bool
    design_failures: tuple[str, ...]   # validate_params' failed design entries
    degenerate_escapes_in_finite_time: int = 0

    @property
    def passed(self) -> bool:
        return (0.0 < self.rho0_star < math.inf and self.degenerate_ok
                and self.fields_finite and not self.design_failures)


@np.errstate(over="ignore", invalid="ignore")
def grid_decrease_check(config: ScenarioConfig,
                        resolution: int = DECREASE_RESOLUTION) -> DecreaseReport:
    """min over the grid of -dV/||x||^2 under the dispatched controller.

    Excluded from the minimization: unsafe balls, shrunk bands, the
    eps_conv ball around the origin, and points where the dispatched law's
    control channel vanishes (there the derivative equals the raw drift term,
    which the drift conditions bound by 0, not by -rho; those points are
    counted separately and their drift derivative checked against TOL_F).
    Band points are scored under the worse of the two one-sided branches.
    The grid is scored BLOCK_ROWS rows at a time, each quantity only on the
    rows that read it: the shrunk-band test on band rows, f and g per side on
    that side's rows (band rows on both).  Among equal ratios the worst point
    is the first in grid order, and a NaN ratio (a NaN f, an overflowing
    ||x||^2) poisons the minimum: rho0_star is NaN, worst_point the first NaN
    point.  A NaN degenerate drift fails (degenerate_max_drift is then NaN).
    fields_finite says f and g are finite at every point not excluded.
    """
    if resolution < DECREASE_FLOOR:
        raise ValueError(f"resolution must be >= {DECREASE_FLOOR}")
    ctrl = Controller(config)
    sys_, cert = ctrl.system, ctrl.cert
    integ = config.integrator
    total = resolution ** config.n

    counts = {"total": total, "evaluated": 0, "excluded_unsafe": 0,
              "excluded_shrunk_band": 0, "excluded_origin_ball": 0,
              "degenerate_channel": 0}
    rho0 = math.inf
    worst = None
    max_drift = -math.inf
    escapes = 0
    fields_finite = True

    points = grid_points(config, resolution)
    for lo in range(0, total, BLOCK_ROWS):
        X = points(np.arange(lo, min(lo + BLOCK_ROWS, total)))
        L = row_dot(X, X)
        kind, index = cert.label_rows(*cert.dominant_gap_rows(X))
        origin = L <= integ.eps_conv ** 2
        unsafe = ~origin & (kind == UNSAFE)
        shrunk = ~origin & (kind == R3)
        band = np.flatnonzero(shrunk)
        shrunk[band] = cert.shrunk_band_rows(index[band], X[band])
        counts["excluded_origin_ball"] += int(origin.sum())
        counts["excluded_unsafe"] += int(unsafe.sum())
        counts["excluded_shrunk_band"] += int(shrunk.sum())

        keep = ~(origin | unsafe | shrunk)
        # per side (0: the barrier of each row's obstacle under kappa1,
        # 1: the stabilizer under kappa2): its kept rows of the block and their
        # obstacles.  f and g are evaluated per side; together the sides hold every kept row
        sides = ((np.flatnonzero(keep & ((kind == R1) | (kind == R3))), index),
                 (np.flatnonzero(keep & ((kind == R2) | (kind == R3))), None))
        live, d = np.zeros((2, len(X)), dtype=bool), np.zeros((2, len(X)))
        for s, (r, obstacle) in enumerate(sides):
            if not len(r):
                continue
            Xr = X.take(r, axis=0)   # a fancy row index costs about 10x more
            Fr, Gr = sys_.fg_rows(Xr)
            fields_finite = fields_finite and bool(np.isfinite(Fr).all() and np.isfinite(Gr).all())
            grad = cert.grad_L(Xr) if obstacle is None else cert.grad_B(obstacle[r], Xr)
            terms = control_terms(grad, Fr, Gr)
            U, lv = (ctrl.kappa2_terms(Xr, *terms) if obstacle is None
                     else ctrl.kappa1_terms(obstacle[r], Xr, *terms))
            live[s, r] = lv
            d[s, r] = np.where(lv, row_dot(grad, Fr + (Gr @ U[:, :, None])[:, :, 0]), 0.0)

        # degenerate rows (every applicable control channel vanished): check their raw drift
        scored = live[0] | live[1]
        degenerate = keep & ~scored
        counts["degenerate_channel"] += int(degenerate.sum())
        for r, obstacle in sides if degenerate.any() else ():
            r = r[degenerate[r]]
            if not len(r):
                continue
            side_escapes, failures = _degenerate_rule(
                sys_, cert, X.take(r, axis=0), None if obstacle is None else obstacle[r])
            escapes += len(side_escapes)
            # np.max, unlike max, keeps a NaN drift
            max_drift = float(np.max([max_drift] + [p[-1] for p in failures]))

        # max over the candidates in order: the stabilizer side wins only if larger
        worse = np.where(live[0] & ~(live[1] & (d[1] > d[0])), d[0], d[1])
        ratio = -worse[scored] / L[scored]
        counts["evaluated"] += len(ratio)
        if len(ratio):
            k = int(np.argmin(ratio))   # the first NaN ratio, if any
            if not (math.isnan(rho0) or rho0 <= ratio[k]):   # which no later one replaces
                rho0, worst = float(ratio[k]), X[np.flatnonzero(scored)[k]]
    if max_drift == -math.inf:
        max_drift = 0.0
    return DecreaseReport(
        rho0_star=rho0, worst_point=tuple(map(float, worst)) if worst is not None else (),
        grid_shape=tuple([resolution] * config.n),
        counts=counts, degenerate_max_drift=max_drift,
        degenerate_ok=max_drift <= TOL_F, fields_finite=fields_finite,
        design_failures=design_failures(cert), degenerate_escapes_in_finite_time=escapes)


@dataclass(frozen=True)
class AssumptionEntry:
    condition: str
    points_checked: int
    degenerate_points: int
    violations: tuple[tuple[float, ...], ...]
    escape_in_finite_time: tuple[tuple[float, ...], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class AssumptionReport:
    entries: tuple[AssumptionEntry, ...]
    g_min_singular_value: float     # NaN when no g row is finite
    g_full_rank: bool
    fields_finite: bool
    design_failures: tuple[str, ...]   # as in DecreaseReport
    zero_state_detectability: str
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return (all(e.passed for e in self.entries) and self.g_full_rank
                and self.fields_finite and not self.design_failures)


@np.errstate(over="ignore", invalid="ignore")
def check_assumptions(config: ScenarioConfig,
                      resolution: int = ASSUMPTIONS_RESOLUTION) -> AssumptionReport:
    """Grid-sampled necessary checks of the drift conditions.

    At grid points where the relevant gradient-control row vanishes (below a
    tolerance scaled to the grid median of its norm), the drift derivative
    must be <= TOL_F.  A pointwise failure is downgraded to an informational
    "escapes in finite time" note when the control row's derivative along the
    drift is nonzero there (the trajectory leaves the degenerate set).  These
    are sampled necessary conditions, not proofs; zero-state detectability is
    not decidable by sampling and is reported as such.  The median is taken
    over the finite nonzero norms, so a norm that overflows (on a huge box)
    neither sets the tolerance nor falls below it.
    """
    if resolution < ASSUMPTIONS_FLOOR:
        raise ValueError(f"resolution must be >= {ASSUMPTIONS_FLOOR}")
    system, cert = resolve_system(config), Certificate(config)
    total = resolution ** config.n
    n_rows = 1 + config.n_obstacles   # grad L, then grad B_i
    # per point, since the row tolerance is a median over the whole grid
    kind = np.empty(total, dtype=int)
    index = np.empty(total, dtype=int)
    norms = np.empty((n_rows, total))
    g_min_sv, fields_finite = math.nan, True
    points = grid_points(config, resolution)
    for lo in range(0, total, BLOCK_ROWS):
        X = points(np.arange(lo, min(lo + BLOCK_ROWS, total)))
        F, G = system.fg_rows(X)
        span = slice(lo, lo + len(X))
        # one SVD per run of bit-equal g rows, finite rows only (NaN: none finite)
        finite, change = np.ones(len(X), dtype=bool), np.zeros(len(X) - 1, dtype=bool)
        for e in G.reshape(len(X), -1).T:   # one pass per entry of g
            bits = e.view(np.int64)
            finite &= np.isfinite(e)
            change |= bits[1:] != bits[:-1]
        new = finite & np.append(True, change)
        g_min_sv = float(np.fmin.reduce(np.linalg.svd(G[new], compute_uv=False)[:, -1],
                                        initial=g_min_sv))
        fields_finite = fields_finite and bool(finite.all() and np.isfinite(F).all())
        kind[span], index[span] = cert.label_rows(*cert.dominant_gap_rows(X))
        grads = [cert.grad_L(X)] + [cert.grad_B(i, X) for i in range(config.n_obstacles)]
        for r, grad in enumerate(grads):
            row = row_vecmat(grad, G)
            norms[r, span] = np.sqrt(row_dot(row, row))
    g_full_rank = g_min_sv > 1e-9

    def condition(name, member, r):
        # the row tolerance scales with the grid median of the row norm
        nz = norms[r][(norms[r] > 0) & np.isfinite(norms[r])]   # a copy, which _median reorders
        tol_g = 1e-6 * (_median(nz) if nz.size else 1.0)
        rows = np.flatnonzero(member & ~(norms[r] > tol_g))
        escapes, violations = _degenerate_rule(system, cert, points(rows),
                                               index[rows] if r else None)
        return AssumptionEntry(condition=name, points_checked=int(member.sum()),
                               degenerate_points=len(rows),
                               violations=tuple(violations),
                               escape_in_finite_time=tuple(escapes))

    band = kind == R3
    entries = [condition("grad L . f <= 0 where grad L . g = 0 (in R2 or any band)",
                         (kind == R2) | band, 0)]
    for i in range(config.n_obstacles):
        entries.append(condition(
            f"grad B[{i}] . f <= 0 where grad B[{i}] . g = 0 (in R1[{i}] or band[{i}])",
            ((kind == R1) | band) & (index == i), 1 + i))

    notes = []
    if any(e.escape_in_finite_time for e in entries):
        notes.append("pointwise drift-positive degenerate points leave the degenerate "
                     "set in finite time (transversal drift); reported informationally")
    return AssumptionReport(
        entries=tuple(entries), g_min_singular_value=g_min_sv, g_full_rank=g_full_rank,
        fields_finite=fields_finite, design_failures=design_failures(cert),
        zero_state_detectability="not machine-checked (not decidable by sampling); "
                                 "grid evidence attached",
        notes=tuple(notes))


# ---------------------------------------------------------------------------
# Trajectory invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class InvariantReport:
    checks: tuple[InvariantCheck, ...]
    fd_constant: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


V_DECREASE_TOL = 1e-6


def record_checks(record: TrajectoryRecord, eps_conv: float) -> list[InvariantCheck]:
    """Checks that need only the recorded columns: safety and V decrease."""
    # (a) positive clearance at every sample
    worst_md = record.min_clearance()
    checks = [InvariantCheck(
        "safety: min distance to every unsafe set > 0 at all samples",
        worst_md > 0.0, f"min over run = {worst_md:.6g}")]

    # (b) V nonincreasing per step within tolerance while ||x|| > eps_conv
    worst_dv, worst_t = record.v_increase(eps_conv)
    checks.append(InvariantCheck(
        f"certificate decrease: V(x_k+1) <= V(x_k) + {V_DECREASE_TOL:g}",
        worst_dv <= V_DECREASE_TOL, f"max per-step increase = {worst_dv:.3g}"
        + (f" at t = {worst_t:.4g}" if worst_t is not None else "")))
    return checks


def shrunk_band_check(record: TrajectoryRecord, cert: Certificate) -> InvariantCheck:
    """Invariant check (c): no sample labelled R3 of obstacle i with ||x||^2
    below phi_i by more than the tangency-cone margin; hits count samples, and
    a sample is not flagged for an obstacle that does not dominate it."""
    band = np.flatnonzero(record.kind == R3)
    X, i = record.x.take(band, axis=0), record.index[band]
    margins = np.array([cert.shrunk_band_margin(j) for j in range(cert.n_obstacles)])
    hits = band[row_dot(X, X) < cert.phis[i] - margins[i]]
    return InvariantCheck(
        "shrunk-band avoidance: no sample with |B_i - L| <= eps_band and "
        "||x||^2 < phi_i - cone margin",
        not len(hits), f"{len(hits)} samples flagged"
        + (f", first at t = {record.t[hits[0]]:.4g}" if len(hits) else ""))


def fd_constant(record: TrajectoryRecord, ctrl: Controller,
                eps_conv: float) -> tuple[float, int]:
    """Invariant check (d): max(0, (V_k+1 - V_k)/dt - d_k) / dt over the smooth
    steps (both samples in one region, not the band, ||x_k|| > eps_conv), and
    their count; d_k is derivative_rows at x_k, u_k and the record's own label
    of sample k, dt = t[1] - t[0], evaluated BLOCK_ROWS steps at a time."""
    same = (record.kind[:-1] == record.kind[1:]) & (record.index[:-1] == record.index[1:])
    smooth = same & (record.kind[:-1] != R3) & record.outside_ball(eps_conv)[:-1]
    steps = np.flatnonzero(smooth)
    if not steps.size:
        return 0.0, 0
    dt = float(record.t[1] - record.t[0])
    worst = 0.0
    for lo in range(0, len(steps), BLOCK_ROWS):
        k = steps[lo:lo + BLOCK_ROWS]
        d = derivative_rows(ctrl, record.x.take(k, axis=0), record.u.take(k, axis=0),
                            record.kind[k], record.index[k])
        # fmax skips a NaN residual
        worst = float(np.fmax.reduce((record.V[k + 1] - record.V[k]) / dt - d, initial=worst))
    return worst / dt, len(steps)


def trajectory_invariants(record: TrajectoryRecord,
                          config: ScenarioConfig) -> InvariantReport:
    """Safety, V-monotonicity, shrunk-band avoidance, and FD consistency.

    The shrunk-band test applies a tangency-cone margin below phi (see
    Certificate.shrunk_band_margin): trajectories exiting at a contact point
    pass through any |B-L| <= eps band with ||x||^2 marginally below phi
    without being on the surface.  The finite differences use the record's
    own step t[1] - t[0], so config.integrator.dt is not read.
    """
    if not len(record):
        raise ValueError("record is empty")
    ctrl = Controller(config)
    integ = config.integrator
    # a blown-up run records states whose ||x||^2 overflows: inf, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        C, n_smooth = fd_constant(record, ctrl, integ.eps_conv)
        checks = (*record_checks(record, integ.eps_conv), shrunk_band_check(record, ctrl.cert))
    return InvariantReport(checks=(*checks, InvariantCheck(
        "finite-difference consistency: (V_k+1 - V_k)/dt <= upper derivative + C*dt",
        True, f"C = {C:.6g} over {n_smooth} smooth steps")), fd_constant=C)


# ---------------------------------------------------------------------------
# Design inequalities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    value: float
    bound: float
    slack: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def design_checks(cert: Certificate) -> list[ValidationCheck]:
    """Every design inequality of cert's scenario with numeric slack.

    Covers, per obstacle: origin strictly outside, the eta1 lower bound, the
    eta2 interval, the w range when w is given and a positive boundary-sphere
    radius (Certificate.rbars_sq); pairwise: obstacle balls disjoint and
    boundary spheres disjoint.  c1 is not an entry: ObstacleParams rejects a
    c1 that is not positive when it is built.
    """
    config, checks = cert.config, []
    multi = config.n_obstacles > 1
    rbar = cert.rbars_sq.tolist()

    for i, (ob, pa) in enumerate(zip(config.obstacles, config.params)):
        tag = f"obstacle[{i}]"
        v = ob.center_norm_sq - ob.radius_sq
        checks.append(ValidationCheck(f"{tag} origin outside: ||c||^2 - r > 0", v > 0, v, 0.0, v))

        lb = eta1_lower_bound(ob)
        ok = pa.eta1 > lb if multi else pa.eta1 >= lb
        rel = ">" if multi else ">="
        checks.append(ValidationCheck(f"{tag} eta1 {rel} (||c||+sqrt(r))/(||c||-sqrt(r))",
                                      ok, pa.eta1, lb, pa.eta1 - lb))

        lo = pa.eta1 * ob.radius_sq + ob.max_L_over_closure()
        checks.append(ValidationCheck(f"{tag} eta1*r + max L(closure) <= eta2",
                                      lo <= pa.eta2, pa.eta2, lo, pa.eta2 - lo))
        hi = pa.eta1 * ob.center_norm_sq
        checks.append(ValidationCheck(f"{tag} eta2 < eta1*||c||^2",
                                      pa.eta2 < hi, pa.eta2, hi, hi - pa.eta2))

        if pa.w is not None:
            wub = w_upper_bound(pa.eta1, ob)
            checks.append(ValidationCheck(f"{tag} 0 < w", pa.w > 0, pa.w, 0.0, pa.w))
            checks.append(ValidationCheck(f"{tag} w < eta1*(||c||^2-r) - max L(closure)",
                                          pa.w < wub, pa.w, wub, wub - pa.w))
        checks.append(ValidationCheck(f"{tag} boundary sphere radius^2 > 0",
                                      rbar[i] > 0, rbar[i], 0.0, rbar[i]))

    for i in range(config.n_obstacles):
        for j in range(i + 1, config.n_obstacles):
            oi, oj = config.obstacles[i], config.obstacles[j]
            dist = float(np.linalg.norm(oi.center - oj.center))
            balls = oi.radius + oj.radius
            checks.append(ValidationCheck(
                f"obstacles[{i},{j}] balls disjoint: ||ci-cj|| > sqrt(ri)+sqrt(rj)",
                dist > balls, dist, balls, dist - balls))
            if rbar[i] > 0 and rbar[j] > 0:
                dist = float(np.linalg.norm(cert.cbars[i] - cert.cbars[j]))
                spheres = math.sqrt(rbar[i]) + math.sqrt(rbar[j])
                checks.append(ValidationCheck(
                    f"spheres[{i},{j}] disjoint: ||cbar_i-cbar_j|| > sqrt(rbar_i)+sqrt(rbar_j)",
                    dist > spheres, dist, spheres, dist - spheres))
    return checks


def design_failures(cert: Certificate) -> tuple[str, ...]:
    """The names of the design inequalities that fail, in design_checks' order."""
    return tuple(c.name for c in design_checks(cert) if not c.passed)


def validate_params(config: ScenarioConfig) -> ValidationReport:
    """design_checks, then one entry per initial state: admissible iff it lies
    in the stabilizer region (outside every obstacle, below every barrier by
    at least eps_band).  Failures are entries."""
    cert = Certificate(config)
    checks = design_checks(cert)
    for k, x0 in enumerate(config.initial_states):
        ok, why = cert.admissible(x0)
        with np.errstate(over="ignore"):   # an overflowing ||x0|| is inf, written as null
            checks.append(ValidationCheck(f"initial_state[{k}] admissible ({why})",
                                          ok, float(np.linalg.norm(x0)), 0.0, 0.0))
    return ValidationReport(checks=tuple(checks), notes=(
        "disjointness of boundary spheres checked pairwise on their centres cbar_i",))
