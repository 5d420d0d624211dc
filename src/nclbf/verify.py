"""Numerical certification: the grid checks and the trajectory checks.

Every check resolves its system from the scenario's system_id.  The grid checks
of the decreasing condition (grid_decrease_check) and of the drift conditions
on f and g (check_assumptions) share one degenerate rule.

The upper generalized derivative of V along the closed loop, derivative_rows,
takes the barrier-side form in R1, the stabilizer-side form in R2, and in the
band the side the band rule picks from the previous-sample region; without a
history the conservative max of the two (0.5*(d1+d2) + 0.5*|d1-d2|).  Check
(d) applies it to a record's smooth steps; upper_derivative is one row, as
Python scalars (kind, index, d).  A region is the certificate's int pair
(kind, index), in label_rows' format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .certificate import R1, R2, R3, UNSAFE, Certificate, row_dot
from .controller import TOL_G, Controller, band_takes_kappa1, control_terms
from .scenario import ScenarioConfig
from .simulator import TrajectoryRecord
from .systems import ControlAffineSystem, resolve_system


def derivative_rows(ctrl: Controller, X: np.ndarray, U: np.ndarray,
                    prev: tuple[int, int] | None = None) -> tuple[np.ndarray, ...]:
    """The generalized derivative of V at rows X (P, n) under inputs U (P, m),
    with the rows' label_rows result: (kind, index, d).  V = B of the row's
    obstacle in R1 and UNSAFE (B dominates L on and inside the ball) and V = L
    in R2; prev, the previous sample's (kind, index) or None, resolves the band."""
    cert = ctrl.cert
    kind, index = cert.label_rows(*cert.dominant_gap_rows(X))
    F, G = field_rows(ctrl.system, X)
    F = F + (G @ U[:, :, None])[:, :, 0]
    d1 = row_dot(cert.grad_B(index, X), F)
    d2 = row_dot(cert.grad_L(X), F)
    if prev is None:
        band = 0.5 * (d1 + d2) + 0.5 * np.abs(d1 - d2)
    else:
        band = np.where(band_takes_kappa1(prev, index), d1, d2)
    d = np.where((kind == R1) | (kind == UNSAFE), d1, np.where(kind == R2, d2, band))
    return kind, index, d


def upper_derivative(ctrl: Controller, x: np.ndarray, u: np.ndarray,
                     prev: tuple[int, int] | None = None) -> tuple[int, int, float]:
    """derivative_rows for the one row x under input u: (kind, index, d)."""
    kind, index, d = derivative_rows(ctrl, np.atleast_2d(x), np.atleast_2d(u), prev)
    return int(kind[0]), int(index[0]), float(d[0])


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


def grid_points(config: ScenarioConfig, resolution: int) -> np.ndarray:
    """The resolution^n grid over the state box, one point per row (C order)."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in config.state_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def field_rows(system: ControlAffineSystem, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f rows (P, n) and g rows (P, n, m): the system's fg_rows when it has
    one, which matches f and g bit for bit, else f and g point by point."""
    if system.fg_rows is not None:
        return system.fg_rows(X)
    F = np.empty((len(X), system.n))
    G = np.empty((len(X), system.n, system.m))
    for k, x in enumerate(X):
        F[k], G[k] = system.f(x), system.g(x)
    return F, G


def control_row_transversal(system: ControlAffineSystem, row_fn, x: np.ndarray) -> bool:
    """Does the row x -> row_fn(x) change along the drift at x?

    True means the drift carries the state off the row's zero set in finite
    time (finite-difference directional derivative along f).
    """
    fx = system.f(x)
    nf = float(np.linalg.norm(fx))
    if nf == 0.0:
        return False
    h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    step = (h / nf) * fx
    r0, r1 = row_fn(x), row_fn(x + step)
    return float(np.linalg.norm(r1 - r0)) / h > 1e-6


def _degenerate_rule(system: ControlAffineSystem, cert: Certificate, X: np.ndarray,
                     drift: np.ndarray, obstacle: np.ndarray | None) -> tuple[list, list]:
    """The drift condition on rows X whose control row (grad L . g for obstacle
    None, else grad B . g of each row's obstacle) vanished: a drift above TOL_F
    escapes in finite time where the row changes along the drift, else fails.
    Returns (escapes, failures), point + (drift,) tuples in row order."""
    out = ([], [])
    for k in np.flatnonzero(~(drift <= TOL_F)):
        grad = cert.grad_L if obstacle is None else partial(cert.grad_B, obstacle[k])
        transversal = control_row_transversal(system, lambda y: grad(y) @ system.g(y), X[k])
        out[not transversal].append(tuple(X[k].tolist()) + (float(drift[k]),))
    return out


@dataclass(frozen=True)
class DecreaseReport:
    rho0_star: float                # inf when no point was evaluated
    worst_point: tuple[float, ...]
    grid_shape: tuple[int, ...]
    counts: dict
    degenerate_max_drift: float
    degenerate_ok: bool
    fields_finite: bool
    degenerate_escapes_in_finite_time: int = 0

    @property
    def passed(self) -> bool:
        # a grid with no evaluated point certifies nothing
        return (self.counts["evaluated"] > 0 and self.rho0_star > 0.0 and self.degenerate_ok
                and self.fields_finite)


def grid_decrease_check(config: ScenarioConfig,
                        resolution: int = DECREASE_RESOLUTION) -> DecreaseReport:
    """min over the grid of -dV/||x||^2 under the dispatched controller.

    Excluded from the minimization: unsafe balls, shrunk bands, the
    eps_conv ball around the origin, and points where the dispatched law's
    control channel vanishes (there the derivative equals the raw drift term,
    which the drift conditions bound by 0, not by -rho; those points are
    counted separately and their drift derivative checked against TOL_F).
    Band points are scored under the worse of the two one-sided branches.
    The grid is scored BLOCK_ROWS rows at a time; among equal ratios the
    worst point is the first in grid order.  fields_finite says f and g are
    finite at every point not excluded; a NaN ratio is not scored, and
    a NaN degenerate drift fails (degenerate_max_drift is then NaN).
    """
    if resolution < DECREASE_FLOOR:
        raise ValueError(f"resolution must be >= {DECREASE_FLOOR}")
    ctrl = Controller(config)
    sys_, cert = ctrl.system, ctrl.cert
    integ = config.integrator
    pts = grid_points(config, resolution)

    counts = {"total": len(pts), "evaluated": 0, "excluded_unsafe": 0,
              "excluded_shrunk_band": 0, "excluded_origin_ball": 0,
              "degenerate_channel": 0}
    rho0 = math.inf
    worst = None
    max_drift = -math.inf
    escapes = 0
    fields_finite = True

    for lo in range(0, len(pts), BLOCK_ROWS):
        X = pts[lo:lo + BLOCK_ROWS]
        L = row_dot(X, X)
        kind, index = cert.label_rows(*cert.dominant_gap_rows(X))
        origin = L <= integ.eps_conv ** 2
        unsafe = ~origin & (kind == UNSAFE)
        shrunk = ~origin & (kind == R3) & cert.shrunk_band_rows(index, X)
        counts["excluded_origin_ball"] += int(origin.sum())
        counts["excluded_unsafe"] += int(unsafe.sum())
        counts["excluded_shrunk_band"] += int(shrunk.sum())

        keep = ~(origin | unsafe | shrunk)
        X, L, kind, index = X[keep], L[keep], kind[keep], index[keep]
        F, G = field_rows(sys_, X)
        fields_finite = fields_finite and bool(np.isfinite(F).all() and np.isfinite(G).all())
        # per side (0: the barrier of each row's obstacle under kappa1,
        # 1: the stabilizer under kappa2): its rows and their obstacles
        sides = ((np.flatnonzero((kind == R1) | (kind == R3)), index),
                 (np.flatnonzero((kind == R2) | (kind == R3)), None))
        live = np.zeros((2, len(X)), dtype=bool)
        d, drift = np.zeros((2, len(X))), np.zeros((2, len(X)))
        for s, (r, obstacle) in enumerate(sides):
            Xr, Fr, Gr = X[r], F[r], G[r]
            grad = cert.grad_L(Xr) if obstacle is None else cert.grad_B(obstacle[r], Xr)
            terms = control_terms(grad, Fr, Gr)
            U = (ctrl.kappa2_terms(Xr, *terms) if obstacle is None
                 else ctrl.kappa1_terms(obstacle[r], Xr, *terms))
            drift[s, r], live[s, r] = terms[2], np.sqrt(terms[1]) > TOL_G
            d[s, r] = np.where(live[s, r], row_dot(grad, Fr + (Gr @ U[:, :, None])[:, :, 0]),
                               0.0)

        # every applicable control channel vanished: check the raw drift
        degenerate = ~(live[0] | live[1])
        counts["degenerate_channel"] += int(degenerate.sum())
        for s, (r, obstacle) in enumerate(sides):
            r = r[degenerate[r]]
            side_escapes, failures = _degenerate_rule(
                sys_, cert, X[r], drift[s, r], None if obstacle is None else obstacle[r])
            escapes += len(side_escapes)
            # np.max, unlike max, keeps a NaN drift
            max_drift = float(np.max([max_drift] + [p[-1] for p in failures]))

        # max over the candidates in order: the stabilizer side wins only if larger
        scored = live[0] | live[1]
        worse = np.where(live[0] & ~(live[1] & (d[1] > d[0])), d[0], d[1])
        ratio = -worse[scored] / L[scored]
        counts["evaluated"] += len(ratio)
        if len(ratio):
            k = int(np.argmin(np.where(np.isnan(ratio), math.inf, ratio)))
            if ratio[k] < rho0:
                rho0, worst = float(ratio[k]), X[scored][k]
    if max_drift == -math.inf:
        max_drift = 0.0
    return DecreaseReport(
        rho0_star=rho0, worst_point=tuple(map(float, worst)) if worst is not None else (),
        grid_shape=tuple([resolution] * config.n),
        counts=counts, degenerate_max_drift=max_drift,
        degenerate_ok=max_drift <= TOL_F, fields_finite=fields_finite,
        degenerate_escapes_in_finite_time=escapes)


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
    zero_state_detectability: str
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return (all(e.passed for e in self.entries) and self.g_full_rank
                and self.fields_finite)


def check_assumptions(config: ScenarioConfig,
                      resolution: int = ASSUMPTIONS_RESOLUTION) -> AssumptionReport:
    """Grid-sampled necessary checks of the drift conditions.

    At grid points where the relevant gradient-control row vanishes (below a
    tolerance scaled to the grid median of its norm), the drift derivative
    must be <= TOL_F.  A pointwise failure is downgraded to an informational
    "escapes in finite time" note when the control row's derivative along the
    drift is nonzero there (the trajectory leaves the degenerate set).  These
    are sampled necessary conditions, not proofs; zero-state detectability is
    not decidable by sampling and is reported as such.
    """
    if resolution < ASSUMPTIONS_FLOOR:
        raise ValueError(f"resolution must be >= {ASSUMPTIONS_FLOOR}")
    system, cert = resolve_system(config), Certificate(config)
    pts = grid_points(config, resolution)
    n_rows = 1 + config.n_obstacles   # grad L, then grad B_i
    kind = np.empty(len(pts), dtype=int)
    index = np.empty(len(pts), dtype=int)
    norms = np.empty((n_rows, len(pts)))
    drifts = np.empty((n_rows, len(pts)))
    g_min_sv, fields_finite = math.nan, True
    for lo in range(0, len(pts), BLOCK_ROWS):
        X = pts[lo:lo + BLOCK_ROWS]
        F, G = field_rows(system, X)
        span = slice(lo, lo + len(X))
        # one SVD per run of bit-equal g rows, finite rows only (NaN: none finite)
        bits, finite = G.view(np.int64), np.isfinite(G).all(axis=(1, 2))
        new = finite & np.append(True, (bits[1:] != bits[:-1]).any(axis=(1, 2)))
        g_min_sv = float(np.fmin.reduce(np.linalg.svd(G[new], compute_uv=False)[:, -1],
                                        initial=g_min_sv))
        fields_finite = fields_finite and bool(finite.all() and np.isfinite(F).all())
        kind[span], index[span] = cert.label_rows(*cert.dominant_gap_rows(X))
        grads = [cert.grad_L(X)] + [cert.grad_B(i, X) for i in range(config.n_obstacles)]
        for r, grad in enumerate(grads):
            _, n2, drifts[r, span] = control_terms(grad, F, G)
            norms[r, span] = np.sqrt(n2)
    g_full_rank = g_min_sv > 1e-9

    def condition(name, member, r):
        # the row tolerance scales with the grid median of the row norm
        nz = norms[r][norms[r] > 0]
        tol_g = 1e-6 * (float(np.median(nz)) if nz.size else 1.0)
        rows = np.flatnonzero(member & ~(norms[r] > tol_g))
        escapes, violations = _degenerate_rule(system, cert, pts[rows], drifts[r, rows],
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
        fields_finite=fields_finite,
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
    """Invariant check (c): no sample in the shrunk band of cert with ||x||^2
    below phi_i by more than the tangency-cone margin; hits count (sample,
    obstacle) pairs."""
    L = row_dot(record.x, record.x)
    hits = sum(cert.shrunk_band_rows(i, record.x)
               & (L < cert.phis[i] - cert.shrunk_band_margin(i))
               for i in range(cert.n_obstacles))
    n_hits = int(np.sum(hits))
    return InvariantCheck(
        "shrunk-band avoidance: no sample with |B_i - L| <= eps_band and "
        "||x||^2 < phi_i - cone margin",
        not n_hits, f"{n_hits} samples flagged"
        + (f", first at t = {record.t[np.flatnonzero(hits)[0]]:.4g}" if n_hits else ""))


def fd_constant(record: TrajectoryRecord, ctrl: Controller,
                eps_conv: float) -> tuple[float, int]:
    """Invariant check (d): max(0, (V_k+1 - V_k)/dt - d_k) / dt over the smooth
    steps (both samples in one region, not the band, ||x_k|| > eps_conv), and
    their count; d_k is derivative_rows(ctrl, x_k, u_k), dt = t[1] - t[0],
    evaluated BLOCK_ROWS steps at a time."""
    same = (record.kind[:-1] == record.kind[1:]) & (record.index[:-1] == record.index[1:])
    smooth = same & (record.kind[:-1] != R3) & record.outside_ball(eps_conv)[:-1]
    steps = np.flatnonzero(smooth)
    if not steps.size:
        return 0.0, 0
    dt = float(record.t[1] - record.t[0])
    worst = 0.0
    for lo in range(0, len(steps), BLOCK_ROWS):
        k = steps[lo:lo + BLOCK_ROWS]
        _, _, d = derivative_rows(ctrl, record.x[k], record.u[k])
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
