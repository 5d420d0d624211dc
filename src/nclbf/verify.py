"""Numerical certification of the decreasing condition and trajectory checks.

The upper generalized derivative of V along the closed loop takes the
barrier-side form in R1, the stabilizer-side form in R2, and is resolved in
the band through the previous-sample region; without a history the
conservative max of the two one-sided forms is used (the exact algebraic
value of 0.5*(d1+d2) + 0.5*|d1-d2|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .certificate import (R1, R2, R3, UNSAFE, Certificate, RegionLabel, row_dot,
                          row_vecmat)
from .controller import Controller, make_controller
from .scenario import ScenarioConfig
from .simulator import TrajectoryRecord
from .systems import (BLOCK_ROWS, TOL_F, control_row_transversal, field_rows,
                      grid_points)


@dataclass(frozen=True)
class DerivativeBreakdown:
    region: RegionLabel
    d_value: float
    components: dict
    h2: float

    def to_dict(self) -> dict:
        return {"region": self.region.code, "d_value": self.d_value,
                "components": dict(self.components), "h2": self.h2}


def upper_derivative(ctrl: Controller, x: np.ndarray, u: np.ndarray,
                     prev: RegionLabel | None = None) -> DerivativeBreakdown:
    """Evaluate the generalized derivative of V at x under input u; prev,
    the previous sample's region, resolves the band (None: no history)."""
    cert = ctrl.cert
    region = cert.classify(x, ctrl.eps_band)
    i = region.index if region.index is not None else cert.dominant_obstacle(x)
    f0, g0 = ctrl.system.f(x), ctrl.system.g(x)
    F = f0 + g0 @ u
    gB = cert.grad_B(i, x)
    gL = cert.grad_L(x)
    d1 = float(gB @ F)
    d2 = float(gL @ F)
    comps = {"B_f": float(gB @ f0),
             "B_g_u": float((gB @ g0) @ u),
             "L_f": float(gL @ f0),
             "L_g_u": float((gL @ g0) @ u)}
    h2 = cert.gap(i, x)

    if region.kind in ("R1", "UNSAFE"):
        d = d1  # B dominates L on and inside the ball, so V = B there
    elif region.kind == "R2":
        d = d2
    elif prev is None:
        d = 0.5 * (d1 + d2) + 0.5 * abs(d1 - d2)
    else:
        d = d1 if (prev.kind == "R1" and prev.index == i) else d2
    return DerivativeBreakdown(region=region, d_value=d, components=comps, h2=h2)


# ---------------------------------------------------------------------------
# Grid certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecreaseReport:
    rho0_star: float
    worst_point: tuple[float, ...]
    grid_shape: tuple[int, ...]
    counts: dict
    degenerate_max_drift: float
    degenerate_ok: bool
    degenerate_escapes: int = 0

    @property
    def passed(self) -> bool:
        # a grid with no evaluated point certifies nothing
        return self.counts["evaluated"] > 0 and self.rho0_star > 0.0 and self.degenerate_ok

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "rho0_star": self.rho0_star if self.counts["evaluated"] else None,
                "worst_point": list(self.worst_point),
                "grid_shape": list(self.grid_shape), "counts": dict(self.counts),
                "degenerate_max_drift": self.degenerate_max_drift,
                "degenerate_ok": self.degenerate_ok,
                "degenerate_escapes_in_finite_time": self.degenerate_escapes}


def _branch(ctrl: Controller, grad: np.ndarray, X: np.ndarray, F: np.ndarray,
            G: np.ndarray, law) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One side of the derivative on rows X with gradient rows grad.

    Returns per row: whether the control row grad.g is live, grad.(f + g u)
    under u = law(X, F, G) where it is (0 elsewhere), and the raw drift grad.f.
    """
    row = row_vecmat(grad, G)
    live = np.sqrt(row_dot(row, row)) > ctrl.tol_g
    U = law(X[live], F[live], G[live])
    d = np.zeros(len(X))
    d[live] = row_dot(grad[live], F[live] + (G[live] @ U[:, :, None])[:, :, 0])
    return live, d, row_dot(grad, F)


def grid_decrease_check(config: ScenarioConfig, resolution: int = 201,
                        controller: Controller | None = None) -> DecreaseReport:
    """min over the grid of -dV/||x||^2 under the dispatched controller.

    Excluded from the minimization: unsafe balls, shrunk bands, the
    eps_conv ball around the origin, and points where the dispatched law's
    control channel vanishes (there the derivative equals the raw drift term,
    which the drift conditions bound by 0, not by -rho; those points are
    counted separately and their drift derivative checked against TOL_F).
    Band points are scored under the worse of the two one-sided branches.
    The grid is scored BLOCK_ROWS rows at a time; among equal ratios the
    worst point is the first in grid order.
    """
    if resolution < 11:
        raise ValueError("resolution must be >= 11")
    ctrl = controller if controller is not None else make_controller(config)
    sys_ = ctrl.system
    cert = ctrl.cert
    integ = config.integrator
    pts = grid_points(config, resolution)

    counts = {"total": len(pts), "evaluated": 0, "excluded_unsafe": 0,
              "excluded_shrunk_band": 0, "excluded_origin_ball": 0,
              "degenerate_channel": 0}
    rho0 = math.inf
    worst = None
    max_drift = -math.inf
    escapes = 0

    for lo in range(0, len(pts), BLOCK_ROWS):
        X = pts[lo:lo + BLOCK_ROWS]
        L = row_dot(X, X)
        kind, index = cert.label_rows(*cert.dominant_gap_rows(X), integ.eps_band)
        origin = L <= integ.eps_conv ** 2
        unsafe = ~origin & (kind == UNSAFE)
        shrunk = np.zeros(len(X), dtype=bool)
        for i in range(cert.n_obstacles):
            rows = np.flatnonzero(~origin & (kind == R3) & (index == i))
            shrunk[rows] = cert.shrunk_band_rows(i, X[rows], integ.eps_band)
        counts["excluded_origin_ball"] += int(origin.sum())
        counts["excluded_unsafe"] += int(unsafe.sum())
        counts["excluded_shrunk_band"] += int(shrunk.sum())

        keep = ~(origin | unsafe | shrunk)
        X, L, kind, index = X[keep], L[keep], kind[keep], index[keep]
        F, G = field_rows(sys_, X)
        barrier = (kind == R1) | (kind == R3)
        stabilizer = (kind == R2) | (kind == R3)
        # per side (0: barrier under kappa1, 1: stabilizer under kappa2)
        live = np.zeros((2, len(X)), dtype=bool)
        d = np.zeros((2, len(X)))
        drift = np.zeros((2, len(X)))
        for i in range(cert.n_obstacles):
            r = np.flatnonzero(barrier & (index == i))
            live[0, r], d[0, r], drift[0, r] = _branch(
                ctrl, cert.grad_B(i, X[r]), X[r], F[r], G[r], partial(ctrl.kappa1_rows, i))
        r = np.flatnonzero(stabilizer)
        live[1, r], d[1, r], drift[1, r] = _branch(ctrl, cert.grad_L(X[r]), X[r], F[r],
                                                   G[r], ctrl.kappa2_rows)

        for k in np.flatnonzero(~(live[0] | live[1])):
            # every applicable control channel vanished: check the raw drift
            counts["degenerate_channel"] += 1
            x, i = X[k], int(index[k])
            channels = []
            if barrier[k]:
                channels.append((drift[0, k], lambda y, i=i: cert.grad_B(i, y) @ sys_.g(y)))
            if stabilizer[k]:
                channels.append((drift[1, k], lambda y: cert.grad_L(y) @ sys_.g(y)))
            for drift_k, row_fn in channels:
                if drift_k <= TOL_F:
                    continue
                # the drift condition fails pointwise but the state leaves the
                # degenerate set in finite time: informational, not a failure
                if control_row_transversal(sys_, row_fn, x):
                    escapes += 1
                else:
                    max_drift = max(max_drift, float(drift_k))

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
        degenerate_ok=max_drift <= TOL_F, degenerate_escapes=escapes)


# ---------------------------------------------------------------------------
# Trajectory invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantCheck:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class InvariantReport:
    checks: tuple[InvariantCheck, ...]
    fd_constant: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks],
                "fd_constant": self.fd_constant}


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


def shrunk_band_check(record: TrajectoryRecord, cert: Certificate,
                      eps_band: float) -> InvariantCheck:
    """Invariant check (c): no sample with |B_i - L| <= eps_band and ||x||^2
    below phi_i by more than the tangency-cone margin; hits count (sample,
    obstacle) pairs."""
    L = row_dot(record.x, record.x)
    hits = sum(cert.shrunk_band_rows(i, record.x, eps_band)
               & (L < cert.phi(i) - cert.shrunk_band_margin(i, eps_band))
               for i in range(cert.n_obstacles))
    n_hits = int(np.sum(hits))
    return InvariantCheck(
        "shrunk-band avoidance: no sample with |B_i - L| <= eps_band and "
        "||x||^2 < phi_i - cone margin",
        not n_hits, f"{n_hits} samples flagged"
        + (f", first at t = {record.t[np.flatnonzero(hits)[0]]:.4g}" if n_hits else ""))


def fd_constant(record: TrajectoryRecord, ctrl: Controller,
                eps_conv: float) -> tuple[float, int]:
    """Invariant check (d): max(0, (V_k+1 - V_k)/dt - upper_derivative(ctrl,
    x_k, u_k)) / dt over the smooth steps (both samples in one region, not
    the band, ||x_k|| > eps_conv), and their count; dt = t[1] - t[0]."""
    cert = ctrl.cert
    codes = {r: k for k, r in enumerate(set(record.region))}
    code = np.fromiter(map(codes.__getitem__, record.region), int, len(record))
    band = np.array([r.kind == "R3" for r in codes])[code]
    smooth = (code[:-1] == code[1:]) & ~band[:-1] & record.outside_ball(eps_conv)[:-1]
    if not smooth.any():
        return 0.0, 0
    X, U = record.x[:-1][smooth], record.u[:-1][smooth]
    # the region and obstacle upper_derivative picks from x itself
    kind, index = cert.label_rows(*cert.dominant_gap_rows(X), ctrl.eps_band)
    F, G = field_rows(ctrl.system, X)
    F = F + (G @ U[:, :, None])[:, :, 0]
    d1 = np.empty(len(X))
    for i in range(cert.n_obstacles):
        r = index == i
        d1[r] = row_dot(cert.grad_B(i, X[r]), F[r])
    d2 = row_dot(cert.grad_L(X), F)
    d = np.where((kind == R1) | (kind == UNSAFE), d1,
                 np.where(kind == R2, d2, 0.5 * (d1 + d2) + 0.5 * np.abs(d1 - d2)))
    dt = float(record.t[1] - record.t[0])
    resid = np.diff(record.V)[smooth] / dt - d
    resid = resid[resid > 0.0]
    return (float(resid.max()) if resid.size else 0.0) / dt, len(X)


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
    ctrl = make_controller(config)
    integ = config.integrator
    C, n_smooth = fd_constant(record, ctrl, integ.eps_conv)
    return InvariantReport(checks=(
        *record_checks(record, integ.eps_conv),
        shrunk_band_check(record, ctrl.cert, integ.eps_band),
        InvariantCheck(
            "finite-difference consistency: (V_k+1 - V_k)/dt <= upper derivative + C*dt",
            True, f"C = {C:.6g} over {n_smooth} smooth steps")), fd_constant=C)
