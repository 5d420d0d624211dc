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

import numpy as np

from .certificate import Certificate, RegionLabel
from .controller import Controller, RegionMemory, make_controller
from .scenario import ScenarioConfig
from .simulator import TrajectoryRecord
from .systems import (ControlAffineSystem, control_row_transversal,
                      resolve_system)


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
                     memory: RegionMemory | None = None) -> DerivativeBreakdown:
    """Evaluate the generalized derivative of V at x under input u."""
    cert = ctrl.cert
    region = cert.classify(x, ctrl.eps_band)
    i = region.index if region.index is not None else cert.dominant_obstacle(x)
    f0 = ctrl.system.f(x)
    g0 = ctrl.system.g(x)
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
    elif memory is None:
        d = 0.5 * (d1 + d2) + 0.5 * abs(d1 - d2)
    else:
        prev = memory.prev
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
        return self.rho0_star > 0.0 and self.degenerate_ok

    def to_dict(self) -> dict:
        return {"passed": self.passed, "rho0_star": self.rho0_star,
                "worst_point": list(self.worst_point),
                "grid_shape": list(self.grid_shape), "counts": dict(self.counts),
                "degenerate_max_drift": self.degenerate_max_drift,
                "degenerate_ok": self.degenerate_ok,
                "degenerate_escapes_in_finite_time": self.degenerate_escapes}


def grid_decrease_check(config: ScenarioConfig, resolution: int = 201,
                        system: ControlAffineSystem | None = None,
                        tol_f: float = 1e-9,
                        controller: Controller | None = None) -> DecreaseReport:
    """min over the grid of -dV/||x||^2 under the dispatched controller.

    Excluded from the minimization: unsafe balls, shrunk bands, the
    eps_conv ball around the origin, and points where the dispatched law's
    control channel vanishes (there the derivative equals the raw drift term,
    which the drift conditions bound by 0, not by -rho; those points are
    counted separately and their drift derivative checked against tol_f).
    Band points are scored under the worse of the two one-sided branches.
    """
    if resolution < 11:
        raise ValueError("resolution must be >= 11")
    sys_ = system if system is not None else resolve_system(config)
    ctrl = controller if controller is not None else make_controller(config, sys_)
    sys_ = ctrl.system
    cert = ctrl.cert
    integ = config.integrator

    axes = [np.linspace(lo, hi, resolution) for lo, hi in config.state_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)

    counts = {"total": len(pts), "evaluated": 0, "excluded_unsafe": 0,
              "excluded_shrunk_band": 0, "excluded_origin_ball": 0,
              "degenerate_channel": 0}
    rho0 = math.inf
    worst = None
    max_drift = -math.inf
    escapes = 0

    tol_g = ctrl.tol_g
    for x in pts:
        L = float(x @ x)
        if L <= integ.eps_conv ** 2:
            counts["excluded_origin_ball"] += 1
            continue
        lab = cert.classify(x, integ.eps_band)
        if lab.kind == "UNSAFE":
            counts["excluded_unsafe"] += 1
            continue
        if lab.kind == "R3" and cert.in_shrunk_band(x, lab.index, integ.eps_band):
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
                # the drift condition fails pointwise but the state leaves the
                # degenerate set in finite time: informational, not a failure
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


def trajectory_invariants(record: TrajectoryRecord, config: ScenarioConfig,
                          system: ControlAffineSystem | None = None) -> InvariantReport:
    """Safety, V-monotonicity, shrunk-band avoidance, and FD consistency.

    The shrunk-band test applies a tangency-cone margin below phi (see
    Certificate.shrunk_band_margin): trajectories exiting at a contact point
    pass through any |B-L| <= eps band with ||x||^2 marginally below phi
    without being on the surface.
    """
    if not record.samples:
        raise ValueError("record is empty")
    sys_ = system if system is not None else resolve_system(config)
    ctrl = make_controller(config, sys_)
    cert = ctrl.cert
    integ = config.integrator
    samples = record.samples
    checks = record_checks(record, integ.eps_conv)

    # (c) no sample in a shrunk band (with the tangency-cone margin)
    hits = []
    margins = [cert.shrunk_band_margin(i, integ.eps_band) for i in range(cert.n_obstacles)]
    phis = [cert.phi(i) for i in range(cert.n_obstacles)]
    for s in samples:
        for i in range(cert.n_obstacles):
            if (abs(cert.gap(i, s.x)) <= integ.eps_band
                    and cert.L(s.x) < phis[i] - margins[i]):
                hits.append((s.t, i))
    checks.append(InvariantCheck(
        "shrunk-band avoidance: no sample with |B_i - L| <= eps_band and "
        "||x||^2 < phi_i - cone margin",
        not hits, f"{len(hits)} samples flagged" + (f", first at t = {hits[0][0]:.4g}" if hits else "")))

    # (d) finite-difference consistency on smooth segments
    dt = integ.dt
    worst_resid = 0.0
    n_smooth = 0
    for a, b in zip(samples, samples[1:]):
        if a.region.kind == "R3" or b.region.kind == "R3" or a.region != b.region:
            continue
        if float(np.linalg.norm(a.x)) <= integ.eps_conv:
            continue
        d = upper_derivative(ctrl, a.x, a.u)
        resid = (b.V - a.V) / dt - d.d_value
        worst_resid = max(worst_resid, resid)
        n_smooth += 1
    C = worst_resid / dt if n_smooth else 0.0
    checks.append(InvariantCheck(
        "finite-difference consistency: (V_k+1 - V_k)/dt <= upper derivative + C*dt",
        True, f"C = {C:.6g} over {n_smooth} smooth steps"))

    return InvariantReport(checks=tuple(checks), fd_constant=C)
