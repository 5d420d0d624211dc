"""Control-affine systems xdot = f(x) + g(x) u and sampled structural checks.

Two benchmarks are built in: a decoupled planar linear system and a nonlinear
mechanical system with velocity-dependent damping.  Custom systems register
through the same evaluator interface; no expression parser is provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certificate import R1, R2, R3, Certificate, row_dot, row_vecmat
from .scenario import ScenarioConfig


@dataclass(frozen=True)
class ControlAffineSystem:
    name: str
    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]


def builtin_linear2d() -> ControlAffineSystem:
    """x1dot = -x1 + u1, x2dot = -x2 + u2."""
    eye = np.eye(2)

    def f(x):
        return -x

    def g(x):
        return eye

    return ControlAffineSystem(name="linear2d", n=2, m=2, f=f, g=g)


def builtin_nonlinear_mech() -> ControlAffineSystem:
    """x1dot = x2; x2dot = -x1 - x2 - (0.8 + 0.2 e^{-100|x2|}) tanh(10 x2) + u."""
    col = np.array([[0.0], [1.0]])

    def f(x):
        x1, x2 = x.tolist()
        damp = (0.8 + 0.2 * math.exp(-100.0 * abs(x2))) * math.tanh(10.0 * x2)
        return np.array([x2, -x1 - x2 - damp])

    def g(x):
        return col

    return ControlAffineSystem(name="nonlinear_mech", n=2, m=1, f=f, g=g)


SYSTEMS: dict[str, Callable[[], ControlAffineSystem]] = {
    "linear2d": builtin_linear2d,
    "nonlinear_mech": builtin_nonlinear_mech,
}


def register_system(name: str, factory: Callable[[], ControlAffineSystem]) -> None:
    SYSTEMS[name] = factory


def resolve_system(config: ScenarioConfig) -> ControlAffineSystem:
    try:
        return SYSTEMS[config.system_id]()
    except KeyError:
        raise ValueError(f"unknown system id '{config.system_id}' "
                         f"(registered: {', '.join(sorted(SYSTEMS))})") from None


# ---------------------------------------------------------------------------
# Sampled assumption checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionEntry:
    condition: str
    points_checked: int
    degenerate_points: int
    violations: tuple[tuple[float, ...], ...]
    escape_notes: tuple[tuple[float, ...], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"condition": self.condition, "points_checked": self.points_checked,
                "degenerate_points": self.degenerate_points,
                "violations": [list(v) for v in self.violations],
                "escape_in_finite_time": [list(v) for v in self.escape_notes],
                "passed": self.passed}


@dataclass(frozen=True)
class AssumptionReport:
    entries: tuple[AssumptionEntry, ...]
    g_min_singular_value: float
    g_full_rank: bool
    fields_finite: bool
    zero_state_detectability: str
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return (all(e.passed for e in self.entries) and self.g_full_rank
                and self.fields_finite)

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "entries": [e.to_dict() for e in self.entries],
                "g_min_singular_value": self.g_min_singular_value,
                "g_full_rank": self.g_full_rank,
                "fields_finite": self.fields_finite,
                "zero_state_detectability": self.zero_state_detectability,
                "notes": list(self.notes)}


# Drift derivatives up to this count as nonpositive at degenerate points.
TOL_F = 1e-9

# Grid checks evaluate this many rows per array pass, which bounds their
# temporaries; ties across blocks still go to the first row in grid order.
BLOCK_ROWS = 4096


def grid_points(config: ScenarioConfig, resolution: int) -> np.ndarray:
    """The resolution^n grid over the state box, one point per row (C order)."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in config.state_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def field_rows(system: ControlAffineSystem, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f rows (P, n) and g rows (P, n, m), evaluated point by point.

    The evaluators stay per point: the builtins use math.exp/math.tanh, which
    np.exp/np.tanh do not match in the last bit on every input.
    """
    F = np.array([system.f(x) for x in X]).reshape(len(X), system.n)
    G = np.array([system.g(x) for x in X]).reshape(len(X), system.n, system.m)
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


def check_assumptions(system: ControlAffineSystem, config: ScenarioConfig,
                      grid_resolution: int = 101) -> AssumptionReport:
    """Grid-sampled necessary checks of the drift conditions.

    At grid points where the relevant gradient-control row vanishes (below a
    tolerance scaled to the grid median of its norm), the drift derivative
    must be <= TOL_F.  A pointwise failure is downgraded to an informational
    "escapes in finite time" note when the control row's derivative along the
    drift is nonzero there (the trajectory leaves the degenerate set).  These
    are sampled necessary conditions, not proofs; zero-state detectability is
    not decidable by sampling and is reported as such.
    """
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    cert = Certificate(config)
    pts = grid_points(config, grid_resolution)
    n_rows = 1 + config.n_obstacles   # grad L, then grad B_i
    kind = np.empty(len(pts), dtype=int)
    index = np.empty(len(pts), dtype=int)
    svals = np.empty(len(pts))
    norms = np.empty((n_rows, len(pts)))
    drifts = np.empty((n_rows, len(pts)))
    fields_finite = True
    for lo in range(0, len(pts), BLOCK_ROWS):
        X = pts[lo:lo + BLOCK_ROWS]
        F, G = field_rows(system, X)
        span = slice(lo, lo + len(X))
        svals[span] = np.linalg.svd(G, compute_uv=False)[:, -1]
        fields_finite = fields_finite and bool(np.all(np.isfinite(F))
                                               and np.all(np.isfinite(G)))
        kind[span], index[span] = cert.label_rows(*cert.dominant_gap_rows(X),
                                                  config.integrator.eps_band)
        grads = [cert.grad_L(X)] + [cert.grad_B(i, X) for i in range(config.n_obstacles)]
        for r, grad in enumerate(grads):
            row = row_vecmat(grad, G)
            norms[r, span] = np.sqrt(row_dot(row, row))
            drifts[r, span] = row_dot(grad, F)
    g_min_sv = float(np.min(svals))
    g_full_rank = g_min_sv > 1e-9

    def condition(name, member, r, grad):
        # the row tolerance scales with the grid median of the row norm
        nz = norms[r][norms[r] > 0]
        tol_g = 1e-6 * (float(np.median(nz)) if nz.size else 1.0)
        degenerate = member & ~(norms[r] > tol_g)
        violations, escapes = [], []
        for k in np.flatnonzero(degenerate & ~(drifts[r] <= TOL_F)):
            x, drift = pts[k], float(drifts[r, k])
            # the drift condition fails pointwise; informational when the
            # state leaves the degenerate set in finite time
            if control_row_transversal(system, lambda y: grad(y) @ system.g(y), x):
                escapes.append(tuple(x.tolist()) + (drift,))
            else:
                violations.append(tuple(x.tolist()) + (drift,))
        return AssumptionEntry(condition=name, points_checked=int(member.sum()),
                               degenerate_points=int(degenerate.sum()),
                               violations=tuple(violations), escape_notes=tuple(escapes))

    band = kind == R3
    entries = [condition("grad L . f <= 0 where grad L . g = 0 (in R2 or any band)",
                         (kind == R2) | band, 0, cert.grad_L)]
    for i in range(config.n_obstacles):
        entries.append(condition(
            f"grad B[{i}] . f <= 0 where grad B[{i}] . g = 0 (in R1[{i}] or band[{i}])",
            ((kind == R1) | band) & (index == i), 1 + i,
            lambda x, i=i: cert.grad_B(i, x)))

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
