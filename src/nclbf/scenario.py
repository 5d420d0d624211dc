"""Scenario configuration: obstacle geometry, design constants, and file I/O.

A scenario bundles a control-affine system id, ball-shaped unsafe sets, the
per-obstacle barrier constants (eta1, eta2, optional buffer parameter w, input
weights c1), the stabilizer gain gamma, integrator settings, and initial
states.  Configs are immutable after construction and safe to share across
workers.

Scenario files are JSON; see ``save_scenario`` for the schema.  Obstacles are
given by center and *radius* in the file (human units); internally the squared
radius is the primary quantity entering every formula.  Every report reaches
JSON through ``json_doc``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
import numpy as np


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent scenario data."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ObstacleSpec:
    """Open ball of unsafe states: ||x - center|| < sqrt(radius_sq)."""

    center: np.ndarray
    radius_sq: float

    def __post_init__(self):
        object.__setattr__(self, "center", _readonly(self.center))
        object.__setattr__(self, "radius_sq", float(self.radius_sq))
        if self.center.ndim != 1:
            raise ScenarioError("obstacle center must be a flat vector")
        if not np.all(np.isfinite(self.center)) or not math.isfinite(self.radius_sq):
            raise ScenarioError("obstacle center/radius must be finite")
        if self.radius_sq <= 0.0:
            raise ScenarioError("obstacle radius must be positive")
        if self.center_norm_sq <= self.radius_sq:
            raise ScenarioError(
                "origin inside unsafe ball: require ||center||^2 > radius^2 "
                f"(got {self.center_norm_sq:.6g} <= {self.radius_sq:.6g})"
            )

    @classmethod
    def from_radius(cls, center, radius: float) -> "ObstacleSpec":
        return cls(center=np.asarray(center, float), radius_sq=float(radius) ** 2)

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_sq)

    @property
    def center_norm_sq(self) -> float:
        return float(self.center @ self.center)

    @property
    def center_norm(self) -> float:
        return math.sqrt(self.center_norm_sq)

    def max_L_over_closure(self) -> float:
        """Largest ||x||^2 over the closed ball: (||c|| + sqrt(r))^2.

        Expanded as ||c||^2 + r + 2*sqrt(||c||^2 * r) so that the common case
        of a perfect-square product evaluates exactly in floating point.
        """
        cc = self.center_norm_sq
        return cc + self.radius_sq + 2.0 * math.sqrt(cc * self.radius_sq)


def eta1_lower_bound(obstacle: ObstacleSpec) -> float:
    """(||c|| + sqrt(r)) / (||c|| - sqrt(r)); requires the origin outside."""
    c, s = obstacle.center_norm, obstacle.radius
    return (c + s) / (c - s)


def w_upper_bound(eta1: float, obstacle: ObstacleSpec) -> float:
    """Admissible buffer range is 0 < w < eta1*(||c||^2 - r) - (||c||+sqrt(r))^2."""
    return eta1 * (obstacle.center_norm_sq - obstacle.radius_sq) - obstacle.max_L_over_closure()


def derive_eta2(eta1: float, obstacle: ObstacleSpec, w: float) -> float:
    """eta2 = eta1*r + max_{closure} ||x||^2 + w, with bound checks.

    Raises ScenarioError naming the violated inequality when (eta1, w) fall
    outside their admissible ranges for this obstacle.
    """
    lb = eta1_lower_bound(obstacle)
    if eta1 < lb:
        raise ScenarioError(
            f"eta1 violates eta1 >= (||c||+sqrt(r))/(||c||-sqrt(r)) = {lb:.6g} (got {eta1:.6g})"
        )
    wub = w_upper_bound(eta1, obstacle)
    if not (0.0 < w < wub):
        raise ScenarioError(
            f"w violates 0 < w < eta1*(||c||^2-r) - (||c||+sqrt(r))^2 = {wub:.6g} (got {w:.6g})"
        )
    return eta1 * obstacle.radius_sq + obstacle.max_L_over_closure() + w


# Relative agreement required when a config gives both w and eta2.
ETA2_CONSISTENCY_RTOL = 1e-9


@dataclass(frozen=True)
class ObstacleParams:
    """Barrier constants for one obstacle: B = eta2 - eta1*||x - c||^2."""

    eta1: float
    eta2: float
    c1: np.ndarray
    w: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "c1", _readonly(self.c1))
        object.__setattr__(self, "eta1", float(self.eta1))
        object.__setattr__(self, "eta2", float(self.eta2))
        if not (0 < self.eta1 < math.inf and 0 < self.eta2 < math.inf):
            raise ScenarioError("eta1 and eta2 must be positive and finite")
        if self.c1.ndim != 1 or not np.all((self.c1 > 0) & (self.c1 < math.inf)):
            raise ScenarioError("c1 must be a vector of positive finite entries")
        if self.w is not None and not math.isfinite(self.w):
            raise ScenarioError("w must be finite")

    @classmethod
    def resolve(cls, obstacle: ObstacleSpec, eta1: float, c1,
                w: float | None = None, eta2: float | None = None) -> "ObstacleParams":
        """Build params from (eta1, w), (eta1, eta2), or both (must agree)."""
        if w is None and eta2 is None:
            raise ScenarioError("params need w or eta2 (or both)")
        if w is not None:
            derived = derive_eta2(eta1, obstacle, w)
            if eta2 is None:
                eta2 = derived
            elif abs(eta2 - derived) > ETA2_CONSISTENCY_RTOL * max(abs(eta2), abs(derived)):
                raise ScenarioError(
                    f"eta2 = {eta2!r} disagrees with eta1/w-derived value {derived!r} "
                    f"beyond {ETA2_CONSISTENCY_RTOL:g} relative"
                )
        return cls(eta1=float(eta1), eta2=float(eta2), c1=np.asarray(c1, float), w=w)

    def effective_w(self, obstacle: ObstacleSpec) -> float:
        """w recovered from eta2 when not given explicitly."""
        if self.w is not None:
            return self.w
        return self.eta2 - self.eta1 * obstacle.radius_sq - obstacle.max_L_over_closure()


@dataclass(frozen=True)
class IntegratorSettings:
    dt: float = 1e-3
    t_max: float = 20.0
    eps_conv: float = 1e-2
    eps_band: float = 1e-3

    def __post_init__(self):
        if not (0 < self.dt < self.t_max < math.inf):
            raise ScenarioError("require 0 < dt < t_max and a finite t_max")
        if not (0 < self.eps_conv < math.inf and 0 < self.eps_band < math.inf):
            raise ScenarioError("eps_conv and eps_band must be positive and finite")


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable scenario: system id, state box, obstacles, params, gamma."""

    system_id: str
    state_box: np.ndarray            # (n, 2) per-axis [lo, hi]; advisory
    obstacles: tuple[ObstacleSpec, ...]
    params: tuple[ObstacleParams, ...]
    gamma: float
    integrator: IntegratorSettings = field(default_factory=IntegratorSettings)
    initial_states: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if not (0 < self.gamma < math.inf):
            raise ScenarioError("gamma must be positive and finite")
        object.__setattr__(self, "state_box", _readonly(self.state_box))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "initial_states", tuple(_readonly(x) for x in self.initial_states))
        if not isinstance(self.system_id, str):
            raise ScenarioError(f"system must be a name (got {self.system_id!r})")
        if self.state_box.ndim != 2 or self.state_box.shape[1] != 2:
            raise ScenarioError("state_box must have shape (n, 2)")
        if not np.all(np.isfinite(self.state_box)):
            raise ScenarioError("state_box must be finite")
        if not np.all(self.state_box[:, 0] < self.state_box[:, 1]):
            raise ScenarioError("state_box rows must be [lo, hi] with lo < hi")
        n = self.n
        if len(self.obstacles) != len(self.params):
            raise ScenarioError("obstacles and params lists must have the same length")
        if not self.obstacles:
            raise ScenarioError("at least one obstacle is required")
        for ob in self.obstacles:
            if ob.center.shape != (n,):
                raise ScenarioError(f"obstacle center dimension {ob.center.shape[0]} != state dimension {n}")
        for x0 in self.initial_states:
            if x0.shape != (n,):
                raise ScenarioError(f"initial state dimension {x0.shape[0]} != state dimension {n}")
            if not np.all(np.isfinite(x0)):
                raise ScenarioError("initial states must be finite")

    @property
    def n(self) -> int:
        return self.state_box.shape[0]

    @property
    def n_obstacles(self) -> int:
        return len(self.obstacles)


# ---------------------------------------------------------------------------
# JSON I/O
# ---------------------------------------------------------------------------

def json_doc(v):
    """v as a report writes it in JSON: a dataclass is its fields by name,
    leaving out those that are None, plus its passed verdict when it has one;
    tuples become lists and dicts are converted value by value; a non-finite
    float, which standard JSON cannot hold, is null."""
    if is_dataclass(v):
        doc = {f.name: json_doc(getattr(v, f.name)) for f in fields(v)
               if getattr(v, f.name) is not None}
        if hasattr(v, "passed"):
            doc["passed"] = v.passed
        return doc
    if isinstance(v, dict):
        return {k: json_doc(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [json_doc(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _require(d: dict, key: str, where: str):
    if not isinstance(d, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    if key not in d:
        raise ScenarioError(f"missing field '{key}' in {where}")
    return d[key]


def load_scenario(text: str | bytes) -> ScenarioConfig:
    """Parse a scenario JSON document.

    When a params entry gives w and omits eta2, eta2 is derived; when it gives
    both they must agree to 1e-9 relative.  A document of the wrong shape
    (say, a string where a number belongs) raises ScenarioError too.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        return _parse(json.loads(text))
    except json.JSONDecodeError as e:
        raise ScenarioError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except ScenarioError:
        raise
    except (AttributeError, TypeError, ValueError) as e:
        raise ScenarioError(f"malformed scenario document ({type(e).__name__}: {e})") from e


def _parse(doc) -> ScenarioConfig:
    system_id = _require(doc, "system", "scenario document")
    state_box = np.asarray(_require(doc, "state_box", "scenario"), float)
    obstacles_doc = _require(doc, "obstacles", "scenario")
    params_doc = _require(doc, "params", "scenario")
    if len(obstacles_doc) != len(params_doc):
        raise ScenarioError("obstacles and params arrays must have the same length")

    obstacles = []
    for k, od in enumerate(obstacles_doc):
        center = np.asarray(_require(od, "center", f"obstacles[{k}]"), float)
        radius = float(_require(od, "radius", f"obstacles[{k}]"))
        obstacles.append(ObstacleSpec.from_radius(center, radius))

    params = []
    for k, pd in enumerate(params_doc):
        eta1 = float(_require(pd, "eta1", f"params[{k}]"))
        c1 = np.asarray(_require(pd, "c1", f"params[{k}]"), float)
        w, eta2 = (None if pd.get(key) is None else float(pd[key]) for key in ("w", "eta2"))
        params.append(ObstacleParams.resolve(obstacles[k], eta1, c1, w=w, eta2=eta2))

    gamma = float(_require(doc, "gamma", "scenario"))
    # absent settings take the IntegratorSettings defaults; unknown ones are errors
    integrator = IntegratorSettings(**{k: float(v) for k, v in doc.get("integrator", {}).items()})
    initial_states = tuple(np.asarray(v, float) for v in doc.get("initial_states", []))

    return ScenarioConfig(system_id=system_id, state_box=state_box,
                          obstacles=tuple(obstacles), params=tuple(params),
                          gamma=gamma, integrator=integrator,
                          initial_states=initial_states)


def save_scenario(config: ScenarioConfig) -> str:
    """Serialize to the scenario JSON schema (radius, not radius squared)."""
    doc = {
        "system": config.system_id,
        "state_box": config.state_box.tolist(),
        "obstacles": [{"center": ob.center.tolist(), "radius": ob.radius}
                      for ob in config.obstacles],
        "params": [
            {k: v for k, v in (("eta1", pa.eta1), ("w", pa.w), ("eta2", pa.eta2),
                               ("c1", pa.c1.tolist())) if v is not None}
            for pa in config.params],
        "gamma": config.gamma,
        "integrator": {"dt": config.integrator.dt, "t_max": config.integrator.t_max,
                       "eps_conv": config.integrator.eps_conv,
                       "eps_band": config.integrator.eps_band},
        "initial_states": [x.tolist() for x in config.initial_states],
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Built-in fixtures
# ---------------------------------------------------------------------------

def linear2d_single() -> ScenarioConfig:
    """Planar linear benchmark: one unsafe ball at (2,2), radius sqrt(2)."""
    box = np.array([[-5.0, 5.0], [-5.0, 5.0]])
    ob = ObstacleSpec(center=np.array([2.0, 2.0]), radius_sq=2.0)
    pa = ObstacleParams.resolve(ob, eta1=9.0, c1=[10.0, 20.0], w=0.9)
    return ScenarioConfig(
        system_id="linear2d", state_box=box, obstacles=(ob,), params=(pa,),
        gamma=0.1,
        integrator=IntegratorSettings(dt=1e-3, t_max=20.0, eps_conv=1e-2, eps_band=1e-3),
        initial_states=tuple(np.array(v) for v in
                             [(5.0, 5.0), (4.0, 4.0), (3.5, 3.5), (5.0, 2.0), (3.0, 5.0)]))


def nonlinear_mech_three() -> ScenarioConfig:
    """Nonlinear mechanical benchmark with three unsafe balls.

    Obstacle 0 stores the published eta2 = 16 directly (the value derived from
    its w would be 16.0466...; the published figure is authoritative here).
    t_max is 60 because the closed loop's slow mode needs ~50 s to bring
    ||x|| under eps_conv.
    """
    box = np.array([[-5.0, 5.0], [-5.0, 5.0]])
    obs = (
        ObstacleSpec(center=np.array([2.0, 0.0]), radius_sq=0.7),
        ObstacleSpec(center=np.array([2.0, 2.0]), radius_sq=0.5),
        ObstacleSpec(center=np.array([-2.0, 0.0]), radius_sq=1.0),
    )
    pas = (
        ObstacleParams.resolve(obs[0], eta1=11.0, c1=[10.0], eta2=16.0),
        ObstacleParams.resolve(obs[1], eta1=19.0, c1=[20.0], w=0.7),
        ObstacleParams.resolve(obs[2], eta1=18.0, c1=[20.0], w=0.2),
    )
    return ScenarioConfig(
        system_id="nonlinear_mech", state_box=box, obstacles=obs, params=pas,
        gamma=5.0,
        integrator=IntegratorSettings(dt=1e-3, t_max=60.0, eps_conv=1e-2, eps_band=1e-3),
        initial_states=tuple(np.array(v) for v in
                             [(-5.0, 5.0), (-4.0, -5.0), (-5.0, 0.0), (5.0, -5.0),
                              (5.0, 0.0), (4.0, 4.0), (3.0, 2.0), (2.0, 5.0)]))


BUILTIN_SCENARIOS = {
    "linear2d_single": linear2d_single,
    "nonlinear_mech_three": nonlinear_mech_three,
}


def builtin_scenario(name: str) -> ScenarioConfig:
    try:
        return BUILTIN_SCENARIOS[name]()
    except KeyError:
        raise ScenarioError(f"unknown builtin scenario '{name}' "
                            f"(have: {', '.join(sorted(BUILTIN_SCENARIOS))})") from None
