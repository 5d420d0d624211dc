"""Control-affine systems xdot = f(x) + g(x) u and their registry.

Two benchmarks are built in: a decoupled planar linear_system and a nonlinear
mechanical system with velocity-dependent damping.  A custom system registers
under a name with the same evaluators (no expression parser); a scenario names
it by system_id, and every entry point gets it from resolve_system.  f and g
take the state as a list of floats, so a closed-loop step builds no array.  fg_rows
is f and g over a block of rows, bit for bit, for the grid checks in verify;
nonlinear_mech's evaluates the damping term once per x2 bit pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .scenario import ScenarioConfig, ScenarioError


@dataclass(frozen=True)
class ControlAffineSystem:
    """xdot = f(x) + g(x) u, f and g taking x as a list of n Python floats: f
    returns n floats (a list or any 1-D sequence), g an (n, m) array.  An
    array that f or g returns must not change in later calls: the engine
    reuses f(x) and g(x) for every probe from x, and g's rows and g u while g returns it."""

    name: str
    n: int
    m: int
    f: Callable[[list[float]], Sequence[float]]
    g: Callable[[list[float]], np.ndarray]
    # X (P,n) -> F (P,n), G (P,n,m), row k (f(X[k]), g(X[k])) bit for bit; default pointwise_rows
    fg_rows: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        # rows built for another instance, copied by dataclasses.replace, are built anew
        if getattr(self.fg_rows, "func", self.fg_rows) in (None, pointwise_rows):
            object.__setattr__(self, "fg_rows", partial(pointwise_rows, self))
        object.__setattr__(self, "_g_rows", [None, None])   # fg_at's memo


def pointwise_rows(system: ControlAffineSystem, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f rows (P, n) and g rows (P, n, m) from system's own f and g, point by point."""
    xs = X.tolist()
    return (np.array([system.f(x) for x in xs], float).reshape(len(X), system.n),
            np.array([system.g(x) for x in xs], float).reshape(len(X), system.n, system.m))


def fg_at(system: ControlAffineSystem, x: list[float]) -> tuple[list[float], list]:
    """f(x) as a new list of floats and g(x) as rows of floats, made once per array."""
    f, g, memo = system.f(x), system.g(x), system._g_rows
    if g is not memo[0]:
        memo[:] = g, np.asarray(g, float).tolist()
    return f.tolist() if isinstance(f, np.ndarray) else list(f), memo[1]


def linear_system(name: str, a: Sequence[float], B) -> ControlAffineSystem:
    """xdot = diag(a) x + B u, B (n, m): f is a_j x_j, and g returns B itself."""
    diag, B = np.asarray(a, float), np.array(B, float)
    pairs = tuple(enumerate(diag.tolist()))

    def f(x):
        y = [*x]   # a new list whatever sequence x is
        for j, aj in pairs:
            y[j] *= aj
        return y

    return ControlAffineSystem(name, *B.shape, f, lambda x: B,
                               lambda X: (X * diag, np.broadcast_to(B, (len(X), *B.shape))))


def builtin_linear2d() -> ControlAffineSystem:
    """x1dot = -x1 + u1, x2dot = -x2 + u2."""
    return linear_system("linear2d", [-1.0, -1.0], np.eye(2))


def _damp(x2: float) -> float:
    # math.exp/math.tanh: np.exp/np.tanh differ from them in the last bit on some inputs
    return (0.8 + 0.2 * math.exp(-100.0 * abs(x2))) * math.tanh(10.0 * x2)


def builtin_nonlinear_mech() -> ControlAffineSystem:
    """x1dot = x2; x2dot = -x1 - x2 - (0.8 + 0.2 e^{-100|x2|}) tanh(10 x2) + u."""
    col = np.array([[0.0], [1.0]])

    def f(x):
        x1, x2 = x
        return [x2, -x1 - x2 - _damp(x2)]

    def g(x):
        return col

    def fg_rows(X):
        x1, x2 = X[:, 0], X[:, 1]
        # _damp once per distinct bit pattern: 0.0, -0.0 and NaN payloads stay apart
        keys, inverse = np.unique(x2.view(np.int64), return_inverse=True)
        damp = np.fromiter(map(_damp, keys.view(float).tolist()), float, len(keys))[inverse]
        return np.stack([x2, -x1 - x2 - damp], axis=1), np.broadcast_to(col, (len(X), 2, 1))

    return ControlAffineSystem(name="nonlinear_mech", n=2, m=1, f=f, g=g, fg_rows=fg_rows)


SYSTEMS: dict[str, Callable[[], ControlAffineSystem]] = {
    "linear2d": builtin_linear2d,
    "nonlinear_mech": builtin_nonlinear_mech,
}


def register_system(name: str, factory: Callable[[], ControlAffineSystem]) -> None:
    SYSTEMS[name] = factory


def resolve_system(config: ScenarioConfig) -> ControlAffineSystem:
    """The system of config.system_id, checked for n states and one c1 entry per input."""
    try:
        system = SYSTEMS[config.system_id]()
    except KeyError:
        raise ScenarioError(f"unknown system id '{config.system_id}' "
                            f"(registered: {', '.join(sorted(SYSTEMS))})") from None
    for what, got, want in ([("state_box", config.n, system.n)]
                            + [(f"params[{k}].c1", pa.c1.size, system.m)
                               for k, pa in enumerate(config.params)]):
        if got != want:
            raise ScenarioError(f"{what} has {got} entries, system "
                                f"'{config.system_id}' needs {want}")
    return system
