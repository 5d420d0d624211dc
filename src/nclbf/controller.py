"""Piecewise feedback laws and the region-dispatched controller.

kappa1 pushes the dominant barrier down at rate (sum of active c1)*||x||^2,
kappa2 is Sontag's universal law on L, and kappa3 resolves the band B = L
through the previous sample's region.  Control is dispatched on the region,
the certificate's (kind, index) pair; the band uses a one-sample memory (the
sample period plays the role of the lookback interval).  Controller(config)
is built from the scenario alone: its system comes from the registry, by
config.system_id.
"""

from __future__ import annotations

import math

import numpy as np

from .certificate import R1, R2, UNSAFE, Certificate, dot, row_dot, row_vecmat, vecmat
from .scenario import ScenarioConfig, _readonly
from .systems import fg_at, resolve_system

# Absolute threshold below which a gradient-control row counts as vanished.
TOL_G = 1e-9

K2_LAW, NO_LAW = "K2", "-"   # kappa2's law name; no law (a sample in an unsafe ball)


def law_names(n_obstacles: int) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """The barrier laws' names, each built once (1-based obstacle i): k1[i] is
    'K1:i' and k3[i][b] is 'K3:i>K2' or 'K3:i>K1' by the band rule's verdict b."""
    return (tuple(f"K1:{i + 1}" for i in range(n_obstacles)),
            tuple((f"K3:{i + 1}>K2", f"K3:{i + 1}>K1") for i in range(n_obstacles)))


class SafetyViolationError(RuntimeError):
    """Control requested inside an unsafe ball."""


class MemoryStateError(RuntimeError):
    """Region memory holds a state the controller cannot have reached."""


def control_terms(grad: np.ndarray, F: np.ndarray,
                  G: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of one side (grad L, or grad B of each row's obstacle): the
    control row grad.g, its squared norm and the drift grad.f."""
    row = row_vecmat(grad, G)
    return row, row_dot(row, row), row_dot(grad, F)


def band_takes_kappa1(prev: tuple[int, int], i) -> bool:
    """The band rule: the barrier law resolves the band of obstacle i exactly
    when prev is (R1, i).  For an index array i the result is per row."""
    return prev[0] == R1 and prev[1] == i


class Controller:
    """The scenario's system (by system_id), certificate, gamma and c1; pure in x."""

    def __init__(self, config: ScenarioConfig):
        self.system = resolve_system(config)
        self.cert = Certificate(config)
        self.gamma = config.gamma
        self.c1 = _readonly([pa.c1 for pa in config.params])   # (N, m)
        self._c1 = self.c1.tolist()   # kappa1's float rows
        self.k1_law, self.k3_law = law_names(config.n_obstacles)

    def kappa1(self, i: int, x, f0: list[float] | None = None,
               g0: list | None = None) -> list[float]:
        """Barrier-decrease law: grad B.(f + g u) = -(sum of active c1)*||x||^2.

        u_j = -(Bg_j/||Bg||^2)*Bf - c1_j*mubar_j*L, mubar_j being 1/Bg_j where
        |Bg_j| > TOL_G and 0 (channel j inactive) elsewhere; zero when Bg vanishes.
        """
        x = x if type(x) is list else np.asarray(x, float).tolist()
        if f0 is None:
            f0, g0 = fg_at(self.system, x)
        c, e1, _ = self.cert._obstacles[i]
        s = -2.0 * e1
        gB = [s * (a - b) for a, b in zip(x, c)]   # grad_B
        Bf = dot(gB, f0)
        u = vecmat(gB, g0)   # Bg
        n2 = dot(u, u)
        if math.sqrt(n2) <= TOL_G:
            return [0.0] * self.system.m
        L, c1 = dot(x, x), self._c1[i]
        for j in range(len(u)):
            b = u[j]
            u[j] = -(b / n2) * Bf - (c1[j] * (1.0 / b if abs(b) > TOL_G else 0.0)) * L
        return u

    def kappa2(self, x, f0: list[float] | None = None,
               g0: list | None = None) -> list[float]:
        """Sontag's law: grad L.(f + g u) = -sqrt(L_f^2 + gamma*||L_g||^4)."""
        x = x if type(x) is list else np.asarray(x, float).tolist()
        if f0 is None:
            f0, g0 = fg_at(self.system, x)
        gL = [2.0 * v for v in x]
        Lf = dot(gL, f0)
        u = vecmat(gL, g0)   # Lg
        n2 = dot(u, u)
        if math.sqrt(n2) <= TOL_G:
            return [0.0] * self.system.m
        k = -(Lf + math.sqrt(Lf * Lf + self.gamma * n2 * n2))
        for j in range(len(u)):
            u[j] = k * (u[j] / n2)
        return u

    def kappa1_terms(self, i: int | np.ndarray, X: np.ndarray, Bg: np.ndarray,
                     n2: np.ndarray, Bf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """kappa1 for every row of X from control_terms(grad_B(i, X), F, G), i as
        in Certificate.grad_B, and its live mask sqrt(n2) > TOL_G (U is zero off
        it); row k agrees with kappa1(i_k, X[k]) to rounding, not bit for bit.
        Each column of U is computed under where=live: no row off it is
        evaluated but its ||x||^2."""
        live = np.sqrt(n2) > TOL_G
        c1 = np.broadcast_to(self.c1.take(i, axis=0), Bg.shape)
        L = row_dot(X, X)
        U = np.zeros(Bg.shape)
        for j, u in enumerate(U.T):
            b, bar = Bg[:, j], np.zeros(len(X))   # bar: mubar_j, 0 where inactive
            np.divide(1.0, b, out=bar, where=live & (np.abs(b) > TOL_G))
            np.multiply(c1[:, j], bar, out=bar, where=live)
            np.multiply(bar, L, out=bar, where=live)
            np.divide(b, n2, out=u, where=live)
            np.negative(u, out=u, where=live)
            np.multiply(u, Bf, out=u, where=live)
            np.subtract(u, bar, out=u, where=live)
        return U, live

    def kappa2_terms(self, X: np.ndarray, Lg: np.ndarray, n2: np.ndarray,
                     Lf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """kappa2 for every row of X from control_terms(grad_L(X), F, G), to
        rounding, and its live mask, evaluated as in kappa1_terms."""
        live = np.sqrt(n2) > TOL_G
        k, w = np.zeros(len(X)), np.zeros(len(X))
        np.multiply(Lf, Lf, out=k, where=live)
        np.multiply(self.gamma, n2, out=w, where=live)
        np.multiply(w, n2, out=w, where=live)
        np.add(k, w, out=k, where=live)
        np.sqrt(k, out=k, where=live)
        np.add(Lf, k, out=k, where=live)
        np.negative(k, out=k, where=live)
        U = np.zeros(Lg.shape)
        for j, u in enumerate(U.T):
            np.divide(Lg[:, j], n2, out=u, where=live)
            np.multiply(k, u, out=u, where=live)
        return U, live

    def kappa3(self, i: int, x, prev: tuple[int, int],
               f0: list[float] | None = None, g0: list | None = None) -> list[float]:
        """Band law resolved by prev, the previous sample's region."""
        if prev[0] == UNSAFE:
            raise MemoryStateError("previous sample inside an unsafe ball; "
                                   "the safety monitor should have halted")
        if band_takes_kappa1(prev, i):
            return self.kappa1(i, x, f0, g0)
        # prev R2, prev R3 (sliding), and cross-obstacle histories all fall
        # through to the stabilizer; the spheres are disjoint so cross-obstacle
        # memory only arises from numerical band overlap.
        return self.kappa2(x, f0, g0)

    def dispatch(self, region: tuple[int, int], x, prev: tuple[int, int],
                 f0: list[float] | None = None,
                 g0: list | None = None) -> tuple[list[float], str]:
        """Control u for x, whose region is cert.classify(x), and its law
        ('K1:1', 'K2', 'K3:1>K1', 'K3:1>K2': 1-based obstacle); prev is the
        previous sample's region, which resolves the band."""
        kind, i = region
        if kind == UNSAFE:
            raise SafetyViolationError(f"state inside unsafe ball {i} (obstacle {i + 1})")
        if kind == R1:
            return self.kappa1(i, x, f0, g0), self.k1_law[i]
        if kind == R2:
            return self.kappa2(x, f0, g0), K2_LAW
        return self.kappa3(i, x, prev, f0, g0), self.k3_law[i][band_takes_kappa1(prev, i)]

