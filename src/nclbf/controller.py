"""Piecewise feedback laws and the region-dispatched controller.

kappa1 pushes the dominant barrier down at rate (sum of active c1)*||x||^2,
kappa2 is Sontag's universal law on L, and kappa3 resolves the band B = L
through the previous sample's region.  Control is dispatched on the region
classification; the band uses a one-sample memory (the sample period plays
the role of the lookback interval).  Controller(config) is built from the
scenario alone: its system comes from the registry, by config.system_id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import Certificate, RegionLabel, row_dot, row_vecmat
from .scenario import ScenarioConfig
from .systems import resolve_system

# Absolute threshold below which a gradient-control row counts as vanished.
TOL_G = 1e-9


class SafetyViolationError(RuntimeError):
    """Control requested inside an unsafe ball."""


class MemoryStateError(RuntimeError):
    """Region memory holds a state the controller cannot have reached."""


def mu(y: np.ndarray) -> np.ndarray:
    """y^T / ||y||^2; satisfies y @ mu(y) = 1.  Rejects the zero vector."""
    y = np.asarray(y, float)
    n2 = float(y.dot(y))
    if n2 == 0.0:
        raise ZeroDivisionError("mu undefined for the zero vector")
    return y / n2

def mu_bar(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise reciprocal with masking: (vector, active mask).

    Component j is 1/y_j when |y_j| > TOL_G and 0 (inactive) otherwise.
    """
    y = np.asarray(y, float)
    active = np.abs(y) > TOL_G
    out = np.zeros_like(y)
    out[active] = 1.0 / y[active]
    return out, active


def band_takes_kappa1(prev: RegionLabel, i) -> bool:
    """The band rule: the barrier law resolves the band of obstacle i exactly
    when prev is R1 of i.  For an index array i the result is per row."""
    return prev.kind == "R1" and prev.index == i


@dataclass(frozen=True)
class ControlDecision:
    u: np.ndarray
    law: str              # "K1:1", "K2", "K3:1>K1", "K3:1>K2" (1-based index)
    region: RegionLabel


class Controller:
    """The scenario's system (by system_id), certificate and gains; pure in x."""

    def __init__(self, config: ScenarioConfig):
        self.system = resolve_system(config)
        self.cert = Certificate(config)
        self.gamma = config.gains.gamma
        self.c1 = [pa.c1 for pa in config.params]

    def kappa1(self, i: int, x: np.ndarray, f0: np.ndarray | None = None,
               g0: np.ndarray | None = None) -> np.ndarray:
        """Barrier-decrease law: grad B.(f + g u) = -(sum of active c1)*||x||^2."""
        if f0 is None:
            f0, g0 = self.system.f(x), self.system.g(x)
        gB = self.cert.grad_B(i, x)
        Bf = float(gB.dot(f0))
        Bg = gB.dot(g0)
        if math.sqrt(float(Bg.dot(Bg))) <= TOL_G:
            return np.zeros(self.system.m)
        bar, _ = mu_bar(Bg)
        return -mu(Bg) * Bf - self.c1[i] * bar * self.cert.L(x)

    def kappa2(self, x: np.ndarray, f0: np.ndarray | None = None,
               g0: np.ndarray | None = None) -> np.ndarray:
        """Sontag's law: grad L.(f + g u) = -sqrt(L_f^2 + gamma*||L_g||^4)."""
        if f0 is None:
            f0, g0 = self.system.f(x), self.system.g(x)
        gL = 2.0 * x
        Lf = float(gL.dot(f0))
        Lg = gL.dot(g0)
        n2 = float(Lg.dot(Lg))
        if math.sqrt(n2) <= TOL_G:
            return np.zeros(self.system.m)
        return -(Lf + math.sqrt(Lf * Lf + self.gamma * n2 * n2)) * (Lg / n2)

    def kappa1_rows(self, i: int | np.ndarray, X: np.ndarray, F: np.ndarray,
                    G: np.ndarray) -> np.ndarray:
        """kappa1 for every row of X (P, n), given f rows F (P, n), g rows G
        (P, n, m) and i as in Certificate.grad_B; each row equals kappa1 bit for bit."""
        gB = self.cert.grad_B(i, X)
        Bf = row_dot(gB, F)
        Bg = row_vecmat(gB, G)
        n2 = row_dot(Bg, Bg)
        live = np.sqrt(n2) > TOL_G
        Bf, Bg, n2 = Bf[live, None], Bg[live], n2[live, None]
        bar = np.zeros_like(Bg)
        np.divide(1.0, Bg, out=bar, where=np.abs(Bg) > TOL_G)
        c1 = np.broadcast_to(np.asarray(self.c1)[i], (len(X), self.system.m))[live]
        U = np.zeros((len(X), self.system.m))
        U[live] = -(Bg / n2) * Bf - c1 * bar * row_dot(X[live], X[live])[:, None]
        return U

    def kappa2_rows(self, X: np.ndarray, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        """kappa2 for every row of X, bit for bit as kappa1_rows is to kappa1."""
        gL = 2.0 * X
        Lf = row_dot(gL, F)
        Lg = row_vecmat(gL, G)
        n2 = row_dot(Lg, Lg)
        live = np.sqrt(n2) > TOL_G
        Lf, Lg, n2 = Lf[live], Lg[live], n2[live]
        U = np.zeros((len(X), self.system.m))
        U[live] = (-(Lf + np.sqrt(Lf * Lf + self.gamma * n2 * n2)))[:, None] * (Lg / n2[:, None])
        return U

    def kappa3(self, i: int, x: np.ndarray, prev: RegionLabel,
               f0: np.ndarray | None = None, g0: np.ndarray | None = None) -> np.ndarray:
        """Band law resolved by prev, the previous sample's region."""
        if prev.kind == "UNSAFE":
            raise MemoryStateError("previous sample inside an unsafe ball; "
                                   "the safety monitor should have halted")
        if band_takes_kappa1(prev, i):
            return self.kappa1(i, x, f0, g0)
        # prev R2, prev R3 (sliding), and cross-obstacle histories all fall
        # through to the stabilizer; the spheres are disjoint so cross-obstacle
        # memory only arises from numerical band overlap.
        return self.kappa2(x, f0, g0)

    def dispatch(self, region: RegionLabel, x: np.ndarray, prev: RegionLabel,
                 f0: np.ndarray | None = None,
                 g0: np.ndarray | None = None) -> ControlDecision:
        """Control for x, whose region is cert.classify(x); prev is the
        previous sample's region, which resolves the band."""
        if region.kind == "UNSAFE":
            raise SafetyViolationError(
                f"state inside unsafe ball {region.index} (obstacle {region.index + 1})")
        if region.kind == "R1":
            return ControlDecision(self.kappa1(region.index, x, f0, g0),
                                   f"K1:{region.index + 1}", region)
        if region.kind == "R2":
            return ControlDecision(self.kappa2(x, f0, g0), "K2", region)
        u = self.kappa3(region.index, x, prev, f0, g0)
        branch = "K1" if band_takes_kappa1(prev, region.index) else "K2"
        return ControlDecision(u, f"K3:{region.index + 1}>{branch}", region)

