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

from .certificate import R1, R2, UNSAFE, Certificate, row_dot, row_vecmat
from .scenario import ScenarioConfig
from .systems import resolve_system

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
    """The scenario's system (by system_id), certificate and gains; pure in x."""

    def __init__(self, config: ScenarioConfig):
        self.system = resolve_system(config)
        self.cert = Certificate(config)
        self.gamma = config.gains.gamma
        self.c1 = [pa.c1 for pa in config.params]
        self.k1_law, self.k3_law = law_names(config.n_obstacles)

    def kappa1(self, i: int, x: np.ndarray, f0: np.ndarray | None = None,
               g0: np.ndarray | None = None) -> np.ndarray:
        """Barrier-decrease law: grad B.(f + g u) = -(sum of active c1)*||x||^2.

        u_j = -(Bg_j/||Bg||^2)*Bf - c1_j*mubar_j*L, mubar_j being 1/Bg_j where
        |Bg_j| > TOL_G and 0 (channel j inactive) elsewhere; zero when Bg vanishes.
        """
        if f0 is None:
            f0, g0 = self.system.f(x), self.system.g(x)
        c, e1, _ = self.cert._obstacles[i]
        s = -2.0 * e1
        gB = np.array([s * (a - b) for a, b in zip(x.tolist(), c)])   # grad_B
        Bf = float(gB.dot(f0))
        Bg = gB.dot(g0)
        n2 = float(Bg.dot(Bg))
        if math.sqrt(n2) <= TOL_G:
            return np.zeros(self.system.m)
        L = float(x.dot(x))
        return np.array([-(b / n2) * Bf - (c1 * (1.0 / b if abs(b) > TOL_G else 0.0)) * L
                         for b, c1 in zip(Bg.tolist(), self.c1[i].tolist())])

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
        k = -(Lf + math.sqrt(Lf * Lf + self.gamma * n2 * n2))
        return np.array([k * (b / n2) for b in Lg.tolist()])

    def kappa1_rows(self, i: int | np.ndarray, X: np.ndarray, F: np.ndarray,
                    G: np.ndarray) -> np.ndarray:
        """kappa1 for every row of X (P, n), given f rows F (P, n), g rows G
        (P, n, m) and i as in Certificate.grad_B; each row equals kappa1 bit for bit."""
        return self.kappa1_terms(i, X, *control_terms(self.cert.grad_B(i, X), F, G))

    def kappa2_rows(self, X: np.ndarray, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        """kappa2 for every row of X, bit for bit as kappa1_rows is to kappa1."""
        return self.kappa2_terms(X, *control_terms(self.cert.grad_L(X), F, G))

    def kappa1_terms(self, i: int | np.ndarray, X: np.ndarray, Bg: np.ndarray,
                     n2: np.ndarray, Bf: np.ndarray) -> np.ndarray:
        """kappa1_rows from the barrier side's control_terms."""
        live = np.sqrt(n2) > TOL_G
        Bf, Bg, n2 = Bf[live, None], Bg[live], n2[live, None]
        bar = np.zeros_like(Bg)
        np.divide(1.0, Bg, out=bar, where=np.abs(Bg) > TOL_G)
        c1 = np.broadcast_to(np.asarray(self.c1)[i], (len(X), self.system.m))[live]
        U = np.zeros((len(X), self.system.m))
        U[live] = -(Bg / n2) * Bf - c1 * bar * row_dot(X[live], X[live])[:, None]
        return U

    def kappa2_terms(self, X: np.ndarray, Lg: np.ndarray, n2: np.ndarray,
                     Lf: np.ndarray) -> np.ndarray:
        """kappa2_rows from the stabilizer side's control_terms."""
        live = np.sqrt(n2) > TOL_G
        Lf, Lg, n2 = Lf[live], Lg[live], n2[live]
        U = np.zeros((len(X), self.system.m))
        U[live] = (-(Lf + np.sqrt(Lf * Lf + self.gamma * n2 * n2)))[:, None] * (Lg / n2[:, None])
        return U

    def kappa3(self, i: int, x: np.ndarray, prev: tuple[int, int],
               f0: np.ndarray | None = None, g0: np.ndarray | None = None) -> np.ndarray:
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

    def dispatch(self, region: tuple[int, int], x: np.ndarray, prev: tuple[int, int],
                 f0: np.ndarray | None = None,
                 g0: np.ndarray | None = None) -> tuple[np.ndarray, str]:
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

