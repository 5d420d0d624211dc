"""The nonsmooth certificate V = max(L, B_i) and its geometry.

L(x) = ||x||^2 pulls the state to the origin; each B_i(x) = eta_{i,2} -
eta_{i,1}*||x - c_i||^2 caps an unsafe ball.  The surface {B_i = L} is a
sphere (the virtual boundary) whose center and radius follow from completing
the square; its tangency points with rays through the origin are the contact
points where sliding trajectories peel off toward the origin.

All functions are pure in (certificate, x); obstacle indices are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioConfig, ScenarioError, boundary_radius_sq

# Region kinds of the row-batched labels; KINDS[code] is RegionLabel.kind.
KINDS = ("R1", "R2", "R3", "UNSAFE")
R1, R2, R3, UNSAFE = range(4)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_k . b_k for every row, equal bit for bit to a[k].dot(b[k]).

    A stacked matmul runs the same BLAS kernel as the 1-D dot; an einsum or
    an explicit a0*b0 + a1*b1 rounds differently (BLAS fuses the multiply-add).
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_vecmat(a: np.ndarray, G: np.ndarray) -> np.ndarray:
    """a_k @ G_k for rows a (P, n) and matrices G (P, n, m), as a[k] @ G[k]."""
    return (a[:, None, :] @ G)[:, 0, :]


@dataclass(frozen=True)
class RegionLabel:
    """One of R1(i) (barrier i dominates), R2, R3(i) (band), UNSAFE(i)."""

    kind: str                 # "R1" | "R2" | "R3" | "UNSAFE"
    index: int | None = None  # 0-based obstacle index; None for R2

    def __post_init__(self):
        if self.kind not in ("R1", "R2", "R3", "UNSAFE"):
            raise ValueError(f"bad region kind {self.kind!r}")
        if (self.index is None) != (self.kind == "R2"):
            raise ValueError("index required exactly for R1/R3/UNSAFE")

    @property
    def code(self) -> str:
        """Short code with 1-based obstacle index, e.g. 'R1:1', 'R2', 'U:2'."""
        if self.kind == "R2":
            return "R2"
        tag = "U" if self.kind == "UNSAFE" else self.kind
        return f"{tag}:{self.index + 1}"

    @classmethod
    def from_code(cls, code: str) -> "RegionLabel":
        if code == "R2":
            return cls("R2")
        tag, _, idx = code.partition(":")
        kind = "UNSAFE" if tag == "U" else tag
        return cls(kind, int(idx) - 1)


@dataclass(frozen=True)
class BoundarySphere:
    """Sphere {x : B_i(x) = L(x)} with center eta1*c/(1+eta1)."""

    center: np.ndarray
    radius_sq: float

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_sq)


class Certificate:
    """Evaluator for V = max(L, max_i B_i) over a scenario's obstacles."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.n = config.n
        self.n_obstacles = config.n_obstacles
        self.centers = np.array([ob.center for ob in config.obstacles])        # (N, n)
        self.eta1 = np.array([pa.eta1 for pa in config.params])                # (N,)
        self.eta2 = np.array([pa.eta2 for pa in config.params])                # (N,)
        self.radii_sq = np.array([ob.radius_sq for ob in config.obstacles])    # (N,)
        self.radii = np.sqrt(self.radii_sq)
        # plain-float copies for dominant_gap, the simulator's hot path
        self._obstacles = tuple(zip(self.centers.tolist(), self.eta1.tolist(),
                                    self.eta2.tolist()))
        self._radii_sq = tuple(self.radii_sq.tolist())
        self._r1 = tuple(RegionLabel("R1", j) for j in range(self.n_obstacles))
        self._r2 = RegionLabel("R2")
        self._r3 = tuple(RegionLabel("R3", j) for j in range(self.n_obstacles))
        self._unsafe = tuple(RegionLabel("UNSAFE", j) for j in range(self.n_obstacles))

    # -- scalar fields ------------------------------------------------------

    def L(self, x: np.ndarray) -> float:
        return float(x.dot(x))

    def grad_L(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * np.asarray(x, float)

    def B_values(self, x: np.ndarray) -> np.ndarray:
        d = x - self.centers
        return self.eta2 - self.eta1 * np.einsum("ij,ij->i", d, d)

    def B(self, i: int, x: np.ndarray) -> float:
        d = x - self.centers[i]
        return float(self.eta2[i] - self.eta1[i] * d.dot(d))

    def grad_B(self, i: int, x: np.ndarray) -> np.ndarray:
        return -2.0 * self.eta1[i] * (x - self.centers[i])

    def V(self, x: np.ndarray) -> float:
        return max(self.L(x), float(np.max(self.B_values(x))))

    def gap(self, i: int, x: np.ndarray) -> float:
        """B_i(x) - L(x) for one given obstacle."""
        return self.B(i, x) - self.L(x)

    def dominant_gap(self, x: np.ndarray) -> tuple[int, float, list[float]]:
        """Dominant obstacle i = argmax_j B_j(x), B_i(x) - L(x), and ||x - c_j||^2.

        Ties break to the lowest index.  Written as a plain loop because the
        simulator calls it once per step and per bisection probe.
        """
        xs = x.tolist()
        L = 0.0
        for v in xs:
            L += v * v
        best_i, best_b, dds = 0, -math.inf, []
        for j, (c, e1, e2) in enumerate(self._obstacles):
            dd = 0.0
            for a, b in zip(xs, c):
                d = a - b
                dd += d * d
            dds.append(dd)
            bj = e2 - e1 * dd
            if bj > best_b:
                best_i, best_b = j, bj
        return best_i, best_b - L, dds

    def dominant_gap_rows(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """dominant_gap for every row of X (P, n): i (P,), B_i - L (P,), dds (P, N).

        Accumulates in the scalar loop's order, so row k equals
        dominant_gap(X[k]) bit for bit; ties still break to the lowest index.
        """
        L = np.zeros(len(X))
        for k in range(self.n):
            L += X[:, k] * X[:, k]
        best_i = np.zeros(len(X), dtype=int)
        best_b = np.full(len(X), -math.inf)
        dds = np.zeros((len(X), self.n_obstacles))
        for j, (c, e1, e2) in enumerate(self._obstacles):
            dd = dds[:, j]
            for k, b in enumerate(c):
                d = X[:, k] - b
                dd += d * d
            bj = e2 - e1 * dd
            wins = bj > best_b
            best_i[wins] = j
            best_b[wins] = bj[wins]
        return best_i, best_b - L, dds

    # -- regions ------------------------------------------------------------

    def _first_unsafe(self, dds: list[float]) -> int | None:
        for j, (dd, rsq) in enumerate(zip(dds, self._radii_sq)):
            if dd < rsq:
                return j
        return None

    def label(self, i: int, h: float, dds: list[float], eps_band: float) -> RegionLabel:
        """Region from a dominant_gap result: unsafe test first, then band h."""
        u = self._first_unsafe(dds)
        if u is not None:
            return self._unsafe[u]
        if h > eps_band:
            return self._r1[i]
        if -h > eps_band:
            return self._r2
        return self._r3[i]

    def label_rows(self, i: np.ndarray, h: np.ndarray, dds: np.ndarray,
                   eps_band: float) -> tuple[np.ndarray, np.ndarray]:
        """label for every row of a dominant_gap_rows result: (kind, index).

        kind holds codes into KINDS; index is the first unsafe obstacle for
        UNSAFE rows and the dominant obstacle otherwise (unused for R2).
        """
        inside = dds < self.radii_sq
        unsafe = inside.any(axis=1)
        kind = np.where(h > eps_band, R1, np.where(-h > eps_band, R2, R3))
        kind[unsafe] = UNSAFE
        index = np.where(unsafe, inside.argmax(axis=1), i)
        return kind, index

    def classify(self, x: np.ndarray, eps_band: float) -> RegionLabel:
        """Region of x: unsafe balls first, then the band on max_i B_i - L."""
        return self.label(*self.dominant_gap(x), eps_band)

    def unsafe_index(self, x: np.ndarray) -> int | None:
        """Index of an obstacle whose open ball contains x, else None."""
        return self._first_unsafe(self.dominant_gap(x)[2])

    def dominant_obstacle(self, x: np.ndarray) -> int:
        """argmax_i B_i(x); ties break to the lowest index."""
        return self.dominant_gap(x)[0]

    def admissible(self, x: np.ndarray, eps_band: float) -> tuple[bool, str]:
        """Outside every obstacle and B_i - L <= -eps_band for every i."""
        i, h, dds = self.dominant_gap(x)
        u = self._first_unsafe(dds)
        if u is not None:
            return False, f"inside obstacle {u}"
        if h > -eps_band:
            return False, f"in barrier region of obstacle {i}"
        return True, "stabilizer region"

    def min_dists(self, x: np.ndarray) -> np.ndarray:
        """Per-obstacle ||x - c_i|| - sqrt(r_i); positive means clear."""
        return np.sqrt(self.dominant_gap(x)[2]) - self.radii

    # -- virtual boundary geometry -------------------------------------------

    def boundary_sphere(self, i: int) -> BoundarySphere:
        e1 = self.eta1[i]
        center = e1 * self.centers[i] / (1.0 + e1)
        radius_sq = boundary_radius_sq(self.config.obstacles[i], self.config.params[i])
        if radius_sq <= 0:
            raise ScenarioError(f"obstacle {i}: boundary sphere is empty (radius_sq <= 0)")
        return BoundarySphere(center=center, radius_sq=radius_sq)

    def buffer_width(self, i: int) -> float:
        """sqrt(w / (eta1 + 1)): gap between the sphere and the unsafe ball."""
        w = self.config.params[i].effective_w(self.config.obstacles[i])
        if w <= 0:
            raise ScenarioError(f"obstacle {i}: no positive buffer (eta2 at or below "
                                "eta1*r + max L over the closed ball)")
        return math.sqrt(w / (self.eta1[i] + 1.0))

    def phi(self, i: int) -> float:
        """(eta1*||c||^2 - eta2)/(eta1 + 1): squared norm at the contact points."""
        e1 = self.eta1[i]
        return (e1 * float(self.centers[i] @ self.centers[i]) - self.eta2[i]) / (e1 + 1.0)

    def contact_points_2d(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Tangency points of origin rays with the boundary sphere (n = 2).

        Solves ||x - cbar||^2 = rbar together with ||x||^2 = x.cbar, which
        forces ||x||^2 = phi.  Ordered by descending first coordinate.
        """
        if self.n != 2:
            raise ScenarioError(f"contact points in closed form need n = 2 (n = {self.n})")
        sph = self.boundary_sphere(i)
        cbar = sph.center
        d2 = float(cbar @ cbar)
        p = self.phi(i)
        if p <= 0 or d2 <= sph.radius_sq:
            raise ScenarioError(f"obstacle {i}: no real contact points "
                                "(boundary sphere reaches the origin)")
        t_sq = p - p * p / d2
        if t_sq < 0:
            raise ScenarioError(f"obstacle {i}: no real contact points")
        base = (p / d2) * cbar
        perp = np.array([-cbar[1], cbar[0]]) / math.sqrt(d2)
        t = math.sqrt(t_sq)
        a, b = base + t * perp, base - t * perp
        return (a, b) if a[0] >= b[0] else (b, a)

    def contact_condition(self, i: int, x: np.ndarray, tol: float = 1e-9) -> bool:
        """General-n membership test for the contact set: ||x||^2 = x.cbar."""
        cbar = self.boundary_sphere(i).center
        return abs(self.L(x) - float(x @ cbar)) <= tol

    def in_shrunk_band(self, x: np.ndarray, i: int, eps_band: float) -> bool:
        """|B_i - L| <= eps_band and ||x||^2 < phi(c_i)."""
        return abs(self.gap(i, x)) <= eps_band and self.L(x) < self.phi(i)

    def shrunk_band_rows(self, i: int, X: np.ndarray, eps_band: float) -> np.ndarray:
        """in_shrunk_band for every row of X, bit for bit."""
        D = X - self.centers[i]
        L = row_dot(X, X)
        gap = (self.eta2[i] - self.eta1[i] * row_dot(D, D)) - L
        return (np.abs(gap) <= eps_band) & (L < self.phi(i))

    def shrunk_band_margin(self, i: int, eps_band: float) -> float:
        """Tangency-cone margin on phi for trajectory checks.

        Along the tangent ray through a contact point, |B - L| = (1+eta1)*phi*s^2
        while phi - ||x||^2 ~ 2*phi*s, so samples within the band stay within
        2*sqrt(eps_band*phi/(1+eta1)) of phi without being on the surface.
        """
        p = self.phi(i)
        return 3.0 * math.sqrt(eps_band * max(p, 0.0) / (1.0 + self.eta1[i]))
