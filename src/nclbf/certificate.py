"""The nonsmooth certificate V = max(L, B_i) and its geometry.

L(x) = ||x||^2 pulls the state to the origin; each B_i(x) = eta_{i,2} -
eta_{i,1}*||x - c_i||^2 caps an unsafe ball.  The surface {B_i = L} is a
sphere (the virtual boundary) whose center and radius follow from completing
the square; its tangency points with rays through the origin are the contact
points where sliding trajectories peel off toward the origin.

A region is one int pair (kind, index), kind one of R1, R2, R3, UNSAFE:
label gives it for one state and label_rows for rows, and region_codes(N)
maps it to its CSV code.  All functions are pure in (certificate, x);
obstacle indices are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioConfig, ScenarioError, boundary_radius_sq

# |L - x.cbar| up to this counts as on the contact set (contact_condition).
CONTACT_TOL = 1e-9

# A region is the int pair (kind, index): index is the dominant obstacle in
# R1 and R3, the first unsafe obstacle in UNSAFE and -1 in R2.
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


def v_from_gap(X: np.ndarray, h: np.ndarray) -> np.ndarray:
    """V = max(L, max_i B_i) for every row of X (P, n) from dominant_gap_rows'
    h: the one form that the engine records and Certificate.V evaluates."""
    L = row_dot(X, X)
    return np.where(h > 0.0, L + h, L)


def region_codes(n_obstacles: int) -> np.ndarray:
    """The CSV code of each label_rows pair (kind, index) at [kind, index + 1]
    ('R1:1', 'R2', 'R3:1', 'U:1': 1-based obstacles), None for no pair."""
    codes = np.array([[None] + [f"{tag}:{i}" for i in range(1, n_obstacles + 1)]
                      for tag in ("R1", "R2", "R3", "U")], dtype=object)
    codes[R2] = ["R2"] + [None] * n_obstacles
    return codes


@dataclass(frozen=True)
class BoundarySphere:
    """Sphere {x : B_i(x) = L(x)} with center eta1*c/(1+eta1)."""

    center: np.ndarray
    radius_sq: float

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_sq)


class Certificate:
    """Evaluator for V = max(L, max_i B_i) and the band of a scenario."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.eps_band = config.integrator.eps_band
        self.n = config.n
        self.n_obstacles = config.n_obstacles
        self.centers = np.array([ob.center for ob in config.obstacles])        # (N, n)
        self.eta1 = np.array([pa.eta1 for pa in config.params])                # (N,)
        self.eta2 = np.array([pa.eta2 for pa in config.params])                # (N,)
        self.radii_sq = np.array([ob.radius_sq for ob in config.obstacles])    # (N,)
        self.radii = np.sqrt(self.radii_sq)
        self.phis = np.array([self.phi(j) for j in range(self.n_obstacles)])  # (N,)
        # plain-float copies for the simulator's hot path
        self._obstacles = tuple(zip(self.centers.tolist(), self.eta1.tolist(),
                                    self.eta2.tolist()))
        self._radii_sq = tuple(self.radii_sq.tolist())

    # -- scalar fields ------------------------------------------------------

    def L(self, x: np.ndarray) -> float:
        return float(x.dot(x))

    def grad_L(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * np.asarray(x, float)

    def B(self, i: int, x: np.ndarray) -> float:
        d = x - self.centers[i]
        return float(self.eta2[i] - self.eta1[i] * d.dot(d))

    def grad_B(self, i: int | np.ndarray, x: np.ndarray) -> np.ndarray:
        """grad B_i at x; i is one obstacle index or an array of one per row."""
        e1 = self.eta1[i][:, None] if isinstance(i, np.ndarray) else self.eta1[i]
        return -2.0 * e1 * (x - self.centers[i])

    def V(self, x: np.ndarray) -> float:
        """V(x): v_from_gap for the one row x, as the engine records it."""
        return float(v_from_gap(x[None, :], self.dominant_gap(x)[1])[0])

    def gap(self, i: int, x: np.ndarray) -> float:
        """B_i(x) - L(x) for one given obstacle, as B and L evaluate them."""
        _, e1, e2 = self._obstacles[i]
        d = x - self.centers[i]
        return (e2 - e1 * float(d.dot(d))) - float(x.dot(x))

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

    def label(self, i: int, h: float, dds: list[float]) -> tuple[int, int]:
        """Region (kind, index) from a dominant_gap result, as Python ints:
        label_rows' row for it.  Unsafe test first, then the band on h."""
        for j, (dd, rsq) in enumerate(zip(dds, self._radii_sq)):
            if dd < rsq:
                return UNSAFE, j
        if h > self.eps_band:
            return R1, i
        if -h > self.eps_band:
            return R2, -1
        return R3, i

    def label_rows(self, i: np.ndarray, h: np.ndarray,
                   dds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """label for every row of a dominant_gap_rows result: (kind, index).

        kind holds R1, R2, R3 or UNSAFE; index is the first unsafe obstacle
        for UNSAFE rows, -1 for R2 rows and the dominant obstacle otherwise.
        """
        inside = dds < self.radii_sq
        unsafe = inside.any(axis=1)
        kind = np.where(h > self.eps_band, R1, np.where(-h > self.eps_band, R2, R3))
        kind[unsafe] = UNSAFE
        index = np.where(unsafe, inside.argmax(axis=1), np.where(kind == R2, -1, i))
        return kind, index

    def classify(self, x: np.ndarray) -> tuple[int, int]:
        """Region (kind, index) of x: unsafe balls first, then the band on
        max_i B_i - L."""
        return self.label(*self.dominant_gap(x))

    def dominant_obstacle(self, x: np.ndarray) -> int:
        """argmax_i B_i(x); ties break to the lowest index."""
        return self.dominant_gap(x)[0]

    def admissible(self, x: np.ndarray) -> tuple[bool, str]:
        """Outside every obstacle and B_i - L <= -eps_band for every i."""
        i, h, dds = self.dominant_gap(x)
        kind, j = self.label(i, h, dds)
        if kind == UNSAFE:
            return False, f"inside obstacle {j}"
        if h > -self.eps_band:
            return False, f"in barrier region of obstacle {i}"
        return True, "stabilizer region"

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

    def contact_condition(self, i: int, x: np.ndarray) -> bool:
        """General-n membership test for the contact set: ||x||^2 = x.cbar."""
        cbar = self.boundary_sphere(i).center
        return abs(self.L(x) - float(x @ cbar)) <= CONTACT_TOL

    def in_shrunk_band(self, x: np.ndarray, i: int) -> bool:
        """x in the shrunk band of obstacle i: shrunk_band_rows for one row."""
        return bool(self.shrunk_band_rows(i, x[None, :])[0])

    def shrunk_band_rows(self, i: int | np.ndarray, X: np.ndarray) -> np.ndarray:
        """|B_i - L| <= eps_band and ||x||^2 < phi(c_i) for every row of X;
        i is one obstacle index or an array of one per row, as in grad_B."""
        D = X - self.centers[i]
        L = row_dot(X, X)
        gap = (self.eta2[i] - self.eta1[i] * row_dot(D, D)) - L
        return (np.abs(gap) <= self.eps_band) & (L < self.phis[i])

    def shrunk_band_margin(self, i: int) -> float:
        """Tangency-cone margin on phi for trajectory checks.

        Along the tangent ray through a contact point, |B - L| = (1+eta1)*phi*s^2
        while phi - ||x||^2 ~ 2*phi*s, so samples within the band stay within
        2*sqrt(eps_band*phi/(1+eta1)) of phi without being on the surface.
        """
        p = self.phi(i)
        return 3.0 * math.sqrt(self.eps_band * max(p, 0.0) / (1.0 + self.eta1[i]))
