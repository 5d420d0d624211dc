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

import numpy as np

from .scenario import ScenarioConfig, ScenarioError

# A region is the int pair (kind, index): index is the dominant obstacle in
# R1 and R3, the first unsafe obstacle in UNSAFE and -1 in R2.
R1, R2, R3, UNSAFE = range(4)


def dot(a, b) -> float:
    """a . b as an index-order sum, a0*b0 then + a_k*b_k, the engine's rule."""
    s = a[0] * b[0]
    for k in range(1, len(a)):
        s += a[k] * b[k]
    return s


def matvec(g, u) -> list[float]:
    """g u for g as rows of floats (systems.fg_at), a new list."""
    u0, r = u[0], range(1, len(u))
    out = []
    for row in g:
        s = row[0] * u0
        for k in r:
            s += row[k] * u[k]
        out.append(s)
    return out


def vecmat(a, g) -> list[float]:
    """a g for g as rows of floats, a new list."""
    out, a0 = [*g[0]], a[0]
    r = range(len(out))
    for k in r:
        out[k] = a0 * out[k]
    for j in range(1, len(a)):
        aj, row = a[j], g[j]
        for k in r:
            out[k] += aj * row[k]
    return out


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_k . b_k for every row, bit for bit a[k].dot(b[k]), whose BLAS kernel
    fuses the multiply-add: the grid checks' rule, not the engine's dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_vecmat(a: np.ndarray, G: np.ndarray) -> np.ndarray:
    """a_k @ G_k for rows a (P, n) and matrices G (P, n, m), as a[k] @ G[k]."""
    return (a[:, None, :] @ G)[:, 0, :]


def row_sq(X: np.ndarray) -> np.ndarray:
    """||x_k||^2 for every row of X (P, n), bit for bit Certificate.L(x_k)."""
    L = X[:, 0] * X[:, 0]
    for x in X.T[1:]:
        L += x * x
    return L


def v_from_gap(X: np.ndarray, h: np.ndarray) -> np.ndarray:
    """V = max(L, max_i B_i) for every row of X (P, n) from dominant_gap_rows'
    h and L = row_sq(X): the one form of V, the one the engine records."""
    L = row_sq(X)
    return np.add(L, h, out=L, where=h > 0.0)


def region_codes(n_obstacles: int) -> np.ndarray:
    """The CSV code of each label_rows pair (kind, index) at [kind, index + 1]
    ('R1:1', 'R2', 'R3:1', 'U:1': 1-based obstacles), None for no pair."""
    codes = np.array([[None] + [f"{tag}:{i}" for i in range(1, n_obstacles + 1)]
                      for tag in ("R1", "R2", "R3", "U")], dtype=object)
    codes[R2] = ["R2"] + [None] * n_obstacles
    return codes


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
        cc = row_dot(self.centers, self.centers)                              # (N,)
        # the virtual boundary {B_i = L} is the sphere ||x - cbar_i||^2 = rbar_i^2;
        # rbar^2 is evaluated on Python floats, whose ** 2 rounds unlike numpy's
        self.cbars = self.eta1[:, None] * self.centers / (self.eta1 + 1.0)[:, None]  # (N, n)
        self.rbars_sq = np.array([((1.0 + e1) * e2 - e1 * c) / (1.0 + e1) ** 2 for e1, e2, c
                                  in zip(self.eta1.tolist(), self.eta2.tolist(), cc.tolist())])
        # (eta1*||c||^2 - eta2)/(eta1 + 1): the squared norm at the contact points
        self.phis = (self.eta1 * cc - self.eta2) / (self.eta1 + 1.0)         # (N,)
        # clear radius rho: each x with ||x|| < rho is outside every unsafe ball and
        # has h_i = (1 + eta1)(rbar^2 - ||x - cbar||^2) <= -(eps_band + m_i), m_i
        # being 32 times the worst-case rounding of dominant_gap_L's sums (dd <=
        # 4||c||^2, L <= ||c||^2), of rho and of ||x||^2 < rho^2; a NaN gives 0
        with np.errstate(invalid="ignore", over="ignore"):
            m = (self.n + 6) * 2.0 ** -48 * (self.eta2 + (1.0 + 4.0 * self.eta1) * cc)
            q = np.maximum(self.rbars_sq + (self.eps_band + m) / (1.0 + self.eta1), 0.0)
            rho = np.minimum(np.sqrt(row_dot(self.cbars, self.cbars)) - np.sqrt(q),
                             np.sqrt(cc) - np.sqrt(self.radii_sq + m)).min()
        self.clear_radius = float(rho) if rho > 0.0 else 0.0
        # plain-float copies for the simulator's hot path
        self._obstacles = tuple(zip(self.centers.tolist(), self.eta1.tolist(),
                                    self.eta2.tolist()))
        self._radii_sq = tuple(self.radii_sq.tolist())

    # -- scalar fields ------------------------------------------------------

    def L(self, x) -> float:
        return dot(x, x)

    def grad_L(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * np.asarray(x, float)

    def B(self, i: int, x) -> float:
        c, e1, e2 = self._obstacles[i]
        d = [a - b for a, b in zip(x, c)]
        return e2 - e1 * dot(d, d)

    def grad_B(self, i: int | np.ndarray, x: np.ndarray) -> np.ndarray:
        """grad B_i at x; i is one obstacle index or an array of one per row."""
        e1 = self.eta1[i][:, None] if isinstance(i, np.ndarray) else self.eta1[i]
        return -2.0 * e1 * (x - self.centers.take(i, axis=0))   # take: fancy rows cost ~10x

    def dominant_gap(self, x) -> tuple[int, float, list[float]]:
        """Dominant obstacle i = argmax_j B_j(x), B_i(x) - L(x), and ||x - c_j||^2.
        Ties break to the lowest index."""
        return self.dominant_gap_L(x)[:3]

    def dominant_gap_L(self, x) -> tuple[int, float, list[float], float]:
        """dominant_gap(x) and the L(x) it sums, in plain indexed loops: the
        simulator calls it once per step and per bisection probe."""
        x = x if type(x) is list else np.asarray(x, float).tolist()
        L = 0.0
        for v in x:
            L += v * v
        best_i, best_b, dds, r = 0, -math.inf, [], range(len(x))
        for j, (c, e1, e2) in enumerate(self._obstacles):
            dd = 0.0
            for k in r:
                d = x[k] - c[k]
                dd += d * d
            dds.append(dd)
            bj = e2 - e1 * dd
            if bj > best_b:
                best_i, best_b = j, bj
        return best_i, best_b - L, dds, L

    def dominant_gap_rows(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """dominant_gap for every row of X (P, n): i (P,), B_i - L (P,), dds (P, N).

        Accumulates in the scalar loop's order, so row k equals
        dominant_gap(X[k]) bit for bit; ties still break to the lowest index.
        Two float temporaries, d and bj (last holding L), serve every pass.
        """
        best_i = np.zeros(len(X), dtype=int)
        best_b = np.full(len(X), -math.inf)
        dds = np.zeros((len(X), self.n_obstacles))
        d, bj = np.empty(len(X)), np.empty(len(X))
        for j, (c, e1, e2) in enumerate(self._obstacles):
            dd = dds[:, j]
            for k, b in enumerate(c):
                np.subtract(X[:, k], b, out=d)
                dd += np.multiply(d, d, out=d)
            np.subtract(e2, np.multiply(e1, dd, out=bj), out=bj)
            wins = bj > best_b
            best_i[wins] = j
            np.copyto(best_b, bj, where=wins)
        bj[:] = 0.0
        for k in range(self.n):
            bj += np.multiply(X[:, k], X[:, k], out=d)
        return best_i, np.subtract(best_b, bj, out=best_b), dds

    def record_columns(self, X: np.ndarray) -> tuple[np.ndarray, ...]:
        """V (P,), kind (P,), index (P,) and min_dist (P, N) of every row of X
        (P, n), the columns a TrajectoryRecord derives from x: row k is
        dominant_gap(X[k]) bit for bit, labelled, and ||x - c_i|| - sqrt(r_i)."""
        with np.errstate(over="ignore", invalid="ignore"):
            i, h, dds = self.dominant_gap_rows(X)
            kind, index = self.label_rows(i, h, dds)
            del i
            np.subtract(np.sqrt(dds, out=dds), self.radii, out=dds)
            return v_from_gap(X, h), kind, index, dds

    # -- regions ------------------------------------------------------------

    def label(self, i: int, h: float, dds: list[float]) -> tuple[int, int]:
        """Region (kind, index) from a dominant_gap result, as Python ints:
        label_rows' row for it.  Unsafe test first, then the band on h."""
        for j, rsq in enumerate(self._radii_sq):
            if dds[j] < rsq:
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
        Obstacles go from the last to the first, so the lowest unsafe one wins.
        """
        kind = np.full(len(h), R3)
        np.copyto(kind, R1, where=h > self.eps_band)
        np.copyto(kind, R2, where=h < -self.eps_band)
        index = np.where(kind == R2, -1, i)
        for j in reversed(range(self.n_obstacles)):
            inside = dds[:, j] < self.radii_sq[j]
            np.copyto(kind, UNSAFE, where=inside)
            np.copyto(index, j, where=inside)
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

    def boundary_sphere(self, i: int) -> tuple[np.ndarray, float]:
        """(cbars[i], rbars_sq[i]), the virtual boundary of obstacle i; raises
        ScenarioError when it is empty."""
        if self.rbars_sq[i] <= 0:
            raise ScenarioError(f"obstacle {i}: boundary sphere is empty (radius_sq <= 0)")
        return self.cbars[i], float(self.rbars_sq[i])

    def buffer_width(self, i: int) -> float:
        """sqrt(w / (eta1 + 1)): gap between the sphere and the unsafe ball."""
        w = self.config.params[i].effective_w(self.config.obstacles[i])
        if w <= 0:
            raise ScenarioError(f"obstacle {i}: no positive buffer (eta2 at or below "
                                "eta1*r + max L over the closed ball)")
        return math.sqrt(w / (self.eta1[i] + 1.0))

    def contact_points_2d(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Tangency points of origin rays with the boundary sphere (n = 2).

        Solves ||x - cbar||^2 = rbar together with ||x||^2 = x.cbar, which
        forces ||x||^2 = phi.  Ordered by descending first coordinate.
        """
        if self.n != 2:
            raise ScenarioError(f"contact points in closed form need n = 2 (n = {self.n})")
        cbar, rbar_sq = self.boundary_sphere(i)
        d2 = float(cbar @ cbar)
        p = self.phis[i]
        if p <= 0 or d2 <= rbar_sq:
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

    def in_shrunk_band(self, x: np.ndarray, i: int) -> bool:
        """x in the shrunk band of obstacle i: classify(x) is (R3, i) and
        shrunk_band_rows holds for the one row."""
        return self.classify(x) == (R3, i) and bool(self.shrunk_band_rows(i, x[None, :])[0])

    def shrunk_band_rows(self, i: int | np.ndarray, X: np.ndarray) -> np.ndarray:
        """||x||^2 < phi_i for rows X that label_rows put in R3 of obstacle i,
        which is the shrunk band on them; i is one obstacle index or an array
        of one per row, as in grad_B."""
        return row_dot(X, X) < self.phis[i]

    def shrunk_band_margin(self, i: int) -> float:
        """Tangency-cone margin on phi for trajectory checks.

        Along the tangent ray through a contact point, |B - L| = (1+eta1)*phi*s^2
        while phi - ||x||^2 ~ 2*phi*s, so samples within the band stay within
        2*sqrt(eps_band*phi/(1+eta1)) of phi without being on the surface.
        """
        p = self.phis[i]
        return 3.0 * math.sqrt(self.eps_band * max(p, 0.0) / (1.0 + self.eta1[i]))
