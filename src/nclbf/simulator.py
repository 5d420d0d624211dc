"""Closed-loop simulation: fixed-step RK4, safety/convergence monitoring.

Samples are recorded on the fixed dt grid.  Between samples the engine
integrates the piecewise-smooth closed loop exactly enough for the
certificate to behave as the theory prescribes:

* away from the surface max_i B_i = L the control is held over the step
  (zero-order hold) and the step is bisected to end on the surface whenever
  the held flow crosses it;
* on the surface, when the stabilizer pushes inward and the barrier law
  pushes outward, the flow slides.  The engine applies the equivalent
  control: the stabilizer kappa2 corrected through the input channel so the
  surface is tracked from just below (the state stays in the band, the
  recorded samples classify R3, and V equals L).  Where the corrected
  stabilizer field vanishes (head-on approach along the obstacle axis, where
  the barrier and stabilizer gradients are collinear) the rate-matched
  kappa1/kappa2 blend supplies the tangential tie-break, which carries the
  c1 weighting and breaks the symmetry exactly as the barrier law does.

Sliding ends at tangency (the contact-point condition), up to one substep
late: tangency is tested at the start of each slide substep.  A run is a
TrajectoryRecord of columns, one row per sample: the engine records x, u and
the law, and derives V, the region and min_dist from one row pass over x;
the checks, plots and CSV read the columns.  A step runs on Python floats and
index-order sums (certificate.dot): no numpy call, no numpy or BLAS rounding.
"""

from __future__ import annotations

import csv
import io
import math
import time
from array import array
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .certificate import UNSAFE, dot, matvec, region_codes, row_sq, vecmat
from .controller import K2_LAW, NO_LAW, Controller, law_names
from .scenario import ScenarioConfig, json_doc
from .systems import ControlAffineSystem, fg_at


def _field(f, g, u) -> list[float]:
    """f + g u as a new list, f as floats and g as rows (systems.fg_at)."""
    return [a + b for a, b in zip(f, matvec(g, u))]


def _rk4(system: ControlAffineSystem, x: list[float], u: list[float], dt: float,
         f0: list[float], g0: list) -> list[float]:
    # f0, g0 are fg_at(x): the first stage, shared by every step from x.  The
    # stages are lists of floats, f's input, built in indexed loops (before
    # CPython 3.12 a comprehension is a call of its own) in the operand order
    # of the array form; g u is an index-order sum, reused while g's rows are
    # g0 itself, as the builtins' are, and each stage's k = f + g u is formed
    # in the loop that builds the next stage's state.  Returns a new list.
    gu = matvec(g0, u)
    r = range(len(x))
    k1, xc, half = [*f0], [*x], 0.5 * dt
    for j in r:
        k1[j] += gu[j]
        xc[j] = k1[j] * half + x[j]
    k2, gc = fg_at(system, xc)
    gcu = gu if gc is g0 else matvec(gc, u)
    xc = [*x]
    for j in r:
        k2[j] += gcu[j]
        xc[j] = k2[j] * half + x[j]
    k3, gc = fg_at(system, xc)
    gcu = gu if gc is g0 else matvec(gc, u)
    xc = [*x]
    for j in r:
        k3[j] += gcu[j]
        xc[j] = k3[j] * dt + x[j]
    k4, gc = fg_at(system, xc)
    gcu = gu if gc is g0 else matvec(gc, u)
    xs, w = [*x], dt / 6.0
    for j in r:
        xs[j] = (((k2[j] + k3[j]) * 2.0 + k1[j]) + (k4[j] + gcu[j])) * w + x[j]
    return xs


# One row of a TrajectoryRecord; built only by TrajectoryRecord.samples.
StepSample = namedtuple("StepSample", "t x u V kind index law min_dist")


@dataclass(frozen=True)
class Outcome:
    kind: str                  # converged | timeout | safety_violation | init_rejected | numeric_blowup
    t: float | None = None
    obstacle: int | None = None


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One run as columns, row k being the sample at t_k: float arrays t (K,),
    x (K, n), u (K, m) (the input applied from x_k), V (K,) and min_dist
    (K, N) (||x_k - c_i|| - sqrt(r_i)), int arrays kind (K,) and index (K,)
    (x_k's region as Certificate.label_rows gives it), and the law strings."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    V: np.ndarray
    kind: np.ndarray
    index: np.ndarray
    law: tuple[str, ...]
    min_dist: np.ndarray
    outcome: Outcome | None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def samples(self) -> tuple[StepSample, ...]:
        """The rows as StepSample objects, built on each access."""
        return tuple(map(StepSample, self.t.tolist(), self.x, self.u, self.V.tolist(),
                         self.kind.tolist(), self.index.tolist(), self.law, self.min_dist))

    def outside_ball(self, eps_conv: float) -> np.ndarray:
        """Rows with ||x||^2 > eps_conv^2: the engine's not-yet-converged test."""
        return row_sq(self.x) > eps_conv ** 2

    def min_clearance(self) -> float:
        """Smallest min_dist entry over the run; positive means always safe."""
        return float(self.min_dist.min())

    def v_increase(self, eps_conv: float) -> tuple[float, float | None]:
        """Largest V_k+1 - V_k over steps from ||x_k|| > eps_conv, and its t_k
        (the first on ties); (0.0, None) when no step qualifies."""
        steps = self.outside_ball(eps_conv)[:-1]
        dv = np.diff(self.V)[steps]
        if not dv.size:
            return 0.0, None
        k = int(np.argmax(dv))
        return float(dv[k]), float(self.t[:-1][steps][k])


@dataclass(frozen=True)
class SimulationSummary:
    runs: tuple[dict, ...]
    wall_time_s: float


# ---------------------------------------------------------------------------
# Event/sliding engine
# ---------------------------------------------------------------------------

_SLIDE_RAMP = 1e-6        # band-target deepening per _RAMP_STEP/4 of slide time
_RAMP_STEP = 1e-3         # the builtins' dt: the ramp is a rate in time, whatever dt is
_SADDLE_SPEED = 1e-2      # below this projected speed, use the blend tie-break
_SUB_MIN_FRACTION = 64.0  # smallest slide substep is dt/64


@dataclass
class _Slide:
    i: int                    # the slide is on the surface B_i = L
    h_tgt: float
    sub: float
    alpha: float = 0.0        # warm start for the pinning correction


class _Engine:
    """One closed-loop run and its discrete state (prev, mode): prev is the last
    sample's region, which kappa3 reads; mode is free (None: dispatch's law),
    latched(i) (an index: kappa1 of i) or sliding(i) (a _Slide: the pinned
    equivalent control).  hd2, hd1 are dh/dt, h = B_i - L, under kappa2, kappa1:

        from           condition                                to
        free, latched  located event, hd2 > 0 > hd1             sliding(i)
        free, latched  located event, hd2 > 0 and hd1 >= 0      latched(i)
        free, latched  located event, otherwise (NaN included)  free
        latched(i)     |h| > eps_band, or i stops dominating    free
        sliding(i)     tangency, or i stops dominating          free
        sliding(i)     no pin holds at the dt/64 substep        free
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.ctrl = ctrl = Controller(config)
        self.system, self.cert = ctrl.system, ctrl.cert
        self.dt = config.integrator.dt
        self.h_floor = -0.25 * self.cert.eps_band
        self.prev: tuple[int, int] | None = None
        self.mode: int | _Slide | None = None

    def _entered(self, i: int, h: float, hd2: float, hd1: float) -> int | _Slide | None:
        """The mode a located event at h enters: the table's first three rows."""
        if hd2 > 0.0 > hd1:
            return _Slide(i, min(h, 0.0), self.dt / 4.0)
        return i if hd2 > 0.0 and hd1 >= 0.0 else None

    def _locate(self, x: list[float], u: list[float], span: float, h0: float,
                f0: list[float], g0: list) -> float:
        """Bisect tau in (0, span] where the held flow crosses the surface."""
        lo, hi = 0.0, span
        pos0 = h0 > 0.0
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            _, hm, _ = self.cert.dominant_gap(_rk4(self.system, x, u, mid, f0, g0))
            if (hm > 0.0) == pos0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * span:
                break
        return hi

    def _pinned(self, x: list[float], i: int, nominal: list[float], w: list[float],
                f0: list[float], g0: list, h_tgt: float, tau: float,
                warm: float) -> tuple[list[float], float, list[float]] | None:
        """nominal + alpha*w, with alpha solved so h(end) = h_tgt.

        w is the surface-normal input direction from _slide_nominal; f0, g0
        are fg_at(x).  Returns (u, alpha, state after tau under u).
        """

        def h_end(alpha: float) -> tuple[float, list[float]]:
            xe = _rk4(self.system, x, [p + alpha * q for p, q in zip(nominal, w)], tau, f0, g0)
            return self.cert.B(i, xe) - self.cert.L(xe) - h_tgt, xe

        a = warm
        fa, _ = h_end(a)
        b = a + max(1e-8, 1e-3 * abs(a))
        fb, xb = h_end(b)
        for _ in range(25):
            if fb == fa:
                break
            c = b - fb * (b - a) / (fb - fa)
            fc, xc = h_end(c)
            a, fa, b, fb, xb = b, fb, c, fc, xc
            if abs(fb) <= 1e-13 * (1.0 + abs(h_tgt)):
                break
        if not math.isfinite(b) or abs(fb) > 1e-6:
            return None
        return [p + b * q for p, q in zip(nominal, w)], b, xb

    def _rates(self, i: int, x: list[float], f0: list[float], g0: list):
        """grad h for h = B_i - L, and kappa2, dh/dt under it, kappa1, dh/dt
        under it: (grad h, u2, hd2, u1, hd1).  f0, g0 are fg_at(x)."""
        c, e1, _ = self.cert._obstacles[i]
        s = -2.0 * e1
        gh = [s * (a - b) - 2.0 * a for a, b in zip(x, c)]
        u2 = self.ctrl.kappa2(x, f0, g0)
        u1 = self.ctrl.kappa1(i, x, f0, g0)
        return gh, u2, dot(gh, _field(f0, g0, u2)), u1, dot(gh, _field(f0, g0, u1))

    def _slide_nominal(self, x: list[float], i: int, f0: list[float], g0: list,
                       rates: tuple | None = None) -> tuple[list[float], list[float]] | None:
        """Surface nominal: projected kappa2, or the rate blend at saddles.

        Returns (nominal, w), w = (grad h . g) / ||grad h . g||^2 being the
        input direction that moves h at unit rate, or None when the
        stabilizer no longer pushes inward (tangency: the slide is over).
        f0, g0 are fg_at(x); rates, when given, are _rates(i, x, f0, g0).
        """
        gh, u2, hd2, u1, hd1 = rates or self._rates(i, x, f0, g0)
        w = vecmat(gh, g0)   # grad h . g, scaled below
        n2 = dot(w, w)
        if n2 < 1e-18 or hd2 <= 0.0:
            return None
        w = [v / n2 for v in w]
        ua = [a - hd2 * b for a, b in zip(u2, w)]   # kappa2 projected onto the surface through g
        xa = _field(f0, g0, ua)
        vda = 2.0 * dot(x, xa)
        speed_a = math.sqrt(dot(xa, xa))
        if hd1 < 0.0:
            lam = hd2 / (hd2 - hd1)
            ub = [lam * a + (1.0 - lam) * b for a, b in zip(u1, u2)]
            xb = _field(f0, g0, ub)
            vdb = 2.0 * dot(x, xb)
            tie = 1e-9 * (1.0 + abs(vda))
            if vdb < vda - tie or (abs(vdb - vda) <= tie and speed_a < _SADDLE_SPEED):
                return ub, w
        return ua, w

    def advance(self, x: list[float], i: int, h: float, dd: list[float],
                region: tuple[int, int]):
        """Integrate one recorded step from x, whose (i, h, dd) triple is
        Certificate.dominant_gap(x) and whose label is region.

        Returns (x_next, i_next, h_next, dd_next, u, law), u and law being
        the first input applied; the triple is Certificate.dominant_gap of
        x_next, so the next sample needs no new barrier evaluation.  States
        and inputs are lists of floats.
        """
        remaining = self.dt
        sub_min = self.dt / _SUB_MIN_FRACTION
        u_first = law_first = None
        f0 = g0 = rates = None
        while remaining > 1e-15 * self.dt:
            if f0 is None:
                f0, g0 = fg_at(self.system, x)
            if type(mode := self.mode) is _Slide:
                surface, rates = self._slide_nominal(x, i, f0, g0, rates) if mode.i == i else None, None
                if surface is None:
                    self.mode = None
                    continue
                tau = min(remaining, mode.sub)
                mode.h_tgt = max(mode.h_tgt - _SLIDE_RAMP * (4.0 * tau / _RAMP_STEP), self.h_floor)
                pin = self._pinned(x, i, *surface, f0, g0, mode.h_tgt, tau, mode.alpha)
                if pin is None:   # halve the substep; at dt/64 the slide ends
                    if mode.sub <= sub_min:
                        self.mode = None
                    mode.sub = max(mode.sub * 0.5, sub_min)
                    continue
                u, mode.alpha, x = pin
                if u_first is None:
                    u_first, law_first = u, self.ctrl.k3_law[i][False]
                i, h, dd = self.cert.dominant_gap(x)
                region = f0 = None
                remaining -= tau
                mode.sub = min(mode.sub * 2.0, self.dt)
                continue

            if mode == i and abs(h) <= self.cert.eps_band:
                u, law = self.ctrl.kappa1(i, x, f0, g0), self.ctrl.k1_law[i]
            else:
                self.mode = None
                if region is None:
                    region = self.cert.label(i, h, dd)
                u, law = self.ctrl.dispatch(region, x, self.prev, f0, g0)
            if u_first is None:
                u_first, law_first = u, law

            x_try = _rk4(self.system, x, u, remaining, f0, g0)
            i_try, h_try, dd_try = self.cert.dominant_gap(x_try)
            if (h > 0.0) == (h_try > 0.0) or h == 0.0:
                x, i, h, dd = x_try, i_try, h_try, dd_try
                remaining = 0.0
                continue
            tau = self._locate(x, u, remaining, h, f0, g0)
            x = _rk4(self.system, x, u, tau, f0, g0)
            remaining -= tau
            i, h, dd = self.cert.dominant_gap(x)
            region = None
            f0, g0 = fg_at(self.system, x)
            rates = self._rates(i, x, f0, g0)   # the slide's first substep reuses them
            self.mode = self._entered(i, h, rates[2], rates[4])
        return x, i, h, dd, u_first, law_first

    def run(self, x0: np.ndarray, override_init: bool) -> TrajectoryRecord:
        """Simulate from x0 until convergence, timeout, or violation."""
        x, u, law = array("d"), array("d"), []
        outcome = Outcome("init_rejected")
        if override_init or self.cert.admissible(x0)[0]:
            outcome = self._loop(x0.tolist(), x.extend, u.extend, law.append)
        X = np.frombuffer(x).reshape(-1, self.system.n)
        V, kind, index, min_dist = self.cert.record_columns(X)
        return TrajectoryRecord(
            np.arange(len(X)) * self.dt, X, np.frombuffer(u).reshape(-1, self.system.m),
            V, kind, index, tuple(law), min_dist, outcome)

    def _loop(self, x: list[float], x_, u_, law_) -> Outcome:
        """Step from x until the run ends, passing each sample's x and u as
        lists of floats to x_ and u_ and its law, a shared string, to law_."""
        cert = self.cert
        integ = self.config.integrator
        eps_conv_sq = integ.eps_conv ** 2
        n_steps = int(round(integ.t_max / integ.dt))
        self.prev = cert.classify(x)
        k = 0
        i, h, dd = cert.dominant_gap(x)
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                L = cert.L(x)
                region = cert.label(i, h, dd)
                x_(x)
                if region[0] == UNSAFE:
                    u_([0.0] * self.system.m), law_(NO_LAW)
                    return Outcome("safety_violation", t=k * integ.dt, obstacle=region[1])
                if L <= eps_conv_sq or k >= n_steps:
                    u, law = self.ctrl.dispatch(region, x, self.prev)
                    u_(u), law_(law)
                    return Outcome("converged" if L <= eps_conv_sq else "timeout",
                                   t=k * integ.dt)
                x_next, i, h, dd, u, law = self.advance(x, i, h, dd, region)
                u_(u), law_(law)
                if not all(map(math.isfinite, x_next)):
                    return Outcome("numeric_blowup", t=k * integ.dt)
                self.prev = region
                x = x_next
                k += 1


# ---------------------------------------------------------------------------
# Public simulation entry points
# ---------------------------------------------------------------------------

def simulate(config: ScenarioConfig, x0: np.ndarray,
             override_init: bool = False) -> TrajectoryRecord:
    """Run config's closed loop from x0 until convergence, timeout, or violation."""
    return _Engine(config).run(np.asarray(x0, float), override_init)


def run_batch(config: ScenarioConfig,
              override_init: bool = False) -> tuple[SimulationSummary, tuple[TrajectoryRecord, ...]]:
    """Simulate every initial state; output order follows input order."""
    t0 = time.perf_counter()
    records = tuple(simulate(config, x0, override_init=override_init)
                    for x0 in config.initial_states)

    runs = []
    for idx, (x0, rec) in enumerate(zip(config.initial_states, records)):
        entry = {"index": idx, "x0": list(map(float, x0)),
                 "outcome": json_doc(rec.outcome),
                 "n_samples": len(rec)}
        if len(rec):
            # a blown-up run's last finite state may overflow ||x||^2: inf, quietly
            with np.errstate(over="ignore", invalid="ignore"):
                entry["final_norm"] = float(np.linalg.norm(rec.x[-1]))
                entry["max_v_increase"] = rec.v_increase(config.integrator.eps_conv)[0]
            entry["min_min_dist"] = rec.min_clearance()
        runs.append(entry)
    return SimulationSummary(runs=tuple(runs), wall_time_s=time.perf_counter() - t0), records


# ---------------------------------------------------------------------------
# Trajectory CSV
# ---------------------------------------------------------------------------

def trajectory_header(n: int, m: int, n_obstacles: int) -> list[str]:
    return (["t"] + [f"x{i+1}" for i in range(n)] + [f"u{j+1}" for j in range(m)]
            + ["V", "region", "law"] + [f"mindist{i+1}" for i in range(n_obstacles)])


def write_trajectory_csv(record: TrajectoryRecord, fp) -> None:
    """One row per sample, floats as their repr (exact round trip), streamed.

    No field needs CSV quoting: float reprs, region codes and the engine's law
    strings hold no comma, quote or newline, so the rows are joined directly.
    """
    if not len(record):
        raise ValueError("cannot write an empty trajectory")
    N = record.min_dist.shape[1]
    floats = [record.t, *record.x.T, *record.u.T, record.V]
    cols = ([map(repr, map(float, c)) for c in floats]
            + [region_codes(N)[record.kind, record.index + 1].tolist(), record.law]
            + [map(repr, map(float, c)) for c in record.min_dist.T])
    fp.write(",".join(trajectory_header(record.x.shape[1], record.u.shape[1], N)) + "\n")
    fp.writelines(map("%s\n".__mod__, map(",".join, zip(*cols))))


def trajectory_csv_text(record: TrajectoryRecord) -> str:
    buf = io.StringIO()
    write_trajectory_csv(record, buf)
    return buf.getvalue()


def read_trajectory_csv(fp) -> TrajectoryRecord:
    """Parse a CSV written by write_trajectory_csv into columns (outcome
    None); a malformed file, including a header with no x or no mindist
    column, an unknown region or law, a non-finite t or x, a t that does not
    strictly increase or a t step more than 1e-6 relative off the median
    step, raises ValueError naming its 1-based row."""
    rows = csv.reader(fp)
    header = next(rows, [])
    n, m, N = (sum(h.startswith(p) for h in header) for p in ("x", "u", "mindist"))
    if header != trajectory_header(n, m, N) or not (n and N):
        raise ValueError("row 1: not a t,x..,u..,V,region,law,mindist.. header")
    j = 2 + n + m   # the region column; law follows it
    # a region is kept as its flat index into region_codes(N) and a law as the
    # law table's shared string; the floats of each 64 rows go through one
    # block to each column group's own float64 buffer, 8 B per value
    slot_of = {c: s for s, c in enumerate(region_codes(N).ravel()) if c}
    k1, k3 = law_names(N)
    laws = {s: s for s in (K2_LAW, NO_LAW, *k1, *chain(*k3))}
    spans = ((0, 1), (1, 1 + n), (1 + n, j - 1), (j - 1, j), (j, j + N))
    floats, slot, law = [array("d") for _ in spans], array("q"), []
    rows = enumerate(rows, 2)
    while chunk := list(islice(rows, 64)):
        block = array("d")
        for k, row in chunk:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, the header has {len(header)}")
                if (s := slot_of.get(row[j])) is None:
                    raise ValueError(f"no region {row[j]!r} with {N} obstacles")
                if (name := laws.get(row[j + 1])) is None:
                    raise ValueError(f"no law {row[j + 1]!r} with {N} obstacles")
                block.extend(map(float, row[:j] + row[j + 2:]))
            except ValueError as e:
                raise ValueError(f"row {k}: {e}") from None
            slot.append(s), law.append(name)
        B = np.frombuffer(block).reshape(-1, j + N)
        for col, (a, b) in zip(floats, spans):
            col.frombytes(B[:, a:b].tobytes())
    if not law:
        raise ValueError("row 2: no sample rows after the header")
    t, x, u, V, min_dist = (np.frombuffer(c).reshape(len(law), b - a)
                            for c, (a, b) in zip(floats, spans))
    t, V = t[:, 0], V[:, 0]
    dt = np.diff(t)
    # t is k*dt, so a step off the median beyond rounding marks a dropped row;
    # the lower median (empty for one sample) is one a single hole cannot set;
    # copied out, so the sorted steps are freed before the comparison
    ref = np.sort(dt)[(len(dt) - 1) // 2:][:1].copy()
    # u, V and mindist stay unrestricted: a blown-up run records overflow there
    for bad, what in ((~(np.isfinite(t) & np.isfinite(x).all(axis=1)), "non-finite t or x"),
                      (np.r_[False, dt <= 0.0], "t does not increase"),
                      (np.r_[False, ~np.isclose(dt, ref, rtol=1e-6, atol=0.0)],
                       "t step differs from the median step")):
        if bad.any():
            raise ValueError(f"row {int(np.argmax(bad)) + 2}: {what}")
    kind, index = np.divmod(np.frombuffer(slot, np.int64), N + 1)
    index -= 1
    return TrajectoryRecord(t, x, u, V, kind, index, tuple(law), min_dist, None)
