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

Sliding ends where the stabilizer field stops pushing inward, which is the
tangency (contact-point) condition; the state then peels off toward the
origin.  Runs are deterministic: repeated simulation of the same scenario is
bit-identical.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from .certificate import RegionLabel
from .controller import make_controller
from .scenario import ScenarioConfig
from .systems import ControlAffineSystem, resolve_system


class NumericBlowupError(RuntimeError):
    """Integration produced a non-finite state."""


def _rk4(system: ControlAffineSystem, x: np.ndarray, u: np.ndarray,
         dt: float, f0: np.ndarray, g0: np.ndarray) -> np.ndarray:
    # f0, g0 are f(x), g(x): the first stage, shared by every step from x.
    # Stage states are combined on plain floats: the same element-wise
    # operations as array arithmetic, so bit-identical, at a fraction of the
    # per-call overhead for small n.  ndarray.dot gives the same BLAS result
    # as @ with less call overhead; the hot paths here and in the controller
    # use it for that reason.
    f, g = system.f, system.g
    k1 = (f0 + g0.dot(u)).tolist()
    xs = x.tolist()
    half = 0.5 * dt
    x2 = np.array([k * half + a for k, a in zip(k1, xs)])
    k2 = (f(x2) + g(x2).dot(u)).tolist()
    x3 = np.array([k * half + a for k, a in zip(k2, xs)])
    k3 = (f(x3) + g(x3).dot(u)).tolist()
    x4 = np.array([k * dt + a for k, a in zip(k3, xs)])
    k4 = (f(x4) + g(x4).dot(u)).tolist()
    w = dt / 6.0
    return np.array([(((b + c) * 2.0 + a) + d) * w + v
                     for a, b, c, d, v in zip(k1, k2, k3, k4, xs)])


def rk4_step(system: ControlAffineSystem, x: np.ndarray, u: np.ndarray,
             dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of xdot = f(x) + g(x) u, u held fixed."""
    x = np.asarray(x, float)
    out = _rk4(system, x, np.asarray(u, float), dt, system.f(x), system.g(x))
    if not np.all(np.isfinite(out)):
        raise NumericBlowupError(f"non-finite state after step from {x!r}")
    return out


@dataclass(frozen=True)
class StepSample:
    t: float
    x: np.ndarray
    u: np.ndarray
    V: float
    region: RegionLabel
    law: str
    min_dist: np.ndarray


@dataclass(frozen=True)
class Outcome:
    kind: str                  # converged | timeout | safety_violation | init_rejected | numeric_blowup
    t: float | None = None
    obstacle: int | None = None

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.t is not None:
            d["t"] = self.t
        if self.obstacle is not None:
            d["obstacle"] = self.obstacle
        return d


@dataclass(frozen=True)
class TrajectoryRecord:
    samples: tuple[StepSample, ...]
    outcome: Outcome | None

    def min_clearance(self) -> float:
        """Smallest min_dist entry over the run; positive means always safe."""
        return float(np.concatenate([s.min_dist for s in self.samples]).min())

    def v_increase(self, eps_conv: float) -> tuple[float, float | None]:
        """Largest V_k+1 - V_k over steps from ||x_k|| > eps_conv, and its t_k.

        (-inf, None) when no step qualifies.
        """
        worst, at = -math.inf, None
        for a, b in zip(self.samples, self.samples[1:]):
            if float(a.x.dot(a.x)) > eps_conv * eps_conv:
                dv = b.V - a.V
                if dv > worst:
                    worst, at = dv, a.t
        return worst, at


@dataclass(frozen=True)
class SimulationSummary:
    runs: tuple[dict, ...]
    wall_time_s: float

    def to_dict(self) -> dict:
        return {"runs": list(self.runs), "wall_time_s": self.wall_time_s}


# ---------------------------------------------------------------------------
# Event/sliding engine
# ---------------------------------------------------------------------------

_SLIDE_RAMP = 1e-6        # band-target deepening per dt/4 of slide time
_SADDLE_SPEED = 1e-2      # below this projected speed, use the blend tie-break
_SUB_MIN_FRACTION = 64.0  # smallest slide substep is dt/64


@dataclass
class _SlideState:
    active: bool = False
    i: int = -1
    h_tgt: float = 0.0
    sub: float = 0.0
    alpha: float = 0.0        # warm start for the pinning correction


class _Engine:
    """One closed-loop run and the hybrid feedback's discrete state.

    That state is the region of the previous sample, which kappa3 reads; the
    barrier-entry latch forced_k1 (the obstacle whose region a located event
    properly entered, held on kappa1 while inside the band, else -1); and the
    slide on a surface B_i = L.
    """

    def __init__(self, config: ScenarioConfig, system: ControlAffineSystem):
        self.config = config
        self.system = system
        self.ctrl = make_controller(config, system)
        self.cert = self.ctrl.cert
        self.dt = config.integrator.dt
        self.eps_band = config.integrator.eps_band
        self.h_floor = -0.25 * self.eps_band
        self.prev: RegionLabel | None = None
        self.forced_k1 = -1
        self.slide = _SlideState()

    def _locate(self, x: np.ndarray, u: np.ndarray, span: float, h0: float,
                f0: np.ndarray, g0: np.ndarray) -> float:
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

    def _pinned(self, x: np.ndarray, i: int, nominal: np.ndarray, w: np.ndarray,
                f0: np.ndarray, g0: np.ndarray, h_tgt: float, tau: float,
                warm: float) -> tuple[np.ndarray, float, np.ndarray] | None:
        """nominal + alpha*w, with alpha solved so h(end) = h_tgt.

        w is the surface-normal input direction from _slide_nominal; f0, g0
        are f(x), g(x).  Returns (u, alpha, state after tau under u).
        """

        def h_end(alpha: float) -> tuple[float, np.ndarray]:
            xe = _rk4(self.system, x, nominal + alpha * w, tau, f0, g0)
            return self.cert.gap(i, xe) - h_tgt, xe

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
        return nominal + b * w, b, xb

    def _rates(self, i: int, x: np.ndarray, f0: np.ndarray, g0: np.ndarray):
        """grad h for h = B_i - L, and kappa2, dh/dt under it, kappa1, dh/dt
        under it: (grad h, u2, hd2, u1, hd1).  f0, g0 are f(x), g(x)."""
        gh = self.cert.grad_B(i, x) - 2.0 * x
        u2 = self.ctrl.kappa2(x, f0, g0)
        u1 = self.ctrl.kappa1(i, x, f0, g0)
        return gh, u2, float(gh.dot(f0 + g0.dot(u2))), u1, float(gh.dot(f0 + g0.dot(u1)))

    def _slide_nominal(self, x: np.ndarray, i: int, f0: np.ndarray,
                       g0: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Surface nominal: projected kappa2, or the rate blend at saddles.

        Returns (nominal, w), w = (grad h . g) / ||grad h . g||^2 being the
        input direction that moves h at unit rate, or None when the
        stabilizer no longer pushes inward (tangency: the slide is over).
        f0, g0 are f(x), g(x).
        """
        gh, u2, hd2, u1, hd1 = self._rates(i, x, f0, g0)
        hg = gh.dot(g0)
        n2 = float(hg.dot(hg))
        if n2 < 1e-18 or hd2 <= 0.0:
            return None
        w = hg / n2
        ua = u2 - hd2 * w  # kappa2 projected onto the surface through g
        xa = f0 + g0.dot(ua)
        vda = 2.0 * float(x.dot(xa))
        speed_a = math.sqrt(float(xa.dot(xa)))
        if hd1 < 0.0:
            lam = hd2 / (hd2 - hd1)
            ub = lam * u1 + (1.0 - lam) * u2
            xb = f0 + g0.dot(ub)
            vdb = 2.0 * float(x.dot(xb))
            tie = 1e-9 * (1.0 + abs(vda))
            if vdb < vda - tie or (abs(vdb - vda) <= tie and speed_a < _SADDLE_SPEED):
                return ub, w
        return ua, w

    def advance(self, x: np.ndarray, i: int, h: float, dd: list[float],
                region: RegionLabel):
        """Integrate one recorded step from x, whose (i, h, dd) triple is
        Certificate.dominant_gap(x) and whose label is region.

        Returns (x_next, i_next, h_next, dd_next, u, law), u and law being
        the first input applied; the triple is Certificate.dominant_gap of
        x_next, so the next sample needs no new barrier evaluation.
        """
        slide = self.slide
        remaining = self.dt
        sub_min = self.dt / _SUB_MIN_FRACTION
        u_first: np.ndarray | None = None
        law_first: str | None = None
        f0 = g0 = None
        while remaining > 1e-15 * self.dt:
            if f0 is None:
                f0, g0 = self.system.f(x), self.system.g(x)
            if slide.active:
                if slide.i != i:
                    slide.active = False
                    continue
                surface = self._slide_nominal(x, i, f0, g0)
                if surface is None:
                    slide.active = False
                    continue
                tau = min(remaining, slide.sub)
                slide.h_tgt = max(slide.h_tgt - _SLIDE_RAMP * (4.0 * tau / self.dt),
                                  self.h_floor)
                pin = self._pinned(x, i, *surface, f0, g0, slide.h_tgt, tau, slide.alpha)
                if pin is None:
                    if slide.sub > sub_min:
                        slide.sub = max(slide.sub * 0.5, sub_min)
                        continue
                    slide.active = False
                    continue
                u, slide.alpha, x = pin
                if u_first is None:
                    u_first, law_first = u, f"K3:{i + 1}>K2"
                i, h, dd = self.cert.dominant_gap(x)
                region = f0 = None
                remaining -= tau
                slide.sub = min(slide.sub * 2.0, self.dt)
                continue

            if self.forced_k1 == i and abs(h) <= self.eps_band:
                u, law = self.ctrl.kappa1(i, x, f0, g0), f"K1:{i + 1}"
            else:
                self.forced_k1 = -1
                if region is None:
                    region = self.cert.label(i, h, dd, self.eps_band)
                dec = self.ctrl.dispatch(region, x, self.prev, f0, g0)
                u, law = dec.u, dec.law
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
            f0, g0 = self.system.f(x), self.system.g(x)
            _, _, hd2, _, hd1 = self._rates(i, x, f0, g0)
            if hd2 > 0.0 > hd1:
                slide.active = True
                slide.i = i
                slide.h_tgt = min(h, 0.0)
                slide.sub = self.dt / 4.0
                slide.alpha = 0.0
                self.forced_k1 = -1
            elif hd2 > 0.0 and hd1 >= 0.0:
                # both fields point inward: the flow properly enters the
                # barrier region, where kappa1 governs
                self.forced_k1 = i
            else:
                self.forced_k1 = -1
        if u_first is None:
            u_first, law_first = np.zeros(self.system.m), "-"
        return x, i, h, dd, u_first, law_first

    def run(self, x0: np.ndarray, override_init: bool) -> TrajectoryRecord:
        """Simulate from x0 until convergence, timeout, or violation."""
        cert = self.cert
        integ = self.config.integrator
        eps_conv_sq = integ.eps_conv ** 2
        if not override_init and not cert.admissible(x0, integ.eps_band)[0]:
            return TrajectoryRecord(samples=(), outcome=Outcome("init_rejected"))

        n_steps = int(round(integ.t_max / integ.dt))
        x = x0.copy()
        self.prev = cert.classify(x, integ.eps_band)
        samples: list[StepSample] = []

        def push(t, xs, u, V, region, law, mind):
            samples.append(StepSample(t=t, x=xs, u=np.asarray(u, float), V=V,
                                      region=region, law=law, min_dist=mind))

        k = 0
        i, h, dd = cert.dominant_gap(x)
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                t = k * integ.dt
                L = cert.L(x)
                V = L + h if h > 0.0 else L
                mind = cert.clearance(dd)
                region = cert.label(i, h, dd, integ.eps_band)
                if region.kind == "UNSAFE":
                    push(t, x, np.zeros(self.system.m), V, region, "-", mind)
                    outcome = Outcome("safety_violation", t=t, obstacle=region.index)
                    break
                if L <= eps_conv_sq or k >= n_steps:
                    dec = self.ctrl.dispatch(region, x, self.prev)
                    push(t, x, dec.u, V, region, dec.law, mind)
                    outcome = Outcome("converged" if L <= eps_conv_sq else "timeout", t=t)
                    break
                x_next, i, h, dd, u, law = self.advance(x, i, h, dd, region)
                push(t, x, u, V, region, law, mind)
                if not all(map(math.isfinite, x_next.tolist())):
                    outcome = Outcome("numeric_blowup", t=t)
                    break
                self.prev = region
                x = x_next
                k += 1
        return TrajectoryRecord(samples=tuple(samples), outcome=outcome)


# ---------------------------------------------------------------------------
# Public simulation entry points
# ---------------------------------------------------------------------------

def simulate(config: ScenarioConfig, x0: np.ndarray,
             system: ControlAffineSystem | None = None,
             override_init: bool = False) -> TrajectoryRecord:
    """Run the closed loop from x0 until convergence, timeout, or violation."""
    sys_ = system if system is not None else resolve_system(config)
    return _Engine(config, sys_).run(np.asarray(x0, float), override_init)


def run_batch(config: ScenarioConfig,
              override_init: bool = False) -> tuple[SimulationSummary, tuple[TrajectoryRecord, ...]]:
    """Simulate every initial state; output order follows input order."""
    sys_ = resolve_system(config)
    t0 = time.perf_counter()
    records = tuple(simulate(config, x0, system=sys_, override_init=override_init)
                    for x0 in config.initial_states)

    runs = []
    for idx, (x0, rec) in enumerate(zip(config.initial_states, records)):
        entry = {"index": idx, "x0": list(map(float, x0)),
                 "outcome": rec.outcome.to_dict() if rec.outcome else None,
                 "n_samples": len(rec.samples)}
        if rec.samples:
            dv, at = rec.v_increase(config.integrator.eps_conv)
            entry["final_norm"] = float(np.linalg.norm(rec.samples[-1].x))
            entry["max_v_increase"] = 0.0 if at is None else dv
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
    if not record.samples:
        raise ValueError("cannot write an empty trajectory")
    s0 = record.samples[0]
    wr = csv.writer(fp, lineterminator="\n")
    wr.writerow(trajectory_header(len(s0.x), len(s0.u), len(s0.min_dist)))
    for s in record.samples:
        wr.writerow([repr(s.t)] + [repr(float(v)) for v in s.x]
                    + [repr(float(v)) for v in s.u]
                    + [repr(s.V), s.region.code, s.law]
                    + [repr(float(v)) for v in s.min_dist])


def trajectory_csv_text(record: TrajectoryRecord) -> str:
    buf = io.StringIO()
    write_trajectory_csv(record, buf)
    return buf.getvalue()


def read_trajectory_csv(fp) -> TrajectoryRecord:
    rd = csv.reader(fp)
    header = next(rd)
    n = sum(1 for h in header if h.startswith("x"))
    m = sum(1 for h in header if h.startswith("u"))
    nobs = sum(1 for h in header if h.startswith("mindist"))
    samples = []
    for row in rd:
        t = float(row[0])
        x = np.array([float(v) for v in row[1:1 + n]])
        u = np.array([float(v) for v in row[1 + n:1 + n + m]])
        V = float(row[1 + n + m])
        region = RegionLabel.from_code(row[2 + n + m])
        law = row[3 + n + m]
        md = np.array([float(v) for v in row[4 + n + m:4 + n + m + nobs]])
        samples.append(StepSample(t=t, x=x, u=u, V=V, region=region, law=law, min_dist=md))
    return TrajectoryRecord(samples=tuple(samples), outcome=None)
