"""The engine's step and slide path against the forms they replaced, bit for bit.

``fg_at_copy`` and ``rk4_oracle`` are ``systems.fg_at`` and
``simulator._rk4`` as they were when every RK4 stage went through fg_at,
which copied f's list so that the stage could add g u into it.
``field_oracle``, ``kappa1_oracle``, ``kappa2_oracle``, ``rates_oracle``,
``slide_nominal_oracle`` and ``pinned_oracle`` are the slide path as it was
when its one-off vectors were comprehensions over ``zip`` and the pin probe's
gap was ``cert.B(i, x) - cert.L(x)``; they take the engine or controller as
their first argument and call each other.  The engine now calls f and g
directly at each stage, never writes into f's list, sums the probe's gap in
one indexed pass and builds every vector in an indexed loop, with the same
operations in the same order, so each must give the same bytes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from nclbf import builtin_scenario, simulate
from nclbf.certificate import dot, matvec, vecmat
from nclbf.controller import TOL_G
from nclbf.simulator import _SADDLE_SPEED, _Engine, _rk4
from nclbf.systems import ControlAffineSystem, fg_at
from test_engine_oracle import as_bytes, random_rows


def fg_at_copy(system, x):
    f, g, memo = system.f(x), system.g(x), system._g_rows
    if g is not memo[0]:
        memo[:] = g, np.asarray(g, float).tolist()
    return f.tolist() if isinstance(f, np.ndarray) else list(f), memo[1]


def rk4_oracle(system, x, u, dt, f0, g0, probes=None):
    gu = matvec(g0, u)
    r = range(len(x))
    k1, xc, half = [*f0], [*x], 0.5 * dt
    for j in r:
        k1[j] += gu[j]
        xc[j] = k1[j] * half + x[j]
    k2, gc = fg_at_copy(system, xc)
    gcu = gu if gc is g0 else matvec(gc, u)
    xc = [*x]
    for j in r:
        k2[j] += gcu[j]
        xc[j] = k2[j] * half + x[j]
    k3, gc = fg_at_copy(system, xc)
    gcu = gu if gc is g0 else matvec(gc, u)
    xc = [*x]
    for j in r:
        k3[j] += gcu[j]
        xc[j] = k3[j] * dt + x[j]
    k4, gc = fg_at_copy(system, xc)
    gcu = gu if gc is g0 else matvec(gc, u)
    xs, w = [*x], dt / 6.0
    for j in r:
        xs[j] = (((k2[j] + k3[j]) * 2.0 + k1[j]) + (k4[j] + gcu[j])) * w + x[j]
    if probes is not None:
        probes.append((u, xs))
    return xs


def field_oracle(f, g, u):
    return [a + b for a, b in zip(f, matvec(g, u))]


def kappa1_oracle(self, i, x, f0, g0):
    c, e1, _ = self.cert._obstacles[i]
    s = -2.0 * e1
    gB = [s * (a - b) for a, b in zip(x, c)]
    Bf = dot(gB, f0)
    u = vecmat(gB, g0)
    n2 = dot(u, u)
    if math.sqrt(n2) <= TOL_G:
        return [0.0] * self.system.m
    L, c1 = dot(x, x), self._c1[i]
    for j in range(len(u)):
        b = u[j]
        u[j] = -(b / n2) * Bf - (c1[j] * (1.0 / b if abs(b) > TOL_G else 0.0)) * L
    return u


def kappa2_oracle(self, x, f0, g0):
    gL = [2.0 * v for v in x]
    Lf = dot(gL, f0)
    u = vecmat(gL, g0)
    n2 = dot(u, u)
    if math.sqrt(n2) <= TOL_G:
        return [0.0] * self.system.m
    k = -(Lf + math.sqrt(Lf * Lf + self.gamma * n2 * n2))
    for j in range(len(u)):
        u[j] = k * (u[j] / n2)
    return u


def rates_oracle(self, i, x, f0, g0):
    c, e1, _ = self.cert._obstacles[i]
    s = -2.0 * e1
    gh = [s * (a - b) - 2.0 * a for a, b in zip(x, c)]
    u2 = kappa2_oracle(self.ctrl, x, f0, g0)
    u1 = kappa1_oracle(self.ctrl, i, x, f0, g0)
    return (gh, u2, dot(gh, field_oracle(f0, g0, u2)), u1,
            dot(gh, field_oracle(f0, g0, u1)))


def slide_nominal_oracle(self, x, i, f0, g0):
    gh, u2, hd2, u1, hd1 = rates_oracle(self, i, x, f0, g0)
    w = vecmat(gh, g0)
    n2 = dot(w, w)
    if n2 < 1e-18 or hd2 <= 0.0:
        return None
    w = [v / n2 for v in w]
    ua = [a - hd2 * b for a, b in zip(u2, w)]
    xa = field_oracle(f0, g0, ua)
    vda = 2.0 * dot(x, xa)
    speed_a = math.sqrt(dot(xa, xa))
    if hd1 < 0.0:
        lam = hd2 / (hd2 - hd1)
        ub = [lam * a + (1.0 - lam) * b for a, b in zip(u1, u2)]
        xb = field_oracle(f0, g0, ub)
        vdb = 2.0 * dot(x, xb)
        tie = 1e-9 * (1.0 + abs(vda))
        if vdb < vda - tie or (abs(vdb - vda) <= tie and speed_a < _SADDLE_SPEED):
            return ub, w
    return ua, w


def pinned_oracle(self, x, i, nominal, w, f0, g0, h_tgt, tau, warm, probes):
    def h_end(alpha):
        xe = rk4_oracle(self.system, x, [p + alpha * q for p, q in zip(nominal, w)], tau,
                        f0, g0, probes)
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


# -- RK4 stages --------------------------------------------------------------

def f_list(x):
    """A nonlinear drift on any n, as a new list of floats."""
    n = len(x)
    return [0.3 * x[j] * x[(j + 1) % n] - x[j] - 0.2 * x[(j + 2) % n] for j in range(n)]


def stage_system(n, m, f_kind, g_kind):
    """A system of the given f and g kinds whose f and g count their calls:
    (system, calls, kept), kept mapping each state the kept-list f saw to
    the list it returned and keeps."""
    calls, kept = {"f": 0, "g": 0}, {}
    base = np.random.default_rng([n, m]).normal(size=(n, m))
    f = {"list": f_list,
         "ndarray": lambda x: np.array(f_list(x)),
         "tuple": lambda x: tuple(f_list(x)),
         "kept": lambda x: kept.setdefault(tuple(x), f_list(x))}[f_kind]
    g = {"constant": lambda x: base,
         "fresh": lambda x: base.copy(),
         "state": lambda x: base + 0.1 * np.array(x)[:, None]}[g_kind]

    def counted(key, fn):
        def wrapper(x):
            calls[key] += 1
            return fn(x)
        return wrapper

    system = ControlAffineSystem(f"stage_{f_kind}_{g_kind}_{n}_{m}", n, m,
                                 counted("f", f), counted("g", g))
    return system, calls, kept


def stage_rows(n, rng) -> list[list[float]]:
    rows = rng.uniform(-5.0, 5.0, size=(40, n)).tolist()
    for edge in (math.nan, math.inf, -math.inf, 1e200, -0.0, 1e-320):
        rows.append([edge] + rng.uniform(-5.0, 5.0, size=n - 1).tolist())
    return rows


@pytest.mark.parametrize("g_kind", ["constant", "fresh", "state"])
@pytest.mark.parametrize("f_kind", ["list", "ndarray", "tuple", "kept"])
@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 2)])
def test_rk4_matches_fg_at_oracle(n, m, f_kind, g_kind):
    """_rk4 gives the bytes of the RK4 whose every stage went through the
    copying fg_at, calls f and g once per stage, turns a constant g into
    rows once, and leaves every list that f returned and keeps unchanged."""
    system, calls, kept = stage_system(n, m, f_kind, g_kind)
    rng = np.random.default_rng([n, m, 32])
    rows_made = None
    with np.errstate(all="ignore"):
        for x in stage_rows(n, rng):
            u = rng.normal(scale=5.0, size=m).tolist()
            for dt in (1e-3, 0.05, 0.5):
                f0, g0 = fg_at(system, x)
                if f_kind in ("list", "kept"):
                    assert type(f0) is list
                if f_kind == "kept":
                    assert f0 is kept[tuple(x)]   # f's own list, not a copy
                rows_made = rows_made or g0
                if g_kind == "constant":
                    assert g0 is rows_made
                calls["f"] = calls["g"] = 0
                got = _rk4(system, x, u, dt, f0, g0)
                assert calls == {"f": 3, "g": 3}
                want = rk4_oracle(system, x, u, dt, *fg_at_copy(system, x))
                assert as_bytes(got) == as_bytes(want), (x, u, dt)
    for key, listed in kept.items():
        assert as_bytes(listed) == as_bytes(f_list(list(key))), key


@pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three", "linear3d"])
def test_dominant_gap_L_sums_certificate_L(name, cfg_3d):
    """dominant_gap_L's L, which _loop's convergence test reads, is
    Certificate.L(x) bit for bit, and its first three entries are
    dominant_gap(x)."""
    config = cfg_3d if name == "linear3d" else builtin_scenario(name)
    engine = _Engine(config)
    cert = engine.cert
    rng = np.random.default_rng(33)
    for x in stage_rows(config.n, rng) + random_rows(rng, config, 100).tolist():
        i, h, dd, L = cert.dominant_gap_L(x)
        assert as_bytes(L) == as_bytes(cert.L(x)), x
        assert as_bytes((i, h, dd)) == as_bytes(cert.dominant_gap(x)), x


def test_converged_run_stops_at_first_certificate_L_within_eps(cfg_a, records_a):
    """Each converged fixture run ends at its first sample whose
    Certificate.L is within eps_conv^2."""
    eps_sq = cfg_a.integrator.eps_conv ** 2
    engine = _Engine(cfg_a)
    for rec in records_a.values():
        if rec.outcome.kind == "converged":
            L = [engine.cert.L(x.tolist()) for x in rec.x]
            assert L[-1] <= eps_sq and min(L[:-1]) > eps_sq


# -- slide path ----------------------------------------------------------------

def slide_states(config, records, rng) -> list[list[float]]:
    """States in the band or sliding in the records, thinned to about 40 per
    run, and random rows of the state box."""
    rows = []
    for rec in records:
        band = [k for k, law in enumerate(rec.law) if law.startswith("K3")]
        rows += [rec.x[k].tolist() for k in band[::max(1, len(band) // 40)]]
    return rows + random_rows(rng, config, 60).tolist()


@pytest.fixture(scope="module")
def slide_cases(cfg_a, cfg_b, cfg_3d, records_a, records_b):
    return {"linear2d_single": (cfg_a, list(records_a.values())),
            "nonlinear_mech_three": (cfg_b, list(records_b.values())),
            "linear3d": (cfg_3d, [simulate(cfg_3d, cfg_3d.initial_states[0])])}


@pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three", "linear3d"])
def test_slide_path_matches_comprehension_forms(name, slide_cases, monkeypatch):
    """_slide_nominal and _pinned give the bytes of their comprehension forms,
    and _pinned probes the same inputs and states in the same order, so each
    probe's one-pass gap steered the secant as cert.B(i, x) - cert.L(x) did."""
    from nclbf import simulator

    config, records = slide_cases[name]
    engine = _Engine(config)
    probes = []

    def recorded(system, x, u, dt, f0, g0):
        xs = _rk4(system, x, u, dt, f0, g0)
        probes.append((u, xs))
        return xs

    monkeypatch.setattr(simulator, "_rk4", recorded)
    rng = np.random.default_rng(34)
    seen, pins = set(), 0
    dt = config.integrator.dt
    with np.errstate(all="ignore"):
        for x in slide_states(config, records, rng):
            f0, g0 = fg_at(engine.system, x)
            h = engine.cert.dominant_gap(x)[1]
            for i in range(config.n_obstacles):
                surface = engine._slide_nominal(x, i, f0, g0)
                want = slide_nominal_oracle(engine, x, i, f0, g0)
                assert as_bytes(surface) == as_bytes(want), (x, i)
                if surface is None:
                    seen.add("none")
                    continue
                _, u2, hd2, _, _ = rates_oracle(engine, i, x, f0, g0)
                ua = [a - hd2 * b for a, b in zip(u2, surface[1])]
                seen.add("ua" if as_bytes(surface[0]) == as_bytes(ua) else "ub")
                for tau, warm in ((dt / 4.0, 0.0), (dt / 64.0, 0.3)):
                    h_tgt = min(h, 0.0) - 1e-6
                    probes.clear()
                    got = engine._pinned(x, i, *surface, f0, g0, h_tgt, tau, warm)
                    want_probes = []
                    want = pinned_oracle(engine, x, i, *surface, f0, g0, h_tgt, tau, warm,
                                         want_probes)
                    assert as_bytes(got) == as_bytes(want), (x, i, tau)
                    assert list(map(as_bytes, probes)) == list(map(as_bytes, want_probes)), (
                        x, i, tau)
                    pins += got is not None
    # the tangency exit and the projection on every system; the head-on
    # starts of linear2d_single slide on the blend
    assert {"none", "ua"} <= seen and pins > 0
    assert "ub" in seen or name != "linear2d_single"
