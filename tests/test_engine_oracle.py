"""The engine's feedback laws and RK4 stages against the array forms they replaced.

``kappa1_oracle`` (with ``mu`` and ``mu_bar``), ``kappa2_oracle``,
``rates_oracle``, ``slide_nominal_oracle`` and ``rk4_oracle`` are
``Controller.kappa1``/``kappa2`` and ``_Engine._rates``/``_slide_nominal``
and ``simulator._rk4`` as they were written on whole arrays, kept verbatim
apart from their names, taking the controller or engine as their first
argument and calling each other.  The engine now does their elementwise
arithmetic on floats in the same order and keeps every product an
``ndarray.dot``, so each must give the same bytes: on random states of both
builtins, of ``cfg_3d``'s linear3d and of a system with n = 3, m = 2 and a
dense g that changes with x, on states the fixture runs slide through, and on
edge rows (a channel at or below ``TOL_G``, a vanished channel, a dense g,
non-finite input).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest

from conftest import with_system
from nclbf.controller import TOL_G, Controller
from nclbf.scenario import ObstacleParams, ScenarioConfig, builtin_scenario
from nclbf.simulator import _Engine, _rk4, simulate, trajectory_csv_text
from nclbf.systems import ControlAffineSystem, fg_at
from test_simulator import PINNED_CSV_A


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


def kappa1_oracle(self, i, x, f0, g0):
    gB = self.cert.grad_B(i, x)
    Bf = float(gB.dot(f0))
    Bg = gB.dot(g0)
    if math.sqrt(float(Bg.dot(Bg))) <= TOL_G:
        return np.zeros(self.system.m)
    bar, _ = mu_bar(Bg)
    return -mu(Bg) * Bf - self.c1[i] * bar * self.cert.L(x)


def kappa2_oracle(self, x, f0, g0):
    gL = 2.0 * x
    Lf = float(gL.dot(f0))
    Lg = gL.dot(g0)
    n2 = float(Lg.dot(Lg))
    if math.sqrt(n2) <= TOL_G:
        return np.zeros(self.system.m)
    return -(Lf + math.sqrt(Lf * Lf + self.gamma * n2 * n2)) * (Lg / n2)


def rates_oracle(self, i, x, f0, g0):
    gh = self.cert.grad_B(i, x) - 2.0 * x
    u2 = kappa2_oracle(self.ctrl, x, f0, g0)
    u1 = kappa1_oracle(self.ctrl, i, x, f0, g0)
    return gh, u2, float(gh.dot(f0 + g0.dot(u2))), u1, float(gh.dot(f0 + g0.dot(u1)))


def slide_nominal_oracle(self, x, i, f0, g0):
    gh, u2, hd2, u1, hd1 = rates_oracle(self, i, x, f0, g0)
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
        if vdb < vda - tie or (abs(vdb - vda) <= tie and speed_a < 1e-2):
            return ub, w
    return ua, w


def rk4_oracle(system, x, u, dt, f0, g0):
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


def as_bytes(v):
    """v's bits: arrays with their shape, floats packed, tuples item by item."""
    if isinstance(v, np.ndarray):
        return v.shape, v.dtype.str, v.tobytes()
    if isinstance(v, float):
        return struct.pack("<d", v)
    if isinstance(v, tuple):
        return tuple(map(as_bytes, v))
    return v


def branch(engine, x, i, f0, g0) -> str:
    """Which nominal slide_nominal_oracle gives at x: 'none', the projection
    'ua' or the blend 'ub'."""
    got = slide_nominal_oracle(engine, x, i, f0, g0)
    if got is None:
        return "none"
    _, u2, hd2, _, _ = rates_oracle(engine, i, x, f0, g0)
    return "ua" if as_bytes(got[0]) == as_bytes(u2 - hd2 * got[1]) else "ub"


def assert_engine_matches(engine, x, u, dts=(1e-3,), f0=None) -> list[str]:
    """Every law and stage of engine at x, with input u for the RK4 step and
    f0 for f(x) when given, equals its oracle bit for bit; returns the slide
    branch per obstacle."""
    ctrl, cert, system = engine.ctrl, engine.cert, engine.system
    branches = []
    with np.errstate(all="ignore"):
        xs = x.tolist()
        f0, g0 = np.asarray(system.f(xs), float) if f0 is None else f0, system.g(xs)
        assert as_bytes(ctrl.kappa2(x, f0, g0)) == as_bytes(kappa2_oracle(ctrl, x, f0, g0)), x
        for i in range(cert.n_obstacles):
            for got, want in ((ctrl.kappa1(i, x, f0, g0), kappa1_oracle(ctrl, i, x, f0, g0)),
                              (engine._rates(i, x, f0, g0), rates_oracle(engine, i, x, f0, g0)),
                              (engine._slide_nominal(x, i, f0, g0),
                               slide_nominal_oracle(engine, x, i, f0, g0))):
                assert as_bytes(got) == as_bytes(want), (i, x)
            branches.append(branch(engine, x, i, f0, g0))
        for dt in dts:
            assert as_bytes(_rk4(system, x, u, dt, f0, g0)) == as_bytes(
                rk4_oracle(system, x, u, dt, f0, g0)), (dt, x, u)
    return branches


def engine_for(config, system=None) -> _Engine:
    return _Engine(config if system is None else with_system(config, system))


def random_rows(rng, config, count):
    box = np.asarray(config.state_box)
    return rng.uniform(box[:, 0], box[:, 1], size=(count, config.n))


def dense_state_g_config(cfg_3d) -> ScenarioConfig:
    """cfg_3d's ball on xdot = -x + g(x) u with n = 3, m = 2 and a dense g
    that changes with x: the loops over states and over inputs differ in
    length, and every RK4 stage forms its own g u."""

    def g(x):
        x1, x2, x3 = x
        return np.array([[1.0 + 0.1 * x2, 0.3], [math.sin(x1), 1.0 - 0.05 * x1 * x3],
                         [0.2 * x3, -0.7]])

    system = ControlAffineSystem("dense_state_g3", 3, 2, lambda x: [-a for a in x], g)
    params = (ObstacleParams.resolve(cfg_3d.obstacles[0], eta1=9.0, c1=[10.0, 20.0], w=1.0),)
    return with_system(dataclasses.replace(cfg_3d, params=params), system)


@pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three", "linear3d",
                                  "dense_state_g3"])
def test_random_states_match_oracles(name, cfg_3d):
    if name == "linear3d":
        config = cfg_3d
    elif name == "dense_state_g3":
        config = dense_state_g_config(cfg_3d)
    else:
        config = builtin_scenario(name)
    engine = engine_for(config)
    rng = np.random.default_rng(16)
    branches = []
    for x in random_rows(rng, config, 400):
        u = rng.normal(scale=20.0, size=engine.system.m)
        branches += assert_engine_matches(engine, x, u, dts=(1e-3, 2.5e-4, rng.uniform(0, 0.1)))
    # the projected nominal and the tangency exit are both exercised
    assert {"none", "ua"} <= set(branches)


def test_fixture_slide_states_match_oracles(cfg_a, cfg_b, records_a, records_b):
    """The states where the fixture runs are in the band or slide; the
    head-on starts of linear2d_single slide on the blend."""
    branches = []
    for config, records in ((cfg_a, records_a), (cfg_b, records_b)):
        engine = engine_for(config)
        for rec in records.values():
            band = [k for k, law in enumerate(rec.law) if law.startswith("K3")]
            for k in band[::max(1, len(band) // 40)]:
                branches += assert_engine_matches(engine, rec.x[k], rec.u[k])
    assert {"none", "ua", "ub"} <= set(branches)


def dense_g_system(name: str, g_const: np.ndarray) -> ControlAffineSystem:
    return ControlAffineSystem(name, 2, 2, lambda x: [-a for a in x], lambda x: g_const)


nan, inf = math.nan, math.inf
NON_FINITE_F0 = ([nan, 0.0], [inf, -inf], [1e308, 1e308])


def edge_rows(config) -> list[np.ndarray]:
    """States of linear2d_single where a channel sits at or below TOL_G, Bg
    or Lg vanishes, or the state is non-finite or extreme."""
    (c1, c2), e1 = config.obstacles[0].center, config.params[0].eta1
    tiny = 0.4 * TOL_G / (2.0 * e1)    # |Bg_1| = 0.4 TOL_G on linear2d
    rows = [(c1, 4.5), (c1 + tiny, 4.5), (c1 - tiny, -1.0), (3.0, c2 + tiny),
            (c1 + 2.5 * tiny, 4.5), (c1 + 0.5, c2 + 2.5),
            (c1, c2),                           # grad B = 0: Bg vanishes
            (0.0, 0.0), (tiny, -tiny),          # Lg vanishes
            (nan, 1.0), (inf, 2.0), (-inf, inf), (1e200, 1e200), (1e-320, 3.0)]
    return list(map(np.array, rows))


@pytest.mark.parametrize("system", [
    None,
    # input 2 drives nothing: Bg_2 and Lg_2 are 0, channel 2 inactive
    dense_g_system("vanished_channel", np.array([[1.0, 0.0], [0.0, 0.0]])),
    dense_g_system("dense_g", np.array([[1.0, 0.4], [-0.3, 0.8]])),
    # at x = c + (0.5, 2.5), grad B = (-9, -45) and Bg_1 = -TOL_G exactly: inactive
    dense_g_system("channel_at_tol_g", np.array([[TOL_G / 9.0, 0.0], [0.0, 1.0]])),
], ids=["linear2d", "vanished_channel", "dense_g", "channel_at_tol_g"])
def test_edge_rows_match_oracles(system):
    config = builtin_scenario("linear2d_single")
    engine = engine_for(config, system)
    for x in edge_rows(config):
        assert_engine_matches(engine, x, np.array([1.5, -2.0]), dts=(1e-3, 0.5))
    # non-finite f0 and u as well
    for f0 in NON_FINITE_F0:
        assert_engine_matches(engine, np.array([3.0, 4.0]), np.array([nan, 1.0]),
                              f0=np.array(f0))


def test_array_f_gives_list_f_bytes_on_edge_rows():
    """_rk4 takes an ndarray from f as Python floats, so an f returning
    np.asarray(x) * -1.0 gives the builtin list f's bytes, NaN sign bits included."""
    config = builtin_scenario("linear2d_single")
    listed = engine_for(config).system
    arrayed = ControlAffineSystem("linear2d_array_f", 2, 2, lambda x: np.asarray(x) * -1.0,
                                  listed.g)
    cases = [(x, np.array([1.5, -2.0]), fg_at(listed, x)) for x in edge_rows(config)]
    cases += [(np.array([3.0, 4.0]), np.array([nan, 1.0]), (np.array(f0), np.eye(2)))
              for f0 in NON_FINITE_F0]
    with np.errstate(all="ignore"):
        for x, u, (f0, g0) in cases:
            for dt in (1e-3, 0.5):
                assert as_bytes(_rk4(arrayed, x, u, dt, f0, g0)) == as_bytes(
                    _rk4(listed, x, u, dt, f0, g0)), (x, u, f0, dt)


def test_kappa1_reads_c1_at_call_time():
    ctrl = Controller(builtin_scenario("linear2d_single"))
    x = np.array([2.0, 3.2])
    before = ctrl.kappa1(0, x)
    ctrl.c1[0] = 2.0 * ctrl.c1[0]
    after = ctrl.kappa1(0, x)
    assert after.tobytes() == kappa1_oracle(ctrl, 0, x, -x, np.eye(2)).tobytes()
    assert after.tobytes() != before.tobytes()


def test_fresh_g_array_per_call_reproduces_pinned_trajectories(cfg_a):
    """A linear2d whose g returns a new identity each call takes _rk4's
    per-stage g.dot(u) branch and gives the pinned trajectories."""
    fresh = ControlAffineSystem("linear2d_fresh_g", 2, 2, lambda x: [-a for a in x],
                                lambda x: np.eye(2))
    config = with_system(cfg_a, fresh)
    for x0 in ((5.0, 5.0), (4.0, 4.0)):
        text = trajectory_csv_text(simulate(config, np.array(x0)))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CSV_A[x0], x0


@pytest.mark.parametrize("f", [lambda x: -np.asarray(x), lambda x: tuple(-a for a in x)],
                         ids=["array", "tuple"])
def test_f_sequence_forms_reproduce_pinned_trajectories(cfg_a, f):
    """f may return any 1-D sequence: a linear2d whose f returns an array or
    a tuple gives the bytes of the builtin's list f."""
    eye = np.eye(2)
    config = with_system(cfg_a, ControlAffineSystem("linear2d_seq_f", 2, 2, f, lambda x: eye))
    for x0 in ((5.0, 5.0), (4.0, 4.0)):
        text = trajectory_csv_text(simulate(config, np.array(x0)))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CSV_A[x0], x0


def test_state_dependent_g_matches_oracle_rk4():
    calls = []

    def g(x):
        calls.append(x)
        x1, x2 = x
        return np.array([[1.0 + 0.1 * x2, 0.2], [math.sin(x1), 1.0 - 0.05 * x1 * x2]])

    system = ControlAffineSystem("state_g", 2, 2, lambda x: np.array([x[1], -x[0]]), g)
    config = with_system(builtin_scenario("linear2d_single"), system)
    engine = engine_for(config)
    rng = np.random.default_rng(17)
    for x in random_rows(rng, config, 200):
        assert_engine_matches(engine, x, rng.normal(scale=5.0, size=2),
                              dts=(1e-3, rng.uniform(0, 0.2)))
    # g is evaluated at each of the three inner stages of every step
    x, u = np.array([1.0, 2.0]), np.array([0.5, -0.5])
    f0, g0 = fg_at(system, x)
    calls.clear()
    _rk4(system, x, u, 0.1, f0, g0)
    assert len(calls) == 3 and calls[0] != calls[1] != calls[2]
