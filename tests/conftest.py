"""Shared fixtures: scenario configs and pre-computed simulation batches.

The closed-loop batches are session-scoped because the multi-obstacle runs
take tens of seconds; every test reads from the same records.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple

import numpy as np
import pytest

from nclbf import builtin_scenario, simulate
from nclbf.certificate import UNSAFE, Certificate
from nclbf.scenario import IntegratorSettings, ObstacleParams, ObstacleSpec, ScenarioConfig
from nclbf.systems import ControlAffineSystem, linear_system, register_system


@pytest.fixture(scope="session")
def cfg_a():
    return builtin_scenario("linear2d_single")


@pytest.fixture(scope="session")
def cfg_b():
    return builtin_scenario("nonlinear_mech_three")


@pytest.fixture(scope="session")
def cfg_3d():
    """Fully actuated xdot = -x + u in R^3 with one admissible ball, a
    linear_system as linear2d is."""
    register_system("linear3d", lambda: linear_system("linear3d", [-1.0] * 3, np.eye(3)))
    ob = ObstacleSpec(center=np.array([2.0, 2.0, 1.0]), radius_sq=1.0)
    pa = ObstacleParams.resolve(ob, eta1=9.0, c1=[10.0, 20.0, 30.0], w=1.0)
    return ScenarioConfig(system_id="linear3d", state_box=np.array([[-5.0, 5.0]] * 3),
                          obstacles=(ob,), params=(pa,), gamma=0.1,
                          integrator=IntegratorSettings(dt=1e-3, t_max=20.0),
                          initial_states=(np.array([4.0, 4.0, 2.0]),))


def closed_loop_slow_eigenvalue(ctrl, h: float = 1e-6) -> float:
    """Slowest eigenvalue of x -> f(x) + g(x) kappa2(x) linearized at the origin.

    Central-difference Jacobian with step h; no simulation.  This is the R2
    closed loop, the one every run ends in, so its slow mode sets how fast
    ||x|| can fall near the origin.
    """
    sys_ = ctrl.system

    def field(x):
        return sys_.f(x) + sys_.g(x).dot(ctrl.kappa2(x))

    jac = np.empty((sys_.n, sys_.n))
    for j in range(sys_.n):
        e = np.zeros(sys_.n)
        e[j] = h
        jac[:, j] = (field(e) - field(-e)) / (2.0 * h)
    return float(np.linalg.eigvals(jac).real.max())


def with_system(config, system):
    """config pointed at system, registered under system.name: the one way
    to run the entry points on a system of a test's own."""
    register_system(system.name, lambda: system)
    return dataclasses.replace(config, system_id=system.name)


def spy_system(system):
    """system without fg_rows, named system.name + '_spy', whose f and g
    assert that they get the state as a list of n Python floats and count
    their calls: returns (spy, {"f": calls, "g": calls})."""
    calls = {"f": 0, "g": 0}

    def checked(key, fn):
        def wrapper(x):
            assert type(x) is list and len(x) == system.n, (key, x)
            assert all(type(a) is float for a in x), (key, x)
            calls[key] += 1
            return fn(x)
        return wrapper

    spy = ControlAffineSystem(f"{system.name}_spy", system.n, system.m,
                              checked("f", system.f), checked("g", system.g))
    return spy, calls


def nan_f_system(gain: float):
    """f = -x, NaN where x1 > 4.9 (the x1 = 5 column of an 11^2 grid over
    [-5, 5]^2), and g = gain * I: every channel live (1) or none (0)."""
    return ControlAffineSystem(f"nan_f_{gain:g}", 2, 2,
                               lambda x: [-a * (math.nan if x[0] > 4.9 else 1.0) for a in x],
                               lambda x: gain * np.eye(2))


def zero_gain(config):
    """config with obstacle 1's c1 set to zeros after validation, which
    rejects zero gains; the controller reads c1 from the config."""
    pa = dataclasses.replace(config.params[0])
    object.__setattr__(pa, "c1", np.zeros_like(pa.c1))
    return dataclasses.replace(config, params=(pa,) + config.params[1:])


Row = namedtuple("Row", "t x u V region law min_dist")


def rows(record) -> list[Row]:
    """The record's samples one row at a time, for the per-sample oracles;
    region is the row's (kind, index) as Python ints."""
    region = zip(record.kind.tolist(), record.index.tolist())
    return [Row(*r) for r in zip(record.t.tolist(), record.x, record.u, record.V.tolist(),
                                 region, record.law, record.min_dist)]


def doctored_record(record, config, k: int = 100):
    """record with sample k moved onto obstacle 1's centre, inside the ball."""
    cert = Certificate(config)
    inside = np.array(config.obstacles[0].center)
    x, V, md = record.x.copy(), record.V.copy(), record.min_dist.copy()
    kind, index = record.kind.copy(), record.index.copy()
    x[k], V[k] = inside, cert.V(inside)
    md[k] = np.sqrt(cert.dominant_gap(inside)[2]) - cert.radii
    kind[k], index[k] = UNSAFE, 0
    law = list(record.law)
    law[k] = "-"
    return dataclasses.replace(record, x=x, V=V, min_dist=md, kind=kind, index=index,
                               law=tuple(law))


# the five published starts plus the three below-band starts
EXTRA_A_STARTS = ((0.2, 0.8), (0.55, 0.55), (0.8, 0.2))


@pytest.fixture(scope="session")
def records_a(cfg_a):
    """x0 -> TrajectoryRecord for the eight single-obstacle starts."""
    starts = [tuple(map(float, x)) for x in cfg_a.initial_states] + list(EXTRA_A_STARTS)
    return {x0: simulate(cfg_a, np.array(x0)) for x0 in starts}


@pytest.fixture(scope="session")
def records_b(cfg_b):
    """x0 -> TrajectoryRecord for the eight multi-obstacle starts (t_max=60)."""
    return {tuple(map(float, x0)): simulate(cfg_b, np.asarray(x0))
            for x0 in cfg_b.initial_states}
