"""Shared fixtures: scenario configs and pre-computed simulation batches.

The closed-loop batches are session-scoped because the multi-obstacle runs
take tens of seconds; every test reads from the same records.
"""

from __future__ import annotations

import dataclasses
from collections import namedtuple

import numpy as np
import pytest

from nclbf import builtin_scenario, simulate
from nclbf.scenario import (ControllerGains, IntegratorSettings, ObstacleParams,
                            ObstacleSpec, ScenarioConfig)
from nclbf.systems import ControlAffineSystem, register_system


@pytest.fixture(scope="session")
def cfg_a():
    return builtin_scenario("linear2d_single")


@pytest.fixture(scope="session")
def cfg_b():
    return builtin_scenario("nonlinear_mech_three")


@pytest.fixture(scope="session")
def cfg_3d():
    """Fully actuated xdot = -x + u in R^3 with one admissible ball."""
    eye = np.eye(3)
    register_system("linear3d",
                    lambda: ControlAffineSystem("linear3d", 3, 3, lambda x: -x, lambda x: eye))
    ob = ObstacleSpec(center=np.array([2.0, 2.0, 1.0]), radius_sq=1.0)
    pa = ObstacleParams.resolve(ob, eta1=9.0, c1=[10.0, 20.0, 30.0], w=1.0)
    return ScenarioConfig(system_id="linear3d", state_box=np.array([[-5.0, 5.0]] * 3),
                          obstacles=(ob,), params=(pa,), gains=ControllerGains(0.1),
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


def zero_gain(config):
    """config with obstacle 1's c1 set to zeros after validation, which
    rejects zero gains; the controller reads c1 from the config."""
    pa = dataclasses.replace(config.params[0])
    object.__setattr__(pa, "c1", np.zeros_like(pa.c1))
    return dataclasses.replace(config, params=(pa,) + config.params[1:])


Row = namedtuple("Row", "t x u V region law min_dist")


def rows(record) -> list[Row]:
    """The record's samples one row at a time, for the per-sample oracles."""
    return [Row(*r) for r in zip(record.t.tolist(), record.x, record.u, record.V.tolist(),
                                 record.region, record.law, record.min_dist)]


def doctored_record(record, config, k: int = 100):
    """record with sample k moved onto obstacle 1's centre, inside the ball."""
    from nclbf.certificate import Certificate, RegionLabel
    cert = Certificate(config)
    inside = np.array(config.obstacles[0].center)
    x, V, md = record.x.copy(), record.V.copy(), record.min_dist.copy()
    x[k], V[k], md[k] = inside, cert.V(inside), cert.min_dists(inside)
    region, law = list(record.region), list(record.law)
    region[k], law[k] = RegionLabel("UNSAFE", 0), "-"
    return dataclasses.replace(record, x=x, V=V, min_dist=md, region=tuple(region),
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
