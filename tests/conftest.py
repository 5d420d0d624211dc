"""Shared fixtures: scenario configs and pre-computed simulation batches.

The closed-loop batches are session-scoped because the multi-obstacle runs
take tens of seconds; every test reads from the same records.
"""

from __future__ import annotations

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
