"""Properties of the certificate's clear ball: every state the engine's test
||x||^2 < clear_sq takes is labelled (R2, -1) by the full obstacle pass, with
h < -eps_band and every dd_j >= radius_sq_j, on the builtins, on ``cfg_3d``
and on drawn designs (valid or not, eps_band down to 1e-12); skipped where
hypothesis is not installed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from nclbf import builtin_scenario
from nclbf.certificate import R2, Certificate
from nclbf.scenario import IntegratorSettings, ObstacleParams, ObstacleSpec, ScenarioConfig
from nclbf.simulator import _Engine


pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# radial fractions of rho: anywhere inside, and within 1e-9 relative of the edge
fraction = st.one_of(st.floats(0.0, 1.0), st.floats(1.0 - 1e-9, 1.0),
                     st.sampled_from([0.0, 1.0]))


def states_in_ball(n: int):
    """(direction, fraction): x = fraction * rho * direction / ||direction||."""
    return st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), fraction)


def assert_clear_state(config, direction, frac):
    """If the engine's test L < clear_sq takes x, the full pass labels x
    (R2, -1) with h < -eps_band and every dd_j >= radius_sq_j."""
    eng = _Engine(config) if config.system_id != "none" else None
    cert = Certificate(config)
    clear_sq = cert.clear_radius ** 2
    d = np.array(direction)
    norm = math.sqrt(float(d @ d))
    assume(norm > 1e-6)
    x = (d * (frac * cert.clear_radius / norm)).tolist()
    i, h, dds, L = cert.dominant_gap_L(x)
    if eng is not None:
        assert (eng._gap(x)[2] is None) == (L < clear_sq)
    if not L < clear_sq:
        return
    assert cert.label(i, h, dds) == (R2, -1)
    assert h < -cert.eps_band
    assert all(dd >= rsq for dd, rsq in zip(dds, cert._radii_sq))


@pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three", "3d"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ball_is_clear_on_fixed_designs(name, cfg_3d, data):
    config = cfg_3d if name == "3d" else builtin_scenario(name)
    assert_clear_state(config, *data.draw(states_in_ball(config.n)))


@st.composite
def designs(draw):
    """1-3 obstacles in R^2 or R^3 with any positive eta1, eta2 (valid
    designs or not) and eps_band down to 1e-12; system_id 'none', as only
    the certificate is built."""
    n = draw(st.sampled_from([2, 3]))
    obstacles, params = [], []
    for _ in range(draw(st.integers(1, 3))):
        c = np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=n, max_size=n)))
        cc = float(c @ c)
        assume(cc > 1e-2)
        eta1 = draw(st.floats(0.1, 40.0))
        obstacles.append(ObstacleSpec(center=c, radius_sq=draw(st.floats(1e-3, 0.95)) * cc))
        params.append(ObstacleParams(eta1=eta1, eta2=draw(st.floats(1e-3, 1.2)) * eta1 * cc,
                                     c1=np.ones(1)))
    eps = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.1]))
    return ScenarioConfig("none", np.array([[-5.0, 5.0]] * n), tuple(obstacles),
                          tuple(params), 0.1, IntegratorSettings(eps_band=eps))


@settings(max_examples=400, deadline=None)
@given(config=designs(), data=st.data())
def test_ball_is_clear_on_drawn_designs(config, data):
    cert = Certificate(config)
    origin = [0.0] * config.n
    if cert.label(*cert.dominant_gap(origin)) != (R2, -1):
        # no ball where the origin is not strictly inside R2
        assert cert.clear_radius == 0.0
    assert_clear_state(config, *data.draw(states_in_ball(config.n)))
