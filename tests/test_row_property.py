"""Row evaluators against f and g stacked one row at a time: the builtins',
linear_system's, and the rows a system given none gets from its f and g.

``fg_rows(X)`` must equal the per-row stack of ``f`` and ``g`` bit for bit;
these are ``hypothesis`` properties, skipped where hypothesis is not installed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from nclbf.systems import (ControlAffineSystem, builtin_linear2d, builtin_nonlinear_mech,
                           linear_system)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# signed zeros, the smallest subnormal, tiny and large velocities: the
# damping term's exp and tanh change regime across these; on the box scale
# neither saturates, which is where np.exp/np.tanh would differ in the last bit
EDGE = [s * v for v in (0.0, 5e-324, 1e-300, 1e-3, 1.0, 1e3, 1e5, 1e300) for s in (1.0, -1.0)]
coordinate = st.one_of(st.sampled_from(EDGE), st.floats(-5.0, 5.0), st.floats(-1e300, 1e300))


# x2 columns of grid-shaped blocks: each holds 0.0, -0.0 and NaN, in any order
velocities = st.lists(st.sampled_from(EDGE), max_size=5).flatmap(
    lambda v: st.permutations(v + [0.0, -0.0, math.nan]))


def pointwise_rows(system, X):
    """F (P,n) and G (P,n,m) stacked from f and g one row at a time."""
    return (np.array([system.f(x) for x in X.tolist()]).reshape(len(X), system.n),
            np.array([system.g(x) for x in X.tolist()]).reshape(len(X), system.n, system.m))


def assert_rows_equal_pointwise(system, X):
    F, G = system.fg_rows(X)
    want_F, want_G = pointwise_rows(system, X)
    assert F.dtype == G.dtype == np.float64
    assert F.shape == want_F.shape and F.tobytes() == want_F.tobytes()
    assert G.shape == want_G.shape and np.ascontiguousarray(G).tobytes() == want_G.tobytes()


@pytest.mark.parametrize("factory", [builtin_linear2d, builtin_nonlinear_mech])
@settings(max_examples=200, deadline=None)
@given(X=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=16))
def test_rows_equal_pointwise_bit_for_bit(factory, X):
    assert_rows_equal_pointwise(factory(), np.array(X))


@pytest.mark.parametrize("factory", [builtin_linear2d, builtin_nonlinear_mech])
@settings(max_examples=200, deadline=None)
@example(x1=[0.0], x2=[-0.0, 0.0, math.nan])
@given(x1=st.lists(coordinate, max_size=4).map(lambda v: v + [0.0]), x2=velocities)
def test_grid_blocks_with_repeated_velocities(factory, x1, x2):
    # every x2 repeats across the x1 values, as on a grid; with x1 = 0.0 the
    # row (0.0, 0.0) shows the sign of the damping term at x2 = 0.0
    assert_rows_equal_pointwise(factory(), np.array([(a, b) for a in x1 for b in x2]))


# linear_system's diagonal: -1.0 (linear2d's), 0.0 and any gain up to 2 in size,
# so no product of a coordinate overflows
gain = st.one_of(st.sampled_from([-1.0, 0.0, -0.0]), st.floats(-2.0, 2.0))
B32 = np.array([[1.0, 0.0], [0.5, -2.0], [0.0, 3.0]])


@pytest.mark.parametrize("n, B", [(2, np.eye(2)), (3, np.eye(3)), (3, B32)],
                         ids=["n2-eye", "n3-eye", "n3-3x2"])
@settings(max_examples=100, deadline=None)
@example(a=[-1.0, 0.0, -1.0],
         X=[(math.nan, -0.0, 0.0), (-math.nan, 5e-324, -5.0), (0.0, -0.0, 1e300)])
@given(a=st.lists(gain, min_size=3, max_size=3),
       X=st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=16))
def test_linear_system_rows_equal_pointwise(n, B, a, X):
    # f multiplies as the rows do, so a NaN keeps its sign bit in both
    system = linear_system("linear", a[:n], B)
    assert system.f([1.0] * n) == a[:n] and system.g([0.0] * n) is system.g([1.0] * n)
    assert_rows_equal_pointwise(system, np.array(X)[:, :n])


def rowless():
    """nonlinear_mech's f with a state-dependent g, given no rows."""
    def g(x):
        return np.array([[x[0], 1.0], [0.0, x[1]]])

    return ControlAffineSystem("rowless", 2, 2, builtin_nonlinear_mech().f, g)


@settings(max_examples=100, deadline=None)
@given(X=st.lists(st.tuples(coordinate, coordinate), max_size=16))
def test_built_rows_equal_pointwise(X):
    assert_rows_equal_pointwise(rowless(), np.array(X).reshape(len(X), 2))


def test_built_rows_follow_replaced_f():
    system = rowless()
    moved = dataclasses.replace(system, f=lambda x: [3.0 * x[0], x[1] - 1.0])
    X = np.array([[1.0, 2.0], [-0.5, 0.25]])
    assert np.array_equal(moved.fg_rows(X)[0], [[3.0, 1.0], [-1.5, -0.75]])
    assert np.array_equal(system.fg_rows(X)[0], pointwise_rows(system, X)[0])
    assert_rows_equal_pointwise(moved, X)
