"""Feedback laws: mu helpers, kappa closed-loop identities, dispatch."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nclbf.certificate import RegionLabel
from nclbf.controller import (MemoryStateError, RegionMemory,
                              SafetyViolationError, make_controller, mu, mu_bar)
from nclbf.scenario import builtin_scenario


@pytest.fixture(scope="module")
def ctrl_a():
    return make_controller(builtin_scenario("linear2d_single"))


@pytest.fixture(scope="module")
def ctrl_b():
    return make_controller(builtin_scenario("nonlinear_mech_three"))


def dispatch(ctrl, x, memory):
    """Classify x with the scenario's band, then dispatch on that region."""
    return ctrl.dispatch(ctrl.cert.classify(x, ctrl.eps_band), x, memory)


class TestMu:
    def test_examples(self):
        assert np.allclose(mu(np.array([2.0, 0.0])), [0.5, 0.0])
        assert np.allclose(mu(np.array([0.0, -21.6])), [0.0, -1.0 / 21.6])

    def test_unit_pairing_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            y = rng.normal(size=rng.integers(1, 5))
            if np.linalg.norm(y) < 1e-9:
                continue
            assert float(y @ mu(y)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroDivisionError):
            mu(np.zeros(3))


class TestMuBar:
    def test_masked_component(self):
        vec, active = mu_bar(np.array([0.0, -21.6]), tol=1e-9)
        assert np.allclose(vec, [0.0, -1.0 / 21.6])
        assert list(active) == [False, True]

    def test_all_active(self):
        vec, active = mu_bar(np.array([4.0, 2.0]), tol=1e-9)
        assert np.allclose(vec, [0.25, 0.5])
        assert active.all()

    def test_tolerance_masking(self):
        vec, active = mu_bar(np.array([1e-12, 1.0]), tol=1e-9)
        assert np.allclose(vec, [0.0, 1.0])
        assert list(active) == [False, True]


class TestKappa1:
    def test_barrier_side_example(self, ctrl_a):
        # B_f = 69.12, B_g = (0, -21.6), second input channel active only
        x = np.array([2.0, 3.2])
        u = ctrl_a.kappa1(0, x)
        assert u[0] == pytest.approx(0.0, abs=1e-12)
        assert u[1] == pytest.approx(3.2 + 20.0 * 14.24 / 21.6, rel=1e-12)
        assert u[1] == pytest.approx(16.385, abs=1e-3)

    def test_closed_loop_identity_at_example(self, ctrl_a):
        x = np.array([2.0, 3.2])
        u = ctrl_a.kappa1(0, x)
        cert = ctrl_a.cert
        d = float(cert.grad_B(0, x) @ (ctrl_a.system.f(x) + ctrl_a.system.g(x) @ u))
        # only the second channel is active, so the sum of active gains is 20
        assert d == pytest.approx(-20.0 * 14.24, rel=1e-9)

    def test_vanishing_gradient_returns_zero(self, ctrl_a):
        assert np.array_equal(ctrl_a.kappa1(0, np.array([2.0, 2.0])), np.zeros(2))

    def test_identity_randomized_all_channels_active(self, ctrl_a):
        rng = np.random.default_rng(13)
        cert = ctrl_a.cert
        count = 0
        while count < 1000:
            x = rng.uniform(-5, 5, size=2)
            lab = cert.classify(x, 1e-3)
            Bg = cert.grad_B(0, x) @ ctrl_a.system.g(x)
            if lab != RegionLabel("R1", 0) or np.any(np.abs(Bg) <= 1e-6):
                continue
            count += 1
            u = ctrl_a.kappa1(0, x)
            d = float(cert.grad_B(0, x) @ (ctrl_a.system.f(x) + ctrl_a.system.g(x) @ u))
            assert d == pytest.approx(-30.0 * cert.L(x), rel=1e-9)


class TestKappa2:
    def test_sontag_example(self, ctrl_a):
        # the closed-loop oracle: L_f + L_g u = -sqrt(L_f^2 + gamma ||L_g||^4)
        x = np.array([1.0, 0.0])
        u = ctrl_a.kappa2(x)
        assert np.allclose(u, [-( -2.0 + math.sqrt(5.6)) * 0.5, 0.0], rtol=1e-12)
        d = float(2.0 * x @ (ctrl_a.system.f(x) + ctrl_a.system.g(x) @ u))
        assert d == pytest.approx(-math.sqrt(5.6), rel=1e-12)
        assert d == pytest.approx(-2.3664, abs=1e-4)

    def test_origin_returns_zero(self, ctrl_a):
        assert np.array_equal(ctrl_a.kappa2(np.zeros(2)), np.zeros(2))

    def test_strictly_negative_closed_loop_randomized(self, ctrl_a):
        rng = np.random.default_rng(17)
        for _ in range(500):
            x = rng.uniform(-5, 5, size=2)
            if np.linalg.norm(x) < 1e-6:
                continue
            u = ctrl_a.kappa2(x)
            d = float(2.0 * x @ (ctrl_a.system.f(x) + ctrl_a.system.g(x) @ u))
            assert d < 0.0
            assert d <= -math.sqrt(0.1) * float((2 * x) @ (2 * x)) + 1e-9


class TestKappa3:
    def test_memory_dispatch(self, ctrl_a):
        x = np.array([2.0, 3.5])  # on the barrier side near the band
        from_r1 = ctrl_a.kappa3(0, x, RegionMemory(RegionLabel("R1", 0)))
        from_r2 = ctrl_a.kappa3(0, x, RegionMemory(RegionLabel("R2")))
        from_r3 = ctrl_a.kappa3(0, x, RegionMemory(RegionLabel("R3", 0)))
        assert np.array_equal(from_r1, ctrl_a.kappa1(0, x))
        assert np.array_equal(from_r2, ctrl_a.kappa2(x))
        assert np.array_equal(from_r3, ctrl_a.kappa2(x))

    def test_cross_obstacle_memory_falls_back_to_stabilizer(self, ctrl_b):
        x = np.array([2.0, 0.9])
        assert np.array_equal(
            ctrl_b.kappa3(0, x, RegionMemory(RegionLabel("R1", 2))),
            ctrl_b.kappa2(x))

    def test_unsafe_memory_rejected(self, ctrl_a):
        with pytest.raises(MemoryStateError):
            ctrl_a.kappa3(0, np.array([2.0, 3.5]), RegionMemory(RegionLabel("UNSAFE", 0)))


class TestControlDispatch:
    def test_stabilizer_region(self, ctrl_a):
        dec = dispatch(ctrl_a, np.array([5.0, 5.0]), RegionMemory(RegionLabel("R2")))
        assert dec.law == "K2" and dec.region == RegionLabel("R2")

    def test_barrier_region(self, ctrl_a):
        dec = dispatch(ctrl_a, np.array([2.0, 3.5]), RegionMemory(RegionLabel("R2")))
        assert dec.law == "K1:1" and dec.region == RegionLabel("R1", 0)

    def test_multi_obstacle_far_field(self, ctrl_b):
        dec = dispatch(ctrl_b, np.array([-5.0, 0.0]), RegionMemory(RegionLabel("R2")))
        assert dec.law == "K2"

    def test_band_law_tags(self, ctrl_a):
        cert = ctrl_a.cert
        sph = cert.boundary_sphere(0)
        x = sph.center + sph.radius * np.array([math.cos(1.0), math.sin(1.0)])
        dec = dispatch(ctrl_a, x, RegionMemory(RegionLabel("R1", 0)))
        assert dec.law == "K3:1>K1"
        dec = dispatch(ctrl_a, x, RegionMemory(RegionLabel("R2")))
        assert dec.law == "K3:1>K2"

    def test_unsafe_state_raises(self, ctrl_a):
        with pytest.raises(SafetyViolationError):
            dispatch(ctrl_a, np.array([2.0, 2.0]), RegionMemory(RegionLabel("R2")))

    def test_law_matches_region_randomized(self, ctrl_b):
        rng = np.random.default_rng(29)
        mem = RegionMemory(RegionLabel("R2"))
        for _ in range(500):
            x = rng.uniform(-5, 5, size=2)
            lab = ctrl_b.cert.classify(x, 1e-3)
            if lab.kind == "UNSAFE":
                continue
            dec = dispatch(ctrl_b, x, mem)
            assert dec.region == lab
            assert dec.law.startswith({"R1": "K1", "R2": "K2", "R3": "K3"}[lab.kind])
            assert dec.u.shape == (ctrl_b.system.m,)
