"""Feedback laws: the mu oracles, kappa closed-loop identities, dispatch."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import closed_loop_slow_eigenvalue
# the array helpers kappa1 was written with, kept as parts of its oracle
from test_engine_oracle import mu, mu_bar
from nclbf.certificate import R1, R2, R3, UNSAFE
from nclbf.controller import (Controller, MemoryStateError, SafetyViolationError,
                              control_terms)
from nclbf.scenario import builtin_scenario


@pytest.fixture(scope="module")
def ctrl_a():
    return Controller(builtin_scenario("linear2d_single"))


@pytest.fixture(scope="module")
def ctrl_b():
    return Controller(builtin_scenario("nonlinear_mech_three"))


def dispatch(ctrl, x, prev):
    """Classify x with the scenario's band, then dispatch on that region."""
    return ctrl.dispatch(ctrl.cert.classify(x), x, prev)


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
        vec, active = mu_bar(np.array([0.0, -21.6]))
        assert np.allclose(vec, [0.0, -1.0 / 21.6])
        assert list(active) == [False, True]

    def test_all_active(self):
        vec, active = mu_bar(np.array([4.0, 2.0]))
        assert np.allclose(vec, [0.25, 0.5])
        assert active.all()

    def test_tolerance_masking(self):
        vec, active = mu_bar(np.array([1e-12, 1.0]))
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
            lab = cert.classify(x)
            Bg = cert.grad_B(0, x) @ ctrl_a.system.g(x)
            if lab != (R1, 0) or np.any(np.abs(Bg) <= 1e-6):
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

    def test_mech_law_ignores_x1(self, ctrl_b):
        # L = ||x||^2 and g = (0, 1): the x1 terms of L_f cancel and L_g = 2 x2,
        # so the law sees x2 alone and can add damping but no position feedback
        rng = np.random.default_rng(5)
        for _ in range(2000):
            x1a, x1b, x2 = rng.uniform(-5, 5, size=3)
            ua = ctrl_b.kappa2(np.array([x1a, x2]))
            ub = ctrl_b.kappa2(np.array([x1b, x2]))
            assert ua[0] == pytest.approx(ub[0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 5.0, 100.0])
    def test_mech_slow_mode_has_no_gain_to_speed_it_up(self, gamma):
        # Near the origin the R2 loop is x1'' + c x1' + x1 = 0 with
        # c = 11 + (sqrt(484 + 16 gamma) - 22)/2 >= 11, so its slow root never
        # passes (-11 + sqrt(117))/2 = -0.09167 whatever gamma is.
        cfg = builtin_scenario("nonlinear_mech_three")
        ctrl = Controller(dataclasses.replace(cfg, gamma=gamma))
        lam = closed_loop_slow_eigenvalue(ctrl)
        c = 11.0 + (math.sqrt(484.0 + 16.0 * gamma) - 22.0) / 2.0
        assert lam == pytest.approx((-c + math.sqrt(c * c - 4.0)) / 2.0, rel=1e-4)
        assert -0.0917 <= lam < 0.0


class TestKappa3:
    def test_memory_dispatch(self, ctrl_a):
        x = np.array([2.0, 3.5])  # on the barrier side near the band
        from_r1 = ctrl_a.kappa3(0, x, (R1, 0))
        from_r2 = ctrl_a.kappa3(0, x, (R2, -1))
        from_r3 = ctrl_a.kappa3(0, x, (R3, 0))
        assert np.array_equal(from_r1, ctrl_a.kappa1(0, x))
        assert np.array_equal(from_r2, ctrl_a.kappa2(x))
        assert np.array_equal(from_r3, ctrl_a.kappa2(x))

    def test_cross_obstacle_memory_falls_back_to_stabilizer(self, ctrl_b):
        x = np.array([2.0, 0.9])
        assert np.array_equal(
            ctrl_b.kappa3(0, x, (R1, 2)),
            ctrl_b.kappa2(x))

    def test_unsafe_memory_rejected(self, ctrl_a):
        with pytest.raises(MemoryStateError):
            ctrl_a.kappa3(0, np.array([2.0, 3.5]), (UNSAFE, 0))


class TestControlDispatch:
    def test_stabilizer_region(self, ctrl_a):
        assert dispatch(ctrl_a, np.array([5.0, 5.0]), (R2, -1))[1] == "K2"

    def test_barrier_region(self, ctrl_a):
        assert dispatch(ctrl_a, np.array([2.0, 3.5]), (R2, -1))[1] == "K1:1"

    def test_multi_obstacle_far_field(self, ctrl_b):
        assert dispatch(ctrl_b, np.array([-5.0, 0.0]), (R2, -1))[1] == "K2"

    def test_band_law_tags(self, ctrl_a):
        cert = ctrl_a.cert
        cbar, rbar_sq = cert.boundary_sphere(0)
        x = cbar + math.sqrt(rbar_sq) * np.array([math.cos(1.0), math.sin(1.0)])
        assert dispatch(ctrl_a, x, (R1, 0))[1] == "K3:1>K1"
        assert dispatch(ctrl_a, x, (R2, -1))[1] == "K3:1>K2"

    def test_unsafe_state_raises(self, ctrl_a):
        with pytest.raises(SafetyViolationError):
            dispatch(ctrl_a, np.array([2.0, 2.0]), (R2, -1))

    def test_law_matches_region_randomized(self, ctrl_b):
        rng = np.random.default_rng(29)
        prev = (R2, -1)
        for _ in range(500):
            x = rng.uniform(-5, 5, size=2)
            kind, _ = ctrl_b.cert.classify(x)
            if kind == UNSAFE:
                continue
            u, law = dispatch(ctrl_b, x, prev)
            assert law.startswith({R1: "K1", R2: "K2", R3: "K3"}[kind])
            assert u.shape == (ctrl_b.system.m,)


def kappa1_rows(ctrl, i, X, F, G):
    """kappa1 for every row from the barrier side's control_terms, as the
    grid check composes it."""
    return ctrl.kappa1_terms(i, X, *control_terms(ctrl.cert.grad_B(i, X), F, G))[0]


def kappa2_rows(ctrl, X, F, G):
    return ctrl.kappa2_terms(X, *control_terms(ctrl.cert.grad_L(X), F, G))[0]


class TestRowBatchedLaws:
    """kappa1_terms/kappa2_terms on control_terms against kappa1/kappa2, bit for bit."""

    @staticmethod
    def rows(ctrl, rng):
        # random states plus states where a control channel vanishes or one
        # component of grad B . g is zero: the origin, the obstacle centers,
        # and the coordinate lines through the centers
        n = ctrl.system.n
        X = [rng.uniform(-5, 5, size=(2000, n)), np.zeros((1, n)), ctrl.cert.centers]
        for c in ctrl.cert.centers:
            for j in range(n):
                Y = rng.uniform(-5, 5, size=(50, n))
                Y[:, j] = c[j]
                X.append(Y)
        return np.concatenate(X)

    @pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three", "3d"])
    def test_laws_match_scalar_forms(self, name, cfg_3d):
        ctrl = Controller(cfg_3d if name == "3d" else builtin_scenario(name))
        X = self.rows(ctrl, np.random.default_rng(53))
        F, G = ctrl.system.fg_rows(X)
        U2 = kappa2_rows(ctrl, X, F, G)
        assert not U2[2000].any() and U2.any()   # row 2000 is the origin
        for i in range(ctrl.cert.n_obstacles):
            U1 = kappa1_rows(ctrl, i, X, F, G)
            for k, x in enumerate(X):
                assert U1[k].tobytes() == ctrl.kappa1(i, x).tobytes(), (i, x)
        for k, x in enumerate(X):
            assert U2[k].tobytes() == ctrl.kappa2(x).tobytes(), x
        index = np.random.default_rng(57).integers(ctrl.cert.n_obstacles, size=len(X))
        U1 = kappa1_rows(ctrl, index, X, F, G)
        for k, (i, x) in enumerate(zip(index.tolist(), X)):
            assert U1[k].tobytes() == ctrl.kappa1(i, x).tobytes(), (i, x)

    def test_gains_read_at_call_time(self):
        ctrl = Controller(builtin_scenario("linear2d_single"))
        X = np.random.default_rng(59).uniform(-5, 5, size=(100, 2))
        F, G = ctrl.system.fg_rows(X)
        before = kappa1_rows(ctrl, 0, X, F, G)
        ctrl.c1[0] = np.zeros(2)
        after = kappa1_rows(ctrl, 0, X, F, G)
        assert not np.array_equal(before, after)
        assert all(after[k].tobytes() == ctrl.kappa1(0, x).tobytes()
                   for k, x in enumerate(X))
        assert np.array_equal(kappa1_rows(ctrl, np.zeros(len(X), dtype=int), X, F, G), after)
