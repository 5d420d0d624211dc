"""Certificate values, region classification, and boundary geometry."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import v_scalar
from nclbf.certificate import R1, R2, R3, UNSAFE, Certificate, region_codes, v_from_gap
from nclbf.scenario import (ObstacleParams, ObstacleSpec, ScenarioError,
                            builtin_scenario, eta1_lower_bound, w_upper_bound)


@pytest.fixture(scope="module")
def cert_a():
    return Certificate(builtin_scenario("linear2d_single"))


@pytest.fixture(scope="module")
def cert_b():
    return Certificate(builtin_scenario("nonlinear_mech_three"))


def B_values(cert, x):
    """Every B_i(x) as one einsum, a spelling independent of the certificate's."""
    d = x - cert.centers
    return cert.eta2 - cert.eta1 * np.einsum("ij,ij->i", d, d)


def in_shrunk_band_oracle(cert, x, i):
    """The shrunk-band test for one point as a scalar expression."""
    return abs(cert.B(i, x) - cert.L(x)) <= cert.eps_band and cert.L(x) < cert.phis[i]


def label_rows_oracle(cert, i, h, dds):
    """label_rows as written with a reduction over the obstacles (any, then
    argmax for the first unsafe index) and boolean indexing."""
    inside = dds < cert.radii_sq
    unsafe = inside.any(axis=1)
    kind = np.full(len(h), R3)
    kind[h > cert.eps_band] = R1
    kind[h < -cert.eps_band] = R2
    index = np.where(kind == R2, -1, i)
    kind[unsafe] = UNSAFE
    index[unsafe] = inside[unsafe].argmax(axis=1)
    return kind, index


def sphere_point(cert, i, theta):
    cbar, rbar_sq = cert.boundary_sphere(i)
    return cbar + math.sqrt(rbar_sq) * np.array([math.cos(theta), math.sin(theta)])


class TestFields:
    def test_L_examples(self, cert_a):
        assert cert_a.L(np.array([0.0, 0.0])) == 0.0
        assert np.array_equal(cert_a.grad_L(np.zeros(2)), np.zeros(2))
        assert cert_a.L(np.array([2.0, 3.2])) == pytest.approx(14.24, rel=1e-12)
        assert np.allclose(cert_a.grad_L(np.array([2.0, 3.2])), [4.0, 6.4])
        assert cert_a.L(np.array([5.0, 5.0])) == 50.0

    def test_B_examples(self, cert_a):
        assert cert_a.B(0, np.array([2.0, 2.0])) == pytest.approx(36.9)
        assert cert_a.B(0, np.array([2.0, 3.2])) == pytest.approx(23.94, rel=1e-12)
        assert cert_a.B(0, np.array([0.0, 0.0])) == pytest.approx(-35.1, rel=1e-12)
        assert np.allclose(cert_a.grad_B(0, np.array([2.0, 3.2])), [0.0, -21.6])

    def test_V_examples(self, cert_a):
        X = np.array([[0.0, 0.0], [2.0, 3.2], [5.0, 5.0]])
        V = v_from_gap(X, cert_a.dominant_gap_rows(X)[1])
        assert V[0] == 0.0 and V[2] == 50.0
        assert V[1] == pytest.approx(23.94, rel=1e-12)
        assert V.tolist() == [v_scalar(cert_a, x) for x in X]


class TestClassify:
    def test_origin_is_stabilizer_region(self, cert_a):
        assert cert_a.classify(np.zeros(2)) == (R2, -1)

    def test_barrier_region_point(self, cert_a):
        # (2, 3.2) sits inside the unsafe ball itself; (2, 3.5) is barrier-side
        assert cert_a.classify(np.array([2.0, 3.5])) == (R1, 0)

    def test_obstacle_center_unsafe(self, cert_a):
        assert cert_a.classify(np.array([2.0, 2.0])) == (UNSAFE, 0)

    def test_point_on_boundary_sphere_is_band(self, cert_a):
        x = sphere_point(cert_a, 0, 1.3)
        assert abs(cert_a.B(0, x) - cert_a.L(x)) < 1e-10
        assert cert_a.classify(x) == (R3, 0)

    def test_partition_with_tiny_band(self, cert_a):
        config = cert_a.config
        cert = Certificate(dataclasses.replace(
            config, integrator=dataclasses.replace(config.integrator, eps_band=1e-12)))
        rng = np.random.default_rng(3)
        counts = dict.fromkeys((R1, R2, R3, UNSAFE), 0)
        for _ in range(4000):
            x = rng.uniform(-5, 5, size=2)
            counts[cert.classify(x)[0]] += 1
        assert counts[R3] == 0  # measure-zero surface is never hit
        assert counts[R1] > 0 and counts[R2] > 0 and counts[UNSAFE] > 0

    def test_codes_round_trip(self):
        # region_codes holds each label_rows pair's code once, at [kind, index + 1]
        codes = region_codes(3)
        pairs = {c: (k, i - 1) for (k, i), c in np.ndenumerate(codes) if c}
        assert len(pairs) == 1 + 3 * 3 and pairs["R2"] == (R2, -1)
        for (k, i), code in (((R2, -1), "R2"), ((R1, 0), "R1:1"),
                             ((R3, 2), "R3:3"), ((UNSAFE, 1), "U:2")):
            assert codes[k, i + 1] == code and pairs[code] == (k, i)


class TestBoundarySphere:
    def test_single_obstacle_sphere(self, cert_a):
        cbar, rbar_sq = cert_a.boundary_sphere(0)
        assert np.allclose(cbar, [1.8, 1.8], atol=1e-12)
        assert rbar_sq == pytest.approx(2.97, rel=1e-12)

    def test_third_multi_obstacle_sphere(self, cert_b):
        cbar, rbar_sq = cert_b.boundary_sphere(2)
        assert np.allclose(cbar, [-36.0 / 19.0, 0.0], atol=1e-12)
        assert rbar_sq == pytest.approx((19 * 27.2 - 18 * 4) / 361, rel=1e-12)
        assert rbar_sq == pytest.approx(1.2322, abs=1e-4)

    def test_arrays_are_the_per_obstacle_expressions(self, cert_b):
        # bit for bit; rbar^2 on Python floats, whose ** 2 rounds unlike numpy's
        for i, (ob, pa) in enumerate(zip(cert_b.config.obstacles, cert_b.config.params)):
            e1 = pa.eta1
            assert cert_b.cbars[i].tolist() == (cert_b.eta1[i] * ob.center
                                                / (1.0 + cert_b.eta1[i])).tolist()
            assert cert_b.rbars_sq[i] == (((1.0 + e1) * pa.eta2 - e1 * ob.center_norm_sq)
                                          / (1.0 + e1) ** 2)

    def test_empty_sphere_error(self, cert_a):
        pa = ObstacleParams(eta1=9.0, eta2=5.0, c1=np.array([1.0, 1.0]))
        cert = Certificate(dataclasses.replace(cert_a.config, params=(pa,)))
        assert cert.rbars_sq[0] < 0
        with pytest.raises(ScenarioError, match="boundary sphere is empty"):
            cert.boundary_sphere(0)

    def test_large_eta1_center_approaches_obstacle_center(self):
        ob = ObstacleSpec(center=np.array([2.0, 2.0]), radius_sq=2.0)
        pa = ObstacleParams.resolve(ob, eta1=1e6, c1=[1.0, 1.0], w=1.0)
        cfg = builtin_scenario("linear2d_single")
        cert = Certificate(dataclasses.replace(cfg, params=(pa,)))
        assert np.allclose(cert.boundary_sphere(0)[0], ob.center, atol=1e-4)

    def test_sphere_identity_b_equals_l(self, cert_a):
        # every point with B = L lies on the sphere, and conversely
        rng = np.random.default_rng(11)
        cbar, rbar_sq = cert_a.boundary_sphere(0)
        for _ in range(300):
            x = sphere_point(cert_a, 0, rng.uniform(0, 2 * math.pi))
            assert abs(cert_a.B(0, x) - cert_a.L(x)) <= 1e-12 * max(1.0, cert_a.L(x))
            assert float((x - cbar) @ (x - cbar)) == pytest.approx(rbar_sq, rel=1e-12)


class TestBufferWidth:
    def test_single_obstacle_value(self, cert_a):
        assert cert_a.buffer_width(0) == pytest.approx(0.3, rel=1e-15)

    def test_radius_identity(self, cert_a):
        ob = cert_a.config.obstacles[0]
        bw = cert_a.buffer_width(0)
        rbar = cert_a.boundary_sphere(0)[1]
        inner = (ob.radius + ob.center_norm / (1 + 9.0)) ** 2
        assert inner + bw * bw == pytest.approx(rbar, rel=1e-12)

    def test_identity_randomized(self):
        rng = np.random.default_rng(23)
        base = builtin_scenario("linear2d_single")
        for _ in range(100):
            d = rng.normal(size=2)
            c = d / np.linalg.norm(d) * rng.uniform(1.5, 4.0)
            r = rng.uniform(0.1, 0.5 * float(c @ c))
            ob = ObstacleSpec(center=c, radius_sq=r)
            eta1 = eta1_lower_bound(ob) * rng.uniform(1.05, 3.0)
            w = w_upper_bound(eta1, ob) * rng.uniform(0.05, 0.95)
            pa = ObstacleParams.resolve(ob, eta1=eta1, c1=[1.0, 1.0], w=w)
            cert = Certificate(dataclasses.replace(base, obstacles=(ob,), params=(pa,)))
            bw = cert.buffer_width(0)
            inner = (ob.radius + ob.center_norm / (1 + eta1)) ** 2
            assert inner + bw * bw == pytest.approx(cert.boundary_sphere(0)[1], rel=1e-12)

    def test_zero_buffer_limit(self):
        ob = ObstacleSpec(center=np.array([2.0, 2.0]), radius_sq=2.0)
        w = 1e-10
        pa = ObstacleParams.resolve(ob, eta1=9.0, c1=[1.0, 1.0], w=w)
        cert = Certificate(dataclasses.replace(
            builtin_scenario("linear2d_single"), obstacles=(ob,), params=(pa,)))
        assert cert.buffer_width(0) == pytest.approx(math.sqrt(w / 10.0), rel=1e-9)

    def test_no_positive_buffer_error(self):
        ob = ObstacleSpec(center=np.array([2.0, 2.0]), radius_sq=2.0)
        pa = ObstacleParams(eta1=9.0, eta2=9.0 * 2.0 + 18.0 - 0.5, c1=np.array([1.0, 1.0]))
        cert = Certificate(dataclasses.replace(
            builtin_scenario("linear2d_single"), obstacles=(ob,), params=(pa,)))
        with pytest.raises(ScenarioError, match="no positive buffer"):
            cert.buffer_width(0)


class TestPhi:
    def test_single_obstacle_value(self, cert_a):
        assert cert_a.phis[0] == pytest.approx(3.51, rel=1e-12)
        # the published rounded figure
        assert cert_a.phis[0] == pytest.approx(3.50, abs=0.02)

    def test_second_multi_obstacle_value(self, cert_b):
        assert cert_b.phis[1] == pytest.approx((19 * 8 - 22.7) / 20, rel=1e-12)
        assert cert_b.phis[1] == pytest.approx(6.465, abs=1e-10)
        # the array equals the per-obstacle scalar expression bit for bit
        for i, (c, e1, e2) in enumerate(zip(cert_b.centers, cert_b.eta1, cert_b.eta2)):
            assert cert_b.phis[i] == (e1 * float(c @ c) - e2) / (e1 + 1.0)

    def test_vanishes_at_eta2_upper_bound(self):
        ob = ObstacleSpec(center=np.array([2.0, 2.0]), radius_sq=2.0)
        pa = ObstacleParams(eta1=9.0, eta2=9.0 * 8.0 - 1e-6, c1=np.array([1.0, 1.0]))
        cert = Certificate(dataclasses.replace(
            builtin_scenario("linear2d_single"), obstacles=(ob,), params=(pa,)))
        assert 0 < cert.phis[0] < 1e-6


class TestContactPoints:
    def test_published_values(self, cert_a):
        a, b = cert_a.contact_points_2d(0)
        assert np.allclose(a, [1.87, 0.08], atol=0.02)
        assert np.allclose(b, [0.08, 1.87], atol=0.02)

    def test_substitution_oracle(self, cert_a):
        phi = cert_a.phis[0]
        cbar, rbar_sq = cert_a.boundary_sphere(0)
        for p in cert_a.contact_points_2d(0):
            assert abs(cert_a.L(p) - phi) < 1e-9
            assert abs(float((p - cbar) @ (p - cbar)) - rbar_sq) < 1e-9
            assert abs(cert_a.L(p) - float(p @ cbar)) < 1e-9

    def test_axis_obstacle_symmetry(self):
        ob = ObstacleSpec(center=np.array([3.0, 0.0]), radius_sq=1.0)
        pa = ObstacleParams.resolve(ob, eta1=8.0, c1=[1.0, 1.0], w=0.5)
        cert = Certificate(dataclasses.replace(
            builtin_scenario("linear2d_single"), obstacles=(ob,), params=(pa,)))
        a, b = cert.contact_points_2d(0)
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        assert a[1] == pytest.approx(-b[1], rel=1e-12)

    def test_dimension_error(self, cert_a):
        cfg3 = dataclasses.replace(
            cert_a.config,
            state_box=np.array([[-5.0, 5.0]] * 3),
            obstacles=(ObstacleSpec(center=np.array([2.0, 2.0, 0.0]), radius_sq=2.0),),
            initial_states=())
        with pytest.raises(ScenarioError, match="n = 2"):
            Certificate(cfg3).contact_points_2d(0)


class TestShrunkBand:
    def find_sphere_point_with_norm_sq(self, cert, i, target):
        """Bisect the sphere angle until ||x||^2 hits the target."""
        lo, hi = math.pi, 1.5 * math.pi  # lower-left arc, monotone in angle
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if cert.L(sphere_point(cert, i, mid)) > target:
                lo = mid
            else:
                hi = mid
        return sphere_point(cert, i, 0.5 * (lo + hi))

    def test_sphere_point_below_phi_is_inside(self, cert_a):
        x = self.find_sphere_point_with_norm_sq(cert_a, 0, 1.0)
        assert cert_a.L(x) == pytest.approx(1.0, abs=1e-9)
        assert cert_a.in_shrunk_band(x, 0)

    def test_contact_point_is_boundary(self, cert_a):
        assert not cert_a.in_shrunk_band(np.array([1.87, 0.08]), 0)

    def test_far_point_not_in_band(self, cert_a):
        assert not cert_a.in_shrunk_band(np.array([5.0, 5.0]), 0)


class TestCertificateInvariants:
    def test_positive_definite_and_max_structure(self, cert_a):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-5, 5, size=(10_000, 2))
        for x in pts:
            v = v_scalar(cert_a, x)
            L = cert_a.L(x)
            b = float(np.max(B_values(cert_a, x)))
            assert v >= 0.0
            assert (v >= L) == True  # noqa: E712 - v is max(L, ...)
            assert (v > L) == (b > L)
            if not np.allclose(x, 0.0):
                assert v > 0.0
        assert v_scalar(cert_a, np.zeros(2)) == 0.0

    def test_unsafe_ball_level_floor(self, cert_a):
        # inside the ball, V = B and stays above eta2 - eta1*r > 0
        rng = np.random.default_rng(6)
        ob = cert_a.config.obstacles[0]
        floor = 36.9 - 9.0 * ob.radius_sq
        assert floor > 0
        for _ in range(2000):
            d = rng.normal(size=2)
            d *= rng.uniform(0, ob.radius) / np.linalg.norm(d)
            x = ob.center + d
            assert v_scalar(cert_a, x) == pytest.approx(cert_a.B(0, x), rel=1e-12)
            assert v_scalar(cert_a, x) > floor - 1e-9

    def test_min_dists_sign_tracks_safety(self, cert_b):
        # the clearance sqrt(dds) - radii is negative exactly in an unsafe
        # ball, and an UNSAFE label names the first such obstacle
        X = np.random.default_rng(8).uniform(-5, 5, size=(2000, 2))
        i, h, dds = cert_b.dominant_gap_rows(X)
        kind, index = cert_b.label_rows(i, h, dds)
        inside = np.sqrt(dds) - cert_b.radii < 0
        assert np.array_equal(kind == UNSAFE, inside.any(axis=1))
        assert np.array_equal(index[kind == UNSAFE], inside[kind == UNSAFE].argmax(axis=1))
        for x, k in zip(X, kind):
            dd = cert_b.dominant_gap(x)[2]
            assert (k == UNSAFE) == bool(np.any(np.sqrt(dd) - cert_b.radii < 0))


class TestSharedGapFormula:
    """classify and admissible against rules rebuilt from the public arrays."""

    @pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three"])
    def test_classify_matches_array_rebuild(self, name):
        cert = Certificate(builtin_scenario(name))
        eps = cert.config.integrator.eps_band
        rng = np.random.default_rng(31)
        pts = np.concatenate([rng.uniform(-5, 5, size=(3000, 2)),
                              [sphere_point(cert, i, th) for i in range(cert.n_obstacles)
                               for th in rng.uniform(0, 2 * math.pi, 300)]])
        for x in pts:
            dd = np.sum((x - cert.centers) ** 2, axis=1)
            inside = np.nonzero(dd < cert.radii_sq)[0]
            b = B_values(cert, x)
            i = int(np.argmax(b))
            h = float(b[i]) - cert.L(x)
            if inside.size:
                want = (UNSAFE, int(inside[0]))
            elif abs(h) <= eps:
                want = (R3, i)
            else:
                want = (R1, i) if h > 0 else (R2, -1)
            assert cert.classify(x) == want, x
            assert cert.dominant_obstacle(x) == i
            assert cert.dominant_gap(x)[1] == pytest.approx(h, abs=1e-12)
            assert np.allclose(np.sqrt(cert.dominant_gap(x)[2]), np.sqrt(dd), atol=1e-12)

    @pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three"])
    def test_admissible_matches_previous_rule(self, name):
        # outside every ball and B_i - L <= -eps_band for every obstacle
        cert = Certificate(builtin_scenario(name))
        eps = cert.config.integrator.eps_band
        rng = np.random.default_rng(37)
        for x in rng.uniform(-5, 5, size=(3000, 2)):
            dd = np.sum((x - cert.centers) ** 2, axis=1)
            want = (bool(np.all(dd >= cert.radii_sq))
                    and bool(np.all(B_values(cert, x) - cert.L(x) <= -eps)))
            ok, why = cert.admissible(x)
            assert ok == want, x
            assert (why == "stabilizer region") == ok


class TestRowBatchedTwins:
    """dominant_gap_rows/label_rows against dominant_gap/label, bit for bit."""

    @staticmethod
    def assert_rows_match(cert, X):
        i, h, dds = cert.dominant_gap_rows(X)
        kind, index = cert.label_rows(i, h, dds)
        for k, x in enumerate(X):
            si, sh, sdds = cert.dominant_gap(x)
            assert (int(i[k]), h[k].tobytes(), dds[k].tolist()) == (
                si, np.float64(sh).tobytes(), sdds), x
            lab = cert.label(si, sh, sdds)
            assert (kind[k], index[k]) == lab and tuple(map(type, lab)) == (int, int), x
            assert (index[k] == -1) == (kind[k] == R2), x

    @pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three"])
    def test_random_rows(self, name):
        cert = Certificate(builtin_scenario(name))
        rng = np.random.default_rng(41)
        X = np.concatenate([rng.uniform(-5, 5, size=(3000, 2)),
                            [sphere_point(cert, i, th) for i in range(cert.n_obstacles)
                             for th in rng.uniform(0, 2 * math.pi, 200)]])
        self.assert_rows_match(cert, X)

    def test_random_rows_three_dimensional(self, cfg_3d):
        cert = Certificate(cfg_3d)
        X = np.random.default_rng(43).uniform(-5, 5, size=(3000, 3))
        self.assert_rows_match(cert, X)

    def test_exact_ties_go_to_the_lowest_index(self):
        # mirror-image obstacles: every point on the x1 axis has B_0 == B_1,
        # and near x1 = 3 both barriers dominate L (overlapping spheres)
        base = builtin_scenario("linear2d_single")
        obs = tuple(ObstacleSpec(center=np.array([3.0, s]), radius_sq=0.5) for s in (1.0, -1.0))
        params = tuple(ObstacleParams.resolve(ob, eta1=2.0, c1=[1.0, 1.0], w=0.1)
                       for ob in obs)
        cert = Certificate(dataclasses.replace(base, obstacles=obs, params=params))
        X = np.stack([np.linspace(-5, 5, 401), np.zeros(401)], axis=1)
        b = np.array([B_values(cert, x) for x in X])
        assert np.array_equal(b[:, 0], b[:, 1])
        i, h, _ = cert.dominant_gap_rows(X)
        assert not i.any()
        kind, _ = cert.label_rows(*cert.dominant_gap_rows(X))
        assert set(kind.tolist()) >= {R1, R2}
        self.assert_rows_match(cert, X)

    @pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three"])
    def test_label_rows_against_the_reduction_form(self, name):
        # synthetic dds rows: every combination, per obstacle, of inside, exactly
        # on the radius (not inside), just inside it, outside, NaN and +-inf, so
        # rows sit inside one, two or three balls; h crosses the band edges
        cert = Certificate(builtin_scenario(name))
        eps = cert.eps_band
        per_obstacle = [[0.0, 0.5 * r, np.nextafter(r, 0.0), r, 2.0 * r,
                         math.nan, math.inf, -math.inf] for r in cert.radii_sq.tolist()]
        dds = np.array(list(itertools.product(*per_obstacle)))
        hs = np.array([-1.0, -eps, np.nextafter(-eps, 0.0), 0.0, eps,
                       np.nextafter(eps, 1.0), 1.0, math.nan, math.inf, -math.inf])
        dds = np.repeat(dds, len(hs), axis=0)
        h = np.tile(hs, len(dds) // len(hs))
        i = np.random.default_rng(47).integers(cert.n_obstacles, size=len(h))
        kind, index = cert.label_rows(i, h, dds)
        want_kind, want_index = label_rows_oracle(cert, i, h, dds)
        assert kind.dtype == want_kind.dtype and index.dtype == want_index.dtype
        assert kind.tobytes() == want_kind.tobytes()
        assert index.tobytes() == want_index.tobytes()
        inside = (dds < cert.radii_sq).sum(axis=1)   # balls each row is inside
        assert set(inside.tolist()) == set(range(cert.n_obstacles + 1))

    @pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three"])
    def test_shrunk_band_rows(self, name):
        cert = Certificate(builtin_scenario(name))
        rng = np.random.default_rng(47)
        for i in range(cert.n_obstacles):
            X = np.array([sphere_point(cert, i, th) for th in rng.uniform(0, 2 * math.pi, 500)])
            X = X * rng.uniform(0.999, 1.001, size=(len(X), 1))
            want = [in_shrunk_band_oracle(cert, x, i) for x in X]
            # shrunk_band_rows takes the rows label_rows put in R3 of obstacle i
            kind, index = cert.label_rows(*cert.dominant_gap_rows(X))
            band = np.flatnonzero((kind == R3) & (index == i))
            got = np.zeros(len(X), dtype=bool)
            got[band] = cert.shrunk_band_rows(i, X[band])
            assert got.tolist() == want
            assert [cert.in_shrunk_band(x, i) for x in X] == want
            assert any(want) and not all(want)

    @pytest.mark.parametrize("name", ["linear2d_single", "nonlinear_mech_three"])
    def test_one_obstacle_per_row(self, name):
        cert = Certificate(builtin_scenario(name))
        rng = np.random.default_rng(61)
        index = rng.integers(cert.n_obstacles, size=1500)
        X = np.array([sphere_point(cert, i, th)
                      for i, th in zip(index, rng.uniform(0, 2 * math.pi, len(index)))])
        X = X * rng.uniform(0.999, 1.001, size=(len(X), 1))
        grad = cert.grad_B(index, X)
        # shrunk_band_rows takes the R3 rows with their own label_rows index
        kind, label = cert.label_rows(*cert.dominant_gap_rows(X))
        band = np.flatnonzero(kind == R3)
        shrunk = np.zeros(len(X), dtype=bool)
        shrunk[band] = cert.shrunk_band_rows(label[band], X[band])
        for k, (i, x) in enumerate(zip(index.tolist(), X)):
            assert grad[k].tobytes() == cert.grad_B(i, x).tobytes(), (i, x)
            assert shrunk[k] == in_shrunk_band_oracle(cert, x, i), (i, x)
            assert cert.in_shrunk_band(x, i) == shrunk[k], (i, x)
        assert shrunk.any() and not shrunk.all()
