"""Integrator order, closed-loop runs, records, and CSV round trips."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

from nclbf.certificate import Certificate
from nclbf.scenario import (ControllerGains, IntegratorSettings, ObstacleParams,
                            ObstacleSpec, ScenarioConfig)
from nclbf.simulator import (NumericBlowupError, read_trajectory_csv, rk4_step,
                             run_batch, simulate, trajectory_csv_text,
                             trajectory_header, write_trajectory_csv)
from nclbf.systems import ControlAffineSystem, builtin_linear2d, register_system


class TestRk4Step:
    sys = builtin_linear2d()

    def test_against_exact_exponential(self):
        x1 = rk4_step(self.sys, np.array([1.0, 0.0]), np.zeros(2), 1e-3)
        assert x1[0] == pytest.approx(math.exp(-1e-3), abs=1e-14)
        assert x1[0] == pytest.approx(0.9990005, abs=1e-7)
        assert x1[1] == 0.0

    def test_fixed_point(self):
        x = np.array([2.0, -3.0])
        assert np.array_equal(rk4_step(self.sys, x, x.copy(), 0.05), x)

    def test_global_error_fourth_order(self):
        def final_error(dt):
            x = np.array([1.0, 0.0])
            for _ in range(int(round(1.0 / dt))):
                x = rk4_step(self.sys, x, np.zeros(2), dt)
            return abs(x[0] - math.exp(-1.0))

        assert final_error(1e-3) < 1e-10
        ratio = final_error(0.02) / final_error(0.01)
        assert 12.0 < ratio < 20.0

    def test_blowup_detected(self):
        def f(x):
            return x * float(x @ x)

        def g(x):
            return np.eye(2)

        cubic = ControlAffineSystem("cubic", 2, 2, f, g)
        with pytest.raises(NumericBlowupError), np.errstate(over="ignore", invalid="ignore"):
            rk4_step(cubic, np.array([1e3, 1e3]), np.zeros(2), 1e3)


class TestSimulate:
    def test_far_start_converges_safely(self, cfg_a, records_a):
        rec = records_a[(5.0, 5.0)]
        assert rec.outcome.kind == "converged"
        assert rec.outcome.t < cfg_a.integrator.t_max
        assert rec.min_clearance() > 0.0
        # the path detours along the virtual boundary: some samples sit in the band
        assert any(r.kind == "R3" for r in rec.region)

    def test_obstacle_center_start_rejected(self, cfg_a):
        rec = simulate(cfg_a, np.array([2.0, 2.0]))
        assert rec.outcome.kind == "init_rejected"
        assert len(rec) == 0
        assert (rec.t.shape, rec.x.shape, rec.u.shape, rec.V.shape, rec.min_dist.shape) == (
            (0,), (0, 2), (0, 2), (0,), (0, 1))
        assert rec.region == () and rec.law == ()

    def test_barrier_region_start_rejected_without_override(self, cfg_a):
        assert simulate(cfg_a, np.array([2.0, 3.5])).outcome.kind == "init_rejected"
        rec = simulate(cfg_a, np.array([2.0, 3.5]), override_init=True)
        assert rec.outcome.kind == "converged"
        assert rec.min_clearance() > 0.0

    def test_multi_obstacle_start_converges_with_clearance(self, records_b):
        rec = records_b[(-5.0, 5.0)]
        assert rec.outcome.kind == "converged"
        assert rec.min_clearance() > 0.0

    def test_sample_grid_and_consistency(self, cfg_a, records_a):
        rec = records_a[(5.0, 2.0)]
        dt = cfg_a.integrator.dt
        assert np.allclose(np.diff(rec.t), dt, atol=1e-12)
        from nclbf.certificate import Certificate
        cert = Certificate(cfg_a)
        for k in range(0, len(rec), max(1, len(rec) // 97)):
            x = rec.x[k]
            assert rec.V[k] == pytest.approx(cert.V(x), rel=1e-12)
            assert rec.region[k] == cert.classify(x, cfg_a.integrator.eps_band)
            assert np.allclose(rec.min_dist[k], cert.min_dists(x), atol=1e-12)

    def test_determinism_bitwise(self, cfg_a):
        a = simulate(cfg_a, np.array([3.0, 5.0]))
        b = simulate(cfg_a, np.array([3.0, 5.0]))
        assert len(a) == len(b)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.V, b.V) and a.law == b.law

    def test_numeric_blowup_outcome(self, cfg_a):
        def f(x):
            return np.array([x[0] ** 3, -x[1]])

        def g(x):
            return np.array([[0.0], [1.0]])

        register_system("runaway", lambda: ControlAffineSystem("runaway", 2, 1, f, g))
        ob = ObstacleSpec(center=np.array([2.0, 2.0]), radius_sq=0.5)
        pa = ObstacleParams.resolve(ob, eta1=9.0, c1=[10.0], w=1.0)
        cfg = ScenarioConfig(system_id="runaway", state_box=cfg_a.state_box,
                             obstacles=(ob,), params=(pa,),
                             gains=ControllerGains(0.1),
                             integrator=IntegratorSettings(dt=1e-3, t_max=2.0))
        rec = simulate(cfg, np.array([4.0, 0.0]))
        assert rec.outcome.kind == "numeric_blowup"
        assert len(rec)  # aborted mid-run, samples up to the failure


class TestThreeDimensional:
    def test_head_on_start_slides_and_converges_safely(self, cfg_3d):
        from nclbf.scenario import validate_params
        from nclbf.verify import trajectory_invariants
        assert validate_params(cfg_3d).passed
        rec = simulate(cfg_3d, cfg_3d.initial_states[0])
        assert rec.outcome.kind == "converged"
        assert rec.min_clearance() > 0.0
        # (4, 4, 2) lies behind the obstacle on the ray through its center
        assert any(law.startswith("K3") for law in rec.law)
        assert trajectory_invariants(rec, cfg_3d).passed


class TestRunBatch:
    def test_five_starts_all_converge(self, cfg_a):
        summary, records = run_batch(cfg_a)
        assert len(records) == 5
        assert all(r.outcome.kind == "converged" for r in records)
        assert all(run["min_min_dist"] > 0 for run in summary.runs)
        assert [run["index"] for run in summary.runs] == list(range(5))

    def test_multi_obstacle_batch_converges(self, records_b):
        assert len(records_b) == 8
        assert all(r.outcome.kind == "converged" for r in records_b.values())
        assert all(r.min_clearance() > 0 for r in records_b.values())

    def test_empty_initial_states(self, cfg_a):
        cfg = dataclasses.replace(cfg_a, initial_states=())
        summary, records = run_batch(cfg)
        assert summary.runs == () and records == ()

    def test_init_rejected_entry(self, cfg_a):
        cfg = dataclasses.replace(cfg_a, initial_states=(np.array([2.0, 2.0]),))
        summary, records = run_batch(cfg)
        assert summary.runs[0]["outcome"]["kind"] == "init_rejected"
        assert summary.runs[0]["n_samples"] == 0


class TestTrajectoryCsv:
    def test_header_format(self, cfg_b):
        assert trajectory_header(2, 1, 3) == [
            "t", "x1", "x2", "u1", "V", "region", "law",
            "mindist1", "mindist2", "mindist3"]

    def test_round_trip_exact(self, records_a):
        rec = records_a[(0.2, 0.8)]
        text = trajectory_csv_text(rec)
        back = read_trajectory_csv(io.StringIO(text))
        assert len(back) == len(rec)
        assert np.array_equal(rec.t, back.t) and np.array_equal(rec.V, back.V)
        assert np.array_equal(rec.x, back.x)
        assert np.array_equal(rec.u, back.u)
        assert rec.region == back.region and rec.law == back.law
        assert np.array_equal(rec.min_dist, back.min_dist)

    def test_region_and_law_codes(self, records_a):
        rec = records_a[(5.0, 5.0)]
        text = trajectory_csv_text(rec)
        lines = text.splitlines()
        # columns: t, x1, x2, u1, u2, V, region, law, mindist1
        assert lines[0].split(",") == ["t", "x1", "x2", "u1", "u2", "V",
                                       "region", "law", "mindist1"]
        assert lines[1].split(",")[6] == "R2"
        codes = {line.split(",")[6] for line in lines[1:]}
        assert "R3:1" in codes
        laws = {line.split(",")[7] for line in lines[1:]}
        assert "K2" in laws and "K3:1>K2" in laws

    def test_empty_record_rejected(self, cfg_a):
        rec = simulate(cfg_a, np.array([2.0, 2.0]))   # init_rejected: no samples
        with pytest.raises(ValueError):
            write_trajectory_csv(rec, io.StringIO())


class TestRecordColumns:
    def test_samples_property_rebuilds_rows(self, records_a):
        from nclbf.simulator import StepSample
        rec = records_a[(5.0, 5.0)]
        samples = rec.samples
        assert len(samples) == len(rec)
        for k in (0, 1, len(rec) // 2, len(rec) - 1):
            s = samples[k]
            assert isinstance(s, StepSample) and type(s.t) is float and type(s.V) is float
            assert s.t == rec.t[k] and s.V == rec.V[k]
            assert np.array_equal(s.x, rec.x[k]) and np.array_equal(s.u, rec.u[k])
            assert s.region is rec.region[k] and s.law == rec.law[k]
            assert np.array_equal(s.min_dist, rec.min_dist[k])
        assert [s.law for s in samples] == list(rec.law)

    def test_min_dist_is_clearance_from_centre_distances(self, cfg_b, records_b):
        rec = records_b[(2.0, 5.0)]
        cert = Certificate(cfg_b)
        for k in (0, 1234, len(rec) - 1):
            assert rec.min_dist[k].tolist() == cert.min_dists(rec.x[k]).tolist()
        assert rec.min_clearance() == min(rec.min_dist.ravel().tolist())


# (outcome t, sample count, final state) of every fixture start, recorded
# from the engine before the planar fast path was folded into
# Certificate.dominant_gap; all outcomes are "converged"
PINNED_A = {
    (5.0, 5.0): (6.876, 6877, (0.00041692053640937535, 0.009989588369031431)),
    (4.0, 4.0): (6.689, 6690, (0.0004167482251315248, 0.009985383350257296)),
    (3.5, 3.5): (6.5760000000000005, 6577, (0.0004166714259947032, 0.009983493865085992)),
    (5.0, 2.0): (5.389, 5390, (0.009979855697943628, 0.00041651347390753586)),
    (3.0, 5.0): (5.633, 5634, (0.0004167104128383825, 0.009984454252222313)),
    (0.2, 0.8): (3.729, 3730, (0.002424682738351756, 0.009698730953407024)),
    (0.55, 0.55): (3.68, 3681, (0.007065928948405943, 0.007065928948405943)),
    (0.8, 0.2): (3.729, 3730, (0.009698730953407024, 0.002424682738351756)),
}
PINNED_B = {
    (-5.0, 5.0): (50.082, 50083, (-0.009962718414698507, 0.0008562544908924004)),
    (-4.0, -5.0): (51.389, 51390, (-0.009963222046594727, 0.0008562983332751556)),
    (-5.0, 0.0): (51.295, 51296, (-0.009963269101100103, 0.0008563024294872397)),
    (5.0, -5.0): (50.713, 50714, (0.00996306013612628, -0.0008562842385686373)),
    (5.0, 0.0): (51.928000000000004, 51929, (0.009962629801805728, -0.0008562467769300659)),
    (4.0, 4.0): (51.815, 51816, (0.009963137108312928, -0.0008562909391870456)),
    (3.0, 2.0): (50.177, 50178, (0.009962702898461673, -0.0008562531401670863)),
    (2.0, 5.0): (50.082, 50083, (0.009962698874318648, -0.0008562527898558749)),
}

# sha256 of trajectory_csv_text(record) of every fixture start, recorded from
# the engine before its discrete state moved into _Engine: the whole
# trajectory, not only its end, stays bit for bit
PINNED_CSV_A = {
    (5.0, 5.0):
        "5fd3ac46e4b3f527d2434156e708d4024b3e76ed8ddc27d9c4250d1268df5c5c",
    (4.0, 4.0):
        "27e4f7d68066b8794a60fbd178e9c76c78bff914092bbdccb919a06eaaa46ef2",
    (3.5, 3.5):
        "ba64b65de7c8b91101aa021a3ef476b1ab3bb3a2ca0bc0d33cb29a1611b541e8",
    (5.0, 2.0):
        "deceaaa10c7eadc859bd1d1d13c78a19d65e2f31df72ccc0c4009f9f1075fe32",
    (3.0, 5.0):
        "92677819381d3a9480db2a85d3c449a855da193b2f818c1fa00bb4dc39c9b523",
    (0.2, 0.8):
        "300f88f5982c724b552bc83169ce9356b47a88b5860153adeaf158863923a15d",
    (0.55, 0.55):
        "0d941cf5c7b70f89b01e4fb5c5fbc6d4c2cc9a831f92b0b62ebcdee3624759a8",
    (0.8, 0.2):
        "51ffbe4efe30583a04a5b60bf7659992ad7adda7b1a5500f475862eb16bd779a",
}
PINNED_CSV_B = {
    (-5.0, 5.0):
        "6e035596b22079095875d309e575b8ad16a9e0607640d606bd4d561f24cd3df7",
    (-4.0, -5.0):
        "7414f02c91ffe8a00b72cc54e464effe2eb5ef3a3ab7cf1d2eef35d9833509a9",
    (-5.0, 0.0):
        "a79bdde69bab0806db594f75cd8d755dcb951e0e11805f91926d7d8375e15639",
    (5.0, -5.0):
        "02b3ebf0f7bec5bd49df6862f97979da64a57bd5fbbe9f5ee07e833bb596e0ea",
    (5.0, 0.0):
        "c5942375038ca8fde6dae3e53ec3daa2485be875e161494ad8463a283b553771",
    (4.0, 4.0):
        "0b9080b8c699c57d5ad4dd49aa69b4f87ac1f3e226865016cd93848157d9c4e3",
    (3.0, 2.0):
        "05657389f5959fc1fc03740a488b046699a67c13454cd77ba1e650da29e6d4fc",
    (2.0, 5.0):
        "0b4fad57cf4f7a07ebd6540a348031bbf49741556529abdb7b2339a492b2e7a8",
}


class TestEngineParity:
    @pytest.mark.parametrize("fixture, pinned", [("records_a", PINNED_A),
                                                 ("records_b", PINNED_B)])
    def test_fixture_starts_match_recorded_engine(self, request, fixture, pinned):
        records = request.getfixturevalue(fixture)
        assert set(records) == set(pinned)
        for x0, (t, n_samples, final) in pinned.items():
            rec = records[x0]
            assert rec.outcome.kind == "converged", x0
            assert rec.outcome.t == t, x0
            assert len(rec) == n_samples, x0
            assert tuple(rec.x[-1].tolist()) == final, x0

    @pytest.mark.parametrize("fixture, pinned", [("records_a", PINNED_CSV_A),
                                                 ("records_b", PINNED_CSV_B)])
    def test_fixture_trajectories_match_recorded_engine(self, request, fixture, pinned):
        records = request.getfixturevalue(fixture)
        assert set(records) == set(pinned)
        for x0, digest in pinned.items():
            text = trajectory_csv_text(records[x0])
            assert hashlib.sha256(text.encode()).hexdigest() == digest, x0
