"""Trajectory checks on record columns against the per-sample loops they replaced.

``fd_oracle`` is invariant check (d) and ``v_increase_oracle`` is
``TrajectoryRecord.v_increase`` as they were written over a tuple of samples,
kept verbatim apart from iterating ``conftest.rows``.  The column forms must
give the same report, to the bit, on the 16 fixture records, their CSV round
trips and a record with a sample moved inside an obstacle.
"""

from __future__ import annotations

import dataclasses
import io
import math

import numpy as np
import pytest

from conftest import doctored_record, rows
from nclbf.controller import make_controller
from nclbf.simulator import read_trajectory_csv, trajectory_csv_text
from nclbf.verify import trajectory_invariants, upper_derivative


def fd_oracle(record, config) -> tuple[float, str]:
    """fd_constant and detail of check (d) by the per-sample loop."""
    ctrl = make_controller(config)
    integ = config.integrator
    samples = rows(record)
    dt = samples[1].t - samples[0].t if len(samples) > 1 else 0.0
    worst_resid = 0.0
    n_smooth = 0
    for a, b in zip(samples, samples[1:]):
        if a.region.kind == "R3" or b.region.kind == "R3" or a.region != b.region:
            continue
        if float(np.linalg.norm(a.x)) <= integ.eps_conv:
            continue
        d = upper_derivative(ctrl, a.x, a.u)
        resid = (b.V - a.V) / dt - d.d_value
        worst_resid = max(worst_resid, resid)
        n_smooth += 1
    C = worst_resid / dt if n_smooth else 0.0
    return C, f"C = {C:.6g} over {n_smooth} smooth steps"


def v_increase_oracle(record, eps_conv: float) -> tuple[float, float | None]:
    samples = rows(record)
    worst, at = -math.inf, None
    for a, b in zip(samples, samples[1:]):
        if float(a.x.dot(a.x)) > eps_conv * eps_conv:
            dv = b.V - a.V
            if dv > worst:
                worst, at = dv, a.t
    return worst, at


def assert_matches_oracles(record, config, fd, dv):
    report = trajectory_invariants(record, config)
    check_d = report.checks[-1]
    assert (report.fd_constant, check_d.detail) == fd
    assert record.v_increase(config.integrator.eps_conv) == dv


@pytest.mark.parametrize("fixture, cfg", [("records_a", "cfg_a"), ("records_b", "cfg_b")])
def test_fixture_records_and_round_trips(request, fixture, cfg):
    config = request.getfixturevalue(cfg)
    for x0, rec in request.getfixturevalue(fixture).items():
        fd = fd_oracle(rec, config)
        dv = v_increase_oracle(rec, config.integrator.eps_conv)
        assert fd[0] > 0.0, x0
        assert_matches_oracles(rec, config, fd, dv)
        back = read_trajectory_csv(io.StringIO(trajectory_csv_text(rec)))
        # the round trip is exact, so the oracle values carry over
        assert np.array_equal(back.x, rec.x) and np.array_equal(back.V, rec.V), x0
        assert_matches_oracles(back, config, fd, dv)


def test_doctored_record(cfg_a, records_a):
    rec = doctored_record(records_a[(5.0, 2.0)], cfg_a)
    fd = fd_oracle(rec, cfg_a)
    dv = v_increase_oracle(rec, cfg_a.integrator.eps_conv)
    assert dv[0] > 1.0   # the jump onto the centre raises V
    assert_matches_oracles(rec, cfg_a, fd, dv)


def test_relabelled_band_sample_uses_classified_region(cfg_a, records_a):
    # a smooth step whose recorded labels disagree with x: the derivative is
    # taken in the region x classifies to, as upper_derivative does
    rec = records_a[(5.0, 5.0)]
    k = next(k for k in range(len(rec) - 1)
             if rec.region[k].kind == "R3" and rec.region[k + 1].kind == "R3")
    region = list(rec.region)
    region[k] = region[k + 1] = rec.region[0]
    relabelled = dataclasses.replace(rec, region=tuple(region))
    assert_matches_oracles(relabelled, cfg_a, fd_oracle(relabelled, cfg_a),
                           v_increase_oracle(relabelled, cfg_a.integrator.eps_conv))
