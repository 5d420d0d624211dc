"""Trajectory checks on record columns against the per-sample loops they replaced.

``fd_oracle`` is invariant check (d) and ``v_increase_oracle`` is
``TrajectoryRecord.v_increase`` as they were written over a tuple of samples,
kept verbatim apart from iterating ``conftest.rows``; ``fd_oracle`` takes the
generalized derivative by the scalar formula the row rule replaced.  The column forms must
give the same report, to the bit, on the 16 fixture records, their CSV round
trips and a record with a sample moved inside an obstacle.  ``csv_oracle`` is
``write_trajectory_csv`` through ``csv.writer``; the joined rows must give the
same text.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from conftest import doctored_record, rows, v_scalar
from nclbf.certificate import R1, R2, R3, UNSAFE, Certificate, region_codes
from nclbf.controller import Controller
from nclbf.simulator import read_trajectory_csv, trajectory_csv_text, trajectory_header
from nclbf.verify import trajectory_invariants


def fd_oracle(record, config) -> tuple[float, str]:
    """fd_constant and detail of check (d) by the per-sample loop."""
    ctrl = Controller(config)
    integ = config.integrator
    samples = rows(record)
    dt = samples[1].t - samples[0].t if len(samples) > 1 else 0.0
    worst_resid = 0.0
    n_smooth = 0
    for a, b in zip(samples, samples[1:]):
        if a.region[0] == R3 or b.region[0] == R3 or a.region != b.region:
            continue
        if float(np.linalg.norm(a.x)) <= integ.eps_conv:
            continue
        # the generalized derivative without history, in the region of x
        cert, x = ctrl.cert, a.x
        kind, i = cert.classify(x)
        if kind == R2:
            i = cert.dominant_obstacle(x)
        F = ctrl.system.f(x) + ctrl.system.g(x) @ a.u
        d1 = float(cert.grad_B(i, x) @ F)
        d2 = float(cert.grad_L(x) @ F)
        if kind in (R1, UNSAFE):
            d = d1
        elif kind == R2:
            d = d2
        else:
            d = 0.5 * (d1 + d2) + 0.5 * abs(d1 - d2)
        resid = (b.V - a.V) / dt - d
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


def csv_oracle(record) -> str:
    """trajectory_csv_text written by csv.writer, which quotes where needed."""
    fp = io.StringIO()
    codes = region_codes(record.min_dist.shape[1])
    floats = [record.t, *record.x.T, *record.u.T, record.V]
    cols = ([map(repr, map(float, c)) for c in floats]
            + [[codes[k, i + 1] for k, i in (r.region for r in rows(record))], record.law]
            + [map(repr, map(float, c)) for c in record.min_dist.T])
    wr = csv.writer(fp, lineterminator="\n")
    wr.writerow(trajectory_header(record.x.shape[1], record.u.shape[1],
                                  record.min_dist.shape[1]))
    wr.writerows(zip(*cols))
    return fp.getvalue()


def assert_matches_oracles(record, config, fd, dv):
    report = trajectory_invariants(record, config)
    check_d = report.checks[-1]
    assert (report.fd_constant, check_d.detail) == fd
    assert record.v_increase(config.integrator.eps_conv) == dv


@pytest.mark.parametrize("fixture, cfg", [("records_a", "cfg_a"), ("records_b", "cfg_b")])
def test_fixture_records_and_round_trips(request, fixture, cfg):
    config = request.getfixturevalue(cfg)
    cert = Certificate(config)
    for x0, rec in request.getfixturevalue(fixture).items():
        # the one-state V rule is the recorded V column, bit for bit
        assert [v_scalar(cert, x) for x in rec.x] == rec.V.tolist(), x0
        fd = fd_oracle(rec, config)
        dv = v_increase_oracle(rec, config.integrator.eps_conv)
        assert fd[0] > 0.0, x0
        assert_matches_oracles(rec, config, fd, dv)
        text = trajectory_csv_text(rec)
        assert text == csv_oracle(rec), x0
        back = read_trajectory_csv(io.StringIO(text))
        # the round trip is exact, so the oracle values carry over
        assert np.array_equal(back.x, rec.x) and np.array_equal(back.V, rec.V), x0
        assert_matches_oracles(back, config, fd, dv)


def test_doctored_record(cfg_a, records_a):
    rec = doctored_record(records_a[(5.0, 2.0)], cfg_a)
    fd = fd_oracle(rec, cfg_a)
    dv = v_increase_oracle(rec, cfg_a.integrator.eps_conv)
    assert dv[0] > 1.0   # the jump onto the centre raises V
    assert_matches_oracles(rec, cfg_a, fd, dv)
    assert trajectory_csv_text(rec) == csv_oracle(rec)   # the UNSAFE row and law "-"


def test_relabelled_band_sample_uses_classified_region(cfg_a, records_a):
    # a smooth step whose recorded labels disagree with x: the derivative is
    # taken in the region x classifies to, as derivative_rows does
    rec = records_a[(5.0, 5.0)]
    k = next(k for k in range(len(rec) - 1) if rec.kind[k] == rec.kind[k + 1] == R3)
    kind, index = rec.kind.copy(), rec.index.copy()
    kind[k:k + 2], index[k:k + 2] = kind[0], index[0]
    relabelled = dataclasses.replace(rec, kind=kind, index=index)
    assert_matches_oracles(relabelled, cfg_a, fd_oracle(relabelled, cfg_a),
                           v_increase_oracle(relabelled, cfg_a.integrator.eps_conv))
