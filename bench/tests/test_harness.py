"""Self-test of the benchmark harness at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (sets the thread environment and the import path)
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nclbf import cli, controller, load_scenario, systems, validate_params  # noqa: E402

# drawn starts only, short horizons and coarse grids: every job takes < 1 s
TINY = workloads.Sizes(single_published=0, single_drawn=2, multi_drawn=1,
                       t_max=1.0, vd_resolution=21, ca_resolution=11)
SEED = 7   # not the default seed: only the checks that hold for any seed apply


def _run_tiny(workload, tmp_path, tracer=None):
    job = workloads.build(workload, SEED, TINY)
    job.write(tmp_path)
    seconds, results = run.run_job(job, tmp_path, tracer)
    obs = checks.observe(job, tmp_path, results)
    return job, seconds, obs, checks.check(obs, SEED, checks.load_reference())


def test_inputs_follow_the_seed_and_are_admissible():
    for w in workloads.WORKLOADS:
        a, b = workloads.build(w, SEED, TINY), workloads.build(w, SEED, TINY)
        assert a.scenarios == b.scenarios
        assert a.scenarios != workloads.build(w, SEED + 1, TINY).scenarios
        for text in a.scenarios.values():
            assert validate_params(load_scenario(text)).passed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_job_passes_its_checks(workload, tmp_path):
    job, seconds, obs, failures = _run_tiny(workload, tmp_path)
    assert seconds > 0
    assert failures and not any(failures.values()), failures
    if workload == "certify":
        assert len(obs["reports"]) == 4
    else:
        assert obs["steps"] == sum(s["csv_rows"] for s in obs["starts"].values())


def test_a_broken_output_is_a_failed_operation(tmp_path):
    job = workloads.build("multi_long", SEED, TINY)
    job.write(tmp_path)
    _, results = run.run_job(job, tmp_path)
    csv = next((tmp_path / "sim").glob("run_*.csv"))
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    failures = checks.check(checks.observe(job, tmp_path, results), SEED,
                            checks.load_reference())
    assert any("CSV rows" in msg for bad in failures.values() for msg in bad)


def test_traced_counts_repeat_and_tracing_uninstalls(tmp_path):
    originals = (cli.check_assumptions, controller.Controller.dispatch,
                 dict(systems.SYSTEMS))
    tracer = tracing.Tracer()
    reps = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            _run_tiny("single_slide", tmp_path, tracer)
        finally:
            tracer.uninstall()
        reps.append(tracer.metrics())
    assert (cli.check_assumptions, controller.Controller.dispatch,
            dict(systems.SYSTEMS)) == originals
    for k in tracing.COUNT_METRICS:
        assert reps[0][k] == reps[1][k], k
    assert reps[0]["systems.rhs_evals"] > 0
    assert reps[0]["systems.rhs_evals_per_step"] >= 4.0
    spans = {s["name"] for s in tracer.spans}
    assert {"cli.simulate", "cli.plot", "simulator.run_batch", "simulator.simulate",
            "simulator.csv_write", "simulator.csv_read",
            "verify.invariants"} <= spans
    assert all(s["end"] >= s["start"] for s in tracer.spans)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "certify", "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # 4 reports per job: MIN_JOBS untraced jobs, or one untraced and one traced
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 * (2 if trace else run.MIN_JOBS)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
