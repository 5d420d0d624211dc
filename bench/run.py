"""nclbf benchmark: one closed-loop client running CLI jobs on seeded inputs.

    python3 bench/run.py --workload single_slide --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/`` and
driven in-process through ``nclbf.cli.main``, one command after another, with
one thread (``NCLBF_THREADS=1``, BLAS threads 1).  A run sets up (import,
scenario generation, a small warm-up job; repeated, median reported), then
repeats the workload's job until ``--seconds`` have passed and at least
three jobs ran, and reports the median job.  Every job's outputs are checked
(``checks.py``).  Times are reported at the reference host speed: each
set-up and job is scaled by the calibration loops timed just before and after
it (``calibration.py``); the wall times are printed beside them.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` untraced and traced jobs alternate and it carries the
per-layer metrics of the traced jobs (``tracing.py``) and the tracing
overhead.  Scenario files, spans and a result record go to
``.bench_run/<workload>-seed<seed>-trace<trace>/``.  The exit code is 0 when
every check passed, 1 when one failed and 2 on a usage or set-up error.
"""

import os
import sys
import time

T_START = time.perf_counter()
THREAD_ENV = {"NCLBF_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_JOBS = 3          # untraced jobs per run, so a median has a middle


def _fail_setup(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


if not (ROOT / "src" / "nclbf" / "cli.py").is_file():
    _fail_setup(f"no nclbf sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from nclbf import cli  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

T_IMPORT = time.perf_counter() - T_START


def environment() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {k: os.environ.get(k) for k in THREAD_ENV},
            "loadavg_start": list(os.getloadavg())}


def run_job(job, workdir: Path, tracer=None) -> tuple[float, list]:
    """Run the job's commands one after another; (wall seconds, results)."""
    for sub in ("sim", "plot"):
        shutil.rmtree(workdir / sub, ignore_errors=True)
    gc.collect()
    results = []
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in job.argv(workdir):
            mark = err.tell()
            code = tracer.command(cli.main, argv) if tracer else cli.main(argv)
            results.append((argv, code, err.getvalue()[mark:]))
    return time.perf_counter() - t0, results


def setup(workload: str, seed: int, workdir: Path):
    """Generate the seeded job and run the warm-up; returns (job, seconds)."""
    t0 = time.perf_counter()
    job = workloads.build(workload, seed)
    job.write(workdir)
    warm = workloads.warmup(workload)
    warm.write(workdir / "warmup")
    run_job(warm, workdir / "warmup")
    return job, time.perf_counter() - t0


class Run:
    """Accumulates checked jobs of one benchmark run."""

    def __init__(self, job, workdir: Path, seed: int):
        self.job, self.workdir, self.seed = job, workdir, seed
        self.reference = checks.load_reference()
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}
        self.steps = 0

    def job_once(self, tracer=None) -> float:
        seconds, results = run_job(self.job, self.workdir, tracer)
        obs = checks.observe(self.job, self.workdir, results)
        self.steps = obs["steps"]
        for op, bad in checks.check(obs, self.seed, self.reference).items():
            self.attempted += 1
            if bad:
                self.failures.setdefault(op, []).extend(bad)
        return seconds

    @property
    def failed(self) -> int:
        return sum(len(v) > 0 for v in self.failures.values())


def slide_share_from_csvs(outdir: Path) -> float:
    """Share of recorded steps whose law is K3, read from the CSV law column."""
    slide = total = 0
    for path in sorted(outdir.glob("run_*.csv")):
        with open(path) as fp:
            col = next(fp).rstrip("\n").split(",").index("law")
            for line in fp:
                total += 1
                slide += line.split(",")[col].startswith("K3")
    return slide / total if total else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    env = environment()
    workdir = ROOT / ".bench_run" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    # set-ups and untraced jobs are each bracketed by calibration loops
    cal_setup = [calibration.timed_loop()]
    setups = []
    for _ in range(SETUP_REPEATS):
        job, seconds = setup(args.workload, args.seed, workdir)
        setups.append(seconds)
        cal_setup.append(calibration.timed_loop())
    run = Run(job, workdir, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layer_reps = [], [], []
    cal_jobs = cal_setup[-1:]
    t_measure = time.perf_counter()
    while True:
        plain.append(run.job_once())
        if tracer:
            tracer.rep = len(traced)
            tracer.reset()
            tracer.install()
            try:
                traced.append(run.job_once(tracer))
            finally:
                tracer.uninstall()
            layer_reps.append(tracer.metrics())
        else:
            cal_jobs.append(calibration.timed_loop())
        if (time.perf_counter() - t_measure >= args.seconds
                and (tracer or len(plain) >= MIN_JOBS)):
            break

    starts = {name: [x for x, _ in s] for name, s in job.starts.items()}
    record = {"workload": args.workload, "seed": args.seed, "environment": env,
              "starts": starts, "total_steps": run.steps,
              "wall_job_s": plain, "wall_setup_s": setups, "wall_import_s": T_IMPORT,
              "calibration_setup_s": cal_setup, "calibration_job_s": cal_jobs,
              "failures": run.failures}
    if run.steps:
        record["slide_step_share"] = slide_share_from_csvs(workdir / "sim")
    job_s = statistics.median(plain)
    unsteady = []
    if tracer:
        metrics = {k: statistics.median(r[k] for r in layer_reps) for k in layer_reps[0]}
        unsteady = [f"{k} differs between jobs: {[r[k] for r in layer_reps]}"
                    for k in tracing.COUNT_METRICS if len({r[k] for r in layer_reps}) > 1]
        metrics["trace.overhead_frac"] = statistics.median(traced) / job_s - 1.0
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    else:
        ref_job_s = statistics.median(calibration.at_reference(plain, cal_jobs))
        ref_setup_s = (calibration.at_reference([T_IMPORT], cal_setup[:1] * 2)[0]
                       + statistics.median(calibration.at_reference(setups, cal_setup)))
        record["job_s"] = ref_job_s
        metrics = {"setup_s": ref_setup_s,
                   "items_per_s": (run.steps or job.grid_points) / ref_job_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    env["loadavg_end"] = list(os.getloadavg())
    record["metrics"] = metrics
    for sub in ("sim", "plot", "warmup"):
        shutil.rmtree(workdir / sub, ignore_errors=True)
    (workdir / "result.json").write_text(json.dumps(record, indent=1))

    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    print("environment: " + json.dumps(env))
    print(f"{args.workload} seed {args.seed}: starts {json.dumps(starts)}, "
          f"total_steps {run.steps}, slide_step_share {record.get('slide_step_share', 0):.4f}")
    print(f"jobs: {len(plain)} untraced" + (f", {len(traced)} traced" if tracer else "")
          + f"; wall seconds per job {', '.join(f'{t:.3f}' for t in plain)}")
    print(f"wall set-up {T_IMPORT + statistics.median(setups):.4f} s, "
          f"wall job {job_s:.4f} s, calibration loop median "
          f"{statistics.median(cal_setup + cal_jobs):.4f} s (reference {calibration.REFERENCE_S} s)")
    if not tracer:
        print(f"job_s {record['job_s']:.6g} s (at reference speed)")
    print(f"ops_failed_frac {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} failed of {run.attempted} attempted)")
    for op, bad in run.failures.items():
        print(f"FAILED {op}: {'; '.join(bad)}")
    for msg in unsteady:
        print(f"FAILED trace counts: {msg}")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {unit_of[k]}")
    correct = not run.failures and not unsteady
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": unit_of[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
