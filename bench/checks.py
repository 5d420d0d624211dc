"""Output checks behind ``attempted`` and ``failed``.

One operation is one simulated start or one certification report.  Two kinds
of check apply:

* checks that hold for any seed: the command neither crashes nor exits with
  code 2; no run ends in safety_violation, numeric_blowup or init_rejected;
  every clearance is positive; the CSV has one row per recorded sample; the
  grid counts sum to the total;
* comparison with ``reference.json``, recorded from this code: for every
  published start (whatever the seed) and, at ``DEFAULT_SEED``, for the drawn
  starts, the certification reports and the plots.

Failures the program already reports as such (for example the false
shrunk-band verdict on nonlinear_mech_three) are expected outputs: they are
compared with the reference, not counted as failed operations.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 1
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BAD_OUTCOMES = ("safety_violation", "numeric_blowup", "init_rejected")
FLOAT_TOL = 1e-9     # relative; trajectories are bit-identical today


def start_key(x0) -> str:
    return ",".join(repr(float(v)) for v in x0)


def _csv_rows_and_last(path: Path) -> tuple[int, list[str]]:
    rows, last = -1, ""
    with open(path) as fp:
        for last in fp:
            rows += 1
    return rows, last.rstrip("\n").split(",")


def _command_error(result) -> str | None:
    argv, code, err = result
    if code not in (0, 1) or "error:" in err:
        return f"{argv[0]} exited {code}: {err.strip()[:200]}"
    return None


def observe(job, workdir: Path, results) -> dict:
    """What the job's commands produced, in the shape of ``reference.json``."""
    obs = {"starts": {}, "reports": {}, "plots": None, "steps": 0, "errors": {}}
    for result in results:
        argv = result[0]
        error = _command_error(result)
        if argv[0] == "simulate":
            scenario = Path(argv[argv.index("--scenario") + 1]).name
            out = Path(argv[argv.index("--out") + 1])
            starts = job.starts[scenario]
            if error:
                for x0, _ in starts:
                    obs["errors"][start_key(x0)] = error
                continue
            summary = json.loads((out / "summary.json").read_text())
            for (x0, published), run, inv in zip(starts, summary["runs"],
                                                 summary["invariants"]):
                entry = {"fixture": json.loads(job.scenarios[scenario])["system"],
                         "published": published,
                         "kind": run["outcome"]["kind"],
                         "t": run["outcome"].get("t"),
                         "n_samples": run["n_samples"],
                         "min_min_dist": run.get("min_min_dist"),
                         "verdicts": None, "csv_rows": None, "final_x": None}
                if inv is not None:
                    entry["verdicts"] = [c["passed"] for c in inv["checks"]]
                    rows, last = _csv_rows_and_last(out / f"run_{run['index']:02d}.csv")
                    n = len(run["x0"])
                    entry["csv_rows"] = rows
                    entry["final_x"] = [float(v) for v in last[1:1 + n]]
                obs["starts"][start_key(x0)] = entry
                obs["steps"] += run["n_samples"]
        elif argv[0] == "plot":
            out = Path(argv[argv.index("--out") + 1])
            obs["plots"] = error or {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.glob("*.svg"))}
        else:
            path = Path(argv[argv.index("--out") + 1])
            name = f"{argv[0]} {Path(argv[argv.index('--scenario') + 1]).stem}"
            if error or not path.exists():
                obs["errors"][name] = error or f"{name}: no report written"
                continue
            obs["reports"][name] = json.loads(path.read_text())
    return obs


def _close(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)
    return a == b


def _diff(got: dict, want: dict, keys) -> list[str]:
    return [f"{k} = {got.get(k)!r}, reference {want.get(k)!r}"
            for k in keys if not _close(got.get(k), want.get(k))]


def report_summary(name: str, doc: dict) -> dict:
    """The fields of a certification report that the reference pins."""
    if name.startswith("verify-derivative"):
        return {k: doc[k] for k in ("passed", "rho0_star", "counts", "worst_point",
                                    "degenerate_ok")}
    return {"passed": doc["passed"],
            "g_min_singular_value": doc["g_min_singular_value"],
            "entries": [[e["points_checked"], e["degenerate_points"],
                         len(e["violations"]), len(e["escape_in_finite_time"])]
                        for e in doc["entries"]]}


def check(obs: dict, seed: int, reference: dict) -> dict:
    """Operation name -> list of failed checks (empty when it passed)."""
    exact = seed == DEFAULT_SEED
    failures = {name: [err] for name, err in obs["errors"].items()}
    plot_error = obs["plots"] if isinstance(obs["plots"], str) else None
    if exact and obs["plots"] not in (None, plot_error) and obs["plots"] != reference["plots"]:
        plot_error = f"SVG hashes {obs['plots']} differ from the reference"
    for key, s in obs["starts"].items():
        bad = []
        if s["kind"] in BAD_OUTCOMES:
            bad.append(f"outcome {s['kind']}")
        if s["verdicts"] is None:
            bad.append("no samples recorded")
        else:
            if not s["min_min_dist"] > 0 or not s["verdicts"][0]:
                bad.append(f"clearance {s['min_min_dist']!r} not > 0")
            if s["csv_rows"] != s["n_samples"]:
                bad.append(f"CSV rows {s['csv_rows']} != n_samples {s['n_samples']}")
        if plot_error:
            bad.append(f"plot of the CSVs: {plot_error}")
        if s["published"] or exact:
            want = reference["starts"][s["fixture"]].get(key)
            if want is None:
                bad.append("no reference recorded")
            else:
                bad += _diff(s, want, ("kind", "t", "n_samples", "final_x", "verdicts"))
        failures[key] = bad
    for name, doc in obs["reports"].items():
        bad = []
        if name.startswith("verify-derivative"):
            counts = doc["counts"]
            if sum(v for k, v in counts.items() if k != "total") != counts["total"]:
                bad.append(f"grid counts {counts} do not sum to the total")
        elif not (doc["fields_finite"] and doc["g_full_rank"]):
            bad.append("fields not finite or g rank-deficient")
        if exact:
            want = reference["reports"][name]
            got = report_summary(name, doc)
            bad += _diff(got, want, want)
        failures[name] = bad
    return failures


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
