"""Record ``reference.json``, the outputs the checks compare against.

    python3 bench/record_reference.py

Runs each workload's job once at the default seed and stores what
``checks.observe`` sees.  Run
it only when a change to the program is meant to change its outputs, and say
why in the change.
"""

import json

import run  # sets the thread environment and the import path
from checks import DEFAULT_SEED, REFERENCE, observe, report_summary
from workloads import build

PINNED = ("kind", "t", "n_samples", "final_x", "verdicts")


def main() -> None:
    ref = {"default_seed": DEFAULT_SEED, "starts": {}, "reports": {}, "plots": None}
    for job in (build("single_slide", DEFAULT_SEED),
                build("multi_long", DEFAULT_SEED),
                build("certify", DEFAULT_SEED)):
        workdir = run.ROOT / ".bench_run" / f"reference-{job.workload}"
        job.write(workdir)
        _, results = run.run_job(job, workdir)
        obs = observe(job, workdir, results)
        if obs["errors"] or isinstance(obs["plots"], str):
            raise SystemExit(f"{job.workload}: {obs['errors'] or obs['plots']}")
        for key, s in obs["starts"].items():
            ref["starts"].setdefault(s["fixture"], {})[key] = {k: s[k] for k in PINNED}
        for name, doc in obs["reports"].items():
            ref["reports"][name] = report_summary(name, doc)
        ref["plots"] = ref["plots"] or obs["plots"]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
