"""Command-line interface.

Subcommands: simulate, verify-derivative, check-assumptions, check-trajectory,
geometry, validate-params, plot.  Scenario arguments accept a builtin name
(linear2d_single, nonlinear_mech_three) or a JSON file path.  Exit codes:
0 success, 1 invariant/validation failure (``simulate``: a run that does not
converge or any of its invariant checks fails), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import plotting, simulator, verify
from .certificate import Certificate
from .scenario import (BUILTIN_SCENARIOS, IntegratorSettings, ScenarioConfig,
                       ScenarioError, builtin_scenario, json_doc, load_scenario)
from .systems import resolve_system
from .verify import check_assumptions

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


class CliError(Exception):
    """Bad command-line input: exit code 2."""


def _load(scenario_arg: str, dt: float | None = None,
          t_max: float | None = None) -> ScenarioConfig:
    if scenario_arg in BUILTIN_SCENARIOS:
        config = builtin_scenario(scenario_arg)
    else:
        path = Path(scenario_arg)
        if not path.exists():
            raise CliError(f"scenario '{scenario_arg}' is neither a builtin "
                           f"({', '.join(sorted(BUILTIN_SCENARIOS))}) nor an existing file")
        try:
            config = load_scenario(path.read_text(encoding="utf-8"))
        except ScenarioError as e:
            raise CliError(f"bad scenario file {path}: {e}") from e
        except (OSError, UnicodeDecodeError) as e:
            raise CliError(f"cannot read scenario file {path}: {e}") from e
    resolve_system(config)   # an unknown system or a dimension mismatch exits 2 here
    updates = {k: v for k, v in (("dt", dt), ("t_max", t_max)) if v is not None}
    if updates:
        integ = dataclasses.replace(config.integrator, **updates)
        config = dataclasses.replace(config, integrator=integ)
    return config


def _json_text(v) -> str:
    # json_doc writes a non-finite float as null: one left over is a bug, not a token
    return json.dumps(json_doc(v), indent=2, sort_keys=True, allow_nan=False)


@contextmanager
def _writing(path):
    """Every file and directory the CLI writes is made inside this: an OSError
    (an --out that is a directory, an existing file or under a missing
    directory) is a usage error."""
    try:
        yield
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}") from e


def _emit(report, out: str | None) -> None:
    text = _json_text(report)
    if out:
        with _writing(out):
            Path(out).write_text(text + "\n")
    print(text)


def _cmd_simulate(args) -> int:
    config = _load(args.scenario, args.dt, args.t_max)
    outdir = Path(args.out)
    with _writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    summary, records = simulator.run_batch(config, override_init=args.override_init)
    for idx, rec in enumerate(records):
        if len(rec):
            path = outdir / f"run_{idx:02d}.csv"
            with _writing(path), open(path, "w", newline="") as fp:
                simulator.write_trajectory_csv(rec, fp)
    reports = [verify.trajectory_invariants(rec, config) if len(rec) else None
               for rec in records]
    doc = dict(json_doc(summary), invariants=reports)
    with _writing(outdir / "summary.json"):
        (outdir / "summary.json").write_text(_json_text(doc) + "\n")
    print(f"wrote {sum(1 for r in records if len(r))} trajectory files and "
          f"summary.json to {outdir}")
    # a converged run has samples, so it has a report
    ok = all(r.outcome.kind == "converged" and rep.passed for r, rep in zip(records, reports))
    return EXIT_OK if ok else EXIT_FAIL


def _report_command(make):
    """A command that emits the report make(config, args); exit 1 unless it passed."""
    def run(args) -> int:
        report = make(_load(args.scenario), args)
        _emit(report, args.out)
        return EXIT_OK if report.passed else EXIT_FAIL
    return run


def _read_record(name: str, config: ScenarioConfig | None) -> simulator.TrajectoryRecord:
    """The trajectory CSV name; given a scenario, its (n, m, N) must match and
    V, the region and min_dist are rebuilt from x, so checks judge the states."""
    try:
        with open(name, newline="") as fp:
            record = simulator.read_trajectory_csv(fp)
    except FileNotFoundError:
        raise CliError(f"trajectory file not found: {name}") from None
    except OSError as e:
        raise CliError(f"cannot read trajectory file {name}: {e}") from e
    except (ValueError, csv.Error) as e:
        raise CliError(f"bad trajectory file {name}: {e}") from e
    shape = (record.x.shape[1], record.u.shape[1], record.min_dist.shape[1])
    if not config:
        return record
    if shape != (config.n, resolve_system(config).m, config.n_obstacles):
        raise CliError(f"trajectory {name} has (n, m, N) = {shape}: not the scenario's")
    V, kind, index, min_dist = Certificate(config).record_columns(record.x)
    return dataclasses.replace(record, V=V, kind=kind, index=index, min_dist=min_dist)


def _cmd_check_trajectory(args) -> int:
    config = _load(args.scenario) if args.scenario else None
    record = _read_record(args.csv, config)
    if config:
        report = verify.trajectory_invariants(record, config)
        passed = report.passed
    else:
        # without a scenario only the self-contained columns can be checked,
        # with the default convergence radius
        checks = verify.record_checks(record, IntegratorSettings().eps_conv)
        passed = all(c.passed for c in checks)
        report = {"passed": passed, "checks": checks,
                  "note": "no scenario given: band and derivative checks skipped"}
    _emit(report, args.out)
    return EXIT_OK if passed else EXIT_FAIL


def _cmd_geometry(args) -> int:
    config = _load(args.scenario)
    cert = Certificate(config)
    obstacles = []
    for i in range(config.n_obstacles):
        cbar, rbar_sq = cert.boundary_sphere(i)
        entry = {
            "obstacle": i,
            "center": config.obstacles[i].center.tolist(),
            "radius": config.obstacles[i].radius,
            "boundary_center": cbar.tolist(),
            "boundary_radius_sq": rbar_sq,
            "buffer_width": cert.buffer_width(i),
            "phi": cert.phis[i],
        }
        if config.n == 2:
            a, b = cert.contact_points_2d(i)
            entry["contact_points"] = [a.tolist(), b.tolist()]
        obstacles.append(entry)
    _emit({"scenario": config.system_id, "obstacles": obstacles}, args.out)
    return EXIT_OK


def _cmd_plot(args) -> int:
    config = _load(args.scenario)
    records = [_read_record(name, config) for name in args.csv]
    outdir = Path(args.out)
    with _writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    if config.n == 2:
        with _writing(outdir / "phase.svg"):
            (outdir / "phase.svg").write_text(plotting.render_phase_svg(records, config))
    with _writing(outdir / "value.svg"):
        (outdir / "value.svg").write_text(plotting.render_value_svg(records))
    print(f"wrote {'phase.svg, ' if config.n == 2 else ''}value.svg to {outdir}")
    return EXIT_OK


def _resolution(floor: int):
    """--resolution's type: a grid below the check's floor is a usage error."""
    def resolution(text: str) -> int:
        if int(text) < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}")
        return int(text)
    return resolution


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every ``main`` call:
    it holds no per-call state.  Handlers are bound once, so patching a
    ``_cmd_*`` name after the first call has no effect."""
    p = argparse.ArgumentParser(prog="nclbf",
                                description="Nonsmooth control Lyapunov barrier toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run the closed loop from every initial state")
    sp.add_argument("--scenario", required=True)
    sp.add_argument("--out", required=True, help="output directory for CSVs and summary.json")
    sp.add_argument("--dt", type=float, default=None, help="override step size")
    sp.add_argument("--t-max", dest="t_max", type=float, default=None,
                    help="override time horizon")
    sp.add_argument("--override-init", action="store_true",
                    help="simulate inadmissible initial states anyway")
    sp.set_defaults(fn=_cmd_simulate)

    # the lambdas look check_assumptions up when called, so patching cli's name works
    for name, text, grid, fn in (
            ("verify-derivative", "grid check of the decreasing condition",
             (verify.DECREASE_RESOLUTION, verify.DECREASE_FLOOR),
             _report_command(lambda c, a: verify.grid_decrease_check(c, a.resolution))),
            ("check-assumptions", "sampled structural checks of f and g",
             (verify.ASSUMPTIONS_RESOLUTION, verify.ASSUMPTIONS_FLOOR),
             _report_command(lambda c, a: check_assumptions(c, a.resolution))),
            ("geometry", "virtual-boundary geometry per obstacle", None, _cmd_geometry),
            ("validate-params", "check every design inequality", None,
             _report_command(lambda c, a: verify.validate_params(c)))):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--scenario", required=True, help="builtin name or JSON file path")
        sp.add_argument("--out", default=None, help="write the JSON report here too")
        if grid:
            sp.add_argument("--resolution", type=_resolution(grid[1]), default=grid[0])
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("check-trajectory", help="invariant checks on a trajectory CSV")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--scenario", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_check_trajectory)

    sp = sub.add_parser("plot", help="render phase portrait and V(t) SVGs")
    sp.add_argument("--scenario", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("csv", nargs="*", help="trajectory CSV files")
    sp.set_defaults(fn=_cmd_plot)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        return args.fn(args)
    except (CliError, ScenarioError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # noqa: BLE001 - last-resort diagnostic surface
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
