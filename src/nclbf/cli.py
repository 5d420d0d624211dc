"""Command-line interface.

Subcommands: simulate, verify-derivative, check-assumptions, check-trajectory,
geometry, validate-params, plot.  Scenario arguments accept a builtin name
(linear2d_single, nonlinear_mech_three) or a JSON file path.  Exit codes:
0 success, 1 invariant/validation failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import plotting, simulator, verify
from .certificate import Certificate
from .scenario import (BUILTIN_SCENARIOS, IntegratorSettings, ScenarioConfig,
                       ScenarioError, builtin_scenario, load_scenario,
                       validate_params)
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
            config = load_scenario(path.read_text())
        except ScenarioError as e:
            raise CliError(f"bad scenario file {path}: {e}") from e
    resolve_system(config)   # an unknown system or a dimension mismatch exits 2 here
    updates = {k: v for k, v in (("dt", dt), ("t_max", t_max)) if v is not None}
    if updates:
        integ = dataclasses.replace(config.integrator, **updates)
        config = dataclasses.replace(config, integrator=integ)
    return config


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _cmd_simulate(args) -> int:
    config = _load(args.scenario, args.dt, args.t_max)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    summary, records = simulator.run_batch(config, override_init=args.override_init)
    for idx, rec in enumerate(records):
        if len(rec):
            with open(outdir / f"run_{idx:02d}.csv", "w", newline="") as fp:
                simulator.write_trajectory_csv(rec, fp)
    doc = summary.to_dict()
    doc["invariants"] = [verify.trajectory_invariants(rec, config).to_dict() if len(rec)
                         else None for rec in records]
    (outdir / "summary.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(1 for r in records if len(r))} trajectory files and "
          f"summary.json to {outdir}")
    return EXIT_OK if all(r.outcome.kind == "converged" for r in records) else EXIT_FAIL


def _report_command(make):
    """A command that emits the report make(config, args); exit 1 unless it passed."""
    def run(args) -> int:
        report = make(_load(args.scenario), args)
        _emit(report.to_dict(), args.out)
        return EXIT_OK if report.passed else EXIT_FAIL
    return run


def _read_record(name: str) -> simulator.TrajectoryRecord:
    try:
        with open(name, newline="") as fp:
            return simulator.read_trajectory_csv(fp)
    except FileNotFoundError:
        raise CliError(f"trajectory file not found: {name}") from None
    except (ValueError, csv.Error) as e:
        raise CliError(f"bad trajectory file {name}: {e}") from e


def _cmd_check_trajectory(args) -> int:
    record = _read_record(args.csv)
    if args.scenario:
        config = _load(args.scenario)
        shape = (record.x.shape[1], record.u.shape[1], record.min_dist.shape[1])
        if shape != (config.n, resolve_system(config).m, config.n_obstacles):
            raise CliError(f"trajectory {args.csv} has (n, m, N) = {shape}: not the scenario's")
        report = verify.trajectory_invariants(record, config)
        doc, passed = report.to_dict(), report.passed
    else:
        # without a scenario only the self-contained columns can be checked,
        # with the default convergence radius
        checks = verify.record_checks(record, IntegratorSettings().eps_conv)
        passed = all(c.passed for c in checks)
        doc = {"passed": passed, "checks": [c.to_dict() for c in checks],
               "note": "no scenario given: band and derivative checks skipped"}
    _emit(doc, args.out)
    return EXIT_OK if passed else EXIT_FAIL


def _cmd_geometry(args) -> int:
    config = _load(args.scenario)
    cert = Certificate(config)
    obstacles = []
    for i in range(config.n_obstacles):
        sph = cert.boundary_sphere(i)
        entry = {
            "obstacle": i,
            "center": config.obstacles[i].center.tolist(),
            "radius": config.obstacles[i].radius,
            "boundary_center": sph.center.tolist(),
            "boundary_radius_sq": sph.radius_sq,
            "buffer_width": cert.buffer_width(i),
            "phi": cert.phi(i),
        }
        if config.n == 2:
            a, b = cert.contact_points_2d(i)
            entry["contact_points"] = [a.tolist(), b.tolist()]
        obstacles.append(entry)
    _emit({"scenario": config.system_id, "obstacles": obstacles}, args.out)
    return EXIT_OK


def _cmd_plot(args) -> int:
    config = _load(args.scenario)
    records = [_read_record(name) for name in args.csv]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if config.n == 2:
        (outdir / "phase.svg").write_text(plotting.render_phase_svg(records, config))
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


def build_parser() -> argparse.ArgumentParser:
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
             _report_command(lambda c, a: validate_params(c)))):
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
