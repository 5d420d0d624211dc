"""Command-line interface.

Subcommands: simulate, verify-derivative, check-assumptions, check-trajectory,
geometry, validate-params, plot.  Scenario arguments accept a builtin name
(linear2d_single, nonlinear_mech_three) or a JSON file path.  Exit codes:
0 success, 1 invariant/validation failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import plotting, simulator, verify
from .certificate import Certificate
from .scenario import (BUILTIN_SCENARIOS, IntegratorSettings, ScenarioConfig,
                       ScenarioError, builtin_scenario, load_scenario,
                       validate_params)
from .systems import check_assumptions, resolve_system

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load(scenario_arg: str, overrides: argparse.Namespace | None = None) -> ScenarioConfig:
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
    if overrides is not None:
        integ = config.integrator
        updates = {}
        if overrides.dt is not None:
            updates["dt"] = overrides.dt
        if overrides.t_max is not None:
            updates["t_max"] = overrides.t_max
        if updates:
            integ = dataclasses.replace(integ, **updates)
            config = dataclasses.replace(config, integrator=integ)
    return config


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _cmd_simulate(args) -> int:
    config = _load(args.scenario, args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    summary, records = simulator.run_batch(config, override_init=args.override_init)
    for idx, rec in enumerate(records):
        if not rec.samples:
            continue
        with open(outdir / f"run_{idx:02d}.csv", "w", newline="") as fp:
            simulator.write_trajectory_csv(rec, fp)
    doc = summary.to_dict()
    inv = []
    for rec in records:
        if rec.samples:
            inv.append(verify.trajectory_invariants(rec, config).to_dict())
        else:
            inv.append(None)
    doc["invariants"] = inv
    (outdir / "summary.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(1 for r in records if r.samples)} trajectory files and "
          f"summary.json to {outdir}")
    ok = all(r.outcome is not None and r.outcome.kind == "converged" for r in records)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_verify_derivative(args) -> int:
    config = _load(args.scenario)
    report = verify.grid_decrease_check(config, resolution=args.resolution)
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_check_assumptions(args) -> int:
    config = _load(args.scenario)
    report = check_assumptions(resolve_system(config), config,
                               grid_resolution=args.resolution)
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_check_trajectory(args) -> int:
    path = Path(args.csv)
    if not path.exists():
        raise CliError(f"trajectory file not found: {path}")
    with open(path, newline="") as fp:
        record = simulator.read_trajectory_csv(fp)
    if args.scenario:
        config = _load(args.scenario)
        report = verify.trajectory_invariants(record, config)
        doc = report.to_dict()
        passed = report.passed
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


def _cmd_validate_params(args) -> int:
    config = _load(args.scenario)
    report = validate_params(config)
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_plot(args) -> int:
    config = _load(args.scenario)
    records = []
    for name in args.csv:
        path = Path(name)
        if not path.exists():
            raise CliError(f"trajectory file not found: {path}")
        with open(path, newline="") as fp:
            records.append(simulator.read_trajectory_csv(fp))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    if config.n == 2:
        (outdir / "phase.svg").write_text(plotting.render_phase_svg(records, config))
        written.append("phase.svg")
    (outdir / "value.svg").write_text(plotting.render_value_svg(records))
    written.append("value.svg")
    print(f"wrote {', '.join(written)} to {outdir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nclbf",
                                description="Nonsmooth control Lyapunov barrier toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--scenario", required=True, help="builtin name or JSON file path")
        sp.add_argument("--out", default=None, help="write the JSON report here too")

    sp = sub.add_parser("simulate", help="run the closed loop from every initial state")
    sp.add_argument("--scenario", required=True)
    sp.add_argument("--out", required=True, help="output directory for CSVs and summary.json")
    sp.add_argument("--dt", type=float, default=None, help="override step size")
    sp.add_argument("--t-max", dest="t_max", type=float, default=None,
                    help="override time horizon")
    sp.add_argument("--override-init", action="store_true",
                    help="simulate inadmissible initial states anyway")
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("verify-derivative", help="grid check of the decreasing condition")
    add_common(sp)
    sp.add_argument("--resolution", type=int, default=201)
    sp.set_defaults(fn=_cmd_verify_derivative)

    sp = sub.add_parser("check-assumptions", help="sampled structural checks of f and g")
    add_common(sp)
    sp.add_argument("--resolution", type=int, default=101)
    sp.set_defaults(fn=_cmd_check_assumptions)

    sp = sub.add_parser("check-trajectory", help="invariant checks on a trajectory CSV")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--scenario", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_check_trajectory)

    sp = sub.add_parser("geometry", help="virtual-boundary geometry per obstacle")
    add_common(sp)
    sp.set_defaults(fn=_cmd_geometry)

    sp = sub.add_parser("validate-params", help="check every design inequality")
    add_common(sp)
    sp.set_defaults(fn=_cmd_validate_params)

    sp = sub.add_parser("plot", help="render phase portrait and V(t) SVGs")
    sp.add_argument("--scenario", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("csv", nargs="*", help="trajectory CSV files")
    sp.set_defaults(fn=_cmd_plot)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # noqa: BLE001 - last-resort diagnostic surface
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
