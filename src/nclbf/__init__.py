"""Nonsmooth control Lyapunov barrier functions and safe stabilization."""

from .certificate import Certificate
from .controller import Controller, SafetyViolationError
from .scenario import (IntegratorSettings, ObstacleParams, ObstacleSpec,
                       ScenarioConfig, ScenarioError, builtin_scenario,
                       derive_eta2, json_doc, load_scenario, save_scenario)
from .simulator import (Outcome, SimulationSummary, TrajectoryRecord,
                        read_trajectory_csv, rk4_step, run_batch, simulate,
                        trajectory_csv_text, write_trajectory_csv)
from .systems import (ControlAffineSystem, builtin_linear2d, builtin_nonlinear_mech,
                      linear_system, register_system, resolve_system)
from .verify import (AssumptionReport, DecreaseReport, InvariantReport,
                     ValidationReport, check_assumptions, grid_decrease_check,
                     trajectory_invariants, upper_derivative, validate_params)

__all__ = [
    "Certificate", "Controller", "SafetyViolationError",
    "IntegratorSettings", "ObstacleParams", "ObstacleSpec", "ScenarioConfig",
    "ScenarioError", "ValidationReport", "builtin_scenario", "derive_eta2",
    "json_doc", "load_scenario", "save_scenario", "validate_params",
    "Outcome", "SimulationSummary", "TrajectoryRecord",
    "read_trajectory_csv", "rk4_step", "run_batch", "simulate",
    "trajectory_csv_text", "write_trajectory_csv",
    "ControlAffineSystem", "builtin_linear2d", "builtin_nonlinear_mech",
    "linear_system", "register_system", "resolve_system",
    "AssumptionReport", "DecreaseReport", "InvariantReport",
    "check_assumptions", "grid_decrease_check", "trajectory_invariants",
    "upper_derivative",
]
