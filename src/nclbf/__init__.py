"""Nonsmooth control Lyapunov barrier functions and safe stabilization."""

from .certificate import BoundarySphere, Certificate, RegionLabel
from .controller import (ControlDecision, Controller, SafetyViolationError,
                         make_controller, mu, mu_bar)
from .scenario import (IntegratorSettings, ObstacleParams, ObstacleSpec,
                       ScenarioConfig, ScenarioError, ValidationReport,
                       builtin_scenario, derive_eta2, load_scenario,
                       save_scenario, validate_params)
from .simulator import (Outcome, SimulationSummary, StepSample,
                        TrajectoryRecord, read_trajectory_csv, rk4_step,
                        run_batch, simulate, trajectory_csv_text,
                        write_trajectory_csv)
from .systems import (AssumptionReport, ControlAffineSystem, builtin_linear2d,
                      builtin_nonlinear_mech, check_assumptions,
                      register_system, resolve_system)
from .verify import (DecreaseReport, DerivativeBreakdown, InvariantReport,
                     grid_decrease_check, trajectory_invariants,
                     upper_derivative)

__all__ = [
    "BoundarySphere", "Certificate", "RegionLabel",
    "ControlDecision", "Controller", "SafetyViolationError",
    "make_controller", "mu", "mu_bar",
    "IntegratorSettings", "ObstacleParams", "ObstacleSpec", "ScenarioConfig",
    "ScenarioError", "ValidationReport", "builtin_scenario", "derive_eta2",
    "load_scenario", "save_scenario", "validate_params",
    "Outcome", "SimulationSummary", "StepSample", "TrajectoryRecord",
    "read_trajectory_csv", "rk4_step", "run_batch", "simulate",
    "trajectory_csv_text", "write_trajectory_csv",
    "AssumptionReport", "ControlAffineSystem", "builtin_linear2d",
    "builtin_nonlinear_mech", "check_assumptions", "register_system",
    "resolve_system",
    "DecreaseReport", "DerivativeBreakdown", "InvariantReport",
    "grid_decrease_check", "trajectory_invariants", "upper_derivative",
]
