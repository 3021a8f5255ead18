"""Truncated power-series solutions of Caputo fractional differential systems.

The package solves D^alpha y = f(t, y) with polynomial f by matching series
coefficients so that the defect of the truncated solution vanishes order by
order, and ships the supporting pieces: fractional-polynomial algebra, a
Gamma kernel, a classical RK4 baseline, error tables, a power-rule
audit of the conformable derivative, and a CSV-emitting CLI.
"""

from .conformable import (
    DiscrepancyReport,
    caputo_power_value,
    conformable_power_derivative,
    discrepancy_report,
)
from .field import Monomial, PolynomialVectorField, compose_series, evaluate_field
from .fracpoly import (
    FractionalPolynomial,
    GridMismatchError,
    add_scaled,
    caputo_power_rule,
    multiply_truncated,
)
from .metrics import TableRow, comparison_table, default_sample_times
from .models import ModelConfigError, ModelSpec, parse_model_config, sir_field, sir_model
from .rk4 import Trajectory, rk4_integrate
from .solver import (
    SeriesProblem,
    SeriesSolution,
    build_defect,
    solve,
    verify_defect_conditions,
)
from .special import gamma

__version__ = "0.1.0"

__all__ = [
    "DiscrepancyReport",
    "FractionalPolynomial",
    "GridMismatchError",
    "ModelConfigError",
    "ModelSpec",
    "Monomial",
    "PolynomialVectorField",
    "SeriesProblem",
    "SeriesSolution",
    "TableRow",
    "Trajectory",
    "add_scaled",
    "build_defect",
    "caputo_power_rule",
    "caputo_power_value",
    "comparison_table",
    "compose_series",
    "conformable_power_derivative",
    "default_sample_times",
    "discrepancy_report",
    "evaluate_field",
    "gamma",
    "multiply_truncated",
    "parse_model_config",
    "rk4_integrate",
    "sir_field",
    "sir_model",
    "solve",
    "verify_defect_conditions",
]
