"""Pin of the package's public surface.

Every name in `fracseries.__all__`, the parameter names of every public
callable (a class's are its constructor's) and the public members a class
defines beyond them are listed here, so a new, renamed or removed name or
option shows up as a diff of this file.
"""

import inspect

import fracseries

SURFACE = {
    "DiscrepancyReport": (
        ["alpha", "beta_exp", "m", "caputo_coefficient", "conformable_coefficient", "ratio"],
        [],
    ),
    "FractionalPolynomial": (
        ["alpha", "t0", "coeffs"],
        ["caputo_derivative", "coefficient", "degree", "evaluate", "rl_integral",
         "sequential_caputo_limit", "truncated"],
    ),
    "GridMismatchError": ValueError,
    "ModelConfigError": ValueError,
    "ModelSpec": (["variable_names", "initial", "equations", "alpha", "t0"], ["field"]),
    "Monomial": (["coeff", "state_powers", "time_power"], []),
    "PolynomialVectorField": (["equations", "variable_names"], ["dimension", "plan"]),
    "SeriesProblem": (["field", "y0", "alpha", "t0", "degree"], []),
    "SeriesSolution": (["series", "problem"], []),
    "TableRow": (["t", "reference", "approximation", "absolute_error", "relative_error"], []),
    "Trajectory": (["times", "states"], []),
    "add_scaled": ["p", "q", "a", "b"],
    "build_defect": ["field", "candidate", "max_degree"],
    "caputo_power_rule": ["beta_exp", "alpha"],
    "caputo_power_value": ["beta_exp", "alpha", "t_shift"],
    "comparison_table": ["reference", "series", "component", "sample_times"],
    "compose_series": ["field", "y_series", "max_degree"],
    "conformable_power_derivative": ["beta_exp", "alpha", "t_shift"],
    "default_sample_times": ["t0"],
    "discrepancy_report": ["beta_exp", "alpha"],
    "evaluate_field": ["field", "t_shifted_pow_alpha", "y"],
    "gamma": ["x"],
    "multiply_truncated": ["p", "q", "max_degree"],
    "parse_model_config": ["document"],
    "rk4_integrate": ["field", "y0", "t0", "t_end", "h", "record_every"],
    "sir_field": ["p1", "p2"],
    "sir_model": ["p1", "p2", "initial", "alpha", "t0"],
    "solve": ["problem"],
    "verify_defect_conditions": ["solution", "problem"],
}


def _surface(obj):
    if inspect.isclass(obj) and issubclass(obj, Exception):
        return obj.__base__
    params = list(inspect.signature(obj).parameters)
    if not inspect.isclass(obj):
        return params
    members = sorted(n for n in vars(obj) if not n.startswith("_") and n not in params)
    return params, members


def test_all_is_pinned():
    assert sorted(fracseries.__all__) == sorted(SURFACE)
    assert len(set(fracseries.__all__)) == len(fracseries.__all__)


def test_signatures_and_members_are_pinned():
    got = {name: _surface(getattr(fracseries, name)) for name in fracseries.__all__}
    assert got == SURFACE
