"""Built-in models and JSON model configurations.

A model configuration is a JSON object with exactly these fields:

    variables: array of distinct variable names, none named t (the CSV
               time column) or holding a comma, double quote, CR or LF
               (each names one CSV column)
    initial:   array of initial values, one per variable
    alpha:     series/derivative order
    t0:        expansion center
    equations: one array of terms per variable; each term is an object
               {"coeff": number, "powers": [ints], "tpower": int}
               ("tpower" may be omitted and defaults to 0)

Unknown fields anywhere in the document are rejected.  alpha and t0 follow
`fracpoly`'s grid rule.  A term's powers follow `Monomial`'s power rule and
its cap on their sum, and errors name them by the `Monomial` fields
`state_powers[k]` and `time_power`.
"""

from __future__ import annotations

import math
from collections.abc import Set
from dataclasses import dataclass

from .field import Monomial, PolynomialVectorField
from .fracpoly import _check_grid


class ModelConfigError(ValueError):
    """Raised for malformed or invalid model configuration documents."""


@dataclass(frozen=True)
class ModelSpec:
    """A parsed model: names, initial state, equations, order, and center."""

    variable_names: tuple[str, ...]
    initial: tuple[float, ...]
    equations: tuple[tuple[Monomial, ...], ...]
    alpha: float
    t0: float

    def field(self) -> PolynomialVectorField:
        return PolynomialVectorField(
            equations=self.equations, variable_names=self.variable_names
        )


def sir_field(p1: float, p2: float) -> PolynomialVectorField:
    """Susceptible-infected-recovered vector field.

        S' = -p1*S*I,   I' = p1*S*I - p2*I,   R' = p2*I

    with p1 the infection rate and p2 the recovery rate, both positive and
    finite.

    Raises:
        ValueError: on non-positive or non-finite (NaN, inf) rates.
    """
    if not (0.0 < p1 < math.inf and 0.0 < p2 < math.inf):
        raise ValueError(f"rates must be positive and finite, got p1={p1}, p2={p2}")
    si = (1, 1, 0)
    i_only = (0, 1, 0)
    return PolynomialVectorField(
        equations=(
            (Monomial(-p1, si),),
            (Monomial(p1, si), Monomial(-p2, i_only)),
            (Monomial(p2, i_only),),
        ),
        variable_names=("S", "I", "R"),
    )


def sir_model(
    p1: float = 0.001,
    p2: float = 0.072,
    initial: tuple[float, float, float] = (620.0, 10.0, 70.0),
) -> ModelSpec:
    """The built-in SIR benchmark at order 1 and center 0 (defaults: the
    shipped sir.json values; the CLI's --alpha sets another order)."""
    field = sir_field(p1, p2)
    return ModelSpec(
        variable_names=field.variable_names,
        initial=tuple(float(v) for v in initial),
        equations=field.equations,
        alpha=1.0,
        t0=0.0,
    )


def parse_model_config(document: str) -> ModelSpec:
    """Parse and validate a JSON model configuration.

    Raises:
        ModelConfigError: naming the offending field or violated invariant;
            JSON syntax errors keep their line/column context, and nesting
            deeper than Python's recursion limit reads as invalid JSON.
    """
    import json  # here, so the commands that read no config never import it

    try:
        doc = json.loads(document)
    except ValueError as exc:  # also an integer literal too long to convert
        raise ModelConfigError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past Python's limit
        raise ModelConfigError(f"invalid JSON: nested too deeply ({exc})") from exc
    _check_fields(doc, "top-level document",
                  {"variables", "initial", "alpha", "t0", "equations"})

    variables = doc["variables"]
    if not isinstance(variables, list) or not variables or not all(
        isinstance(v, str) for v in variables
    ):
        raise ModelConfigError("'variables' must be a non-empty array of strings")
    bad = [v for k, v in enumerate(variables)
           if v in variables[:k] or v == "t" or set(v) & set(',"\r\n')]
    if bad:
        raise ModelConfigError(f"variable {bad[0]!r} repeats, is the time column 't', "
                               "or holds a comma, quote or line break")
    dim = len(variables)

    initial = doc["initial"]
    if not isinstance(initial, list) or len(initial) != dim or not all(
        _is_number(v) for v in initial
    ):
        raise ModelConfigError(f"'initial' must be an array of {dim} finite numbers")

    alpha, t0 = doc["alpha"], doc["t0"]
    for name, value in (("alpha", alpha), ("t0", t0)):
        if not _is_number(value):
            raise ModelConfigError(f"'{name}' must be a finite number")
    try:
        _check_grid(float(alpha), float(t0))
    except ValueError as exc:
        raise ModelConfigError(str(exc)) from exc

    equations = doc["equations"]
    if not isinstance(equations, list) or len(equations) != dim:
        raise ModelConfigError(f"'equations' must be an array of {dim} term lists")
    parsed_equations = []
    for eq_index, terms in enumerate(equations):
        if not isinstance(terms, list):
            raise ModelConfigError(f"equation {eq_index} must be an array of terms")
        parsed_terms = []
        for term_index, term in enumerate(terms):
            parsed_terms.append(_parse_term(term, eq_index, term_index, dim))
        parsed_equations.append(tuple(parsed_terms))

    return ModelSpec(
        variable_names=tuple(variables),
        initial=tuple(float(v) for v in initial),
        equations=tuple(parsed_equations),
        alpha=float(alpha),
        t0=float(t0),
    )


def _parse_term(term: object, eq_index: int, term_index: int, dim: int) -> Monomial:
    where = f"equation {eq_index}, term {term_index}"
    _check_fields(term, where, {"coeff", "powers"}, {"tpower"})
    coeff = term["coeff"]
    if not _is_number(coeff):
        raise ModelConfigError(f"{where}: 'coeff' must be a finite number")
    powers = term["powers"]
    if not isinstance(powers, list) or len(powers) != dim:
        raise ModelConfigError(f"{where}: 'powers' must be an array of {dim} integers")
    try:
        return Monomial(coeff, powers, term.get("tpower", 0))
    except ValueError as exc:
        raise ModelConfigError(f"{where}: {exc}") from exc


def _check_fields(value: object, where: str, required: Set[str],
                  optional: Set[str] = frozenset()) -> None:
    """The one rule for a JSON object: every required field and no unknown one."""
    if not isinstance(value, dict):
        raise ModelConfigError(f"{where} must be an object")
    unknown, missing = set(value) - required - optional, required - set(value)
    if unknown:
        raise ModelConfigError(f"{where}: unknown field {sorted(unknown)[0]!r}")
    if missing:
        raise ModelConfigError(f"{where}: missing field {sorted(missing)[0]!r}")


def _is_number(value: object) -> bool:
    # json.loads yields nan and inf (also from overflowing literals such as
    # 1e999), and ints too large for a double; none of them is a usable number.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
