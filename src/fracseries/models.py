"""Built-in models and JSON model configurations.

A model configuration is a JSON object with exactly these fields:

    variables: array of distinct variable names, none named t (the CSV
               time column) or holding a comma, double quote, CR or LF
               (each names one CSV column)
    initial:   array of initial values, one per variable
    alpha:     series/derivative order in (0, 1]
    t0:        expansion center
    equations: one array of terms per variable; each term is an object
               {"coeff": number, "powers": [ints], "tpower": int}
               ("tpower" may be omitted and defaults to 0)

Unknown fields anywhere in the document are rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .field import Monomial, PolynomialVectorField


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
    alpha: float = 1.0,
    t0: float = 0.0,
) -> ModelSpec:
    """The built-in SIR benchmark (defaults: the shipped sir.json values)."""
    field = sir_field(p1, p2)
    return ModelSpec(
        variable_names=field.variable_names,
        initial=tuple(float(v) for v in initial),
        equations=field.equations,
        alpha=alpha,
        t0=t0,
    )


def parse_model_config(document: str) -> ModelSpec:
    """Parse and validate a JSON model configuration.

    Raises:
        ModelConfigError: naming the offending field or violated invariant;
            JSON syntax errors keep their line/column context.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelConfigError("top-level document must be an object")

    required = {"variables", "initial", "alpha", "t0", "equations"}
    unknown = set(doc) - required
    if unknown:
        raise ModelConfigError(f"unknown field {sorted(unknown)[0]!r}")
    missing = required - set(doc)
    if missing:
        raise ModelConfigError(f"missing field {sorted(missing)[0]!r}")

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
    if not isinstance(initial, list) or not all(_is_number(v) for v in initial):
        raise ModelConfigError("'initial' must be an array of finite numbers")
    if len(initial) != dim:
        raise ModelConfigError(
            f"'initial' has {len(initial)} entries for {dim} variables"
        )

    alpha = doc["alpha"]
    if not _is_number(alpha):
        raise ModelConfigError("'alpha' must be a finite number")
    if not 0.0 < float(alpha) <= 1.0:
        raise ModelConfigError(f"alpha out of (0, 1]: {alpha}")

    t0 = doc["t0"]
    if not _is_number(t0):
        raise ModelConfigError("'t0' must be a finite number")

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
    if not isinstance(term, dict):
        raise ModelConfigError(f"{where}: term must be an object")
    unknown = set(term) - {"coeff", "powers", "tpower"}
    if unknown:
        raise ModelConfigError(f"{where}: unknown field {sorted(unknown)[0]!r}")
    if "coeff" not in term or "powers" not in term:
        raise ModelConfigError(f"{where}: term needs 'coeff' and 'powers'")
    coeff = term["coeff"]
    if not _is_number(coeff):
        raise ModelConfigError(f"{where}: 'coeff' must be a finite number")
    powers = term["powers"]
    if not isinstance(powers, list) or not all(
        isinstance(e, int) and not isinstance(e, bool) for e in powers
    ):
        raise ModelConfigError(f"{where}: 'powers' must be an array of integers")
    if len(powers) != dim:
        raise ModelConfigError(
            f"{where}: 'powers' has {len(powers)} entries for {dim} variables"
        )
    if any(e < 0 for e in powers):
        raise ModelConfigError(f"{where}: state powers must be non-negative")
    tpower = term.get("tpower", 0)
    if not isinstance(tpower, int) or isinstance(tpower, bool) or tpower < 0:
        raise ModelConfigError(f"{where}: 'tpower' must be a non-negative integer")
    return Monomial(coeff=float(coeff), state_powers=tuple(powers), time_power=tpower)


def _is_number(value: object) -> bool:
    # json.loads yields nan and inf (also from overflowing literals such as
    # 1e999), and ints too large for a double; none of them is a usable number.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
