import json
import math
import re
from pathlib import Path

import pytest

from fracseries import (
    ModelConfigError,
    Monomial,
    evaluate_field,
    parse_model_config,
    sir_field,
    sir_model,
)

SHIPPED_SIR = Path(__file__).resolve().parent.parent / "sir.json"


class TestSirField:
    def test_term_structure(self):
        field = sir_field(0.001, 0.072)
        assert field.dimension == 3
        assert field.variable_names == ("S", "I", "R")
        assert field.equations[0] == (Monomial(-0.001, (1, 1, 0)),)
        assert field.equations[1] == (
            Monomial(0.001, (1, 1, 0)),
            Monomial(-0.072, (0, 1, 0)),
        )
        assert field.equations[2] == (Monomial(0.072, (0, 1, 0)),)

    def test_initial_state_rates(self):
        rhs = evaluate_field(sir_field(0.001, 0.072), 0.0, (620.0, 10.0, 70.0))
        assert rhs == pytest.approx((-6.2, 5.48, 0.72), rel=1e-12)

    def test_disease_free_equilibrium(self):
        rhs = evaluate_field(sir_field(0.4, 0.9), 0.0, (100.0, 0.0, 3.0))
        assert rhs == [0.0, 0.0, 0.0]

    def test_no_susceptibles(self):
        rhs = evaluate_field(sir_field(0.001, 0.072), 0.0, (0.0, 10.0, 0.0))
        assert rhs == pytest.approx((0.0, -0.72, 0.72), abs=1e-15)

    @pytest.mark.parametrize(
        "p1,p2",
        [(0.0, 0.1), (0.1, 0.0), (-1.0, 0.1)]
        + [(bad, 0.1) for bad in (math.nan, math.inf, -math.inf)]
        + [(0.1, bad) for bad in (math.nan, math.inf, -math.inf)],
    )
    def test_nonpositive_rates_rejected(self, p1, p2):
        with pytest.raises(ValueError, match=r"^rates must be positive and finite, got "):
            sir_field(p1, p2)
        with pytest.raises(ValueError):
            sir_model(p1=p1, p2=p2)

    def test_conservation_structure(self):
        # Summing all three equations cancels term by term.
        field = sir_field(0.001, 0.072)
        sums = {}
        for terms in field.equations:
            for m in terms:
                key = (m.state_powers, m.time_power)
                sums[key] = sums.get(key, 0.0) + m.coeff
        assert all(abs(total) <= 1e-15 for total in sums.values())


class TestParseModelConfig:
    def test_shipped_config_matches_builtin(self):
        spec = parse_model_config(SHIPPED_SIR.read_text())
        assert spec == sir_model()

    def test_alpha_out_of_range(self):
        doc = SHIPPED_SIR.read_text().replace('"alpha": 1.0', '"alpha": 1.5')
        with pytest.raises(ModelConfigError, match="alpha out of"):
            parse_model_config(doc)

    def test_wrong_powers_width(self):
        doc = SHIPPED_SIR.read_text().replace("[1, 1, 0]", "[1, 1]", 1)
        with pytest.raises(ModelConfigError, match="powers"):
            parse_model_config(doc)

    def test_unknown_top_level_field(self):
        doc = SHIPPED_SIR.read_text().replace('"alpha"', '"alpha_extra": 1, "alpha"')
        with pytest.raises(ModelConfigError, match="unknown field"):
            parse_model_config(doc)

    def test_unknown_term_field(self):
        doc = SHIPPED_SIR.read_text().replace('"tpower": 0}', '"tpower": 0, "x": 1}', 1)
        with pytest.raises(ModelConfigError, match="unknown field"):
            parse_model_config(doc)

    def test_missing_field(self):
        doc = SHIPPED_SIR.read_text().replace('"t0": 0.0,', "")
        with pytest.raises(ModelConfigError, match="missing field 't0'"):
            parse_model_config(doc)

    def test_initial_length_mismatch(self):
        doc = SHIPPED_SIR.read_text().replace("[620.0, 10.0, 70.0]", "[620.0, 10.0]")
        with pytest.raises(ModelConfigError, match="initial"):
            parse_model_config(doc)

    def test_negative_tpower(self):
        doc = SHIPPED_SIR.read_text().replace('"tpower": 0}', '"tpower": -1}', 1)
        with pytest.raises(ModelConfigError, match="tpower"):
            parse_model_config(doc)

    def test_tpower_defaults_to_zero(self):
        doc = SHIPPED_SIR.read_text().replace(', "tpower": 0', "")
        spec = parse_model_config(doc)
        assert spec == sir_model()

    def test_invalid_json_keeps_position_context(self):
        with pytest.raises(ModelConfigError, match="line"):
            parse_model_config('{"variables": ["x"],\n  broken')

    def test_non_object_document(self):
        with pytest.raises(ModelConfigError, match="object"):
            parse_model_config("[1, 2, 3]")

    def test_boolean_is_not_a_number(self):
        doc = SHIPPED_SIR.read_text().replace('"coeff": -0.001', '"coeff": true')
        with pytest.raises(ModelConfigError, match="coeff"):
            parse_model_config(doc)

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400]
    )
    @pytest.mark.parametrize(
        "field, old, new",
        [
            ("initial", "[620.0, 10.0, 70.0]", "[{}, 10.0, 70.0]"),
            ("alpha", '"alpha": 1.0', '"alpha": {}'),
            ("t0", '"t0": 0.0', '"t0": {}'),
            ("coeff", '"coeff": -0.001', '"coeff": {}'),
        ],
    )
    def test_non_finite_number_rejected(self, literal, field, old, new):
        # json.loads accepts all of these; a 400-digit integer has no double.
        doc = SHIPPED_SIR.read_text().replace(old, new.format(literal), 1)
        with pytest.raises(ModelConfigError, match=f"'{field}' must be .*finite"):
            parse_model_config(doc)

    @pytest.mark.parametrize(
        "names, bad",
        [(["a,b", "c\nd"], "a,b"), (["x", "x"], "x"), (['q"', "r"], 'q"'), (["s", "t\r"], "t\r"),
         (["y", "t"], "t")],
        ids=["comma", "repeat", "quote", "cr", "time"],
    )
    def test_variable_names_that_break_csv_rejected(self, names, bad):
        # Each name heads a CSV column; a repeat or a separator there makes
        # files a reader cannot parse, and "t" would repeat the time column.
        doc = json.loads(SHIPPED_SIR.read_text())
        doc.update(variables=names, initial=[1.0, 2.0],
                   equations=[[{"coeff": -1.0, "powers": [0, 1]}]] * 2)
        with pytest.raises(ModelConfigError, match=f"variable {re.escape(repr(bad))} "):
            parse_model_config(json.dumps(doc))

    def test_field_builds_from_spec(self):
        spec = parse_model_config(SHIPPED_SIR.read_text())
        assert spec.field() == sir_field(0.001, 0.072)
