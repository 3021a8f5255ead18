"""The `fracseries` command line.

Tests call `cli.main` in-process and read its stderr through `capsys` and
its files under `tmp_path`.  An exception that `main` lets through fails the
test itself, so no test looks for a traceback.  A child interpreter starts
only where the interpreter is the subject: the `python -m fracseries` entry
point, the modules that importing the CLI loads, and the output bits under
other Pythons.
"""

import argparse
import ast
import csv
import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fracseries import (Monomial, PolynomialVectorField, SeriesProblem, cli,
                        evaluate_field, rk4_integrate, sir_model, solve)
from fracseries.metrics import TableRow, default_sample_times
from sir_reference import ABS_ERROR_AT_1, COEFFS_DEG9

REPO_ROOT = Path(__file__).resolve().parent.parent
SHIPPED_SIR = REPO_ROOT / "sir.json"
COMMANDS = ("solve", "compare", "sweep", "conformable")
# Children import the fracseries under test, not another copy on the path.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_error_line(capsys, out: Path) -> str:
    """The run's stderr, one `error: ` line, after which `out` does not exist."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    return err


def test_help(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in COMMANDS)


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: fracseries ")


def test_python_m_fracseries(tmp_path: Path):
    # The exit status is what `raise SystemExit(main())` passes on.
    def run(*args: str) -> tuple[int, str, str]:
        cp = subprocess.run([sys.executable, "-m", "fracseries", *args], capture_output=True,
                            text=True, env=CHILD_ENV, cwd=tmp_path)
        return cp.returncode, cp.stdout, cp.stderr

    code, out, _ = run("--help")
    assert code == 0 and all(command in out for command in COMMANDS)
    code, out, err = run()
    assert (code, out) == (2, "") and err.startswith("usage: fracseries ")
    # argparse exits by itself above; here `main` returns the 2.
    assert run("solve", "--degree", "10001") == (
        2, "", "error: --degree must be in [0, 10000], got 10001\n")
    assert list(tmp_path.iterdir()) == []


def test_import_loads_no_json():
    # Only parse_model_config reads JSON; the commands that read no config
    # should not pay for the import.  -S keeps site hooks out of the count.
    code = "import sys, fracseries.cli; print(sorted(m for m in sys.modules if 'json' in m))"
    cp = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                        env=CHILD_ENV)
    assert (cp.returncode, cp.stdout) == (0, "[]\n"), cp.stderr


def test_option_strings_per_command():
    # A flag added to or dropped from any command shows up as a diff here.
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    model = ["--model", "--p1", "--p2", "--initial", "--degree", "--out-dir"]
    assert {
        command: [s for a in parser._actions if a.dest != "help" for s in a.option_strings]
        for command, parser in sub.choices.items()
    } == {
        "solve": [*model, "--t-end", "--samples", "--alpha"],
        "compare": [*model, "--rk-step"],
        "sweep": [*model, "--t-end", "--samples", "--alpha"],
        "conformable": ["--beta", "--alpha", "--out"],
    }


class TestSolve:
    def test_degree9_coefficients(self, tmp_path: Path):
        assert cli.main(["solve", "--model", "sir", "--alpha", "1", "--degree", "9",
                         "--t-end", "1", "--samples", "10", "--out-dir", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "coefficients.csv")
        assert len(rows) == 30
        for row in rows:
            want = COEFFS_DEG9[row["variable"]][int(row["index"])]
            assert float(row["coefficient"]) == pytest.approx(want, rel=1e-9)

    def test_samples_header_and_grid(self, tmp_path: Path):
        assert cli.main(["solve", "--degree", "4", "--samples", "5",
                         "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "t,S,I,R"
        assert len(lines) == 7
        assert lines[1].startswith("0.0,620.0,10.0,70.0")

    def test_degree_zero_keeps_constants(self, tmp_path: Path):
        assert cli.main(["solve", "--degree", "0", "--out-dir", str(tmp_path)]) == 0
        for row in read_rows(tmp_path / "samples.csv"):
            assert (row["S"], row["I"], row["R"]) == ("620.0", "10.0", "70.0")

    def test_half_order_degree2_quadratic_coefficient(self, tmp_path: Path):
        # Gamma(1 + 2*alpha) = Gamma(2) = 1, so the flat coefficient is -3.3356.
        assert cli.main(["solve", "--alpha", "0.5", "--degree", "2",
                         "--out-dir", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "coefficients.csv")
        s2 = next(r for r in rows if r["variable"] == "S" and r["index"] == "2")
        assert float(s2["coefficient"]) == pytest.approx(-3.3356, rel=1e-9)

    def test_model_file(self, tmp_path: Path):
        assert cli.main(["solve", "--model", str(SHIPPED_SIR), "--degree", "2",
                         "--out-dir", str(tmp_path)]) == 0

    def test_builtin_overrides(self, tmp_path: Path):
        assert cli.main(["solve", "--p1", "0.002", "--p2", "0.1", "--initial", "100,5,0",
                         "--degree", "1", "--out-dir", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "coefficients.csv")
        s1 = next(r for r in rows if r["variable"] == "S" and r["index"] == "1")
        assert float(s1["coefficient"]) == pytest.approx(-0.002 * 100 * 5, rel=1e-12)

    @pytest.mark.parametrize("flags, given", [
        (["--p1", "0.002"], {"p1": 0.002}),
        (["--p2", "0.1"], {"p2": 0.1}),
        (["--initial", "600,20,80"], {"initial": (600.0, 20.0, 80.0)}),
    ])
    def test_one_override_keeps_the_other_defaults(self, tmp_path: Path, flags, given):
        assert cli.main(["solve", *flags, "--out-dir", str(tmp_path)]) == 0
        spec = sir_model(**given)
        expected = solve(SeriesProblem(field=spec.field(), y0=spec.initial,
                                       alpha=spec.alpha, t0=spec.t0, degree=9))
        rows = read_rows(tmp_path / "coefficients.csv")
        assert [float(r["coefficient"]) for r in rows] == [
            c for s in expected.series for c in s.coeffs
        ]

    def test_overrides_rejected_for_model_files(self, tmp_path: Path, capsys):
        out = tmp_path / "out"
        assert cli.main(["solve", "--model", str(SHIPPED_SIR), "--p1", "0.5",
                         "--out-dir", str(out)]) == 2
        assert "builtin" in assert_error_line(capsys, out)

    def test_missing_model_file(self, tmp_path: Path, capsys):
        out = tmp_path / "out"
        assert cli.main(["solve", "--model", str(tmp_path / "nope.json"),
                         "--out-dir", str(out)]) == 2
        assert_error_line(capsys, out)

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_model_file_is_config_error(self, tmp_path: Path, capsys, kind):
        model = tmp_path / "model"
        if kind == "directory":
            model.mkdir()
        else:
            # The Latin-1 byte of "É" followed by a quote is not valid UTF-8.
            model.write_bytes(SHIPPED_SIR.read_bytes().replace(b'"S"', b'"\xc9"'))
        out = tmp_path / "out"
        assert cli.main(["solve", "--model", str(model), "--out-dir", str(out)]) == 2
        assert str(model) in assert_error_line(capsys, out)

    def test_invalid_config_is_exit_2(self, tmp_path: Path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(SHIPPED_SIR.read_text().replace('"alpha": 1.0', '"alpha": 2.0'))
        assert cli.main(["solve", "--model", str(bad), "--out-dir", str(tmp_path)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_one_alpha_rule_one_message(self, tmp_path: Path, capsys):
        # The flag is a domain error (exit 1), the config field a config
        # error (exit 2); both report fracpoly's one grid rule.
        bad = tmp_path / "bad.json"
        bad.write_text(SHIPPED_SIR.read_text().replace('"alpha": 1.0', '"alpha": 1.5'))
        line = "error: alpha must lie in (0, 1], got 1.5\n"
        assert cli.main(["solve", "--alpha", "1.5", "--out-dir", str(tmp_path / "a")]) == 1
        assert capsys.readouterr().err == line
        assert cli.main(["solve", "--model", str(bad), "--out-dir", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == line

    def test_deterministic_output(self, tmp_path: Path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["solve", "--degree", "9", "--out-dir", str(out)]) == 0
        for name in ("coefficients.csv", "samples.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unrepresentable_gamma_is_clean_exit_1(self, tmp_path: Path, capsys):
        # Gamma(172) exceeds the double range, so the Gamma table cannot be built.
        out = tmp_path / "out"
        assert cli.main(["solve", "--alpha", "1", "--degree", "200", "--out-dir", str(out)]) == 1
        assert_error_line(capsys, out)

    def test_overflowing_state_power_is_clean_exit_1(self, tmp_path: Path, capsys):
        # `y ** 2` raises OverflowError for a finite y past about 1.3e154,
        # where `y * y` would give inf; an infinite y gives inf.  RK4 keeps
        # `**` so that its bits stay those of `evaluate_field`.
        field = PolynomialVectorField(equations=((Monomial(1.0, (2,)),),),
                                      variable_names=("y",))
        assert evaluate_field(field, 0.0, [math.inf]) == [math.inf]
        with pytest.raises(OverflowError):
            evaluate_field(field, 0.0, [1e200])
        # 1e100 passes the state check and a later stage overflows in the
        # loop; 1e200 overflows in the state check itself.  Both name RK4.
        for initial in (1e100, 1e200):
            with pytest.raises(OverflowError, match=r"^RK4 with step h=0\.1 on \[0\.0, 1\.0\] "
                                                    r"overflowed: "):
                rk4_integrate(field, (initial,), 0.0, 1.0, 0.1)
            model = tmp_path / "square.json"
            model.write_text(json.dumps({
                "variables": ["y"], "initial": [initial], "alpha": 1.0, "t0": 0.0,
                "equations": [[{"coeff": 1.0, "powers": [2]}]],
            }))
            out = tmp_path / "out"
            assert cli.main(["compare", "--model", str(model), "--out-dir", str(out)]) == 1
            # One line that names RK4, its step and its interval, not errno 34.
            assert assert_error_line(capsys, out) == (
                "error: RK4 with step h=0.0001 on [0.0, 1.0] overflowed: "
                "a state power exceeds the double range\n")

    def test_degree_160_at_alpha_one(self, tmp_path: Path):
        assert cli.main(["solve", "--alpha", "1", "--degree", "160",
                         "--out-dir", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "coefficients.csv")
        assert len(rows) == 3 * 161

    @pytest.mark.parametrize("args, degree", [
        (["solve", "--alpha", "1", "--degree", "171"], 171),
        (["sweep", "--alpha", "1", "--alpha", "0.5", "--degree", "300"], 300),
    ])
    def test_gamma_overflow_names_degree_and_alpha(self, tmp_path: Path, capsys, args, degree):
        # The line names the flags to change, not only the Gamma argument.
        out = tmp_path / "out"
        assert cli.main([*args, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: series of degree {degree} at alpha 1.0 overflowed: "
            "gamma(172.0) exceeds the largest double\n")
        assert not out.exists()


class TestNonFiniteOutputWarns:
    """A file holding nan or inf is written as it is, with one stderr line
    naming the file and the first line holding such a value."""

    def test_solve_far_past_the_radius(self, tmp_path: Path, capsys):
        assert cli.main(["solve", "--t-end", "1e308", "--samples", "3",
                         "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == (
            f"warning: {tmp_path / 'samples.csv'}: line 3 is the first with a value "
            "that is not finite\n")
        assert (tmp_path / "samples.csv").read_text().splitlines()[1:] == [
            "0.0,620.0,10.0,70.0",
            "3.333333333333333e+307,inf,-inf,-inf",
            "6.666666666666666e+307,inf,-inf,-inf",
            "1e+308,inf,-inf,-inf",
        ]

    def test_compare_from_a_huge_state(self, tmp_path: Path, capsys):
        assert cli.main(["compare", "--initial", "1e300,1,1", "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: {tmp_path / f'compare_{v}.csv'}: line 3 is the first with a value "
            "that is not finite\n" for v in "SIR")
        rows = read_rows(tmp_path / "compare_S.csv")
        assert rows[0]["reference"] == "1e+300" and rows[1]["reference"] == "nan"

    def test_relative_error_at_a_zero_reference(self, tmp_path: Path, capsys):
        # rel_err is undefined where the reference is exactly 0: written, not warned.
        for initial, var in [("620,10,0", "R"), ("0,10,70", "S")]:
            assert cli.main(["compare", "--initial", initial, "--degree", "4",
                             "--rk-step", "0.1", "--out-dir", str(tmp_path / var)]) == 0
            assert capsys.readouterr().err == ""
            row = read_rows(tmp_path / var / f"compare_{var}.csv")[0]
            assert (row["reference"], row["rel_err"]) == ("0.0", "nan")

    def test_only_a_zero_reference_excuses_the_relative_error(self):
        excused = TableRow(0.0, 0.0, 0.0, 0.0, math.nan)
        assert cli._first_nonfinite_line([excused]) is None
        # A subnormal reference is not zero: its infinite rel_err still counts.
        assert cli._first_nonfinite_line([excused, TableRow(0.1, 5e-324, 1.0, 1.0, math.inf)]) == 3
        assert cli._first_nonfinite_line([TableRow(0.0, 0.0, math.nan, math.nan, math.nan)]) == 2

    def test_a_variable_named_nan_is_not_a_value(self, tmp_path: Path, capsys):
        model = tmp_path / "nan.json"
        model.write_text(json.dumps({
            "variables": ["nan"], "initial": [1.0], "alpha": 1.0, "t0": 0.0,
            "equations": [[{"coeff": -1.0, "powers": [1]}]],
        }))
        assert cli.main(["solve", "--model", str(model), "--degree", "2",
                         "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert read_rows(tmp_path / "coefficients.csv")[0]["variable"] == "nan"


class TestInvalidInputWritesNothing:
    """Non-finite numbers (nan, inf, overflowing literals) and bad sample grids
    fail as usage errors before any file is written."""

    @pytest.mark.parametrize(
        "flags",
        [
            ("solve", "--initial", "nan,10,70"),
            ("solve", "--initial", "620,1e999,70"),
            ("solve", "--p1", "nan"),
            ("solve", "--p2", "inf"),
            ("solve", "--alpha", "nan"),
            ("solve", "--t-end", "1e999"),
            ("compare", "--rk-step", "nan"),
            ("sweep", "--alpha", "0.5", "--alpha", "inf"),
        ],
    )
    def test_float_flags(self, tmp_path: Path, capsys, flags):
        out = tmp_path / "out"
        assert cli.main([*flags, "--out-dir", str(out)]) == 2
        assert flags[-2] in assert_error_line(capsys, out)

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("flag, value", [("--t-end", "-1"), ("--samples", "0")])
    def test_bad_sample_grid_writes_nothing(self, tmp_path: Path, capsys, command, flag, value):
        out = tmp_path / "out"
        assert cli.main(_bound_args(command, flag, value, out)) == 2
        assert_error_line(capsys, out)

    @pytest.mark.parametrize("command", ["solve", "sweep", "compare"])
    @pytest.mark.parametrize("names", [["a,b", "c\nd"], ["x", "x"], ["t", "y"]],
                             ids=["comma", "repeat", "time"])
    def test_variable_names_that_break_csv(self, tmp_path: Path, capsys, command, names):
        # Exit 0 with CSVs a reader cannot parse, or whose samples.csv header
        # reads t,t,y, was the failure mode here.
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "variables": names, "initial": [1.0, 2.0], "alpha": 1.0, "t0": 0.0,
            "equations": [[{"coeff": -1.0, "powers": [0, 1]}]] * 2,
        }))
        out = tmp_path / "out"
        assert cli.main(_bound_args(command, "--model", str(model), out)) == 2
        assert f"variable {names[0]!r}" in assert_error_line(capsys, out)

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_sample_window_whose_span_overflows(self, tmp_path: Path, capsys, command):
        # t_end - t0 is inf, so the grid's t0 + inf * 0.0 was nan.
        model = tmp_path / "far.json"
        model.write_text(SHIPPED_SIR.read_text().replace('"t0": 0.0', '"t0": -1e308', 1))
        out = tmp_path / "out"
        args = _bound_args(command, "--model", str(model), out) + ["--t-end", "1e308"]
        assert cli.main(args) == 2
        assert assert_error_line(capsys, out) == (
            "error: --t-end 1e+308 lies too far from the model t0 -1e+308: "
            "the sample span overflows\n")

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("t0, t_end, samples", [(7e14, "700000000000001", "10"),
                                                    (None, "1e-322", "100")])
    def test_sample_times_that_repeat_after_rounding(self, tmp_path: Path, monkeypatch,
                                                     capsys, command, t0, t_end, samples):
        # Both runs once exited 0 with repeated t rows in samples.csv.
        _stand_in(monkeypatch, "solve")
        out = tmp_path / "out"
        args = _bound_args(command, "--t-end", t_end, out) + ["--samples", samples]
        if t0 is not None:
            model = tmp_path / "far.json"
            model.write_text(SHIPPED_SIR.read_text().replace('"t0": 0.0', f'"t0": {t0!r}', 1))
            args += ["--model", str(model)]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == (
            f"error: --t-end {float(t_end)} and --samples {samples} give sample times from "
            f"the model t0 {t0 or 0.0} that repeat after rounding\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["", ".", "..", "sub/..", "sub/", "sub/.", "/"])
    def test_conformable_out_that_names_no_file(self, tmp_path: Path, monkeypatch, capsys,
                                                value):
        # Run one level down, so that `..` stays inside tmp_path.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli.main(["conformable", "--beta", "1", "--alpha", "0.5", "--out", value]) == 2
        assert capsys.readouterr().err == f"error: --out must name a file, got {value!r}\n"
        assert list(tmp_path.rglob("*")) == [work]

    @pytest.mark.parametrize("second", ["0.5", "5e-1"])
    def test_sweep_order_given_twice(self, tmp_path: Path, capsys, second):
        # The second file would have replaced the first under the same name.
        out = tmp_path / "out"
        assert cli.main(["sweep", "--alpha", "0.5", "--alpha", "0.75", "--alpha", second,
                         "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == ("error: --alpha 0.5 is repeated: both would write "
                                           "samples_alpha_0.5.csv\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value, message", [
        ("1,2", "--initial for the sir model needs 3 values"),
        ("1,2,3,4", "--initial for the sir model needs 3 values"),
        ("a,b,c", "bad --initial value: could not convert string to float: 'a'"),
        ("620,,70", "bad --initial value: could not convert string to float: ''"),
    ])
    def test_initial_that_is_not_three_numbers(self, tmp_path: Path, capsys, value, message):
        out = tmp_path / "out"
        assert cli.main(["solve", "--initial", value, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_conformable_beta(self, tmp_path: Path, capsys):
        out = tmp_path / "out" / "report.csv"
        assert cli.main(["conformable", "--beta", "nan", "--alpha", "0.5", "--out", str(out)]) == 2
        assert_error_line(capsys, out.parent)

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"t0": 0.0', '"t0": Infinity'),
            ("[620.0, 10.0, 70.0]", "[NaN, 10.0, 70.0]"),
            ('"coeff": -0.001', '"coeff": 1e999'),
        ],
    )
    def test_model_config(self, tmp_path: Path, capsys, old, new):
        bad = tmp_path / "bad.json"
        bad.write_text(SHIPPED_SIR.read_text().replace(old, new, 1))
        out = tmp_path / "out"
        assert cli.main(["solve", "--model", str(bad), "--out-dir", str(out)]) == 2
        assert "finite" in assert_error_line(capsys, out)

    def test_deeply_nested_model_config(self, tmp_path: Path, capsys):
        # json.loads raises RecursionError here, which is no ValueError.
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000)
        out = tmp_path / "out"
        assert cli.main(["solve", "--model", str(bad), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON: nested too deeply") and err.count("\n") == 1
        assert not out.exists()


class _Reached(Exception):
    """Raised by the stand-ins for `solve` and `rk4_integrate`, so that a
    value the flag checks let through starts no large run."""


def _stand_in(monkeypatch, name: str) -> None:
    def reached(*args):
        raise _Reached(name)

    monkeypatch.setattr(cli, name, reached)


# flag, command, rejected below, lowest and highest accepted, rejected above,
# and the call an accepted value reaches first.
BOUNDS = [
    pytest.param(flag, command, *values, id=f"{command}{flag}")
    for flag, commands, *values in [
        ("--degree", ("solve", "compare", "sweep"), "-1", "0", "10000", "10001", "solve"),
        ("--samples", ("solve", "sweep"), "0", "1", "100000", "100001", "solve"),
        ("--rk-step", ("compare",), repr(math.nextafter(1e-7, 0.0)), "1e-07", "0.1",
         repr(math.nextafter(0.1, 1.0)), "rk4_integrate"),
    ]
    for command in commands
]


def _bound_args(command: str, flag: str, value: str, out: Path) -> list[str]:
    alpha = ["--alpha", "0.5"] if command == "sweep" else []
    return [command, *alpha, flag, value, "--out-dir", str(out)]


class TestFlagBounds:
    @pytest.mark.parametrize("flag, command, below, low, high, above, call", BOUNDS)
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_out_of_range_value_is_usage_error(self, tmp_path: Path, monkeypatch, capsys,
                                               flag, command, below, low, high, above,
                                               call, side):
        _stand_in(monkeypatch, "solve")
        _stand_in(monkeypatch, "rk4_integrate")
        out = tmp_path / "o"
        out.mkdir()
        value = below if side == "below" else above
        assert cli.main(_bound_args(command, flag, value, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flag, command, below, low, high, above, call", BOUNDS)
    @pytest.mark.parametrize("side", ["low", "high"])
    def test_value_at_the_edge_is_accepted(self, tmp_path: Path, monkeypatch,
                                           flag, command, below, low, high, above,
                                           call, side):
        _stand_in(monkeypatch, call)
        value = low if side == "low" else high
        with pytest.raises(_Reached, match=call):
            cli.main(_bound_args(command, flag, value, tmp_path / "o"))


class TestCompare:
    def test_default_run_tables(self, tmp_path: Path):
        assert cli.main(["compare", "--out-dir", str(tmp_path)]) == 0
        for name in ("S", "I", "R"):
            lines = (tmp_path / f"compare_{name}.csv").read_text().splitlines()
            assert lines[0] == "t,reference,acps,abs_err,rel_err"
            assert len(lines) == 12
        rows = read_rows(tmp_path / "compare_S.csv")
        last = rows[-1]
        assert last["t"] == "1.0"
        # Error at t = 1 is dominated by series truncation; it must sit within
        # an order of magnitude of the published table value.
        abs_err = float(last["abs_err"])
        assert ABS_ERROR_AT_1["S"] / 10 <= abs_err <= ABS_ERROR_AT_1["S"] * 10

    def test_bad_rk_step_rejected(self, tmp_path: Path, capsys):
        out = tmp_path / "o"
        assert cli.main(["compare", "--rk-step", "0.03", "--out-dir", str(out)]) == 2
        assert "0.1" in assert_error_line(capsys, out)

    def test_rk_step_just_off_the_sample_grid_rejected(self, tmp_path: Path, capsys):
        # Two steps miss 0.1 by 4.0e-12: above the 1e-12 grid tolerance, below 1e-11.
        out = tmp_path / "o"
        assert cli.main(["compare", "--rk-step", "0.050000000002", "--out-dir", str(out)]) == 2
        assert assert_error_line(capsys, out).startswith("error: --rk-step ")

    def test_rk_step_on_the_sample_grid_accepted(self, tmp_path: Path, capsys):
        # Three steps of 0.03333333333333333 make exactly 0.1.
        assert cli.main(["compare", "--rk-step", "0.03333333333333333", "--degree", "4",
                         "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert len(read_rows(tmp_path / "compare_S.csv")) == 11

    @pytest.mark.parametrize("t0", [7e14, -1e15, 1e16, 1e308])
    def test_model_t0_too_large_for_the_sample_times(self, tmp_path: Path, monkeypatch,
                                                      capsys, t0):
        # From |t0| of about 2^49, t0 + i/10 rounds to repeated times (7e14) or
        # to t0 itself (1e16), which RK4 used to report in its own terms.
        _stand_in(monkeypatch, "solve")
        model = tmp_path / "far.json"
        model.write_text(SHIPPED_SIR.read_text().replace('"t0": 0.0', f'"t0": {t0!r}', 1))
        out = tmp_path / "out"
        assert cli.main(["compare", "--model", str(model), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: the model t0 {t0} is too large for compare: its sample times "
            "t0 + i/10 (i = 0..10) do not survive rounding at that magnitude\n")
        assert not out.exists()

    @pytest.mark.parametrize("t0", [1e12, 5e14, -(2.0**49)])
    def test_model_t0_below_the_limit_accepted(self, tmp_path: Path, capsys, t0):
        model = tmp_path / "far.json"
        model.write_text(SHIPPED_SIR.read_text().replace('"t0": 0.0', f'"t0": {t0!r}', 1))
        assert cli.main(["compare", "--model", str(model), "--degree", "2", "--rk-step", "0.1",
                         "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        times = [float(row["t"]) for row in read_rows(tmp_path / "compare_S.csv")]
        assert times == default_sample_times(t0)

    @pytest.mark.parametrize("names", [["a b", "a_b"], ["a/b", "a:b"]])
    def test_variables_sharing_an_output_file_rejected(self, tmp_path: Path, capsys,
                                                        names):
        # "a b" and "a_b" would both write compare_a_b.csv, one table lost.
        # Equal names are a model-config error (see TestInvalidInputWritesNothing).
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "variables": names, "initial": [1.0, 2.0], "alpha": 1.0, "t0": 0.0,
            "equations": [[{"coeff": -1.0, "powers": [0, 1]}],
                          [{"coeff": 1.0, "powers": [1, 0]}]],
        }))
        out = tmp_path / "o"
        assert cli.main(["compare", "--model", str(model), "--out-dir", str(out)]) == 2
        assert "compare_" in assert_error_line(capsys, out)


class TestConformable:
    @staticmethod
    def report(tmp_path: Path, beta: str, alpha: str) -> dict[str, str]:
        out = tmp_path / "report.csv"
        assert cli.main(["conformable", "--beta", beta, "--alpha", alpha, "--out", str(out)]) == 0
        return dict(line.split(",") for line in out.read_text().splitlines()[1:])

    def test_integer_order(self, tmp_path: Path):
        rows = self.report(tmp_path, "2", "1")
        assert float(rows["ratio"]) == 1.0
        assert rows["m"] == "1"

    def test_half_order(self, tmp_path: Path):
        rows = self.report(tmp_path, "1", "0.5")
        assert float(rows["ratio"]) == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_tiny_beta(self, tmp_path: Path):
        rows = self.report(tmp_path, "1e-17", "0.5")
        for name in ("caputo_coefficient", "conformable_coefficient", "ratio"):
            assert math.isfinite(float(rows[name])), name

    def test_pole_is_domain_error(self, tmp_path: Path, capsys):
        out = tmp_path / "report.csv"
        assert cli.main(["conformable", "--beta", "0", "--alpha", "0.5", "--out", str(out)]) == 1
        assert_error_line(capsys, out)


class TestSweep:
    def test_curves_converge_toward_integer_order(self, tmp_path: Path):
        assert cli.main(["sweep", "--alpha", "0.6", "--alpha", "0.7", "--alpha", "0.8",
                         "--alpha", "0.9", "--alpha", "1.0", "--degree", "9",
                         "--out-dir", str(tmp_path)]) == 0
        curves = {
            a: read_rows(tmp_path / f"samples_alpha_{a}.csv")
            for a in ("0.6", "0.7", "0.8", "0.9", "1.0")
        }

        def gap(a):
            return max(
                abs(float(row[v]) - float(ref[v]))
                for row, ref in zip(curves[a], curves["1.0"])
                for v in ("S", "I", "R")
            )

        gaps = [gap(a) for a in ("0.6", "0.7", "0.8", "0.9")]
        assert gaps[-1] < gaps[0]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_failing_order_leaves_no_partial_output(self, tmp_path: Path, capsys):
        # alpha 0.5 solves at degree 200, alpha 1 cannot: nothing is written.
        out = tmp_path / "o"
        assert cli.main(["sweep", "--alpha", "0.5", "--alpha", "1", "--degree", "200",
                         "--out-dir", str(out)]) == 1
        assert_error_line(capsys, out)


def _cli_args(command: str, out: Path) -> list[str]:
    if command == "conformable":
        return ["conformable", "--beta", "1.5", "--alpha", "0.5",
                "--out", str(out / "conformable.csv")]
    flags = {
        "solve": ["--degree", "4"],
        "compare": ["--degree", "4", "--rk-step", "0.1"],
        "sweep": ["--alpha", "0.5", "--alpha", "1", "--degree", "4"],
    }[command]
    return [command, *flags, "--out-dir", str(out)]


def _disk_full_after_first_row(monkeypatch):
    write_csv = cli._write_csv

    def failing(path, header, rows):
        def first_row_then_disk_full():
            yield rows[0]
            raise OSError(errno.ENOSPC, "No space left on device")

        write_csv(path, header, first_row_then_disk_full())

    monkeypatch.setattr(cli, "_write_csv", failing)


def _rename_fails(monkeypatch):
    def failing(src, dst):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    monkeypatch.setattr(cli.os, "replace", failing)


def _second_write_fails(monkeypatch):
    write_csv, calls = cli._write_csv, []

    def failing(path, header, rows):
        calls.append(path)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", failing)
    return calls


def _second_rename_fails(monkeypatch):
    replace, calls = os.replace, []

    def failing(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(errno.EXDEV, "Invalid cross-device link")
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", failing)
    return calls


class TestAtomicWrites:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_success_leaves_only_the_targets(self, tmp_path: Path, command, capsys):
        out = tmp_path / "o"
        assert cli.main(_cli_args(command, out)) == 0
        assert capsys.readouterr().err == ""
        names = sorted(p.name for p in out.iterdir())
        assert names == {
            "solve": ["coefficients.csv", "samples.csv"],
            "compare": ["compare_I.csv", "compare_R.csv", "compare_S.csv"],
            "sweep": ["samples_alpha_0.5.csv", "samples_alpha_1.0.csv"],
            "conformable": ["conformable.csv"],
        }[command]

    @pytest.mark.parametrize("fail", [_disk_full_after_first_row, _rename_fails])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_failed_write_leaves_no_file(self, tmp_path: Path, command, fail,
                                         monkeypatch, capsys):
        out = tmp_path / "o"
        out.mkdir()
        fail(monkeypatch)
        assert cli.main(_cli_args(command, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # Neither the target nor the temporary file beside it is left.
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_failing_run_creates_no_directory(self, tmp_path: Path, command,
                                              monkeypatch, capsys):
        # Only main touches the disk, and only once every table is computed.
        def fails(*args):
            raise OverflowError("stand-in failure")

        name = "discrepancy_report" if command == "conformable" else "solve"
        monkeypatch.setattr(cli, name, fails)
        out = tmp_path / "o"
        assert cli.main(_cli_args(command, out)) == 1
        assert capsys.readouterr().err == "error: stand-in failure\n"
        assert not out.exists()

    def test_out_of_memory_is_one_line_exit_1(self, tmp_path: Path, monkeypatch, capsys):
        # MemoryError is none of the exceptions main maps, so it was a traceback.
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(cli, "solve", exhausted)
        out = tmp_path / "o"
        assert cli.main(_cli_args("solve", out)) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not out.exists()

    @pytest.mark.parametrize("fail", [_second_write_fails, _second_rename_fails])
    @pytest.mark.parametrize("command", ["solve", "compare", "sweep"])
    def test_failure_on_a_later_file_leaves_no_file(self, tmp_path: Path, command,
                                                    fail, monkeypatch, capsys):
        # The first file is complete (written, or even renamed into place)
        # when the second fails; the run still leaves nothing behind.
        out = tmp_path / "o"
        out.mkdir()
        calls = fail(monkeypatch)
        assert cli.main(_cli_args(command, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(calls) == 2
        assert list(out.iterdir()) == []


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"
# One pinned run per directory of GOLDEN_CLI; every byte of its files is checked.
GOLDEN_RUNS = {
    "solve_p2": ["solve", "--p2", "0.1"],
    "solve_model": ["solve", "--model", "sir.json", "--t-end", "2", "--samples", "7"],
    "compare_rk4": ["compare"],
    "sweep": ["sweep", "--alpha", "0.5", "--alpha", "0.75"],
    "conformable": ["conformable", "--beta", "1.5", "--alpha", "0.5"],
}


def _out_args(command: str, out: str) -> list[str]:
    return ["--out", f"{out}/conformable.csv"] if command == "conformable" else ["--out-dir", out]


@pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
def test_output_matches_golden_files(tmp_path: Path, monkeypatch, capsys, case):
    args, golden = GOLDEN_RUNS[case], GOLDEN_CLI / case
    monkeypatch.chdir(REPO_ROOT)  # "--model sir.json" is the shipped file
    assert cli.main([*args, *_out_args(args[0], str(tmp_path))]) == 0
    assert capsys.readouterr() == ("", "")  # no warning: every value is finite
    command = " ".join(["PYTHONPATH=src python -m fracseries", *args,
                        *_out_args(args[0], f"tests/golden/cli/{case}")])
    hint = f"if the change is meant, regenerate them from the repository root with\n{command}"
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names, hint
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), (
            f"{golden / name} is not what `{' '.join(args)}` writes; {hint}"
        )


# Since Python 3.12 a float sum() compensates its rounding, so one innocent
# sum() in a hot path would print other bits under another interpreter.  The
# children print a hash of every bit of SIR's degree-160 coefficients and of
# the oracle's limits at degree 40.
SIR_DEG160_HASHES = """
import hashlib
from fracseries import SeriesProblem, sir_model, solve, verify_defect_conditions
spec = sir_model()
for alpha in (0.5, 1.0):
    problem = SeriesProblem(field=spec.field(), y0=spec.initial, alpha=alpha, t0=0.0, degree=160)
    bits = " ".join(c.hex() for s in solve(problem).series for c in s.coeffs)
    print(alpha, hashlib.sha256(bits.encode()).hexdigest())
    problem = SeriesProblem(field=spec.field(), y0=spec.initial, alpha=alpha, t0=0.0, degree=40)
    bits = " ".join(v.hex() for v in verify_defect_conditions(solve(problem), problem))
    print(alpha, "oracle", hashlib.sha256(bits.encode()).hexdigest())
"""


def _other_interpreters() -> dict[tuple[int, int], str]:
    """One binary per Python >= 3.10 other than this one, keyed by version.

    Candidates are `$PYENV_ROOT/versions/*/bin/python3` and every `python3.N`
    on PATH.  Only those whose folder or name claims a version still wanted
    are probed, and one whose probe fails, such as a pyenv shim for a version
    that is not selected, is skipped.
    """
    root = os.environ.get("PYENV_ROOT")
    candidates = sorted(Path(root, "versions").glob("*/bin/python3")) if root else []
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        candidates += sorted(p for p in Path(folder or ".").glob("python3.*")
                             if re.fullmatch(r"python3\.\d+", p.name))
    found: dict[tuple[int, int], str] = {}
    for exe in candidates:
        name = exe.parent.parent.name if exe.name == "python3" else exe.name
        claimed = tuple(int(n) for n in re.findall(r"\d+", name)[:2])
        if claimed < (3, 10) or claimed in found or claimed == sys.version_info[:2]:
            continue
        try:
            cp = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                                capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if cp.returncode == 0:
            version = ast.literal_eval(cp.stdout.strip())
            if version >= (3, 10) and version != sys.version_info[:2]:
                found.setdefault(version, str(exe))
    return found


def test_output_bits_match_under_other_interpreters(tmp_path: Path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other Python >= 3.10 under $PYENV_ROOT/versions or on PATH")
    env = {**CHILD_ENV, "PYTHONDONTWRITEBYTECODE": "1"}

    def run(exe: str, *args: str, cwd: Path = tmp_path) -> str:
        cp = subprocess.run([exe, *args], capture_output=True, text=True, env=env, cwd=cwd)
        assert cp.returncode == 0, f"{exe} {' '.join(args)}: {cp.stderr}"
        return cp.stdout

    want = run(sys.executable, "-c", SIR_DEG160_HASHES)
    for version, exe in sorted(interpreters.items()):
        python = "Python %d.%d (%s)" % (*version, exe)
        for case, args in GOLDEN_RUNS.items():
            out, golden = tmp_path / ("%d.%d" % version) / case, GOLDEN_CLI / case
            out.mkdir(parents=True)
            run(exe, "-m", "fracseries", *args, *_out_args(args[0], str(out)), cwd=REPO_ROOT)
            names = sorted(p.name for p in golden.iterdir())
            assert sorted(p.name for p in out.iterdir()) == names, f"{python}, {case}"
            for name in names:
                assert (out / name).read_bytes() == (golden / name).read_bytes(), (
                    f"{python} writes other bytes than {golden / name}"
                )
        assert run(exe, "-c", SIR_DEG160_HASHES) == want, (
            f"{python} gives other bits for SIR's degree-160 coefficients or degree-40 limits"
        )
