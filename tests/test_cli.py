import csv
import errno
import subprocess
import sys
from pathlib import Path

import pytest

from fracseries import cli
from sir_reference import ABS_ERROR_AT_1, COEFFS_DEG9

REPO_ROOT = Path(__file__).resolve().parent.parent
SHIPPED_SIR = REPO_ROOT / "sir.json"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "fracseries", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    assert "solve" in cp.stdout and "conformable" in cp.stdout


def test_missing_command_is_usage_error():
    assert run_cli().returncode == 2


class TestSolve:
    def test_degree9_coefficients(self, tmp_path: Path):
        cp = run_cli(
            "solve", "--model", "sir", "--alpha", "1", "--degree", "9",
            "--t-end", "1", "--samples", "10", "--out-dir", str(tmp_path),
        )
        assert cp.returncode == 0, cp.stderr
        rows = read_rows(tmp_path / "coefficients.csv")
        assert len(rows) == 30
        for row in rows:
            want = COEFFS_DEG9[row["variable"]][int(row["index"])]
            assert float(row["coefficient"]) == pytest.approx(want, rel=1e-9)

    def test_samples_header_and_grid(self, tmp_path: Path):
        run_cli("solve", "--degree", "4", "--samples", "5", "--out-dir", str(tmp_path))
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "t,S,I,R"
        assert len(lines) == 7
        assert lines[1].startswith("0.0,620.0,10.0,70.0")

    def test_degree_zero_keeps_constants(self, tmp_path: Path):
        cp = run_cli("solve", "--degree", "0", "--out-dir", str(tmp_path))
        assert cp.returncode == 0, cp.stderr
        for row in read_rows(tmp_path / "samples.csv"):
            assert (row["S"], row["I"], row["R"]) == ("620.0", "10.0", "70.0")

    def test_half_order_degree2_quadratic_coefficient(self, tmp_path: Path):
        # Gamma(1 + 2*alpha) = Gamma(2) = 1, so the flat coefficient is -3.3356.
        cp = run_cli(
            "solve", "--alpha", "0.5", "--degree", "2", "--out-dir", str(tmp_path)
        )
        assert cp.returncode == 0, cp.stderr
        rows = read_rows(tmp_path / "coefficients.csv")
        s2 = next(r for r in rows if r["variable"] == "S" and r["index"] == "2")
        assert float(s2["coefficient"]) == pytest.approx(-3.3356, rel=1e-9)

    def test_model_file(self, tmp_path: Path):
        cp = run_cli(
            "solve", "--model", str(SHIPPED_SIR), "--degree", "2",
            "--out-dir", str(tmp_path),
        )
        assert cp.returncode == 0, cp.stderr

    def test_builtin_overrides(self, tmp_path: Path):
        cp = run_cli(
            "solve", "--p1", "0.002", "--p2", "0.1", "--initial", "100,5,0",
            "--degree", "1", "--out-dir", str(tmp_path),
        )
        assert cp.returncode == 0, cp.stderr
        rows = read_rows(tmp_path / "coefficients.csv")
        s1 = next(r for r in rows if r["variable"] == "S" and r["index"] == "1")
        assert float(s1["coefficient"]) == pytest.approx(-0.002 * 100 * 5, rel=1e-12)

    def test_overrides_rejected_for_model_files(self, tmp_path: Path):
        cp = run_cli(
            "solve", "--model", str(SHIPPED_SIR), "--p1", "0.5",
            "--out-dir", str(tmp_path),
        )
        assert cp.returncode == 2
        assert "builtin" in cp.stderr

    def test_missing_model_file(self, tmp_path: Path):
        cp = run_cli("solve", "--model", "nope.json", "--out-dir", str(tmp_path))
        assert cp.returncode == 2

    def test_invalid_config_is_exit_2(self, tmp_path: Path):
        bad = tmp_path / "bad.json"
        bad.write_text(SHIPPED_SIR.read_text().replace('"alpha": 1.0', '"alpha": 2.0'))
        cp = run_cli("solve", "--model", str(bad), "--out-dir", str(tmp_path))
        assert cp.returncode == 2
        assert "alpha" in cp.stderr

    def test_deterministic_output(self, tmp_path: Path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cp = run_cli("solve", "--degree", "9", "--out-dir", str(out))
            assert cp.returncode == 0, cp.stderr
        assert (out1 / "coefficients.csv").read_bytes() == (
            out2 / "coefficients.csv"
        ).read_bytes()
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()

    def test_unrepresentable_gamma_is_clean_exit_1(self, tmp_path: Path):
        # Gamma(172) exceeds the double range, so the Gamma table cannot be built.
        out = tmp_path / "out"
        cp = run_cli("solve", "--alpha", "1", "--degree", "200", "--out-dir", str(out))
        assert cp.returncode == 1
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
        assert "Traceback" not in cp.stderr
        assert not out.exists()

    def test_degree_160_at_alpha_one(self, tmp_path: Path):
        cp = run_cli("solve", "--alpha", "1", "--degree", "160", "--out-dir", str(tmp_path))
        assert cp.returncode == 0, cp.stderr
        rows = read_rows(tmp_path / "coefficients.csv")
        assert len(rows) == 3 * 161


class TestInvalidInputWritesNothing:
    """Non-finite numbers (nan, inf, overflowing literals) and bad sample grids
    fail as usage errors before any file is written."""

    @staticmethod
    def assert_usage_error(cp, out: Path):
        assert cp.returncode == 2
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
        assert "Traceback" not in cp.stderr
        assert not out.exists()

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
    def test_float_flags(self, tmp_path: Path, flags):
        out = tmp_path / "out"
        cp = run_cli(*flags, "--out-dir", str(out))
        self.assert_usage_error(cp, out)
        assert flags[-2] in cp.stderr

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("flag, value", [("--t-end", "-1"), ("--samples", "0")])
    def test_bad_sample_grid_writes_nothing(self, tmp_path: Path, command, flag, value):
        out = tmp_path / "out"
        alpha = ("--alpha", "0.5") if command == "sweep" else ()
        cp = run_cli(command, *alpha, flag, value, "--out-dir", str(out))
        self.assert_usage_error(cp, out)

    def test_conformable_beta(self, tmp_path: Path):
        out = tmp_path / "out" / "report.csv"
        cp = run_cli("conformable", "--beta", "nan", "--alpha", "0.5", "--out", str(out))
        self.assert_usage_error(cp, out.parent)

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"t0": 0.0', '"t0": Infinity'),
            ("[620.0, 10.0, 70.0]", "[NaN, 10.0, 70.0]"),
            ('"coeff": -0.001', '"coeff": 1e999'),
        ],
    )
    def test_model_config(self, tmp_path: Path, old, new):
        bad = tmp_path / "bad.json"
        bad.write_text(SHIPPED_SIR.read_text().replace(old, new, 1))
        out = tmp_path / "out"
        cp = run_cli("solve", "--model", str(bad), "--out-dir", str(out))
        self.assert_usage_error(cp, out)
        assert "finite" in cp.stderr


class TestCompare:
    def test_default_run_tables(self, tmp_path: Path):
        cp = run_cli("compare", "--out-dir", str(tmp_path))
        assert cp.returncode == 0, cp.stderr
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

    def test_alpha_must_be_one(self, tmp_path: Path):
        cp = run_cli("compare", "--alpha", "0.5", "--out-dir", str(tmp_path))
        assert cp.returncode == 1
        assert cp.stderr == "error: compare requires --alpha 1\n"
        assert not any(tmp_path.iterdir())

    def test_self_comparison_is_exactly_zero(self, tmp_path: Path):
        cp = run_cli("compare", "--reference", "acps", "--out-dir", str(tmp_path))
        assert cp.returncode == 0, cp.stderr
        for name in ("S", "I", "R"):
            for row in read_rows(tmp_path / f"compare_{name}.csv"):
                assert row["abs_err"] == "0.0"
                assert row["rel_err"] == "0.0"

    def test_bad_rk_step_rejected(self, tmp_path: Path):
        cp = run_cli("compare", "--rk-step", "0.03", "--out-dir", str(tmp_path))
        assert cp.returncode == 1
        assert "0.1" in cp.stderr


class TestConformable:
    def test_integer_order(self, tmp_path: Path):
        out = tmp_path / "report.csv"
        cp = run_cli("conformable", "--beta", "2", "--alpha", "1", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        rows = dict(
            line.split(",") for line in out.read_text().splitlines()[1:]
        )
        assert float(rows["ratio"]) == 1.0
        assert rows["m"] == "1"

    def test_half_order(self, tmp_path: Path):
        out = tmp_path / "report.csv"
        cp = run_cli("conformable", "--beta", "1", "--alpha", "0.5", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert float(rows["ratio"]) == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_pole_is_domain_error(self, tmp_path: Path):
        out = tmp_path / "report.csv"
        cp = run_cli("conformable", "--beta", "0", "--alpha", "0.5", "--out", str(out))
        assert cp.returncode == 1
        assert not out.exists()


class TestSweep:
    def test_curves_converge_toward_integer_order(self, tmp_path: Path):
        cp = run_cli(
            "sweep", "--alpha", "0.6", "--alpha", "0.7", "--alpha", "0.8",
            "--alpha", "0.9", "--alpha", "1.0", "--degree", "9",
            "--out-dir", str(tmp_path),
        )
        assert cp.returncode == 0, cp.stderr
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

    def test_failing_order_leaves_no_partial_output(self, tmp_path: Path):
        # alpha 0.5 solves at degree 200, alpha 1 cannot: nothing is written.
        out = tmp_path / "o"
        cp = run_cli(
            "sweep", "--alpha", "0.5", "--alpha", "1", "--degree", "200",
            "--out-dir", str(out),
        )
        assert cp.returncode == 1
        assert cp.stderr.startswith("error: ") and cp.stderr.count("\n") == 1
        assert "Traceback" not in cp.stderr
        assert not out.exists()


def _cli_args(command: str, out: Path) -> list[str]:
    if command == "conformable":
        return ["conformable", "--beta", "1.5", "--alpha", "0.5",
                "--out", str(out / "conformable.csv")]
    flags = {
        "solve": ["--degree", "4"],
        "compare": ["--degree", "4", "--reference", "acps"],
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


COMMANDS = ("solve", "compare", "sweep", "conformable")


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
