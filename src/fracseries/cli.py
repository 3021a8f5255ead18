"""Command-line interface.

Commands:
    solve        write series coefficients and sampled solution curves
    compare      write per-variable RK4-vs-series error tables at alpha 1
    sweep        solve for several orders and write one curve file per order
    conformable  write the Caputo/conformable power-rule discrepancy report

All outputs are CSV with a header row, comma separators, LF line endings,
and floats in shortest round-trip form (17 significant digits at most), so
identical invocations produce byte-identical files.  A file that holds a
value that is not finite (nan, inf or -inf) is still written as it is, and
one `warning:` line on stderr names it and its first such line; `compare`'s
`rel_err` of nan against a reference of exactly 0 is undefined by design
and draws no warning.

Exit codes: 0 success, 1 domain/runtime error, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
from pathlib import Path
from typing import Iterable

from .conformable import discrepancy_report
from .field import PolynomialVectorField
from .metrics import TableRow, comparison_table, default_sample_times
from .models import ModelConfigError, ModelSpec, parse_model_config, sir_model
from .rk4 import _GRID_TOLERANCE, _strictly_increasing, rk4_integrate
from .solver import SeriesProblem, SeriesSolution, solve


class UsageError(ValueError):
    """Bad flag combinations that argparse alone cannot catch."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        # Commands only compute; every file is written here, all or nothing.
        out_dir, tables = args.func(args)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csvs(out_dir, tables)
        for name, _, rows in tables:
            line = _first_nonfinite_line(rows)
            if line:
                print(f"warning: {out_dir / name}: line {line} is the first with a value "
                      "that is not finite", file=sys.stderr)
        return 0
    except (UsageError, ModelConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracseries",
        description="Power-series solutions of Caputo fractional systems "
        "with polynomial right-hand sides",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a model and write coefficients/samples")
    _add_model_flags(p_solve)
    _add_sample_flags(p_solve)
    p_solve.add_argument("--alpha", type=float, default=None,
                         help="series order in (0, 1] (default: the model's)")
    p_solve.set_defaults(func=_cmd_solve)

    p_compare = sub.add_parser(
        "compare", help="compare the alpha = 1 series against RK4"
    )
    _add_model_flags(p_compare)
    p_compare.add_argument("--rk-step", type=float, default=1e-4,
                           help="Runge-Kutta step size")
    p_compare.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="solve for several orders, one curve file each")
    _add_model_flags(p_sweep)
    _add_sample_flags(p_sweep)
    p_sweep.add_argument("--alpha", type=float, action="append", required=True,
                         help="series order; repeat the flag for a sweep")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_conf = sub.add_parser(
        "conformable", help="Caputo vs conformable power-rule discrepancy report"
    )
    p_conf.add_argument("--beta", type=float, required=True, help="power exponent")
    p_conf.add_argument("--alpha", type=float, required=True, help="derivative order")
    p_conf.add_argument("--out", default="conformable.csv", help="output file")
    p_conf.set_defaults(func=_cmd_conformable)

    return parser


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    """The model, series degree and output flags of solve, compare and sweep."""
    parser.add_argument("--model", default="sir",
                        help="builtin name 'sir' or path to a model config JSON")
    parser.add_argument("--p1", type=float, default=None,
                        help="infection rate (builtin sir only)")
    parser.add_argument("--p2", type=float, default=None,
                        help="recovery rate (builtin sir only)")
    parser.add_argument("--initial", default=None,
                        help="comma-separated initial values (builtin sir only)")
    parser.add_argument("--degree", type=int, default=9, help="series degree")
    parser.add_argument("--out-dir", default=".", help="output directory")


def _add_sample_flags(parser: argparse.ArgumentParser) -> None:
    """The sample window flags of solve and sweep."""
    parser.add_argument("--t-end", type=float, default=1.0, help="end of the sample window")
    parser.add_argument("--samples", type=int, default=10,
                        help="number of sample intervals (samples+1 rows)")


# Inclusive ranges of the numeric flags.  Each cap bounds its own count: at most
# 10^4 + 1 coefficients per series, 10^5 + 1 sample rows and 10^7 RK4 steps.
# They do not bound the work of one run, which also grows with the model's
# terms: a term's state powers may sum to 10^4 (`field._MAX_STATE_DEGREE`).
_RANGES = {"degree": (0, 10_000), "samples": (1, 100_000), "rk_step": (1e-7, 0.1)}


def _check_flags(args: argparse.Namespace) -> None:
    """Reject nan and infinite values (including overflowing literals such as
    1e999) in every float flag, and values outside `_RANGES`, before any
    command runs or writes."""
    for name, value in vars(args).items():
        flag = "--" + name.replace("_", "-")
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise UsageError(f"{flag} must be finite, got {v}")
        if name in _RANGES and not _RANGES[name][0] <= value <= _RANGES[name][1]:
            raise UsageError(f"{flag} must be in {list(_RANGES[name])}, got {value}")


def _load_model(args: argparse.Namespace) -> ModelSpec:
    given = {k: v for k in ("p1", "p2", "initial") if (v := getattr(args, k)) is not None}
    if args.model != "sir":
        if given:
            raise UsageError("--p1/--p2/--initial apply only to the builtin sir model")
        path = Path(args.model)
        if not path.is_file():
            raise UsageError(f"model file not found: {path}")
        try:
            return parse_model_config(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ModelConfigError(f"model file {path} is not UTF-8: {exc}") from exc
    if args.initial is not None:
        parts = [p.strip() for p in args.initial.split(",")]
        if len(parts) != 3:
            raise UsageError("--initial for the sir model needs 3 values")
        try:
            given["initial"] = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise UsageError(f"bad --initial value: {exc}") from exc
        if not all(math.isfinite(v) for v in given["initial"]):
            raise UsageError(f"--initial values must be finite, got {args.initial}")
    # Only the values given are passed, so the defaults live in sir_model alone.
    return sir_model(**given)


def _solve(spec: ModelSpec, field: PolynomialVectorField, alpha: float,
           degree: int) -> SeriesSolution:
    return solve(SeriesProblem(field=field, y0=spec.initial, alpha=alpha,
                               t0=spec.t0, degree=degree))


Row = tuple[str | float, ...]  # floats are written by `_write_csv`
Table = tuple[str, str, list[Row]]  # file name, header, rows
Output = tuple[Path, list[Table]]  # directory, tables


def _cmd_solve(args: argparse.Namespace) -> Output:
    spec = _load_model(args)
    times = _sample_grid(spec.t0, args.t_end, args.samples)
    alpha = args.alpha if args.alpha is not None else spec.alpha
    solution = _solve(spec, spec.field(), alpha, args.degree)
    return Path(args.out_dir), [("coefficients.csv", *_coefficients(spec, solution)),
                                ("samples.csv", *_samples(spec, solution, times))]


def _cmd_sweep(args: argparse.Namespace) -> Output:
    file_names = [f"samples_alpha_{alpha!r}.csv" for alpha in args.alpha]
    for k, (alpha, file_name) in enumerate(zip(args.alpha, file_names)):
        if file_name in file_names[:k]:
            raise UsageError(f"--alpha {alpha!r} is repeated: both would write {file_name}")
    spec = _load_model(args)
    times = _sample_grid(spec.t0, args.t_end, args.samples)
    field = spec.field()
    return Path(args.out_dir), [
        (file_name, *_samples(spec, _solve(spec, field, alpha, args.degree), times))
        for alpha, file_name in zip(args.alpha, file_names)
    ]


def _cmd_compare(args: argparse.Namespace) -> Output:
    spec = _load_model(args)
    file_names: dict[str, str] = {}
    for name in spec.variable_names:
        file_name = f"compare_{_safe(name)}.csv"
        if file_name in file_names:
            raise UsageError(
                f"variables {file_names[file_name]!r} and {name!r} would both "
                f"write {file_name}"
            )
        file_names[file_name] = name
    h = args.rk_step
    record_every = round(0.1 / h)
    if abs(record_every * h - 0.1) > _GRID_TOLERANCE:
        raise UsageError(f"--rk-step {h} does not divide the 0.1 sample spacing")
    # Past |t0| of about 2^49 the rounding of t0 + i/10 merges sample times or
    # stretches the window, which `rk4_integrate` would reject in its own terms.
    sample_times = default_sample_times(spec.t0)
    if (abs(sample_times[-1] - spec.t0 - 1.0) > _GRID_TOLERANCE
            or not _strictly_increasing(sample_times)):
        raise UsageError(f"the model t0 {spec.t0} is too large for compare: its sample "
                         "times t0 + i/10 (i = 0..10) do not survive rounding at that magnitude")
    field = spec.field()
    solution = _solve(spec, field, 1.0, args.degree)
    trajectory = rk4_integrate(field, spec.initial, spec.t0, spec.t0 + 1.0, h, record_every)
    tables = []
    for j, file_name in enumerate(file_names):
        rows = list(comparison_table(trajectory, solution.series, j, sample_times))
        tables.append((file_name, "t,reference,acps,abs_err,rel_err", rows))
    return Path(args.out_dir), tables


def _cmd_conformable(args: argparse.Namespace) -> Output:
    # Path drops a trailing separator or ".", so "sub/" would name a file "sub".
    if os.path.basename(args.out) in ("", ".", ".."):
        raise UsageError(f"--out must name a file, got {args.out!r}")
    out = Path(args.out)
    report = discrepancy_report(args.beta, args.alpha)
    rows: list[Row] = [
        ("alpha", report.alpha),
        ("beta", report.beta_exp),
        ("m", str(report.m)),
        ("caputo_coefficient", report.caputo_coefficient),
        ("conformable_coefficient", report.conformable_coefficient),
        ("ratio", report.ratio),
    ]
    return out.parent, [(out.name, "field,value", rows)]


def _sample_grid(t0: float, t_end: float, samples: int) -> list[float]:
    if t_end <= t0:
        raise UsageError(f"--t-end {t_end} must exceed the model t0 {t0}")
    span = t_end - t0
    if not math.isfinite(span):
        raise UsageError(f"--t-end {t_end} lies too far from the model t0 {t0}: "
                         "the sample span overflows")
    times = [t0 + span * (k / samples) for k in range(samples + 1)]
    if not _strictly_increasing(times):
        raise UsageError(f"--t-end {t_end} and --samples {samples} give sample times from "
                         f"the model t0 {t0} that repeat after rounding")
    return times


def _coefficients(spec: ModelSpec, solution: SeriesSolution) -> tuple[str, list]:
    rows = []
    for name, series in zip(spec.variable_names, solution.series):
        for index, c in enumerate(series.coeffs):
            rows.append((name, str(index), c))
    return "variable,index,coefficient", rows


def _samples(
    spec: ModelSpec, solution: SeriesSolution, times: list[float]
) -> tuple[str, list]:
    header = "t," + ",".join(spec.variable_names)
    rows = [
        (t, *[s.evaluate(t) for s in solution.series])
        for t in times
    ]
    return header, rows


def _write_csvs(out_dir: Path, tables: list[Table]) -> None:
    """Write every table to a temporary file in `out_dir`, then rename them
    all onto their targets.  On any failure the temporary files are deleted,
    and so are the targets this call already renamed, so a failing run leaves
    no output of its own."""
    tmps: list[Path] = []
    renamed: list[Path] = []
    try:
        for name, header, rows in tables:
            tmps.append(_write_csv(out_dir / name, header, rows))
        for tmp, (name, _, _) in zip(tmps, tables):
            os.replace(tmp, out_dir / name)
            renamed.append(out_dir / name)
    except BaseException:
        for path in tmps + renamed:
            with contextlib.suppress(OSError):
                path.unlink()
        raise


def _write_csv(path: Path, header: str, rows: Iterable[Row]) -> Path:
    """Write the table to a fresh temporary file beside `path` and return
    that file's path; a write that fails part-way deletes it.  Strings are
    written as they are, every other value in shortest round-trip form."""
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join([v if type(v) is str else repr(float(v)) for v in row]) + "\n")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return tmp


def _first_nonfinite_line(rows: list[Row]) -> int | None:
    """The file line (the header is line 1) of the first row holding a
    number that is not finite, or None.  A comparison row's relative error
    is nan by design where its reference is exactly 0, so that nan alone
    does not count."""
    for i, row in enumerate(rows, 2):
        if type(row) is TableRow and row.reference == 0.0:
            row = row[:-1]
        if not all(type(v) is str or math.isfinite(v) for v in row):
            return i
    return None


def _safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)

