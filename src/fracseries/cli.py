"""Command-line interface.

Commands:
    solve        write series coefficients and sampled solution curves
    compare      write per-variable reference-vs-series error tables
    sweep        solve for several orders and write one curve file per order
    conformable  write the Caputo/conformable power-rule discrepancy report

All outputs are CSV with a header row, comma separators, LF line endings,
and floats in shortest round-trip form (17 significant digits at most), so
identical invocations produce byte-identical files.

Exit codes: 0 success, 1 domain/runtime error, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path
from typing import Iterable

from .conformable import discrepancy_report
from .metrics import comparison_table, default_sample_times
from .models import ModelConfigError, ModelSpec, parse_model_config, sir_model
from .rk4 import Trajectory, rk4_integrate
from .solver import SeriesProblem, SeriesSolution, solve


class UsageError(ValueError):
    """Bad flag combinations that argparse alone cannot catch."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_finite(args)
        return args.func(args)
    except (UsageError, ModelConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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
    p_solve.add_argument("--alpha", type=float, default=None,
                         help="series order in (0, 1] (default: the model's)")
    p_solve.add_argument("--degree", type=int, default=9, help="series degree")
    p_solve.add_argument("--t-end", type=float, default=1.0, help="end of the sample window")
    p_solve.add_argument("--samples", type=int, default=10,
                         help="number of sample intervals (samples+1 rows)")
    p_solve.add_argument("--out-dir", default=".", help="output directory")
    p_solve.set_defaults(func=_cmd_solve)

    p_compare = sub.add_parser(
        "compare", help="compare the series against an integer-order reference"
    )
    _add_model_flags(p_compare)
    p_compare.add_argument("--alpha", type=float, default=1.0,
                           help="must be 1 (reference is integer-order)")
    p_compare.add_argument("--degree", type=int, default=9, help="series degree")
    p_compare.add_argument("--rk-step", type=float, default=1e-4,
                           help="Runge-Kutta step size")
    p_compare.add_argument("--reference", choices=("rk4", "acps"), default="rk4",
                           help="reference column source (acps = self-comparison)")
    p_compare.add_argument("--out-dir", default=".", help="output directory")
    p_compare.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="solve for several orders, one curve file each")
    _add_model_flags(p_sweep)
    p_sweep.add_argument("--alpha", type=float, action="append", required=True,
                         help="series order; repeat the flag for a sweep")
    p_sweep.add_argument("--degree", type=int, default=9, help="series degree")
    p_sweep.add_argument("--t-end", type=float, default=1.0, help="end of the sample window")
    p_sweep.add_argument("--samples", type=int, default=10,
                         help="number of sample intervals (samples+1 rows)")
    p_sweep.add_argument("--out-dir", default=".", help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_conf = sub.add_parser(
        "conformable", help="Caputo vs conformable power-rule discrepancy report"
    )
    p_conf.add_argument("--beta", type=float, required=True, help="power exponent")
    p_conf.add_argument("--alpha", type=float, required=True, help="derivative order")
    p_conf.add_argument("--out", default="conformable.csv", help="output file")
    p_conf.set_defaults(func=_cmd_conformable)

    return parser


def _check_finite(args: argparse.Namespace) -> None:
    """Reject nan and infinite values (including overflowing literals such as
    1e999) in every float flag, before any command runs or writes."""
    for name, value in vars(args).items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise UsageError(f"--{name.replace('_', '-')} must be finite, got {v}")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="sir",
                        help="builtin name 'sir' or path to a model config JSON")
    parser.add_argument("--p1", type=float, default=None,
                        help="infection rate (builtin sir only)")
    parser.add_argument("--p2", type=float, default=None,
                        help="recovery rate (builtin sir only)")
    parser.add_argument("--initial", default=None,
                        help="comma-separated initial values (builtin sir only)")


def _load_model(args: argparse.Namespace) -> ModelSpec:
    if args.model == "sir":
        initial = (620.0, 10.0, 70.0)
        if args.initial is not None:
            parts = [p.strip() for p in args.initial.split(",")]
            if len(parts) != 3:
                raise UsageError("--initial for the sir model needs 3 values")
            try:
                initial = tuple(float(p) for p in parts)
            except ValueError as exc:
                raise UsageError(f"bad --initial value: {exc}") from exc
            if not all(math.isfinite(v) for v in initial):
                raise UsageError(f"--initial values must be finite, got {args.initial}")
        return sir_model(
            p1=args.p1 if args.p1 is not None else 0.001,
            p2=args.p2 if args.p2 is not None else 0.072,
            initial=initial,
        )
    if args.p1 is not None or args.p2 is not None or args.initial is not None:
        raise UsageError("--p1/--p2/--initial apply only to the builtin sir model")
    path = Path(args.model)
    if not path.exists():
        raise UsageError(f"model file not found: {path}")
    return parse_model_config(path.read_text(encoding="utf-8"))


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = _load_model(args)
    times = _sample_grid(spec.t0, args.t_end, args.samples)
    alpha = args.alpha if args.alpha is not None else spec.alpha
    solution = solve(
        SeriesProblem(
            field=spec.field(), y0=spec.initial, alpha=alpha,
            t0=spec.t0, degree=args.degree,
        )
    )
    out_dir = _ensure_dir(args.out_dir)
    _write_coefficients(out_dir / "coefficients.csv", spec, solution)
    _write_samples(out_dir / "samples.csv", spec, solution, times)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _load_model(args)
    times = _sample_grid(spec.t0, args.t_end, args.samples)
    field = spec.field()
    # Solve every order first, so that a failing one leaves no partial output.
    solutions = [
        solve(
            SeriesProblem(
                field=field, y0=spec.initial, alpha=alpha,
                t0=spec.t0, degree=args.degree,
            )
        )
        for alpha in args.alpha
    ]
    out_dir = _ensure_dir(args.out_dir)
    for alpha, solution in zip(args.alpha, solutions):
        _write_samples(out_dir / f"samples_alpha_{alpha!r}.csv", spec, solution, times)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.alpha != 1.0:
        raise ValueError("compare requires --alpha 1")
    spec = _load_model(args)
    field = spec.field()
    solution = solve(
        SeriesProblem(
            field=field, y0=spec.initial, alpha=1.0, t0=spec.t0, degree=args.degree
        )
    )
    sample_times = default_sample_times(spec.t0)
    if args.reference == "rk4":
        h = args.rk_step
        record_every = round(0.1 / h) if h > 0 else 0
        if record_every <= 0 or abs(record_every * h - 0.1) > 1e-12:
            raise ValueError(f"--rk-step {h} does not divide the 0.1 sample spacing")
        trajectory = rk4_integrate(
            field, spec.initial, spec.t0, spec.t0 + 1.0, h, record_every
        )
    else:
        trajectory = _series_trajectory(solution, sample_times)
    out_dir = _ensure_dir(args.out_dir)
    for j, name in enumerate(spec.variable_names):
        table = comparison_table(trajectory, solution.series, j, sample_times, name)
        rows = [
            (_fmt(r.t), _fmt(r.reference), _fmt(r.approximation),
             _fmt(r.absolute_error), _fmt(r.relative_error))
            for r in table.rows
        ]
        _write_csv(out_dir / f"compare_{_safe(name)}.csv",
                   "t,reference,acps,abs_err,rel_err", rows)
    return 0


def _cmd_conformable(args: argparse.Namespace) -> int:
    report = discrepancy_report(args.beta, args.alpha)
    rows = [
        ("alpha", _fmt(report.alpha)),
        ("beta", _fmt(report.beta_exp)),
        ("m", str(report.m)),
        ("caputo_coefficient", _fmt(report.caputo_coefficient)),
        ("conformable_coefficient", _fmt(report.conformable_coefficient)),
        ("ratio", _fmt(report.ratio)),
    ]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, "field,value", rows)
    return 0


def _series_trajectory(solution: SeriesSolution, times: list[float]) -> Trajectory:
    states = tuple(
        tuple(s.evaluate(t) for s in solution.series) for t in times
    )
    return Trajectory(times=tuple(times), states=states)


def _sample_grid(t0: float, t_end: float, samples: int) -> list[float]:
    if samples <= 0:
        raise UsageError(f"--samples must be positive, got {samples}")
    if t_end <= t0:
        raise UsageError(f"--t-end {t_end} must exceed the model t0 {t0}")
    span = t_end - t0
    return [t0 + span * (k / samples) for k in range(samples + 1)]


def _write_coefficients(path: Path, spec: ModelSpec, solution: SeriesSolution) -> None:
    rows = []
    for name, series in zip(spec.variable_names, solution.series):
        for index, c in enumerate(series.coeffs):
            rows.append((name, str(index), _fmt(c)))
    _write_csv(path, "variable,index,coefficient", rows)


def _write_samples(
    path: Path, spec: ModelSpec, solution: SeriesSolution, times: list[float]
) -> None:
    header = "t," + ",".join(spec.variable_names)
    rows = [
        (_fmt(t),) + tuple(_fmt(s.evaluate(t)) for s in solution.series)
        for t in times
    ]
    _write_csv(path, header, rows)


def _write_csv(path: Path, header: str, rows: Iterable[tuple[str, ...]]) -> None:
    """Write the file under a fresh temporary name beside `path`, then rename
    it onto `path`, so a write that fails part-way leaves neither a partial
    `path` nor the temporary file."""
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def _safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _ensure_dir(out_dir: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


if __name__ == "__main__":
    raise SystemExit(main())
