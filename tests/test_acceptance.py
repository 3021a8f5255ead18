"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `criterion NN [PASS|FAIL]` line (visible with -s or in
captured output) and then asserts, so a red criterion is loud in both the
log and the pytest summary.
"""

import csv
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fracseries
from fracseries import (
    FractionalPolynomial,
    Monomial,
    PolynomialVectorField,
    SeriesProblem,
    caputo_power_value,
    compose_series,
    conformable_power_derivative,
    discrepancy_report,
    gamma,
    solve,
    verify_defect_conditions,
)

from sir_reference import ABS_ERROR_AT_1, COEFFS_DEG9, INITIAL, TABLES

ALPHAS = (0.25, 0.5, 0.75, 1.0)


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_degree9_coefficients_via_cli(tmp_path: Path):
    started = time.perf_counter()
    cp = subprocess.run(
        [sys.executable, "-m", "fracseries", "solve", "--model", "sir",
         "--alpha", "1", "--degree", "9", "--t-end", "1", "--samples", "10",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(fracseries.__file__).resolve().parent.parent)},
    )
    elapsed = time.perf_counter() - started
    assert cp.returncode == 0, cp.stderr
    with open(tmp_path / "coefficients.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    worst = 0.0
    for row in rows:
        want = COEFFS_DEG9[row["variable"]][int(row["index"])]
        worst = max(worst, abs((float(row["coefficient"]) - want) / want))
    ok = len(rows) == 30 and worst <= 1e-9 and elapsed < 1.0
    _report(
        1, ok,
        f"30 degree-9 coefficients, worst rel err {worst:.3e} (tol 1e-9), "
        f"runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_series_columns(sir_solution_deg9):
    worst = 0.0
    for j, name in enumerate(("S", "I", "R")):
        for t, _, series_value in TABLES[name]:
            got = sir_solution_deg9.series[j].evaluate(t)
            worst = max(worst, abs(got - series_value))
    _report(2, worst <= 1e-7, f"series columns worst abs err {worst:.3e} (tol 1e-7)")


def test_criterion_03_reference_columns(sir_rk_trajectory):
    worst = 0.0
    for j, name in enumerate(("S", "I", "R")):
        for k, (t, reference_value, _) in enumerate(TABLES[name]):
            assert abs(sir_rk_trajectory.times[k] - t) <= 1e-12
            got = sir_rk_trajectory.states[k][j]
            worst = max(worst, abs(got - reference_value))
    _report(
        3, worst <= 1e-6,
        f"h=1e-4 integrator columns worst abs err {worst:.3e} (tol 1e-6)",
    )


def test_criterion_04_error_magnitudes_at_one(sir_solution_deg9, sir_rk_trajectory):
    ok = True
    details = []
    for j, name in enumerate(("S", "I", "R")):
        ours = abs(
            sir_rk_trajectory.states[-1][j] - sir_solution_deg9.series[j].evaluate(1.0)
        )
        published = ABS_ERROR_AT_1[name]
        ratio = ours / published
        ok = ok and 0.1 <= ratio <= 10.0
        details.append(f"{name}:{ours:.2e}/{published:.2e}")
    _report(4, ok, "abs errors at t=1 within 10x of published (" + ", ".join(details) + ")")


def test_criterion_05_defect_limit_conditions(sir_spec):
    worst = 0.0
    for alpha in ALPHAS:
        for degree in (4, 9):
            problem = SeriesProblem(
                field=sir_spec.field(), y0=INITIAL, alpha=alpha, t0=0.0, degree=degree
            )
            solution = solve(problem)
            limits = verify_defect_conditions(solution, problem)
            composed = compose_series(sir_spec.field(), list(solution.series), degree - 1)
            for i, value in enumerate(limits, start=1):
                data_scale = max(abs(p.coefficient(i - 1)) for p in composed)
                scale = gamma((i - 1) * alpha + 1.0) * max(1.0, data_scale)
                worst = max(worst, value / scale)
    _report(
        5, worst <= 1e-10,
        f"sequential-limit residuals worst scaled {worst:.3e} (tol 1e-10)",
    )


def test_criterion_06_conservation(sir_spec, sir_rk_trajectory):
    worst_coeff = 0.0
    worst_sum = 0.0
    for alpha in ALPHAS:
        problem = SeriesProblem(
            field=sir_spec.field(), y0=INITIAL, alpha=alpha, t0=0.0, degree=9
        )
        series = solve(problem).series
        for i in range(1, 10):
            values = [s.coeffs[i] for s in series]
            scale = max(*(abs(v) for v in values), 1.0)
            worst_coeff = max(worst_coeff, abs(sum(values)) / scale)
        for k in range(11):
            t = k / 10
            total = sum(s.evaluate(t) for s in series)
            worst_sum = max(worst_sum, abs(total - 700.0))
    for state in sir_rk_trajectory.states:
        worst_sum = max(worst_sum, abs(sum(state) - 700.0))
    ok = worst_coeff <= 1e-12 and worst_sum <= 1e-9
    _report(
        6, ok,
        f"coefficient sums worst {worst_coeff:.3e} (tol 1e-12), "
        f"population drift worst {worst_sum:.3e} (tol 1e-9)",
    )


def test_criterion_07_mittag_leffler_closed_form():
    field = PolynomialVectorField(
        equations=((Monomial(1.0, (1,)),),), variable_names=("y",)
    )
    worst = 0.0
    for alpha in (0.5, 1.0):
        problem = SeriesProblem(field=field, y0=(1.0,), alpha=alpha, t0=0.0, degree=10)
        series = solve(problem).series[0]
        for i, c in enumerate(series.coeffs):
            want = 1.0 / gamma(i * alpha + 1.0)
            worst = max(worst, abs((c - want) / want))
    _report(7, worst <= 1e-12, f"Mittag-Leffler coefficients worst rel {worst:.3e} (tol 1e-12)")


def test_criterion_08_operator_identities():
    rng = random.Random(42)
    worst_roundtrip = 0.0
    constants_ok = True
    worst_classical = 0.0
    for alpha in (0.3, 0.5, 0.9, 1.0):
        for _ in range(10):
            coeffs = tuple(rng.uniform(-10, 10) for _ in range(rng.randint(1, 11)))
            p = FractionalPolynomial(alpha, 0.0, coeffs)
            back = p.rl_integral().caputo_derivative()
            for got, want in zip(back.coeffs, p.coeffs):
                if want != 0.0:
                    worst_roundtrip = max(worst_roundtrip, abs((got - want) / want))
        constant = FractionalPolynomial(alpha, 0.0, (rng.uniform(-100, 100),))
        constants_ok = constants_ok and constant.caputo_derivative().coeffs == (0.0,)
    classical = tuple(rng.uniform(-5, 5) for _ in range(11))
    d = FractionalPolynomial(1.0, 0.0, classical).caputo_derivative()
    for i in range(1, 11):
        worst_classical = max(
            worst_classical, abs((d.coeffs[i - 1] - i * classical[i]) / (i * classical[i]))
        )
    ok = worst_roundtrip <= 1e-12 and constants_ok and worst_classical <= 1e-13
    _report(
        8, ok,
        f"integral-derivative round trip worst rel {worst_roundtrip:.3e} (tol 1e-12), "
        f"constants annihilated exactly: {constants_ok}, "
        f"alpha=1 vs classical worst rel {worst_classical:.3e} (tol 1e-13)",
    )


def test_criterion_09_conformable_counterexample():
    worst_integer = 0.0
    for beta_exp in (0.5, 1.0, 1.5, 2.0, 3.0):
        worst_integer = max(worst_integer, abs(discrepancy_report(beta_exp, 1.0).ratio - 1.0))
    caputo = caputo_power_value(1.0, 0.5, 1.0)
    conformable = conformable_power_derivative(1.0, 0.5, 1.0)
    gap = abs(caputo - conformable) / abs(caputo)
    ok = worst_integer <= 1e-13 and gap > 0.10
    _report(
        9, ok,
        f"integer-order ratio worst |r-1| {worst_integer:.3e} (tol 1e-13), "
        f"half-order relative gap {gap:.3f} (> 0.10)",
    )


def test_criterion_10_gamma_kernel():
    worst = abs(gamma(0.5) - math.sqrt(math.pi)) / math.sqrt(math.pi)
    for n in range(1, 21):
        want = float(math.factorial(n - 1))
        worst = max(worst, abs(gamma(float(n)) - want) / want)
    _report(10, worst <= 1e-12, f"Gamma kernel worst rel err {worst:.3e} (tol 1e-12)")
