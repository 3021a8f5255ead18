"""Seeded inputs, timed operations and output checks for the four workloads.

Generators return plain model-config documents (the JSON schema of
``fracseries.models``) drawn from ``random.Random`` seeded by workload name
and seed, so one seed always gives byte-identical inputs.  The library sees
only what is built from them: ``ModelSpec`` and ``SeriesProblem`` values, or
a JSON config file and flags for the CLI.  Every output is checked against
`reference`, which shares no code with fracseries.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import fracseries as fs
from fracseries import cli as fs_cli

import reference as ref

# Relative tolerance against the reference's rounding scale.  Measured errors
# stay below 2e-11 of that scale (Lanczos Gamma, degree 160).
RTOL = 1e-8

SIR_DEEP_DEGREE = 160
SIR_DEEP_ALPHAS = (0.5, 0.75, 1.0)
SIR_DEEP_POOL = 30  # a multiple of len(SIR_DEEP_ALPHAS): each variant keeps one alpha
FIELDS_DEGREE = 40
FIELDS_POOL = 96
FIELDS_POINTS = 101
ORACLE_DEGREE = 40
# The dimension-4 fields are the slowest fifth of the oracle operations, so
# op_ms_p90 is their typical time rather than the noisy tail of one group.
ORACLE_SIR_ALPHAS = (0.5, 0.75, 1.0, 0.5)
ORACLE_FIELD_DIMS = (2, 3, 4, 2, 3, 4)
ORACLE_POOL = len(ORACLE_SIR_ALPHAS) + len(ORACLE_FIELD_DIMS)
CLI_DEGREE = 9
CLI_RK_STEP = 1e-4


class Failed(Exception):
    """The operation failed without an exception in this process (exit code, traceback)."""


class Mismatch(Exception):
    """An output lies outside the reference tolerance."""


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this fracseries first on the path."""
    src = str(Path(fs.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"fracseries-bench:{workload}:{seed}")


def _term(coeff: float, powers: list[int], tpower: int = 0) -> dict:
    return {"coeff": coeff, "powers": powers, "tpower": tpower}


def sir_doc(rng: random.Random, alpha: float) -> dict:
    """SIR with rates and initial state perturbed around the shipped sir.json."""
    p1 = 0.001 * rng.uniform(0.8, 1.2)
    p2 = 0.072 * rng.uniform(0.8, 1.2)
    initial = [v * rng.uniform(0.9, 1.1) for v in (620.0, 10.0, 70.0)]
    return {
        "variables": ["S", "I", "R"],
        "initial": initial,
        "alpha": alpha,
        "t0": 0.0,
        "equations": [
            [_term(-p1, [1, 1, 0])],
            [_term(p1, [1, 1, 0]), _term(-p2, [0, 1, 0])],
            [_term(p2, [0, 1, 0])],
        ],
    }


def field_doc(rng: random.Random, shape: random.Random, dim: int) -> dict:
    """Random polynomial field: 1-4 monomials per equation, state degree <= 3,
    time power <= 2, alpha in (0.25, 1].

    `shape` draws the monomial counts, degrees and time powers, which set the
    cost of a solve; `rng` draws which variables appear and every value.
    Workloads pass one fixed `shape` stream, so every seed has the same mix of
    sizes and the seed moves values, not cost.  Coefficients lie in
    +-[0.05, 0.5] and initial values in +-[0.1, 1], which keeps degree-40
    coefficients and values on [t0, t0 + 1] finite.
    """
    equations = []
    for _ in range(dim):
        terms = []
        for _ in range(shape.randint(1, 4)):
            degree, tpower = shape.randint(0, 3), shape.randint(0, 2)
            powers = [0] * dim
            for _ in range(degree):
                powers[rng.randrange(dim)] += 1
            coeff = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.5)
            terms.append(_term(coeff, powers, tpower))
        equations.append(terms)
    return {
        "variables": [f"y{j}" for j in range(dim)],
        "initial": [rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0) for _ in range(dim)],
        "alpha": 1.0 - 0.75 * rng.random(),
        "t0": rng.uniform(-1.0, 1.0),
        "equations": equations,
    }


def shape_stream(workload: str) -> random.Random:
    """The seed-independent stream of field shapes for one workload."""
    return random.Random(f"fracseries-bench:{workload}:shapes")


def ref_equations(doc: dict) -> list:
    return [
        [(t["coeff"], tuple(t["powers"]), t.get("tpower", 0)) for t in terms]
        for terms in doc["equations"]
    ]


def model_spec(doc: dict) -> fs.ModelSpec:
    return fs.ModelSpec(
        variable_names=tuple(doc["variables"]),
        initial=tuple(doc["initial"]),
        equations=tuple(
            tuple(fs.Monomial(t["coeff"], tuple(t["powers"]), t.get("tpower", 0)) for t in terms)
            for terms in doc["equations"]
        ),
        alpha=doc["alpha"],
        t0=doc["t0"],
    )


def series_problem(doc: dict, degree: int) -> fs.SeriesProblem:
    spec = model_spec(doc)
    return fs.SeriesProblem(
        field=spec.field(), y0=spec.initial, alpha=spec.alpha, t0=spec.t0, degree=degree
    )


class Expected:
    """Reference coefficients of one problem and their rounding scales."""

    def __init__(self, doc: dict, degree: int, alpha: float | None = None, exact: bool = False):
        self.alpha = doc["alpha"] if alpha is None else alpha
        self.t0 = doc["t0"]
        equations = ref_equations(doc)
        if exact:
            if self.alpha != 1.0:
                raise ValueError("the exact path needs alpha = 1")
            rational = ref.solve_exact_alpha1(equations, doc["initial"], degree)
            self.coeffs = [[float(c) for c in y] for y in rational]
        else:
            self.coeffs = ref.solve_reference(equations, doc["initial"], self.alpha, degree)
        self.scales = ref.rounding_scales(equations, self.coeffs, self.alpha)
        self._values: dict[tuple[int, float], tuple[float, float]] = {}

    def check_series(self, got: list, what: str) -> None:
        if len(got) != len(self.coeffs):
            raise Mismatch(f"{what}: {len(got)} series, expected {len(self.coeffs)}")
        for j, (g, want, scale) in enumerate(zip(got, self.coeffs, self.scales)):
            if len(g) != len(want):
                raise Mismatch(f"{what}: series {j} has {len(g)} coefficients, expected {len(want)}")
            for i, (a, b, s) in enumerate(zip(g, want, scale)):
                if not ref.within(a, b, s, RTOL):
                    raise Mismatch(f"{what}: coefficient [{j}][{i}] = {a!r}, reference {b!r}")

    def check_value(self, j: int, t: float, got: float, what: str) -> None:
        key = (j, t)
        if key not in self._values:
            self._values[key] = (
                ref.horner(self.coeffs[j], self.alpha, self.t0, t),
                ref.horner(self.scales[j], self.alpha, self.t0, t),
            )
        want, scale = self._values[key]
        if not ref.within(got, want, scale, RTOL):
            raise Mismatch(f"{what}: value of series {j} at t={t!r} is {got!r}, reference {want!r}")


class Workload:
    """One closed-loop client.  Construction is the set-up `setup_s` times."""

    name = ""
    trace_ops = 1  # operations per block of a traced run
    in_children = False  # peak RSS is that of child processes
    bytes_written = 0

    def op(self, k: int):
        raise NotImplementedError

    def op_in_process(self, k: int):
        return self.op(k)

    def check(self, k: int, out) -> None:
        raise NotImplementedError


class SirDeep(Workload):
    """One `solve` of a seeded SIR variant at degree 160, alpha cycling 0.5/0.75/1."""

    name = "sir-deep"
    trace_ops = len(SIR_DEEP_ALPHAS)

    def __init__(self, seed: int, workdir: Path):
        rng = rng_for(self.name, seed)
        self.docs = [
            sir_doc(rng, SIR_DEEP_ALPHAS[i % len(SIR_DEEP_ALPHAS)]) for i in range(SIR_DEEP_POOL)
        ]
        self.problems = [series_problem(d, SIR_DEEP_DEGREE) for d in self.docs]
        self._expected: dict[int, Expected] = {}

    def op(self, k):
        return fs.solve(self.problems[k % SIR_DEEP_POOL])

    def check(self, k, out):
        i = k % SIR_DEEP_POOL
        if i not in self._expected:
            self._expected[i] = Expected(self.docs[i], SIR_DEEP_DEGREE)
        self._expected[i].check_series([s.coeffs for s in out.series], f"sir-deep[{i}]")


class FieldsMid(Workload):
    """One `solve` of a random field at degree 40, then `evaluate` at 101 points."""

    name = "fields-mid"
    trace_ops = 12

    def __init__(self, seed: int, workdir: Path):
        rng, shape = rng_for(self.name, seed), shape_stream(self.name)
        self.docs = [field_doc(rng, shape, 2 + i % 3) for i in range(FIELDS_POOL)]
        self.problems = [series_problem(d, FIELDS_DEGREE) for d in self.docs]
        self.points = [
            [d["t0"] + m / (FIELDS_POINTS - 1) for m in range(FIELDS_POINTS)] for d in self.docs
        ]
        self._expected: dict[int, Expected] = {}

    def op(self, k):
        i = k % FIELDS_POOL
        solution = fs.solve(self.problems[i])
        points = self.points[i]
        return solution, [[s.evaluate(t) for t in points] for s in solution.series]

    def check(self, k, out):
        i = k % FIELDS_POOL
        if i not in self._expected:
            self._expected[i] = Expected(self.docs[i], FIELDS_DEGREE)
        expected = self._expected[i]
        solution, values = out
        expected.check_series([s.coeffs for s in solution.series], f"fields-mid[{i}]")
        for j, row in enumerate(values):
            for t, v in zip(self.points[i], row):
                expected.check_value(j, t, v, f"fields-mid[{i}]")


class Oracle(Workload):
    """One `verify_defect_conditions` at degree 40 on SIR and random-field solutions."""

    name = "oracle"
    trace_ops = ORACLE_POOL

    def __init__(self, seed: int, workdir: Path):
        rng, shape = rng_for(self.name, seed), shape_stream(self.name)
        self.docs = [sir_doc(rng, a) for a in ORACLE_SIR_ALPHAS]
        self.docs += [field_doc(rng, shape, dim) for dim in ORACLE_FIELD_DIMS]
        self.problems = [series_problem(d, ORACLE_DEGREE) for d in self.docs]
        self.solutions = [fs.solve(p) for p in self.problems]
        self._expected: dict[int, Expected] = {}

    def op(self, k):
        i = k % ORACLE_POOL
        return fs.verify_defect_conditions(self.solutions[i], self.problems[i])

    def check(self, k, out):
        i = k % ORACLE_POOL
        if i not in self._expected:
            expected = Expected(self.docs[i], ORACLE_DEGREE)
            expected.check_series([s.coeffs for s in self.solutions[i].series], f"oracle[{i}]")
            self._expected[i] = expected
        expected = self._expected[i]
        if len(out) != ORACLE_DEGREE:
            raise Mismatch(f"oracle[{i}]: {len(out)} limits, expected {ORACLE_DEGREE}")
        a = expected.alpha
        for k_, limit in enumerate(out):
            # limit k is Gamma(k a + 1) times defect slot k, whose rounding
            # scale is coefficient k + 1's divided by its step ratio.
            scale = ref.gamma_ratio((k_ + 1) * a + 1.0, 1.0) * max(s[k_ + 1] for s in expected.scales)
            if not ref.within(limit, 0.0, scale, RTOL):
                raise Mismatch(f"oracle[{i}]: limit {k_} = {limit!r} exceeds {RTOL} x {scale!r}")


class Cli(Workload):
    """One `python -m fracseries` subprocess; five commands in turn."""

    name = "cli"
    trace_ops = 5
    in_children = True

    def __init__(self, seed: int, workdir: Path):
        rng = rng_for(self.name, seed)
        self.workdir = workdir
        self.out_dir = workdir / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        sir = sir_doc(rng, 1.0)
        p1 = -sir["equations"][0][0]["coeff"]
        p2 = sir["equations"][2][0]["coeff"]
        sir_flags = ["--model", "sir", "--p1", repr(p1), "--p2", repr(p2),
                     "--initial", ",".join(repr(v) for v in sir["initial"])]
        config = field_doc(rng, shape_stream(self.name), 3)
        config_path = workdir / "model.json"
        config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        self.sweep_alphas = sorted(round(rng.uniform(0.3, 1.0), 3) for _ in range(3))
        self.beta, self.conf_alpha = rng.uniform(0.1, 3.0), rng.uniform(0.1, 1.0)
        out = str(self.out_dir)
        self.sir, self.config = sir, config
        self.t_end = config["t0"] + 1.0
        self.commands = [
            ["solve", *sir_flags, "--degree", str(CLI_DEGREE), "--out-dir", out],
            ["solve", "--model", str(config_path), "--degree", str(CLI_DEGREE),
             "--t-end", repr(self.t_end), "--out-dir", out],
            ["compare", *sir_flags, "--degree", str(CLI_DEGREE),
             "--rk-step", repr(CLI_RK_STEP), "--out-dir", out],
            ["sweep", *sir_flags, *[x for a in self.sweep_alphas for x in ("--alpha", repr(a))],
             "--degree", str(CLI_DEGREE), "--out-dir", out],
            ["conformable", "--beta", repr(self.beta), "--alpha", repr(self.conf_alpha),
             "--out", str(self.out_dir / "report.csv")],
        ]
        self._checks = [self._check_solve_sir, self._check_solve_config, self._check_compare,
                        self._check_sweep, self._check_conformable]
        self._expected: dict = {}

    def op(self, k):
        return subprocess.run(
            [sys.executable, "-m", "fracseries", *self.commands[k % 5]],
            env=child_env(), cwd=self.workdir, capture_output=True, text=True,
        )

    def op_in_process(self, k):
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = fs_cli.main(self.commands[k % 5])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        return subprocess.CompletedProcess(self.commands[k % 5], code, "", err.getvalue())

    def check(self, k, out):
        try:
            if out.returncode != 0:
                raise Failed(f"exit {out.returncode}")
            if "Traceback" in out.stderr:
                raise Failed("traceback")
            self._checks[k % 5]()
            self.bytes_written += sum(p.stat().st_size for p in self.out_dir.iterdir())
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
            self.out_dir.mkdir()

    # -- per-command checks -------------------------------------------------

    def _expect(self, key, build):
        if key not in self._expected:
            self._expected[key] = build()
        return self._expected[key]

    def _rows(self, name: str, header: str) -> list[list[str]]:
        path = self.out_dir / name
        if not path.is_file():
            raise Mismatch(f"cli: {name} was not written")
        lines = path.read_text(encoding="utf-8").split("\n")
        if lines[0] != header or lines[-1] != "":
            raise Mismatch(f"cli: {name} has header {lines[0]!r} or no final newline")
        return [line.split(",") for line in lines[1:-1]]

    def _check_coefficients(self, doc, expected):
        rows = self._rows("coefficients.csv", "variable,index,coefficient")
        got = {name: [] for name in doc["variables"]}
        for name, index, value in rows:
            if int(index) != len(got[name]):
                raise Mismatch(f"cli: coefficients.csv index {index} out of order")
            got[name].append(float(value))
        expected.check_series([got[n] for n in doc["variables"]], "cli coefficients.csv")

    def _check_samples(self, name, doc, expected, t_end):
        rows = self._rows(name, "t," + ",".join(doc["variables"]))
        t0 = doc["t0"]
        if len(rows) != 11:
            raise Mismatch(f"cli: {name} has {len(rows)} rows, expected 11")
        for m, row in enumerate(rows):
            t = float(row[0])
            if t != t0 + (t_end - t0) * (m / 10):
                raise Mismatch(f"cli: {name} row {m} has t={t!r}")
            for j, v in enumerate(row[1:]):
                expected.check_value(j, t, float(v), f"cli {name}")

    def _check_solve_sir(self):
        expected = self._expect("sir-exact", lambda: Expected(self.sir, CLI_DEGREE, exact=True))
        self._check_coefficients(self.sir, expected)
        self._check_samples("samples.csv", self.sir, expected, 1.0)

    def _check_solve_config(self):
        expected = self._expect("config", lambda: Expected(self.config, CLI_DEGREE))
        self._check_coefficients(self.config, expected)
        self._check_samples("samples.csv", self.config, expected, self.t_end)

    def _check_compare(self):
        expected = self._expect("sir-exact", lambda: Expected(self.sir, CLI_DEGREE, exact=True))
        steps = round(1.0 / CLI_RK_STEP)
        trajectory = self._expect("rk4", lambda: ref.rk4_reference(
            ref_equations(self.sir), self.sir["initial"], 0.0, CLI_RK_STEP, steps, steps // 10))
        for j, name in enumerate(self.sir["variables"]):
            rows = self._rows(f"compare_{name}.csv", "t,reference,acps,abs_err,rel_err")
            if len(rows) != len(trajectory):
                raise Mismatch(f"cli: compare_{name}.csv has {len(rows)} rows")
            for (t_ref, state), row in zip(trajectory, rows):
                t, reference, acps, abs_err, rel_err = (float(x) for x in row)
                if not ref.within(t, t_ref, 1.0, 1e-12):
                    raise Mismatch(f"cli: compare_{name}.csv t={t!r}, expected {t_ref!r}")
                if not ref.within(reference, state[j], abs(state[j]), RTOL):
                    raise Mismatch(f"cli: compare_{name}.csv reference {reference!r} at t={t!r}, RK4 {state[j]!r}")
                expected.check_value(j, t, acps, f"cli compare_{name}.csv")
                if not ref.within(abs_err, abs(reference - acps), abs(reference), 1e-15):
                    raise Mismatch(f"cli: compare_{name}.csv abs_err {abs_err!r} at t={t!r}")
                if not ref.within(rel_err, abs_err / abs(reference), 1.0, 1e-15):
                    raise Mismatch(f"cli: compare_{name}.csv rel_err {rel_err!r} at t={t!r}")

    def _check_sweep(self):
        for a in self.sweep_alphas:
            expected = self._expect(("sweep", a), lambda: Expected(self.sir, CLI_DEGREE, alpha=a))
            self._check_samples(f"samples_alpha_{a!r}.csv", self.sir, expected, 1.0)

    def _check_conformable(self):
        b, a = self.beta, self.conf_alpha
        m = math.ceil(a)
        want = {
            "alpha": a,
            "beta": b,
            "m": m,
            "caputo_coefficient": ref.gamma_ratio(b + 1.0, b - a + 1.0),
            "conformable_coefficient": ref.gamma_ratio(b + 1.0, b - m + 1.0),
            "ratio": ref.gamma_ratio(b - m + 1.0, b - a + 1.0),
        }
        rows = self._rows("report.csv", "field,value")
        if [r[0] for r in rows] != list(want):
            raise Mismatch(f"cli: report.csv fields {[r[0] for r in rows]}")
        for field, value in rows:
            if not ref.within(float(value), want[field], abs(want[field]), RTOL):
                raise Mismatch(f"cli: report.csv {field} = {value}, reference {want[field]!r}")


WORKLOADS = {w.name: w for w in (SirDeep, FieldsMid, Oracle, Cli)}
