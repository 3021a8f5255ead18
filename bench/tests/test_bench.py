"""Self-tests of the benchmark: tracing, reference, generators, accounting.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import fracseries  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _sir_reference_module():
    spec = importlib.util.spec_from_file_location("sir_reference", ROOT / "tests" / "sir_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(fn, *args):
    tracer = tracing.Tracer()
    tracer.patch()
    try:
        out = fn(*args)
    finally:
        tracer.restore()
    return out, tracer


# -- tracing -------------------------------------------------------------------


def test_self_time_is_duration_minus_children_on_a_synthetic_nest():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    leaves = {("leaf", 3): [3, 1.5], ("leaf", 0): [1, 0.25]}
    out = tracing.summarize(spans, leaves)
    assert out["root"] == [1, pytest.approx(10.0 - 3.0 - 4.0 - 0.25)]
    assert out["a"] == [1, pytest.approx(3.0 - 1.0)]
    assert out["a.inner"] == [1, pytest.approx(1.0)]
    assert out["b"] == [1, pytest.approx(4.0 - 1.5)]
    assert out["leaf"] == [4, pytest.approx(1.75)]


def test_self_times_of_a_real_solve_add_up_to_its_duration():
    problem = workloads.series_problem(workloads.sir_doc(workloads.rng_for("t", 0), 0.5), 20)
    _, tracer = _traced(lambda: fracseries.solve(problem))
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["solver.solve"]
    total = sum(self_s for _, self_s in tracing.summarize(tracer.spans, tracer.leaves).values())
    assert total == pytest.approx(roots[0][2] - roots[0][1], rel=1e-9)


def test_madds_closed_form_matches_the_loop():
    def loop(dp, dq, max_degree):
        top = min(max_degree, dp + dq)
        return sum(min(dq, top - i) + 1 for i in range(dp + 1) if i <= top)

    for dp in range(6):
        for dq in range(6):
            for max_degree in range(12):
                p = SimpleNamespace(coeffs=(1.0,) * (dp + 1))
                q = SimpleNamespace(coeffs=(1.0,) * (dq + 1))
                assert tracing.madds(p, q, max_degree) == loop(dp, dq, max_degree)


def test_every_binding_site_is_patched_and_restored():
    sites = {
        "gamma": ["special", "fracpoly", "solver", "conformable"],
        "compose_series": ["field", "solver"],
        "multiply_truncated": ["fracpoly", "field"],
        "add_scaled": ["fracpoly", "field"],
        "evaluate_field": ["field", "rk4"],
        "solve": ["solver", "cli"],
        "rk4_integrate": ["rk4", "cli"],
        "comparison_table": ["metrics", "cli"],
        "parse_model_config": ["models", "cli"],
        "sir_model": ["models", "cli"],
        "discrepancy_report": ["conformable", "cli"],
    }
    modules = {m: sys.modules[f"fracseries.{m}"] for ms in sites.values() for m in ms}
    originals = {(m, name): getattr(modules[m], name) for name, ms in sites.items() for m in ms}
    tracer = tracing.Tracer()
    tracer.patch()
    try:
        for (m, name), original in originals.items():
            wrapper = getattr(modules[m], name)
            assert wrapper is not original, f"fracseries.{m}.{name} not patched"
            assert wrapper.__wrapped__ is original
    finally:
        tracer.restore()
    for (m, name), original in originals.items():
        assert getattr(modules[m], name) is original


@pytest.mark.parametrize(
    "workload, k, span",
    [
        ("oracle", 0, "special.gamma"),
        ("cli", 2, "field.evaluate_field"),
        ("sir-deep", 0, "fracpoly.multiply_truncated"),
        ("fields-mid", 0, "fracpoly.evaluate"),
        ("cli", 0, "cli.main"),
    ],
)
def test_each_workload_hits_the_layer_meant_for_it(tmp_path, workload, k, span):
    w = workloads.WORKLOADS[workload](1, tmp_path)
    out, tracer = _traced(w.op_in_process, k)
    w.check(k, out)
    calls, self_s = tracing.summarize(tracer.spans, tracer.leaves)[span]
    assert calls > 0 and self_s > 0.0


def _outputs(w, k, traced):
    out = _traced(w.op_in_process, k)[0] if traced else w.op_in_process(k)
    if isinstance(w, workloads.Cli):
        files = {p.name: p.read_bytes() for p in sorted(w.out_dir.iterdir())}
        w.check(k, out)
        return files
    if isinstance(w, workloads.SirDeep):
        return [s.coeffs for s in out.series]
    if isinstance(w, workloads.FieldsMid):
        return [s.coeffs for s in out[0].series], out[1]
    return out


@pytest.mark.parametrize("workload, ops", [
    ("sir-deep", [0, 1]), ("fields-mid", [0, 1, 2]), ("oracle", [0, 1]), ("cli", range(5)),
])
def test_traced_and_untraced_runs_give_identical_outputs(tmp_path, workload, ops):
    w = workloads.WORKLOADS[workload](2, tmp_path)
    for k in ops:
        assert _outputs(w, k, traced=False) == _outputs(w, k, traced=True)


# -- reference -----------------------------------------------------------------


def _sir_equations(p1, p2):
    return [[(-p1, (1, 1, 0), 0)], [(p1, (1, 1, 0), 0), (-p2, (0, 1, 0), 0)], [(p2, (0, 1, 0), 0)]]


def test_float_reference_reproduces_the_frozen_degree9_sir_coefficients():
    frozen = _sir_reference_module()
    got = ref.solve_reference(_sir_equations(frozen.P1, frozen.P2), frozen.INITIAL, 1.0, 9)
    for name, coeffs in zip("SIR", got):
        assert coeffs == pytest.approx(frozen.COEFFS_DEG9[name], rel=1e-12, abs=1e-20)


def test_float_reference_agrees_with_the_exact_path_at_alpha1():
    frozen = _sir_reference_module()
    cases = [(_sir_equations(frozen.P1, frozen.P2), frozen.INITIAL)]
    rng, shape = workloads.rng_for("test", 0), workloads.shape_stream("test")
    for dim in (2, 3, 4):
        doc = workloads.field_doc(rng, shape, dim)
        cases.append((workloads.ref_equations(doc), doc["initial"]))
    for equations, y0 in cases:
        floats = ref.solve_reference(equations, y0, 1.0, 24)
        exact = ref.solve_exact_alpha1(equations, y0, 24)
        scales = ref.rounding_scales(equations, floats, 1.0)
        for fs_, es, ss in zip(floats, exact, scales):
            for f, e, s in zip(fs_, es, ss):
                assert abs(f - float(e)) <= 1e-13 * s


def test_reference_stays_finite_at_degree_160_for_every_sir_deep_alpha():
    for alpha in workloads.SIR_DEEP_ALPHAS:
        coeffs = ref.solve_reference(_sir_equations(0.001, 0.072), (620.0, 10.0, 70.0), alpha, 160)
        assert all(map(ref.math.isfinite, (c for y in coeffs for c in y)))
    assert ref.gamma_ratio(200.0, 200.5) == pytest.approx(200.0**-0.5, rel=1e-3)


def test_check_rejects_a_perturbed_coefficient():
    doc = workloads.sir_doc(workloads.rng_for("t", 1), 0.5)
    expected = workloads.Expected(doc, 40)
    good = [list(y) for y in expected.coeffs]
    expected.check_series(good, "good")
    good[1][20] *= 1 + 1e-6
    with pytest.raises(workloads.Mismatch):
        expected.check_series(good, "bad")


# -- generators and accounting -------------------------------------------------


def _inputs(w):
    if isinstance(w, workloads.Cli):
        commands = json.dumps(w.commands).replace(str(w.workdir), "<workdir>")
        return commands, (w.workdir / "model.json").read_bytes()
    return json.dumps(w.docs)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    cls = workloads.WORKLOADS[workload]
    a = _inputs(cls(7, tmp_path / "a"))
    b = _inputs(cls(7, tmp_path / "b"))
    c = _inputs(cls(8, tmp_path / "c"))
    assert a == b
    assert a != c


def test_failures_are_counted_against_attempts_and_never_raise():
    def op(k):
        if k == 0:
            raise OverflowError("boom")
        return k

    def check(k, out):
        if k == 2:
            raise workloads.Failed("exit 1")
        if k == 3:
            raise workloads.Mismatch("wrong")

    tally = run.Tally(run.Speed.for_children(False))
    for k in range(5):
        tally.run(op, check, k)
    assert tally.attempted == 5
    assert tally.failed == 3
    assert dict(tally.failures) == {"OverflowError": 1, "exit 1": 1, "mismatch": 1}
    assert len(tally.latencies) == 2
    assert tally.mismatches == ["Mismatch: wrong"]


# -- the command ---------------------------------------------------------------


def test_benchmark_json_names_the_metrics_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload, trace, metrics", [
    ("fields-mid", 0, run.END_TO_END), ("cli", 1, run.PER_LAYER),
])
def test_command_prints_the_result_line(workload, trace, metrics):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metrics


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sir-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
