"""Benchmark for fracseries: one seeded workload per run.

    python3 bench/run.py --workload sir-deep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and README.md): sir-deep, fields-mid, oracle,
cli.  Each is a closed loop with one client in this process; `cli` runs one
``python -m fracseries`` subprocess at a time.  No threads or pools.

With ``--trace 0`` the run measures the end-to-end metrics untraced: it
repeats operations until their summed time reaches ``--seconds``, checks
every output against the independent reference outside the timed interval,
and then times ``setup_s`` in fresh interpreters.  With ``--trace 1`` it
alternates untraced and traced blocks of the same operations (``cli`` then
calls ``fracseries.cli.main`` in-process) and reports per-layer metrics per
operation; the spans of the first traced block are written to
``.bench_work/spans-<workload>-seed<seed>.json``.

Host speed on a shared machine swings by up to 2x within seconds, so every
time is normalized by a calibration kernel that shares no code with
fracseries and runs right before and right after each timed piece of work:
the work's time is scaled by the kernel's nominal time over the mean of the
two kernel samples.  In-process work is scaled by the reference recursion on
the shipped SIR problem; child processes (``cli`` operations, ``setup_s``
probes) by the start of a bare interpreter, which tracks them far more
closely.  A reported millisecond is a millisecond at the speed where the
kernel takes its nominal time; raw times are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(SRC))
import reference  # noqa: E402  (the imports below need src/ on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Nominal kernel times, which define the reported speed (about their medians
# on a shared 2-core Xeon host with Python 3.11).
PYTHON_KERNEL_S = 0.0003
SPAWN_KERNEL_S = 0.05
_KERNEL_FIELD = [
    [(-0.001, (1, 1, 0), 0)],
    [(0.001, (1, 1, 0), 0), (-0.072, (0, 1, 0), 0)],
    [(0.072, (0, 1, 0), 0)],
]

SETUP_PROBES = 5
PROCESS_PROBES = 7
MIN_LATENCY_SAMPLES = 100  # op_ms_p90 needs ten samples above it

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "completed_share": "share",
}

# (metric, unit, span name, field) -- field "calls"/"self" reads the span
# summary, any other field reads a counter the tracer computed from arguments.
SPAN_METRICS = [
    ("special.gamma.calls", "count/op", "special.gamma", "calls"),
    ("special.gamma.self_ms", "ms/op", "special.gamma", "self"),
    ("fracpoly.multiply_truncated.calls", "count/op", "fracpoly.multiply_truncated", "calls"),
    ("fracpoly.multiply_truncated.self_ms", "ms/op", "fracpoly.multiply_truncated", "self"),
    ("fracpoly.multiply_truncated.madds", "count/op", "fracpoly.multiply_truncated", "madds"),
    ("fracpoly.add_scaled.calls", "count/op", "fracpoly.add_scaled", "calls"),
    ("fracpoly.add_scaled.self_ms", "ms/op", "fracpoly.add_scaled", "self"),
    ("fracpoly.FractionalPolynomial.instances", "count/op", "fracpoly.FractionalPolynomial", "calls"),
    ("fracpoly.FractionalPolynomial.init_self_ms", "ms/op", "fracpoly.FractionalPolynomial", "self"),
    ("fracpoly.caputo_derivative.calls", "count/op", "fracpoly.caputo_derivative", "calls"),
    ("fracpoly.caputo_derivative.self_ms", "ms/op", "fracpoly.caputo_derivative", "self"),
    ("fracpoly.evaluate.calls", "count/op", "fracpoly.evaluate", "calls"),
    ("fracpoly.evaluate.self_ms", "ms/op", "fracpoly.evaluate", "self"),
    ("field.compose_series.calls", "count/op", "field.compose_series", "calls"),
    ("field.compose_series.self_ms", "ms/op", "field.compose_series", "self"),
    ("field.evaluate_field.calls", "count/op", "field.evaluate_field", "calls"),
    ("field.evaluate_field.self_ms", "ms/op", "field.evaluate_field", "self"),
    ("solver.solve.self_ms", "ms/op", "solver.solve", "self"),
    ("solver.build_defect.calls", "count/op", "solver.build_defect", "calls"),
    ("solver.build_defect.self_ms", "ms/op", "solver.build_defect", "self"),
    ("solver.verify_defect_conditions.self_ms", "ms/op", "solver.verify_defect_conditions", "self"),
    ("rk4.rk4_integrate.steps", "count/op", "rk4.rk4_integrate", "steps"),
    ("rk4.rk4_integrate.self_ms", "ms/op", "rk4.rk4_integrate", "self"),
    ("metrics.comparison_table.self_ms", "ms/op", "metrics.comparison_table", "self"),
    ("models.parse_model_config.self_ms", "ms/op", "models.parse_model_config", "self"),
    ("models.sir_model.self_ms", "ms/op", "models.sir_model", "self"),
    ("conformable.discrepancy_report.self_ms", "ms/op", "conformable.discrepancy_report", "self"),
    ("cli.main.self_ms", "ms/op", "cli.main", "self"),
]
PER_LAYER = {m: unit for m, unit, _, _ in SPAN_METRICS} | {
    "cli.bytes_written": "B/op",
    "process.startup_ms": "ms",
    "process.import_ms": "ms",
    "trace.overhead_share": "share",
}


def python_kernel() -> float:
    """Median of three runs of the reference recursion at degree 30, in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference.solve_reference(_KERNEL_FIELD, (620.0, 10.0, 70.0), 0.5, 30)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spawn_kernel() -> float:
    """Wall time of ``python -c pass`` in a child process, in seconds."""
    return run_child([sys.executable, "-c", "pass"])


def run_child(cmd: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=workloads.child_env(), cwd=ROOT, capture_output=True, check=True)
    return time.perf_counter() - start


class Speed:
    """Kernel samples between pieces of timed work."""

    def __init__(self, kernel, nominal_s: float) -> None:
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.samples = [kernel()]

    @classmethod
    def for_children(cls, children: bool) -> "Speed":
        return cls(spawn_kernel, SPAWN_KERNEL_S) if children else cls(python_kernel, PYTHON_KERNEL_S)

    def factor(self) -> float:
        """Scale for the work timed since the previous sample."""
        self.samples.append(self.kernel())
        return self.nominal_s / ((self.samples[-2] + self.samples[-1]) / 2)


class Tally:
    """Attempted operations, failures by kind, and latencies of completed ones."""

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.mismatches: list[str] = []
        self.latencies: list[float] = []  # normalized, completed operations
        self.raw_latencies: list[float] = []

    def run(self, op, check, k: int) -> tuple[float, float]:
        """Run and check operation k; return its raw and normalized time.  Never raises."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op(k)
        except Exception as exc:  # a failing operation is counted, not fatal
            took = time.perf_counter() - start
            self.failures[type(exc).__name__] += 1
            return took, took * self.speed.factor()
        took = time.perf_counter() - start
        scaled = took * self.speed.factor()
        try:
            check(k, out)
        except workloads.Failed as exc:
            self.failures[str(exc)] += 1
        except Exception as exc:  # any other check error is a wrong output
            self.failures["mismatch"] += 1
            self.mismatches.append(f"{type(exc).__name__}: {exc}")
        else:
            self.latencies.append(scaled)
            self.raw_latencies.append(took)
        return took, scaled

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def time_process(cmd: list[str], speed: Speed) -> float:
    """Normalized wall time of one child process."""
    return run_child(cmd) * speed.factor()


def end_to_end(w, seed: int, seconds: float, workdir: Path) -> tuple[Tally, dict]:
    speed = Speed.for_children(w.in_children)
    Tally(speed).run(w.op, w.check, 0)  # warm-up: byte-code caches, first-touch pages
    tally = Tally(speed)
    raw_window = window = 0.0
    k = 0
    # Past --seconds, go on until op_ms_p90 has its samples, up to three times as long.
    while raw_window < seconds or (
        len(tally.latencies) < MIN_LATENCY_SAMPLES and raw_window < 3 * seconds
    ):
        took, scaled = tally.run(w.op, w.check, k)
        raw_window += took
        window += scaled
        k += 1
    who = resource.RUSAGE_CHILDREN if w.in_children else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    setup_speed = Speed.for_children(True)
    setup = [
        time_process([sys.executable, str(BENCH / "setup_probe.py"), w.name, str(seed),
                      str(workdir / f"probe{n}")], setup_speed)
        for n in range(SETUP_PROBES)
    ]
    lat = tally.latencies
    if len(lat) < 2:
        raise SystemExit(f"error: only {len(lat)} of {tally.attempted} operations completed")
    if len(lat) < MIN_LATENCY_SAMPLES:
        print(f"warning: {len(lat)} completed operations, op_ms_p90 wants "
              f"{MIN_LATENCY_SAMPLES}", file=sys.stderr)
    print(f"# raw: ops_per_s {len(lat) / raw_window:.6g}, "
          f"op_ms_p50 {statistics.median(tally.raw_latencies) * 1000:.6g}, "
          f"kernel median {statistics.median(speed.samples) * 1e3:.4g} ms "
          f"(nominal {speed.nominal_s * 1e3:g} ms)")
    return tally, {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / window,
        "op_ms_p50": statistics.median(lat) * 1000.0,
        "op_ms_p90": statistics.quantiles(lat, n=10)[-1] * 1000.0,
        "peak_rss_mb": peak_mb,
        "completed_share": len(lat) / tally.attempted,
    }


def per_layer(w, seed: int, seconds: float) -> tuple[Tally, dict]:
    block = w.trace_ops
    op = w.op_in_process
    tracer = tracing.Tracer()
    speed = Speed.for_children(False)
    Tally(speed).run(op, w.check, 0)  # warm-up
    tally = Tally(speed)
    untraced, traced, summaries, extras, written = [], [], [], [], []
    raw_total = 0.0
    first = None
    while not traced or raw_total < seconds:
        times = [tally.run(op, w.check, k) for k in range(block)]
        untraced.append(sum(scaled for _, scaled in times))
        raw_total += sum(took for took, _ in times)
        tracer.reset()
        before = w.bytes_written
        tracer.patch()
        try:
            times = []
            for k in range(block):
                tracer.op = k
                times.append(tally.run(op, w.check, k))
        finally:
            tracer.restore()
        traced.append(sum(scaled for _, scaled in times))
        raw_total += sum(took for took, _ in times)
        # Self times scale like the block that holds them.
        scale = traced[-1] / sum(took for took, _ in times)
        written.append(w.bytes_written - before)
        summaries.append({
            name: (calls, self_s * scale)
            for name, (calls, self_s) in tracing.summarize(tracer.spans, tracer.leaves).items()
        })
        extras.append(dict(tracer.extra))
        if first is None:
            first = (tracer.spans, tracer.leaves)
    write_spans(w.name, seed, block, *first)

    metrics = {}
    for metric, _, span, field in SPAN_METRICS:
        if field == "calls":
            value = summaries[0].get(span, (0, 0.0))[0]
        elif field == "self":
            value = statistics.median(s.get(span, (0, 0.0))[1] for s in summaries) * 1000.0
        else:
            value = extras[0].get(f"{span}.{field}", 0)
        metrics[metric] = value / block
    metrics["cli.bytes_written"] = written[0] / block
    bare, imported = [], []
    for _ in range(PROCESS_PROBES):
        bare.append(time_process([sys.executable, "-c", "pass"], speed))
        imported.append(time_process([sys.executable, "-c", "import fracseries"], speed))
    metrics["process.startup_ms"] = statistics.median(bare) * 1000.0
    metrics["process.import_ms"] = (statistics.median(imported) - statistics.median(bare)) * 1000.0
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return tally, metrics


def write_spans(name: str, seed: int, block: int, spans, leaves) -> None:
    t0 = spans[0][1] if spans else 0.0
    doc = {
        "workload": name,
        "seed": seed,
        "ops": block,
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [[n, s - t0, e - t0, p, op] for n, s, e, p, op in spans],
        "leaf_totals": [[n, p, calls, total] for (n, p), (calls, total) in leaves.items()],
    }
    path = WORK / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"cpu {cpu}, ram {ram:.1f} GiB")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["sir-deep", "fields-mid", "oracle", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(workloads.fs.__file__).resolve().parent != (SRC / "fracseries").resolve():
        print(f"error: fracseries was not imported from {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and its children, so the calibration kernel
    # and the work it scales share a core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            tally, metrics = per_layer(w, args.seed, args.seconds)
            units = PER_LAYER
        else:
            tally, metrics = end_to_end(w, args.seed, args.seconds, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in tally.mismatches[:5]:
        print(f"mismatch: {message}", file=sys.stderr)
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print(f"# machine: {machine()}")
    print(f"# attempted {tally.attempted}, completed {len(tally.latencies)}, failed {tally.failed} "
          f"{dict(tally.failures)}")
    if not args.trace:
        print(f"# samples: latency {len(tally.latencies)}, setup {SETUP_PROBES}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    # Printed, not gated: it is 0 on most workloads, and completed_share is its complement.
    print(f"failed_share {tally.failed / tally.attempted:.6g} share")
    print(json.dumps({
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
