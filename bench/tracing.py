"""Spans around the public functions of every fracseries module.

The library is not edited: `Tracer.patch` replaces each target in every
module namespace that binds it (modules import names directly, so
``fracseries.solver.gamma`` is a binding of its own) and on the class for
methods, and `Tracer.restore` puts the originals back.

A wrapped call records a span ``[name, start, end, parent, op]`` in memory.
Hot leaf calls (Gamma, polynomial construction and evaluation, pointwise
field evaluation) are added up per (name, parent span) instead, and calls a
leaf makes into other wrapped functions are part of the leaf's own time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_CLOCK = time.perf_counter


def madds(p, q, max_degree: int) -> int:
    """Multiply-adds of multiply_truncated(p, q, max_degree), from lengths alone.

    sum over i <= min(dp, top) of min(dq, top - i) + 1, with
    top = min(max_degree, dp + dq), in closed form.
    """
    dp, dq = len(p.coeffs) - 1, len(q.coeffs) - 1
    top = min(max_degree, dp + dq)
    last = min(dp, top)
    if last < 0:
        return 0
    full = max(0, min(last, top - dq) + 1)  # rows that use all of q
    lo = max(0, top - dq + 1)
    n = last - lo + 1
    partial = n * (top + 1) - (lo + last) * n // 2 if n > 0 else 0
    return full * (dq + 1) + partial


def rk4_steps(field, y0, t0, t_end, h, record_every=1) -> int:
    """Steps rk4_integrate takes for these arguments."""
    return round((t_end - t0) / h)


# (span name, module, attribute, class or None, leaf, extra counter)
TARGETS = (
    ("special.gamma", "special", "gamma", None, True, None),
    ("fracpoly.FractionalPolynomial", "fracpoly", "__init__", "FractionalPolynomial", True, None),
    ("fracpoly.evaluate", "fracpoly", "evaluate", "FractionalPolynomial", True, None),
    ("fracpoly.caputo_derivative", "fracpoly", "caputo_derivative", "FractionalPolynomial", False, None),
    ("fracpoly.multiply_truncated", "fracpoly", "multiply_truncated", None, False, ("madds", madds)),
    ("fracpoly.add_scaled", "fracpoly", "add_scaled", None, False, None),
    ("field.compose_series", "field", "compose_series", None, False, None),
    ("field.evaluate_field", "field", "evaluate_field", None, True, None),
    ("solver.solve", "solver", "solve", None, False, None),
    ("solver.build_defect", "solver", "build_defect", None, False, None),
    ("solver.verify_defect_conditions", "solver", "verify_defect_conditions", None, False, None),
    ("rk4.rk4_integrate", "rk4", "rk4_integrate", None, False, ("steps", rk4_steps)),
    ("metrics.comparison_table", "metrics", "comparison_table", None, False, None),
    ("metrics.default_sample_times", "metrics", "default_sample_times", None, False, None),
    ("models.parse_model_config", "models", "parse_model_config", None, False, None),
    ("models.sir_model", "models", "sir_model", None, False, None),
    ("conformable.discrepancy_report", "conformable", "discrepancy_report", None, False, None),
    ("cli.main", "cli", "main", None, False, None),
)


class Tracer:
    """Records spans while patched; `reset` starts a new block."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[tuple[str, int], list] = {}
        self.extra: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        self._in_leaf = [False]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.leaves = {}
        self.extra = defaultdict(int)
        self._stack.clear()

    def patch(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "fracseries" or name.startswith("fracseries."))
        ]
        for span, module, attr, cls_name, leaf, extra in TARGETS:
            home = sys.modules[f"fracseries.{module}"]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(span, original, leaf, extra))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(span, original, leaf, extra)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, span, fn, leaf, extra):
        stack, in_leaf, tracer = self._stack, self._in_leaf, self

        if leaf:
            def wrapper(*args, **kwargs):
                if in_leaf[0]:
                    return fn(*args, **kwargs)
                parent = stack[-1] if stack else -1
                in_leaf[0] = True
                start = _CLOCK()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = _CLOCK() - start
                    in_leaf[0] = False
                    bucket = tracer.leaves.get((span, parent))
                    if bucket is None:
                        tracer.leaves[(span, parent)] = [1, took]
                    else:
                        bucket[0] += 1
                        bucket[1] += took
        else:
            def wrapper(*args, **kwargs):
                if in_leaf[0]:
                    return fn(*args, **kwargs)
                if extra is not None:
                    tracer.extra[span + "." + extra[0]] += extra[1](*args, **kwargs)
                spans = tracer.spans
                record = [span, _CLOCK(), 0.0, stack[-1] if stack else -1, tracer.op]
                stack.append(len(spans))
                spans.append(record)
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[2] = _CLOCK()
                    stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper


def summarize(spans, leaves) -> dict[str, list]:
    """{span name: [calls, self seconds]} from recorded spans and leaf totals.

    A span's self time is its duration minus the durations of its child
    spans and the leaf totals recorded under it.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (_, parent), (_, total) in leaves.items():
        if parent >= 0:
            covered[parent] += total
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name][0] += 1
        out[name][1] += (end - start) - covered[i]
    for (name, _), (calls, total) in leaves.items():
        out[name][0] += calls
        out[name][1] += total
    return dict(out)
