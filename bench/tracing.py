"""Layer tracing from outside the package.

Each traced function is replaced, at the module attribute where its callers
look it up, by a wrapper that records a span (id, parent id, name, start,
end).  Spans stay in memory until the pass ends and are then reduced to the
per-layer metrics in ``LAYER_METRICS``.  Nothing under ``src/`` is edited;
``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

IDENTITY_CHECKS = (
    ("gould_141", "check_gould_141"),
    ("gould_183", "check_gould_183"),
    ("factorization", "check_factorization"),
    ("core_positivity", "check_core_positivity"),
    ("endpoint_signs", "check_endpoint_signs"),
)
CLI_SUBCOMMANDS = ("estimate", "table", "verify", "compare")

# (metric, unit, better).  A metric whose layer a workload never reaches reads 0.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("exact.sign_at.calls", "count", "lower"),
    ("exact.sign_at.busy_s", "s", "lower"),
    ("exact.sign_at.acc_bits_max", "bits-computed", "lower"),
    ("exact.eval_rational.calls", "count", "lower"),
    ("exact.eval_rational.busy_s", "s", "lower"),
    ("exact.bisect_root.calls", "count", "lower"),
    ("exact.bisect_root.busy_s", "s", "lower"),
    ("exact.bisect_root.self_s", "s", "lower"),
    ("exact.bisect_root.evals_per_call", "evals/call", "lower"),
    ("exact.poly_eval.calls", "count", "lower"),
    ("exact.poly_eval.busy_s", "s", "lower"),
    ("exact.poly_mul.calls", "count", "lower"),
    ("exact.poly_mul.busy_s", "s", "lower"),
    ("triangle.estimating_polynomial.calls", "count", "lower"),
    ("triangle.estimating_polynomial.busy_s", "s", "lower"),
    ("triangle.estimating_polynomial.degree_max", "degree", "lower"),
    ("triangle.solve_iterative_bayes.calls", "count", "lower"),
    ("triangle.solve_iterative_bayes.busy_s", "s", "lower"),
    ("triangle.solve_iterative_bayes.self_s", "s", "lower"),
    ("triangle.fixed_point_iterate.calls", "count", "lower"),
    ("triangle.fixed_point_iterate.busy_s", "s", "lower"),
    ("triangle.fixed_point_iterate.iterations_mean", "iterations", "lower"),
    ("conjugate.conjugate_iterative_limit.calls", "count", "lower"),
    ("conjugate.conjugate_iterative_limit.busy_s", "s", "lower"),
    ("conjugate.conjugate_iterative_limit.iterations_mean", "iterations", "lower"),
    ("triangle.mean_pieces.hits", "count", "higher"),
    ("triangle.mean_pieces.misses", "count", "lower"),
    ("triangle.mean_pieces.entries", "count", "lower"),
    ("risk.triangle_value.hits", "count", "higher"),
    ("risk.triangle_value.misses", "count", "lower"),
    ("risk.triangle_value.entries", "count", "lower"),
    *((f"identities.{name}.{field}", unit, better)
      for name, _ in IDENTITY_CHECKS
      for field, unit, better in (("busy_s", "s", "lower"), ("cases", "count", "higher"))),
    ("identities.positive_core_value.busy_s", "s", "lower"),
    ("risk.compare.busy_s", "s", "lower"),
    ("risk.risk_at.calls", "count", "lower"),
    ("risk.risk_at.busy_s", "s", "lower"),
    ("cli.process.interp_start_s", "s", "lower"),
    ("cli.process.import_s", "s", "lower"),
    *((f"cli.{name}.busy_s", "s", "lower") for name in CLI_SUBCOMMANDS),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
# Metrics that must repeat exactly between passes on the same inputs.
EXACT_METRICS = frozenset(name for name, unit, _ in LAYER_METRICS if unit != "s")


class Tracer:
    """Installs span-recording wrappers and reduces the spans to metrics."""

    def __init__(self):
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.notes: Dict[str, List[float]] = defaultdict(list)
        self._stack = [0]
        self._ids = itertools.count(1)
        self._originals: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, targets: Sequence[Tuple[object, str]],
             note: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` for every target with one span-recording
        wrapper around the first target's function.  ``note(args, result)``,
        when given, records a value per call, outside the span."""
        original = getattr(*targets[0])
        spans, stack, ids, notes = self.spans, self._stack, self._ids, self.notes[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if note is not None:
                notes.append(note(args, result))
            return result

        for owner, attr in targets:
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def summary(self, length: Callable[[float, float], float]) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy (summed duration) and self time (busy
        minus the time covered by direct child spans), plus the number of
        exact evaluations made directly inside ``exact.bisect_root``.
        ``length(start, end)`` gives a span's duration."""
        child_time: Dict[int, float] = defaultdict(float)
        name_of: Dict[int, str] = {}
        duration: Dict[int, float] = {}
        for span_id, parent, name, start, end in self.spans:
            duration[span_id] = length(start, end)
            child_time[parent] += duration[span_id]
            name_of[span_id] = name
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: dict(calls=0, busy=0.0, self=0.0))
        bisect_evals = 0
        for span_id, parent, name, start, end in self.spans:
            row = out[name]
            row["calls"] += 1
            row["busy"] += duration[span_id]
            row["self"] += duration[span_id] - child_time[span_id]
            if name in ("exact.sign_at", "exact.eval_rational") and name_of.get(parent) == "exact.bisect_root":
                bisect_evals += 1
        out["exact.bisect_root"]["evals"] = bisect_evals
        return out


def _acc_bits_note() -> Callable:
    """Upper bound on the bit length of the Horner accumulator in
    ``sign_at(coeffs, point)``, computed from the arguments:
    max coefficient bits + degree * max(numerator, denominator bits) +
    bits of (degree + 1).  The coefficient maximum is cached per tuple."""
    last: List[object] = [None, 0]

    def note(args, _result) -> int:
        coeffs, point = args[0], args[1]
        if coeffs is not last[0]:
            last[0] = coeffs
            last[1] = max((abs(int(c)).bit_length() for c in coeffs), default=0)
        q = Fraction(point)
        d = len(coeffs) - 1
        return last[1] + d * max(q.numerator.bit_length(), q.denominator.bit_length()) + (d + 1).bit_length()

    return note


def install(tracer: Tracer, lib) -> None:
    """Wrap every traced layer boundary of the package in ``lib``."""
    exact, triangle, identities = lib.exact, lib.triangle, lib.identities
    conjugate, risk, cli = lib.conjugate, lib.risk, lib.cli
    poly = exact.ExactPoly
    tracer.wrap("exact.sign_at", [(exact, "sign_at"), (identities, "sign_at")], note=_acc_bits_note())
    tracer.wrap("exact.eval_rational", [(exact, "eval_rational")])
    tracer.wrap("exact.bisect_root", [(exact, "bisect_root"), (triangle, "bisect_root")])
    tracer.wrap("exact.poly_eval", [(poly, "__call__")])
    tracer.wrap("exact.poly_mul", [(poly, "__mul__"), (poly, "__rmul__")])
    tracer.wrap("triangle.estimating_polynomial",
                [(triangle, "estimating_polynomial"), (identities, "estimating_polynomial")],
                note=lambda _args, result: result.poly.degree)
    tracer.wrap("triangle.solve_iterative_bayes",
                [(triangle, "solve_iterative_bayes"), (risk, "solve_iterative_bayes")])
    tracer.wrap("triangle.fixed_point_iterate", [(triangle, "fixed_point_iterate")],
                note=lambda _args, result: result.iterations)
    tracer.wrap("conjugate.conjugate_iterative_limit", [(conjugate, "conjugate_iterative_limit")],
                note=lambda _args, result: result.iterations)
    for name, attr in IDENTITY_CHECKS:
        tracer.wrap(f"identities.{name}", [(identities, attr)],
                    note=lambda _args, result: result.cases)
    tracer.wrap("identities.positive_core_value", [(identities, "positive_core_value")])
    tracer.wrap("risk.compare", [(risk, "compare")])
    tracer.wrap("risk.risk_at", [(risk, "risk_at")])
    for name in CLI_SUBCOMMANDS:
        tracer.wrap(f"cli.{name}", [(cli, f"cmd_{name}")])


def cache_metrics(lib) -> Dict[str, int]:
    """Hit, miss and size counters of the package's two lru_caches."""
    out = {}
    for prefix, cached in (("triangle.mean_pieces", lib.triangle._mean_pieces),
                           ("risk.triangle_value", lib.risk._triangle_value)):
        info = cached.cache_info()
        out[f"{prefix}.hits"] = info.hits
        out[f"{prefix}.misses"] = info.misses
        out[f"{prefix}.entries"] = info.currsize
    return out


def layer_metrics(tracer: Tracer, caches: Dict[str, int],
                  length: Callable[[float, float], float] = lambda start, end: end - start,
                  ) -> Dict[str, float]:
    """Every metric of ``LAYER_METRICS`` that one traced pass can give, span
    durations measured by ``length(start, end)``; the process-level and
    overhead metrics are filled in by the caller."""
    rows = tracer.summary(length)
    notes = tracer.notes

    def mean(values):
        return sum(values) / len(values) if values else 0

    out = {name: 0 for name, _, _ in LAYER_METRICS}
    for metric in out:
        layer, _, field = metric.rpartition(".")
        row = rows.get(layer)
        if row is None:
            continue
        if field == "calls":
            out[metric] = row["calls"]
        elif field == "busy_s":
            out[metric] = row["busy"]
        elif field == "self_s":
            out[metric] = row["self"]
    bisect = rows.get("exact.bisect_root")
    if bisect and bisect["calls"]:
        out["exact.bisect_root.evals_per_call"] = bisect["evals"] / bisect["calls"]
    out["exact.sign_at.acc_bits_max"] = max(notes["exact.sign_at"], default=0)
    out["triangle.estimating_polynomial.degree_max"] = max(notes["triangle.estimating_polynomial"], default=0)
    out["triangle.fixed_point_iterate.iterations_mean"] = mean(notes["triangle.fixed_point_iterate"])
    out["conjugate.conjugate_iterative_limit.iterations_mean"] = mean(
        notes["conjugate.conjugate_iterative_limit"])
    for name, _ in IDENTITY_CHECKS:
        out[f"identities.{name}.cases"] = sum(notes[f"identities.{name}"])
    out.update(caches)
    out["trace.spans"] = len(tracer.spans)
    return out
