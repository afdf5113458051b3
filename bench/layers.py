"""Outside-in tracing of the k3hasse layers.

The benchmark does not instrument the library.  It replaces, for the length
of one traced pass, the module bindings through which one layer calls
another (``k3hasse.pipeline.is_smooth_curve`` and
``k3hasse.picard.is_smooth_curve`` are separate bindings of one function),
records a span (name, start, end, parent) around every call, and restores
the original objects afterwards.  A layer's self time is the duration of its
spans minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class Tracer:
    """Spans and exact counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def timed(self, fn, name, calls=None, annotate=None):
        """``fn`` recording a span per call.  ``name`` is a string or a function
        of the call's positional arguments; ``calls`` names a call counter;
        ``annotate(counts, args, result)`` adds exact work counts."""

        def traced(*args, **kwargs):
            if calls:
                self.counts[calls] += 1
            with self.span(name(args) if callable(name) else name):
                result = fn(*args, **kwargs)
            if annotate:
                annotate(self.counts, args, result)
            return result

        return traced

    def counted(self, fn, calls):
        """``fn`` counting its calls without a span, so its time stays with
        the caller's layer."""

        def traced(*args, **kwargs):
            self.counts[calls] += 1
            return fn(*args, **kwargs)

        return traced

    def self_times(self) -> Counter:
        out = Counter()
        for s in self.spans:
            out[s.name] += s.end - s.start
        for s in self.spans:
            if s.parent is not None:
                out[self.spans[s.parent].name] -= s.end - s.start
        return out

    def total_times(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)


# ---------------------------------------------------------------------------
# Which bindings are wrapped, and under which layer name
# ---------------------------------------------------------------------------

def _bad_prime_span(args) -> str:
    digits = len(str(args[1]))
    return "badred.is_bad_prime.small" if digits <= 20 else f"badred.is_bad_prime.p{digits}"


def _points_swept(counts, args, result):
    p, max_n = result.p, result.max_n
    counts["picard.points_swept"] += sum(p ** (2 * d) + p**d + 1 for d in range(1, max_n + 1))


def _lines_scanned(counts, args, result):
    counts["picard.lines_scanned"] += result.lines_scanned


def _singular_r(counts, args, result):
    counts["badred.singular_points.r"] += result.r


def _profile_samples(counts, args, result):
    counts["brauer.samples"] += sum(e.samples for e in result.entries.values())


#: (module, binding, span name, call counter, annotate): one span per call
SPANNED = [
    ("pipeline", "draw_sextet", "pipeline.draw_sextet", "pipeline.draws", None),
    ("pipeline", "build_k3", "surface.build_k3", None, None),
    ("pipeline", "check_real_conditions", "surface.check_conditions", None, None),
    ("pipeline", "check_2adic_conditions", "surface.check_conditions", None, None),
    ("pipeline", "reduce_mod", "surface.reduce_mod", None, None),
    ("picard", "reduce_mod", "surface.reduce_mod", None, None),
    ("pipeline", "is_smooth_curve", "surface.is_smooth_curve", "surface.is_smooth_curve.calls", None),
    ("picard", "is_smooth_curve", "surface.is_smooth_curve", "surface.is_smooth_curve.calls", None),
    ("pipeline", "verify_factorization_chain", "arith.factor_chain", None, None),
    ("badred", "is_bad_prime", _bad_prime_span, "badred.is_bad_prime.calls", None),
    ("badred", "resultant", "poly.resultant", "poly.resultant.calls", None),
    ("pipeline", "singular_points", "badred.singular_points", None, _singular_r),
    ("pipeline", "certify_everywhere_local", "brauer.certify_everywhere_local", None, None),
    ("pipeline", "build_invariant_profile", "brauer.build_invariant_profile", None, _profile_samples),
    ("pipeline", "find_local_point", "brauer.find_local_point", "brauer.find_local_point.calls", None),
    ("picard", "tritangent_scan", "picard.tritangent_scan", "picard.tritangent_scan.calls", _lines_scanned),
    ("pipeline", "count_series", "picard.count_series", None, _points_swept),
    ("picard", "count_series", "picard.count_series", None, _points_swept),
    ("pipeline", "frobenius_charpoly", "picard.charpoly", None, None),
    ("pipeline", "unit_root_bound", "picard.charpoly", None, None),
    ("picard", "frobenius_charpoly", "picard.charpoly", None, None),
    ("picard", "unit_root_bound", "picard.charpoly", None, None),
    ("pipeline", "certify_rank_one", "picard.certify_rank_one", None, None),
]

#: (module, binding, call counter): counted only; the time stays with the
#: calling layer (local-point search inside the certificate and profile)
COUNTED = [
    ("brauer", "find_local_point", "brauer.find_local_point.calls"),
]


def _module(short: str):
    return importlib.import_module(f"k3hasse.{short}")


def bindings() -> list[tuple[object, str]]:
    """Every (module, attribute) the traced run replaces."""
    return [(_module(m), a) for m, a, *_ in SPANNED] + [(_module(m), a) for m, a, _ in COUNTED]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every traced binding for the duration of the block, then put
    the original objects back."""
    originals = [(m, a, getattr(m, a)) for m, a in bindings()]
    try:
        for m, a, name, calls, annotate in SPANNED:
            module = _module(m)
            setattr(module, a, tracer.timed(getattr(module, a), name, calls, annotate))
        for m, a, calls in COUNTED:
            module = _module(m)
            setattr(module, a, tracer.counted(getattr(module, a), calls))
        yield
    finally:
        for module, attr, obj in reversed(originals):
            setattr(module, attr, obj)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: layers reported by self time, as the metric "<span>_s"
SELF_TIME_SPANS = [
    "picard.count_series",
    "picard.tritangent_scan",
    "picard.charpoly",
    "picard.certify_rank_one",
    "surface.is_smooth_curve",
    "surface.build_k3",
    "surface.check_conditions",
    "surface.reduce_mod",
    "badred.is_bad_prime.small",
    "badred.is_bad_prime.p66",
    "badred.is_bad_prime.p186",
    "badred.singular_points",
    "poly.resultant",
    "brauer.certify_everywhere_local",
    "brauer.build_invariant_profile",
    "brauer.find_local_point",
    "arith.factor_chain",
    "pipeline.draw_sextet",
]

#: exact counts, from the wrappers or from the workload's own output
COUNT_METRICS = [
    "picard.points_swept",
    "picard.tritangent_scan.calls",
    "picard.lines_scanned",
    "surface.is_smooth_curve.calls",
    "badred.is_bad_prime.calls",
    "badred.singular_points.r",
    "poly.resultant.calls",
    "brauer.samples",
    "brauer.find_local_point.calls",
    "pipeline.draws",
    "pipeline.stage1.rejected",
    "pipeline.stage2.rejected",
    "pipeline.stage3.rejected",
    "pipeline.stage4.rejected",
    "pipeline.survivors",
]

#: metrics of the set-up, measured by the benchmark around fq(3, d).tables
SETUP_METRICS = ["finitefield.tables_s", "finitefield.tables_d9_s"]

DERIVED_METRICS = {
    "picard.points_per_s": "1/s",
    "pipeline.stage1.pass_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def metric_units() -> dict[str, str]:
    units = {name: "s" for name in SETUP_METRICS}
    units.update({f"{span}_s": "s" for span in SELF_TIME_SPANS})
    units.update({name: "count" for name in COUNT_METRICS})
    units.update(DERIVED_METRICS)
    return units


def pass_metrics(tracer: Tracer, root: str, extra_counts: dict) -> tuple[dict, dict]:
    """(times, counts) of one traced pass whose root span is ``root``."""
    selfs = tracer.self_times()
    wall = tracer.total_times(root)
    times = {f"{span}_s": selfs.get(span, 0.0) for span in SELF_TIME_SPANS}
    times["trace.wall_s"] = wall
    times["trace.coverage"] = 1.0 - selfs[root] / wall
    sweep = tracer.total_times("picard.count_series")
    counts = Counter(tracer.counts)
    counts.update(extra_counts)
    times["picard.points_per_s"] = counts["picard.points_swept"] / sweep if sweep else 0.0
    exact = {name: counts.get(name, 0) for name in COUNT_METRICS}
    draws = exact["pipeline.draws"]
    exact["pipeline.stage1.pass_ratio"] = (
        (draws - exact["pipeline.stage1.rejected"]) / draws if draws else 0.0
    )
    return times, exact
