"""What the benchmark under ``bench/`` reads of the library: its reference
outputs, and the names its tracer and its cache reset reach into.  bench/
itself is only read here: ``layers.py`` is loaded from its file, and the
caches of ``run.py`` are read from its source without running it."""

import ast
import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

from k3hasse.badred import singular_points
from k3hasse.brauer import build_invariant_profile
from k3hasse.picard import count_series, enumerate_lines, tritangent_scan
from k3hasse.pipeline import SearchConfig, search_events, verify_example
from k3hasse.poly import TernaryForm

from .conftest import SETUP_CACHES, _clear_memos

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _bench_layers():
    """bench/layers.py as a module, registered while it runs, which its
    dataclass needs."""
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _run_setup_caches() -> set:
    """The SETUP_CACHES literal of bench/run.py."""
    for node in ast.parse((BENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SETUP_CACHES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py assigns no SETUP_CACHES")


def test_verify_example_report_equals_the_benchmark_reference():
    assert json.loads(verify_example(depth=6).to_json()) == REFERENCE["verify_example"]


def test_search_prefilter_funnel_equals_the_benchmark_reference():
    """The funnel of search seed 0 over 3,000 draws, stages 1-4, in the
    shape the benchmark records it: rejections per stage and survivors."""
    rejected, survivors = Counter(), []
    for event in search_events(SearchConfig(seed=0, max_draws=3000, steps=(1, 2, 3, 4))):
        if event[0] == "report":
            survivors.append(event[1])
        else:
            rejected[str(event[2])] += 1
    funnel = {"rejected": dict(sorted(rejected.items())), "survivors": survivors}
    assert funnel == REFERENCE["search_prefilter"]
    assert funnel == {"rejected": {"1": 2980, "2": 16, "3": 1}, "survivors": [1305, 1604, 2206]}


def test_count_deep_reference_is_the_fixture_counts(fixtures):
    """count-deep checks N_1..N_9 over F_3: the shipped counts, which
    acceptance criterion 2 recomputes to depth 10."""
    assert REFERENCE["count_deep"] == {"p": 3, "N": list(fixtures.counts[:9])}


def test_the_bindings_the_benchmark_traces_resolve():
    """Every (module, attribute) the traced pass replaces exists, so a
    rename fails here rather than in a traced benchmark run."""
    bindings = _bench_layers().bindings()
    names = {(module.__name__, attr) for module, attr in bindings}
    for module, attr in [("pipeline", "reduce_mod"), ("picard", "reduce_mod"),
                         ("pipeline", "is_smooth_curve"), ("picard", "is_smooth_curve")]:
        assert (f"k3hasse.{module}", attr) in names
    missing = [(module.__name__, attr) for module, attr in bindings if not callable(getattr(module, attr, None))]
    assert missing == []


def test_the_setup_caches_resolve_to_cached_functions():
    """The caches the benchmark's and the tests' memo resets keep are the
    same, and each is a function with ``cache_clear``."""
    caches = _run_setup_caches()
    assert caches == SETUP_CACHES
    for module, attr in caches:
        assert callable(getattr(getattr(importlib.import_module(module), attr), "cache_clear", None)), (module, attr)


def test_a_pass_evaluates_as_many_forms_after_a_memo_reset(monkeypatch):
    """Two verify-example passes, the memos emptied before each as the
    benchmark empties them, evaluate forms equally often: no pass reads a
    value that an earlier pass computed, which would fake a gain."""
    calls, evaluate = [], TernaryForm.evaluate

    def counted(form, point):
        calls[-1] += 1
        return evaluate(form, point)

    monkeypatch.setattr(TernaryForm, "evaluate", counted)
    for _ in range(2):
        _clear_memos()
        calls.append(0)
        verify_example(depth=6)
    _clear_memos()
    assert calls[0] == calls[1] > 0


def test_the_annotate_hooks_read_what_the_library_returns(example_surface, example_sextic, fixtures):
    """Each work-count hook of the traced pass, called on a real result as
    the tracer calls it, adds the count that result stands for."""
    layers, counts = _bench_layers(), Counter()
    args = (example_sextic, 3, 2)
    layers._points_swept(counts, args, count_series(*args))
    assert counts["picard.points_swept"] == sum(3 ** (2 * d) + 3**d + 1 for d in (1, 2)) == 104
    scan = tritangent_scan(example_sextic, 3)
    layers._lines_scanned(counts, (example_sextic, 3), scan)
    assert counts["picard.lines_scanned"] == list(enumerate_lines(3)).index(scan.line) + 1
    layers._singular_r(counts, (example_sextic, 5, 6), singular_points(example_sextic, 5, 6))
    assert counts["badred.singular_points.r"] == 2
    profile = build_invariant_profile(example_surface, fixtures.bad_primes)
    layers._profile_samples(counts, (example_surface, fixtures.bad_primes), profile)
    assert counts["brauer.samples"] == sum(e.samples for e in profile.entries.values()) > 0
