"""Benchmark of k3hasse: one workload per process, on one thread.

    python3 bench/run.py --workload verify-example --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  With ``--trace 0`` the run prints the end-to-end metrics
(wall_s, setup_s, peak_rss_mb); with ``--trace 1`` it alternates untraced and
traced passes and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  README.md in this directory describes the workloads and metrics.
"""

import os

# Pin numpy/BLAS to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

from layers import Tracer, installed, metric_units, pass_metrics
from workloads import WORKLOADS

SRC = Path.cwd() / "src"
#: caches that hold set-up (fixtures, fields and their tables); every other
#: functools cache in the package is emptied before each pass
SETUP_CACHES = {
    ("k3hasse.finitefield", "fq"),
    ("k3hasse.finitefield", "prime_field"),
    ("k3hasse.pipeline", "load_fixtures"),
}
SETUP_REPS = 3
SETUP_SECONDS = 2.0
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2


def use_checkout() -> bool:
    """Put the checkout's ``src/`` on the import path; False, with a
    message, when the working directory is not a checkout."""
    if not (SRC / "k3hasse" / "__init__.py").is_file():
        print(f"no k3hasse sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def package_modules():
    return [
        (name, mod) for name, mod in list(sys.modules.items())
        if name == "k3hasse" or name.startswith("k3hasse.")
    ]


def forget_package():
    for name, _ in package_modules():
        del sys.modules[name]


def reset_memos():
    """Empty every functools cache of the package except the set-up ones, so a
    pass cannot reuse a result of an earlier pass."""
    for name, mod in package_modules():
        for attr, obj in vars(mod).items():
            if (
                getattr(obj, "__module__", None) == name
                and callable(getattr(obj, "cache_clear", None))
                and (name, attr) not in SETUP_CACHES
            ):
                obj.cache_clear()


def machine(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def set_up(workload, seed: int):
    """Import the package afresh and run the workload's set-up, at least
    SETUP_REPS times and until the set-ups add up to SETUP_SECONDS.  Returns
    the seconds of each set-up, the table-build seconds of each, and the state
    of the last one.  The package copy an earlier set-up imported is
    collected before the next one starts, so it cannot weigh on the passes."""
    walls, tables, state = [], [], None
    while len(walls) < SETUP_REPS or sum(walls) < SETUP_SECONDS:
        forget_package()
        state = None
        gc.collect()
        t0 = time.perf_counter()
        importlib.import_module("k3hasse")
        state = workload.setup(seed)
        walls.append(time.perf_counter() - t0)
        tables.append(state["tables"])
    return walls, tables, state


def timed_pass(workload, state, k: int, tracer=None):
    """(seconds, output, input) of pass k; the input is made before timing."""
    inp = workload.make_input(state, k)
    reset_memos()
    gc.collect()
    if tracer is None:
        t0 = time.perf_counter()
        out = workload.run(state, inp)
        return time.perf_counter() - t0, out, inp
    with installed(tracer), tracer.span("pass"):
        out = workload.run(state, inp)
    return tracer.total_times("pass"), out, inp


def measure(workload, seed: int, seconds: float):
    setup_walls, _tables, state = set_up(workload, seed)
    walls, failed = [], 0
    start = time.perf_counter()
    k = 0
    while k < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, out, inp = timed_pass(workload, state, k)
        walls.append(wall)
        failed += not workload.check(state, inp, out)
        k += 1
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "wall_s": f"median of {len(walls)} passes: " + " ".join(f"{w:.3f}" for w in walls),
        "setup_s": f"median of {len(setup_walls)} set-ups: " + " ".join(f"{w:.3f}" for w in setup_walls),
        "peak_rss_mb": "peak resident set of the process",
    }
    return state, metrics, notes, len(walls), failed


def measure_traced(workload, seed: int, seconds: float):
    _walls, tables, state = set_up(workload, seed)
    untraced, traced, exact, failed = [], [], [], 0
    start = time.perf_counter()
    k = 0
    while k < 2 * MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        wall, out, inp = timed_pass(workload, state, k)
        untraced.append(wall)
        failed += not workload.check(state, inp, out)
        tracer = Tracer()
        _wall, out, inp = timed_pass(workload, state, k + 1, tracer)
        times, counts = pass_metrics(tracer, "pass", workload.counts(out))
        # exact counts must repeat from one traced pass to the next
        failed += not workload.check(state, inp, out) or counts != (exact or [counts])[0]
        traced.append(times)
        exact.append(counts)
        k += 2
    units = metric_units()
    metrics = {name: (statistics.median(t[name] for t in traced), units[name]) for name in traced[0]}
    metrics.update({name: (value, units[name]) for name, value in exact[0].items()})
    metrics["finitefield.tables_s"] = (statistics.median(sum(t.values(), 0.0) for t in tables), "s")
    metrics["finitefield.tables_d9_s"] = (statistics.median(t.get(9, 0.0) for t in tables), "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - statistics.median(untraced), "s")
    ordered = {name: metrics[name] for name in units}
    notes = {
        "trace.wall_s": f"median of {len(traced)} traced passes",
        "trace.overhead_s": f"traced minus untraced median wall, {len(untraced)} untraced passes",
    }
    return state, ordered, notes, len(untraced) + len(traced), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout():
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    print("machine " + json.dumps(machine(args.seed), sort_keys=True))
    run = measure_traced if args.trace else measure
    state, metrics, notes, attempted, failed = run(workload, args.seed, args.seconds)
    probe_ok, lines = workload.after(state, args.seed)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload.name} {name} {value:.6g} {unit}{note}")
    print(f"{workload.name} fail_ratio {failed / attempted:.6g} ratio  ({failed}/{attempted} passes failed their output check)")
    print(json.dumps({
        "correct": failed == 0 and probe_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
