"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py

Run from the root of a source checkout.  It checks that self times add up to
the traced wall time on a synthetic span tree, and then, for every workload,
that two traced passes pass the output check, give identical exact counts,
and leave every wrapped binding the original object again.  Exit code 0
means every check held.
"""

import sys

import run


def self_time_arithmetic(Tracer) -> list[str]:
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(20000))
            sum(range(20000))
        with tracer.span("b"):
            sum(range(20000))
    selfs = tracer.self_times()
    problems = []
    if abs(sum(selfs.values()) - tracer.total_times("root")) > 1e-9:
        problems.append("self times do not add up to the root span")
    if any(v < 0 for v in selfs.values()):
        problems.append("negative self time")
    if selfs["b"] != tracer.total_times("b"):
        problems.append("a leaf's self time differs from its duration")
    return problems


def main() -> int:
    if not run.use_checkout():
        return 2
    from layers import Tracer, bindings, pass_metrics
    from workloads import WORKLOADS

    problems = self_time_arithmetic(Tracer)
    for name, workload in WORKLOADS.items():
        _walls, _tables, state = run.set_up(workload, 0)
        originals = [(m, a, getattr(m, a)) for m, a in bindings()]
        exact = []
        for k in range(2):
            tracer = Tracer()
            _wall, out, inp = run.timed_pass(workload, state, k, tracer)
            if not workload.check(state, inp, out):
                problems.append(f"{name}: traced pass {k} failed its output check")
            if any(getattr(m, a) is not obj for m, a, obj in originals):
                problems.append(f"{name}: a wrapped binding was not restored after pass {k}")
            exact.append(pass_metrics(tracer, "pass", workload.counts(out))[1])
        if exact[0] != exact[1]:
            diff = sorted(k for k in exact[0] if exact[0][k] != exact[1][k])
            problems.append(f"{name}: exact counts differ between traced passes: {diff}")
        if not any(exact[0].values()):
            problems.append(f"{name}: the traced pass recorded no counts")
        print(f"{name}: {sum(1 for v in exact[0].values() if v)} non-zero exact counts, repeated")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
