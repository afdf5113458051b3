"""The three benchmark workloads.

Each workload has a set-up (what a user pays once per process), an input
made from the seed before a pass starts, the timed pass itself, and a check
of the pass's output against a reference recorded in ``reference.json``.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import time
from collections import Counter
from pathlib import Path

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def _k3(module: str):
    return importlib.import_module(f"k3hasse.{module}")


def _build_tables(degrees) -> dict[int, float]:
    """Build fq(3, d).tables for each degree; seconds per degree."""
    fq = _k3("finitefield").fq
    out = {}
    for d in degrees:
        t0 = time.perf_counter()
        fq(3, d).tables
        out[d] = time.perf_counter() - t0
    return out


class Workload:
    """Defaults: no per-pass input, no counts beyond the tracer's, no probe."""

    def make_input(self, state: dict, k: int):
        return None

    def counts(self, out) -> dict:
        return {}

    def after(self, state: dict, seed: int) -> tuple[bool, list[str]]:
        return True, []


class VerifyExample(Workload):
    """One verify_example(depth=6) on the shipped sextet, the certificate users
    run; its time spreads over badred, surface, brauer and picard."""

    name = "verify-example"

    def setup(self, seed: int) -> dict:
        pipeline = _k3("pipeline")
        prime_field = _k3("finitefield").prime_field
        fx = pipeline.load_fixtures()
        tables = _build_tables(range(1, 7))
        for p in {3, 11, *fx.bad_primes, *fx.good_spot_checks}:
            prime_field(p)
        return {"tables": tables}

    def run(self, state: dict, inp):
        return _k3("pipeline").verify_example(depth=6)

    def check(self, state: dict, inp, out) -> bool:
        return json.loads(out.to_json()) == REFERENCE["verify_example"]


class CountDeep(Workload):
    """count_series(f, 3, 9) on the shipped sextic under a seed-drawn change of
    coordinates that keeps every count: >95 % of the pass is the picard sweep."""

    name = "count-deep"
    depth = 9

    def setup(self, seed: int) -> dict:
        pipeline = _k3("pipeline")
        fx = pipeline.load_fixtures()
        tables = _build_tables(range(1, self.depth + 1))
        rng = random.Random(seed)
        twists = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
        rng.shuffle(twists)
        return {"tables": tables, "sextet": fx.sextet, "rng": rng, "twists": twists}

    def make_input(self, state: dict, k: int):
        """The shipped sextic with x_i -> s_i x_i (s_i = +-1, which is in
        GL_3(F_3), so N_1..N_9 are unchanged) and every coefficient moved by
        a random multiple of 3.  The four sign twists give four distinct
        forms mod 3 and the lift a distinct form over Z for every pass, so
        no pass can reuse an earlier pass's result."""
        f = _k3("surface").build_k3(state["sextet"]).branch_sextic
        s = state["twists"][k % 4]
        rng = state["rng"]
        terms = {
            m: c * s[0] ** m[0] * s[1] ** m[1] * s[2] ** m[2] + 3 * rng.randint(-3, 3)
            for m, c in f.terms.items()
        }
        return type(f)(f.degree, terms)

    def run(self, state: dict, f):
        return _k3("picard").count_series(f, 3, self.depth)

    def check(self, state: dict, inp, out) -> bool:
        return list(out.counts) == REFERENCE["count_deep"]["N"]


def _funnel(events) -> dict:
    rejected = Counter()
    survivors = []
    for event in events:
        if event[0] == "report":
            survivors.append(event[1])
        else:
            rejected[event[2]] += 1
    return {
        "rejected": {str(stage): n for stage, n in sorted(rejected.items())},
        "survivors": survivors,
    }


class SearchPrefilter(Workload):
    """Search stages 1-4 over 3000 draws: draw and funnel cost, smoothness over
    F_3 with field extensions, tritangent scans at primes up to 100.

    The timed pass always searches with the library's default search seed
    0, because the cost of 3000 draws varies by about 20 % between search
    seeds; with a fixed input, runs on different benchmark seeds stay
    comparable.  The benchmark seed instead drives an untimed probe search
    whose funnel digest is printed."""

    name = "search-prefilter"
    search_seed = 0
    draws = 3000
    probe_draws = 1000

    def _config(self, seed: int, draws: int):
        return _k3("pipeline").SearchConfig(seed=seed, max_draws=draws, steps=(1, 2, 3, 4))

    def setup(self, seed: int) -> dict:
        _k3("pipeline")
        arith = _k3("arith")
        prime_field = _k3("finitefield").prime_field
        for p in range(3, 101):
            if arith.probable_prime(p):
                prime_field(p)
        return {"tables": {}}

    def make_input(self, state: dict, k: int):
        return self._config(self.search_seed, self.draws)

    def run(self, state: dict, config):
        return list(_k3("pipeline").search_events(config))

    def check(self, state: dict, inp, out) -> bool:
        return _funnel(out) == REFERENCE["search_prefilter"]

    def counts(self, out) -> dict:
        funnel = _funnel(out)
        counts = {
            f"pipeline.stage{stage}.rejected": funnel["rejected"].get(str(stage), 0)
            for stage in (1, 2, 3, 4)
        }
        counts["pipeline.survivors"] = len(funnel["survivors"])
        return counts

    def after(self, state: dict, seed: int) -> tuple[bool, list[str]]:
        """For a seed other than the default, an untimed search of
        ``probe_draws`` draws with that seed: its funnel must account for
        every draw and every survivor must carry both tritangent primes."""
        if seed == self.search_seed:
            return True, []
        events = list(_k3("pipeline").search_events(self._config(seed, self.probe_draws)))
        funnel = _funnel(events)
        accounted = sum(funnel["rejected"].values()) + len(funnel["survivors"])
        reports = [e[2] for e in events if e[0] == "report"]
        ok = accounted == self.probe_draws and all(
            r.tritangent_prime == 3 and r.no_tritangent_prime is not None for r in reports
        )
        digest = hashlib.sha256(json.dumps(funnel, sort_keys=True).encode()).hexdigest()[:16]
        line = (
            f"{self.name} probe: search seed {seed}, {self.probe_draws} draws, "
            f"funnel {json.dumps(funnel, sort_keys=True)}, digest {digest}"
        )
        return ok, [line]


WORKLOADS = {w.name: w for w in (VerifyExample(), CountDeep(), SearchPrefilter())}
