"""The staged random search over seed sextets.

Stage 1 draws coefficients directly in the required congruence classes and
sign pattern, then rejection-samples the definiteness hypotheses (most draws
fail there, as expected: random quadrics with the right diagonal signs are
rarely definite).  Stage 2 checks smoothness mod 3, which implies smoothness
over Q, stage 3 demands a tritangent line mod 3 together with a
tritangent-free good prime below 100, stage 4 searches small local points.  Stages 5-7 (counting, bad primes,
invariants) need minutes per candidate and a discriminant fixture, so this
demo stops after stage 4; see 05_full_certification.py for the full run on
the worked example.
"""

import logging

from k3hasse.pipeline import SearchConfig, search_events

logging.basicConfig(level=logging.INFO, format="%(message)s")

config = SearchConfig(seed=3, max_draws=1500, steps=(1, 2, 3, 4))
rejections = {}
survivors = []
for event in search_events(config):
    if event[0] == "rejected":
        rejections[event[2]] = rejections.get(event[2], 0) + 1
    else:
        survivors.append(event[2])
        print(f"draw {event[1]} survived stages 1-4:")
        print(f"  tritangent mod 3: {event[2].tritangent_line}, "
              f"tritangent-free prime: {event[2].no_tritangent_prime}")
        if len(survivors) >= 2:
            break

print("\nrejections by stage:", dict(sorted(rejections.items())))
print("survivors found:", len(survivors))
