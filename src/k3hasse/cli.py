"""Command-line interface.

All I/O is JSON on files or standard streams.  A sextet file is an object with
keys "A".."F", each a 6-integer array in the monomial order
[x0^2, x0x1, x0x2, x1^2, x1x2, x2^2]; big integers travel as decimal strings.
A bad input, an unreadable file, a fixture mismatch or a rejected stage exits
with status 2 and one JSON object {"error", "leg", "message"} on standard
error, "leg" naming the leg of the certificate or null.  ``search`` ends
with its funnel on standard error, one JSON object {"rejected",
"survivors"}: the rejections per stage and the indices of the surviving
draws.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .arith import exact_int
from .badred import RegularizationError, singular_points, is_bad_prime
from .brauer import build_invariant_profile, bm_verdict
from .picard import (
    CountSeries,
    certify_rank_one,
    count_series,
    frobenius_charpoly,
    tritangent_scan,
    unit_root_bound,
)
from .pipeline import (
    FixtureMismatch,
    Rejected,
    SearchConfig,
    _profile_json,
    search_events,
    verify_example,
)
from .surface import QuadricSextet, build_k3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_sextet(path: str) -> QuadricSextet:
    return QuadricSextet.from_json(_read_text(path))


def _read_primes(path: str) -> list[int]:
    """A JSON list of primes, each an int or a decimal string."""
    primes = json.loads(_read_text(path))
    if not isinstance(primes, list):
        raise ValueError(f"the primes must be a JSON list, not {primes!r}")
    return [exact_int(p) for p in primes]


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_construct(args) -> int:
    sextet = _load_sextet(args.sextet)
    X = build_k3(sextet)
    _emit({
        "sextic": [int(c) for c in X.branch_sextic.coefficients()],
        "monomial_order": "graded-lex, x0 > x1 > x2",
    })
    return 0


def _cmd_invariants(args) -> int:
    sextet = _load_sextet(args.sextet)
    X = build_k3(sextet)
    primes = _read_primes(args.primes)
    profile = build_invariant_profile(X, primes, witness_box=args.box)
    out = _profile_json(profile)
    out["verdict"] = bm_verdict(profile)
    _emit(out)
    return 0


def _cmd_count(args) -> int:
    sextet = _load_sextet(args.sextet)
    X = build_k3(sextet)
    series = count_series(X.branch_sextic, args.p, args.depth)
    _emit({"p": args.p, "N": series.counts})
    return 0


def _cmd_charpoly(args) -> int:
    data = json.loads(_read_text(args.counts))
    series = CountSeries.from_counts(data["p"], data["N"])
    fd = frobenius_charpoly(series)
    _emit({
        "q": fd.q,
        "sign": fd.sign,
        "coefficients": [str(c) for c in fd.coefficients],
        "normalized": [str(c) for c in fd.normalized],
        "unit_root_bound": unit_root_bound(fd),
    })
    return 0


def _cmd_tritangent(args) -> int:
    sextet = _load_sextet(args.sextet)
    X = build_k3(sextet)
    scan = tritangent_scan(X.branch_sextic, args.p)
    _emit({
        "p": args.p,
        "line": scan.line,
        "lines_scanned": scan.lines_scanned,
        "degenerate_lines": scan.degenerate_lines,
    })
    return 0


def _cmd_picard(args) -> int:
    sextet = _load_sextet(args.sextet)
    X = build_k3(sextet)
    counts = None
    if args.counts:
        data = json.loads(_read_text(args.counts))
        counts = CountSeries.from_counts(data["p"], data["N"])
    cert = certify_rank_one(X, args.p, args.p_prime, counts=counts, depth=args.depth)
    _emit({
        "rank": cert.rank,
        "p": cert.p,
        "p_prime": cert.p_prime,
        "tritangent_line": cert.tritangent_line,
        "unit_root_bound": cert.unit_root_bound,
        "charpoly_sign": cert.charpoly.sign,
        "counts": cert.counts.counts,
    })
    return 0


def _cmd_badprimes(args) -> int:
    sextet = _load_sextet(args.sextet)
    X = build_k3(sextet)
    primes = _read_primes(args.primes)
    out = []
    for p in primes:
        if p == 2:
            out.append({"prime": "2", "note": "handled as an always-checked place"})
            continue
        if not is_bad_prime(X.branch_sextic, p):
            out.append({"prime": str(p), "bad": False})
            continue
        report = singular_points(X.branch_sextic, p, args.depth_bound)
        entry = report.to_json_dict()
        entry["bad"] = True
        out.append(entry)
    _emit(out)
    return 0


def _cmd_search(args) -> int:
    config = SearchConfig(
        seed=args.seed,
        coefficient_bound=args.coefficient_bound,
        local_point_box=args.box,
        counting_depth=args.depth,
        max_draws=args.max_draws,
    )
    rejected, survivors = Counter(), []
    for event in search_events(config):
        if event[0] == "report":
            survivors.append(event[1])
            sys.stdout.write(event[2].to_json() + "\n")
        else:
            rejected[event[2]] += 1
    funnel = {"rejected": {str(s): n for s, n in sorted(rejected.items())}, "survivors": survivors}
    json.dump(funnel, sys.stderr)
    sys.stderr.write("\n")
    return 0


def _cmd_verify_example(args) -> int:
    report = verify_example(depth=args.depth, full_count=args.full_count)
    sys.stdout.write(report.to_json() + "\n")
    return 0 if report.verdict == "obstruction certified" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="k3hasse",
        description="degree-2 K3 surfaces, quaternion Brauer classes and "
        "certified Brauer-Manin obstructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="branch sextic from a sextet")
    p.add_argument("--sextet", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("invariants", help="per-place invariant profile")
    p.add_argument("--sextet", required=True)
    p.add_argument("--primes", required=True, help="JSON list of bad primes (decimal strings)")
    p.add_argument("--box", type=int, default=2)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("count", help="point counts over F_{p^n}")
    p.add_argument("--sextet", required=True)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--depth", type=int, default=6)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("charpoly", help="Frobenius charpoly from a count table")
    p.add_argument("--counts", required=True, help='JSON {"p": 3, "N": [...]}')
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("tritangent", help="first tritangent line mod p")
    p.add_argument("--sextet", required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=_cmd_tritangent)

    p = sub.add_parser("picard", help="geometric Picard rank 1 certificate")
    p.add_argument("--sextet", required=True)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--p-prime", type=int, default=11)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--counts", help="optional count-table JSON to reuse")
    p.set_defaults(func=_cmd_picard)

    p = sub.add_parser("badprimes", help="per-prime singularity reports")
    p.add_argument("--sextet", required=True)
    p.add_argument("--primes", required=True, help="JSON list of candidate primes")
    p.add_argument("--depth-bound", type=int, default=6)
    p.set_defaults(func=_cmd_badprimes)

    p = sub.add_parser("search", help="run the staged random search")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-draws", type=int, default=10)
    p.add_argument("--coefficient-bound", type=int, default=40)
    p.add_argument("--box", type=int, default=2)
    p.add_argument("--depth", type=int, default=10)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify-example", help="re-derive the worked example")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--full-count", action="store_true")
    p.set_defaults(func=_cmd_verify_example)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FixtureMismatch, Rejected, RegularizationError, ValueError, TypeError, OSError) as exc:
        # ValueError covers json.JSONDecodeError and malformed sextets
        error = {"error": type(exc).__name__, "leg": getattr(exc, "leg", None), "message": str(exc)}
        json.dump(error, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
