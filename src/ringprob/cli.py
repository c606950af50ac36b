"""Command-line front end: prob, spectrum, structure, and verify.

Exit codes: 0 success, 1 verification failure, 2 usage or validation
error, 3 size-cap refusal (override with --force, except enumeration
above rings.ENUMERATION_LIMIT), 4 internal error (any other exception;
reported on one line, with no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys

from .closedform import prob_auto, prob_formula
from .errors import RingProbError, SizeCapExceeded, ValidationError
from .probability import ProbFraction, prob_annsum, prob_brute, spectrum
from .rings import DEFAULT_SIZE_CAP
from .specparse import parse_element, parse_ring_spec
from .structure import structure_report

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_SIZE_CAP = 3
EXIT_INTERNAL = 4


def _cap(args) -> int | None:
    """The size cap a command enforces: none under --force."""
    return None if args.force else DEFAULT_SIZE_CAP


def _scaled_hits(value: ProbFraction, size: int) -> int:
    """Express any exact value as a hit count over |R|^2."""
    total = size * size
    hits, rem = divmod(value.hits * total, value.total)
    if rem:
        raise AssertionError("formula denominator does not divide |R|^2")
    return hits


def cmd_prob(args) -> int:
    # a closed form enumerates nothing: only the spec's order limit applies
    ring = parse_ring_spec(args.ring, None if args.method == "formula" else _cap(args))
    x = parse_element(ring, args.x)
    method = args.method
    formula_tag = None
    hypotheses = None
    if method == "brute":
        value = prob_brute(ring, x, cap=None)
    elif method == "annsum":
        value = prob_annsum(ring, x, cap=None)
    elif method == "formula":
        result = prob_formula(ring, x)
        value, formula_tag, hypotheses = result.value, result.formula, result.applicability
    else:
        result = prob_auto(ring, x, cap=None)
        value, formula_tag, hypotheses = result.value, result.formula, result.applicability
    hits = _scaled_hits(value, ring.size)
    norm = ProbFraction(hits, ring.size ** 2)
    payload = {
        "ring": ring.describe(),
        "size": ring.size,
        "x": ring.format_element(x.index),
        "hits": hits,
        "total": ring.size ** 2,
        "fraction": str(norm),
        "decimal": norm.decimal_str(),
    }
    if args.explain:
        payload["method"] = formula_tag or method
        if hypotheses is not None:
            payload["hypotheses"] = {k: hypotheses[k] for k in sorted(hypotheses)}
    print(json.dumps(payload))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    ring = parse_ring_spec(args.ring, _cap(args))
    report = spectrum(ring, cap=None)
    rows = [
        {
            "label": e.label,
            "representative": ring.format_element(e.representative),
            "class_size": e.class_size,
            "hits": e.prob.hits,
            "total": e.prob.total,
            "fraction": str(e.prob),
            "decimal": e.prob.decimal_str(),
        }
        for e in report.entries
    ]
    if args.format == "json":
        print(json.dumps({"ring": ring.describe(), "size": ring.size, "classes": rows}))
    elif args.format == "csv":
        print("label,representative,class_size,hits,total,fraction,decimal")
        for row in rows:
            rep = str(row["representative"]).replace('"', '""')
            print(f'{row["label"]},"{rep}",{row["class_size"]},'
                  f'{row["hits"]},{row["total"]},{row["fraction"]},{row["decimal"]}')
    else:
        width = max(len(r["label"]) for r in rows)
        rep_w = max(len(str(r["representative"])) for r in rows)
        print(f"spectrum of {ring.describe()} (|R| = {ring.size})")
        for row in rows:
            print(f'  {row["label"]:<{width}}  {row["representative"]:<{rep_w}}  '
                  f'size {row["class_size"]:>4}  {row["fraction"]:>12}  = {row["decimal"]}')
    return EXIT_OK


def cmd_structure(args) -> int:
    ring = parse_ring_spec(args.ring, _cap(args))
    rep = structure_report(ring)
    payload = {
        "size": ring.size,
        "units": len(rep.units),
        "zero_divisors": len(rep.zero_divisors),
        "radical_chain_sizes": [ideal.size for ideal in rep.radical_chain],
        "nilpotency_index": rep.nilpotency_index,
        "is_local": rep.is_local,
        "q": rep.q,
        "n": rep.n,
        "is_max_chain": rep.is_max_chain,
        "is_j2_zero": rep.is_j2_zero,
    }
    print(json.dumps(payload))
    return EXIT_OK


def corpus_from_file(path: str, cap: int | None = None):
    """corpus.corpus_from_file, importing corpus on first use.  A module
    name, so a caller can wrap it (perfbench/child.py times the build)."""
    from .corpus import corpus_from_file
    return corpus_from_file(path, cap)


def cmd_verify(args) -> int:
    # only this command imports the suites and the corpus
    from .corpus import default_corpus
    from .verify import run_suites
    if args.corpus == "default":
        corpus = default_corpus()
    else:
        corpus = corpus_from_file(args.corpus, _cap(args))
    suite_ids = None if args.suite == "all" else [args.suite]
    results = run_suites(suite_ids, corpus)

    if args.format == "json":
        payload = [
            {
                "suite": res.suite,
                "description": res.description,
                "cases": [
                    {"case": c.case, "status": c.status, "detail": c.detail,
                     "expected": c.expected, "actual": c.actual}
                    for c in res.cases
                ],
            }
            for res in results
        ]
        print(json.dumps(payload))
    elif args.format == "csv":
        print("suite,case,status,detail,expected,actual")
        for res in results:
            for c in res.cases:
                detail = c.detail.replace('"', '""')
                print(f'{res.suite},"{c.case}",{c.status},"{detail}",'
                      f'"{c.expected}","{c.actual}"')
    else:
        total = {"PASS": 0, "FAIL": 0, "SKIP": 0}
        for res in results:
            print(f"== {res.suite}: {res.description}")
            for c in res.cases:
                total[c.status] += 1
                line = f"  {c.status:<4} {c.case:<22} {c.detail}"
                print(line.rstrip())
                if c.status == "FAIL":
                    print(f"       expected: {c.expected}")
                    print(f"       actual:   {c.actual}")
        print(f"summary: {total['PASS']} passed, {total['FAIL']} failed, "
              f"{total['SKIP']} skipped over {len(results)} suites")

    failed = sum(res.failed for res in results)
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringprob",
        description="Exact multiplication probabilities of finite unital rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="probability that a random product equals x")
    p.add_argument("--ring", required=True, help="ring spec, e.g. 'Z12' or 'M2(GF2) x Z3'")
    p.add_argument("--x", required=True, help="element literal (universal form: #index)")
    p.add_argument("--method", choices=["auto", "brute", "annsum", "formula"],
                   default="auto")
    p.add_argument("--explain", action="store_true",
                   help="report which formula fired and its hypotheses")
    p.add_argument("--force", action="store_true", help="lift the size cap")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("spectrum", help="all probability classes of a ring")
    p.add_argument("--ring", required=True)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--force", action="store_true", help="lift the size cap")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("structure", help="units, radical chain, and locality report")
    p.add_argument("--ring", required=True)
    p.add_argument("--force", action="store_true", help="lift the size cap")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("verify", help="run the formula verification suites")
    p.add_argument("--suite", default="all", help="a suite id, or 'all' (the default)")
    p.add_argument("--corpus", default="default",
                   help="'default' or a path to a JSON array of ring specs")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--force", action="store_true", help="lift the size cap")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (ValidationError, RingProbError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:    # last resort: a bug, never exit 1 or a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
