"""Correctness checks, run outside every timed region.

Each reports a wrong answer as a one-line reason.  The enumeration
oracles (`prob_brute`, `prob_annsum`, `pair_counts`) are the ground truth.
"""

from __future__ import annotations

import json

from ringprob.closedform import prob_auto, prob_formula
from ringprob.errors import FormulaUnavailable
from ringprob.probability import pair_counts, prob_annsum, prob_brute
from ringprob.specparse import parse_element, parse_ring_spec

REFUSAL_TEXT = "no closed form applies"


class CliChecker:
    """Checks cli-cold answers; builds each ring and oracle value once."""

    def __init__(self):
        self._rings = {}
        self._brute = {}

    def ring(self, spec: str):
        if spec not in self._rings:
            self._rings[spec] = parse_ring_spec(spec)
        return self._rings[spec]

    def _oracle(self, spec: str, literal: str):
        key = (spec, literal)
        if key not in self._brute:
            ring = self.ring(spec)
            self._brute[key] = prob_brute(ring, parse_element(ring, literal), cap=None)
        return self._brute[key]

    def check(self, request: dict, exit_code, out: str, err: str) -> tuple[str | None, bool]:
        """(failure reason or None, whether it was a documented refusal)."""
        argv = request["argv"]
        spec = request["spec"]
        if exit_code is None:
            return "timed out", False
        if "Traceback" in err:
            return f"traceback: {err.strip().splitlines()[-1]}", False
        if exit_code == 2 and request["kind"] == "formula" and REFUSAL_TEXT in err:
            ring = self.ring(spec)
            try:
                prob_formula(ring, parse_element(ring, argv[argv.index("--x") + 1]))
            except FormulaUnavailable:
                return None, True
            return "refused, but a closed form applies in-process", False
        if exit_code != 0:
            return f"exit {exit_code}: {err.strip()[-200:]}", False
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return "output is not JSON", False
        size = self.ring(spec).size
        if payload.get("size") != size:
            return f"size {payload.get('size')} != {size}", False
        kind = request["kind"]
        if kind == "structure":
            if payload["units"] + payload["zero_divisors"] != size:
                return "units + zero_divisors != |R|", False
        elif kind == "spectrum":
            if sum(c["class_size"] * c["hits"] for c in payload["classes"]) != size * size:
                return "sum of class_size * hits != |R|^2", False
        else:
            expected = self._oracle(spec, argv[argv.index("--x") + 1])
            if (payload["hits"], payload["total"]) != (expected.hits, expected.total):
                return f"{payload['fraction']} != prob_brute {expected}", False
            if kind == "formula" and "method" not in payload:
                return "--explain gave no method", False
        return None, False


def check_verify(exit_code, out: str, err: str) -> tuple[str | None, dict]:
    """Verify must exit 0 with no FAIL case; also returns the case counts."""
    counts = {"cases": 0, "failed": 0, "skipped": 0}
    if exit_code is None:
        return "timed out", counts
    if "Traceback" in err:
        return f"traceback: {err.strip().splitlines()[-1]}", counts
    try:
        suites = json.loads(out)
    except json.JSONDecodeError:
        return f"exit {exit_code}, output is not JSON", counts
    for suite in suites:
        for case in suite["cases"]:
            counts["cases"] += 1
            counts["failed"] += case["status"] == "FAIL"
            counts["skipped"] += case["status"] == "SKIP"
    if exit_code != 0 or counts["failed"]:
        return f"exit {exit_code} with {counts['failed']} FAIL cases", counts
    if not counts["cases"]:
        return "no cases ran", counts
    return None, counts


def check_engine(rings: list, results: list[tuple], sample: set) -> list[str]:
    """Check the answers of an engine-warm stream.

    results: (kind, ring position, target, other index, return value).
    Every probability answer is compared with the pair-count oracle; for the
    (ring, target) pairs in `sample`, prob_auto, prob_brute and prob_annsum
    are also recomputed and must agree.
    """
    failures = []
    counts = {}
    for kind, pos, x, a, answer in results:
        ring = rings[pos]
        n = ring.size
        if pos not in counts:
            counts[pos] = pair_counts(ring, cap=None)
        if kind in ("auto", "brute", "annsum"):
            value = answer.value if kind == "auto" else answer
            if value.hits * n * n != counts[pos][x] * value.total:
                failures.append(f"{kind} {ring.describe()} #{x}: {value} != oracle")
        elif kind == "delta":
            reached = any(ring.mul_index(a, b) == x for b in range(n))
            if answer != int(reached):
                failures.append(f"delta {ring.describe()} #{a} #{x}: {answer}")
        elif kind == "spectrum":
            if sum(e.class_size * e.prob.hits for e in answer.entries) != n * n:
                failures.append(f"spectrum {ring.describe()}: sum of class_size * hits != |R|^2")
    for pos, x in sorted(sample):
        ring = rings[pos]
        values = {prob_auto(ring, x, cap=None).value, prob_brute(ring, x, cap=None),
                  prob_annsum(ring, x, cap=None)}
        if len(values) != 1:
            failures.append(f"engines disagree on {ring.describe()} #{x}: {values}")
    return failures
