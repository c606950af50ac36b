"""Verification suites: every closed form, bound, and equivalence in the
library is machine-checked against the enumeration oracles over a corpus.

Each suite yields one case per corpus ring (or per parameter set for the
corpus-independent suites).  Rings that do not satisfy a suite's
hypotheses are reported as SKIP with the reason, never silently passed.
All comparisons are exact; a failing case records both fractions.

A suite is a check plus the gates it runs behind.  A check returns its
PASS detail (a str) or the FAIL's (detail, expected, actual) tuple; one
runner walks the cases and turns gates and verdicts into CaseResults.
The checks look up the engines and closed forms in this module's
namespace at call time, so a test can swap any of them out.

A run builds each ring once: the suites with their own targets (thm32,
remark_zn) check the corpus's instance of any equal ring.  lemma26 closes
one principal ideal per distinct gR, read off the partition by gR that
lemma23's annsum_counts also reads, and still checks the quotient by
every proper one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product as iter_product
from math import prod

from .closedform import (
    MatrixClass,
    NONZERO_RADICAL,
    NONZERO_ZERO_DIVISOR,
    ZERO_CLASS,
    general_bounds,
    local_bounds,
    matrix_rank,
    prob_chain_formula,
    prob_j2zero_formula,
    prob_matrix_formula,
    prob_unit_formula,
    prob_zn,
    corollary_43_predicates,
    corollary_44_predicate,
    subspace_count,
)
from .corpus import default_corpus
from .errors import ValidationError
from .probability import ProbFraction, _principal_partition, annsum_counts, pair_counts
from .recipe import components
from .rings import ProductRing, Ring, quotient_make
from .specparse import parse_ring_spec
from .structure import (
    ideal_size_power_check,
    left_right_symmetry_check,
    principal_ideal_members,
    structure_report,
    unit_plus_radical_check,
)

Corpus = tuple[tuple[str, Ring], ...]


@dataclass
class CaseResult:
    suite: str
    case: str
    status: str                  # PASS | FAIL | SKIP
    detail: str = ""
    expected: str = ""
    actual: str = ""


@dataclass
class SuiteResult:
    suite: str
    description: str
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if c.status == "FAIL")

    @property
    def passed(self) -> bool:
        return self.failed == 0


# ---------------------------------------------------------------------------
# Runner, hypothesis gates and the pointwise comparator
# ---------------------------------------------------------------------------


def _runner(suite_id: str, check, gates=(), targets=None):
    """runner(corpus): check every case, over the corpus or over
    targets(corpus) when the suite brings its own; a case failing a gate
    is a SKIP."""
    def run(corpus: Corpus) -> list[CaseResult]:
        out = []
        for case, ring in corpus if targets is None else targets(corpus):
            reason = next((why for holds, why in gates if not holds(ring)), None)
            if reason is not None:
                out.append(CaseResult(suite_id, case, "SKIP", reason))
                continue
            verdict = check(ring)
            if isinstance(verdict, str):
                out.append(CaseResult(suite_id, case, "PASS", verdict))
            else:
                out.append(CaseResult(suite_id, case, "FAIL", *verdict))
        return out
    return run


# Hypotheses as (holds(ring), the SKIP reason when it does not).
_LOCAL = (lambda ring: structure_report(ring).is_local, "not local")
_NOT_FIELD = (lambda ring: structure_report(ring).n >= 2, "n = 1 (field)")
_MAX_CHAIN = (lambda ring: structure_report(ring).is_max_chain,
              "radical chain shorter than maximal")
_J2_ZERO = (lambda ring: structure_report(ring).is_j2_zero, "radical square is nonzero")
_DECOMPOSABLE = (lambda ring: components(ring) is not None, "directly indecomposable")


def _first_miss(ring: Ring, claim, counts=None):
    """(detail, expected, actual) at the first x whose p_x = counts[x]/|R|^2
    (pair counts by default) misses claim(x), else None.  claim(x) is None
    for no claim at x, or (want, detail): want an exact ProbFraction or an
    inclusive (lo, hi) bound, detail the text reported if p_x misses it."""
    if counts is None:
        counts = pair_counts(ring, cap=None)
    total = ring.size ** 2
    for x in range(ring.size):
        stated = claim(x)
        if stated is None:
            continue
        want, detail = stated
        px = ProbFraction(counts[x], total)
        if isinstance(want, tuple):
            lo, hi = want
            if not lo <= px <= hi:
                return detail, f"[{lo}, {hi}]", str(px)
        elif px != want:
            return detail, str(want), str(px)
    return None


# ---------------------------------------------------------------------------
# Checks over the corpus
# ---------------------------------------------------------------------------


def _lemma21(ring: Ring):
    if left_right_symmetry_check(ring):
        return f"{ring.size} elements scanned"
    return ("one-sided zero-divisor found",)


def _lemma23(ring: Ring):
    counts = pair_counts(ring, cap=None)
    total = ring.size ** 2
    miss = _first_miss(ring, lambda x: (ProbFraction(counts[x], total),
                                        f"engines disagree at x=#{x}"),
                       counts=annsum_counts(ring, cap=None))
    return miss or f"{ring.size} targets"


def _lemma24(ring: Ring):
    rep = structure_report(ring)
    counts = pair_counts(ring, cap=None)
    total = ring.size ** 2
    ucount = len(rep.units)
    for x in range(ring.size):
        if (x in rep.units) != (counts[x] == ucount):
            return (f"unit law fails at x=#{x}", f"{ucount}/{total} iff unit",
                    str(ProbFraction(counts[x], total)))
    zero = general_bounds(ring, ZERO_CLASS)
    nonzero = (general_bounds(ring, NONZERO_ZERO_DIVISOR)
               if len(rep.zero_divisors) > 1 else None)

    def claim(x):
        if x == 0:
            return zero, "zero-target probability outside bounds"
        if nonzero and x not in rep.units:
            return nonzero, f"bounds fail at x=#{x}"
        return None

    return _first_miss(ring, claim) or f"{ring.size} targets"


def _lemma25(ring: Ring):
    factors, parts = components(ring)
    law, passed = "product law fails at x=#{}", f"{ring.size} targets, componentwise"
    if not isinstance(ring, ProductRing):
        law = "CRT product law fails at x={}"
        passed = "CRT split " + " * ".join(f.describe() for f in factors)
    fcounts = [pair_counts(f, cap=None) for f in factors]
    total = ring.size ** 2
    miss = _first_miss(ring, lambda x: (
        ProbFraction(prod(fc[c] for fc, c in zip(fcounts, parts(x))), total), law.format(x)))
    return miss or passed


def _proper_principal_ideals(ring: Ring) -> list[frozenset[int]]:
    """Every proper ideal RgR, in order of its first generator g.

    RgR = R(gR) depends on g only through gR, so only the first g of each
    proper gR in the ring's partition by gR is closed; that g is also the
    first to give its ideal, so the order is a closure of every g's."""
    _, groups = _principal_partition(ring)
    ideals = (principal_ideal_members(ring, g) for _, g, _ in groups)
    return list(dict.fromkeys(m for m in ideals if len(m) < ring.size))


def _lemma26(ring: Ring):
    ideals = _proper_principal_ideals(ring)
    counts = pair_counts(ring, cap=None)
    sq_r = ring.size ** 2
    checks = 0
    for members in ideals:
        quot = quotient_make(ring, members)
        qcounts = pair_counts(quot, cap=None)
        sq_q = quot.size ** 2
        for x in range(ring.size):
            checks += 1
            qx = quot.coset_index_of(x)
            if counts[x] * sq_q > qcounts[qx] * sq_r:
                return (f"quotient bound fails at x=#{x}, |I|={len(members)}",
                        f"at most {ProbFraction(qcounts[qx], sq_q)}",
                        str(ProbFraction(counts[x], sq_r)))
    return f"{len(ideals)} proper principal ideals, {checks} comparisons"


# ---------------------------------------------------------------------------
# Subspace enumeration oracle (prime fields)
# ---------------------------------------------------------------------------


def _rref_bases(p: int, n: int, k: int):
    """All rank-k reduced-row-echelon bases in F_p^n, one per subspace."""
    if k == 0:
        yield ()
        return
    for pivots in combinations(range(n), k):
        free_cells = [(i, j) for i in range(k) for j in range(n)
                      if j > pivots[i] and j not in pivots]
        for values in iter_product(range(p), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(k)]
            for i, col in enumerate(pivots):
                rows[i][col] = 1
            for (i, j), v in zip(free_cells, values):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def _span(basis, p: int, n: int) -> frozenset:
    vectors = [tuple([0] * n)]
    for b in basis:
        vectors = [tuple((x + c * y) % p for x, y in zip(v, b))
                   for v in vectors for c in range(p)]
    return frozenset(vectors)


def enumerate_subspaces(p: int, n: int, k: int) -> list[tuple[tuple, frozenset]]:
    """(basis, span set) for every k-dimensional subspace of F_p^n."""
    subs = [(basis, _span(basis, p, n)) for basis in _rref_bases(p, n, k)]
    if len({span for _, span in subs}) != len(subs):
        raise AssertionError("echelon enumeration produced duplicate subspaces")
    return subs


def _subspace_params(corpus: Corpus) -> list[tuple[str, tuple[int, int]]]:
    return [(f"q={q},n={n}", (q, n)) for q in (2, 3) for n in range(1, 5)]


def _lemma31(params: tuple[int, int]):
    q, n = params
    subs = {k: enumerate_subspaces(q, n, k) for k in range(n + 1)}
    checks = 0
    for r in range(n + 1):
        for k in range(r, n + 1):
            expected = subspace_count(q, n, r, k)
            for ubasis, _ in subs[r]:
                checks += 1
                got = sum(1 for _, wspan in subs[k] if all(v in wspan for v in ubasis))
                if got != expected:
                    return f"count mismatch at r={r}, k={k}", str(expected), str(got)
    return f"{checks} (U,k) pairs enumerated"


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


_MATRIX_TARGETS = ["M1(GF2)", "M1(GF3)", "M2(GF2)", "M2(GF3)", "M3(GF2)", "M2(GF4)"]


def _reuse_corpus_rings(corpus: Corpus, specs) -> list[tuple[str, Ring]]:
    """(spec, ring) per spec, taking the corpus's own instance of an equal
    ring (same key()), so its tables and memos are built once per run.
    Constructing a target just to compare keys builds no tables."""
    own = {ring: ring for _, ring in corpus}
    targets = [(spec, parse_ring_spec(spec)) for spec in specs]
    return [(spec, own.get(ring, ring)) for spec, ring in targets]


def _matrix_targets(corpus: Corpus) -> list[tuple[str, Ring]]:
    return _reuse_corpus_rings(corpus, _MATRIX_TARGETS)


def _thm32(ring: Ring):
    ranks = [matrix_rank(ring.element(i)) for i in range(ring.size)]
    by_rank = []
    for r in range(ring.k + 1):
        value = prob_matrix_formula(MatrixClass(ring.q, ring.k, r)).value
        if value.total != ring.size ** 2:
            raise AssertionError("matrix formula denominator mismatch")
        by_rank.append(value)
    # p_x matching by_rank at every x also makes each rank class constant.
    miss = _first_miss(ring, lambda x: (by_rank[ranks[x]],
                                        f"formula misses x=#{x} (rank {ranks[x]})"))
    return miss or f"{ring.size} targets, ranks 0..{ring.k}"


def _lemma41(ring: Ring):
    if ideal_size_power_check(ring):
        return f"q={structure_report(ring).q}: all sizes are powers"
    return ("ideal size is not a power of q",)


def _thm42(ring: Ring):
    rep = structure_report(ring)
    q, n = rep.q, rep.n
    unit_value = prob_unit_formula(ring).value
    radical = local_bounds(ring, NONZERO_RADICAL)
    zero = local_bounds(ring, ZERO_CLASS)

    def claim(x):
        if x == 0:
            return zero, "zero-target outside bounds"
        if x in rep.units:
            return unit_value, f"unit value fails at x=#{x}"
        return radical, f"radical member x=#{x} outside bounds"

    return _first_miss(ring, claim) or f"q={q}, n={n}, {ring.size} targets"


def _cor43(ring: Ring):
    preds = corollary_43_predicates(ring)
    if len(set(preds)) == 1:
        return f"predicates {preds}"
    return "predicates are not equivalent", "all equal", str(preds)


def _cor44(ring: Ring):
    lhs, rhs = corollary_44_predicate(ring)
    if lhs == rhs:
        return f"extremal={lhs}, square-zero radical={rhs}"
    return "sides disagree", f"square-zero radical={rhs}", f"extremal={lhs}"


def _lemma45(ring: Ring):
    if unit_plus_radical_check(ring):
        rep = structure_report(ring)
        return f"{len(rep.units)}x{rep.radical.size} sums checked"
    return ("unit + radical member is not a unit",)


def _local_closed_form(ring: Ring, formula, name: str):
    rep = structure_report(ring)
    miss = _first_miss(ring, lambda x: (formula(ring, x).value,
                                        f"{name} formula fails at x=#{x}"))
    return miss or f"q={rep.q}, n={rep.n}, {ring.size} targets"


def _thm46(ring: Ring):
    return _local_closed_form(ring, prob_chain_formula, "chain")


def _zn_targets(corpus: Corpus) -> list[tuple[str, Ring]]:
    return _reuse_corpus_rings(corpus, [f"Z{n}" for n in range(2, 31)])


def _remark_zn(ring: Ring):
    miss = _first_miss(ring, lambda x: (prob_zn(ring.n, x).value,
                                        f"split formula fails at x={x}"))
    return miss or f"{ring.n} targets"


def _thm48(ring: Ring):
    return _local_closed_form(ring, prob_j2zero_formula, "square-zero")


SUITES: dict[str, tuple[str, object]] = {
    suite_id: (description, _runner(suite_id, check, gates, targets))
    for suite_id, description, check, gates, targets in (
        ("lemma21", "one-sided zero-divisors are two-sided", _lemma21, (), None),
        ("lemma23", "pair counts equal annihilator sums", _lemma23, (), None),
        ("lemma24", "unit law and general probability bounds", _lemma24, (), None),
        ("lemma25", "product rings multiply componentwise", _lemma25, (_DECOMPOSABLE,), None),
        ("lemma26", "quotient probabilities dominate", _lemma26, (), None),
        ("lemma31", "subspace counts match enumeration", _lemma31, (), _subspace_params),
        ("thm32", "matrix-ring closed form", _thm32, (), _matrix_targets),
        ("lemma41", "local ideal sizes are powers of q", _lemma41, (_LOCAL,), None),
        ("thm42", "local probability bounds", _thm42, (_LOCAL, _NOT_FIELD), None),
        ("cor43", "extremal local equivalences", _cor43, (_LOCAL, _NOT_FIELD), None),
        ("cor44", "zero-target extremal iff square-zero radical", _cor44, (_LOCAL,), None),
        ("lemma45", "units absorb radical shifts", _lemma45, (), None),
        ("thm46", "maximal-chain closed form", _thm46, (_LOCAL, _MAX_CHAIN), None),
        ("remark_zn", "integers mod n via prime-power split", _remark_zn, (), _zn_targets),
        ("thm48", "square-zero radical closed form", _thm48, (_LOCAL, _J2_ZERO), None),
    )
}


def run_suites(suite_ids: list[str] | None = None,
               corpus: Corpus | None = None) -> list[SuiteResult]:
    """Run the selected suites (all by default) over the corpus in order."""
    if corpus is None:
        corpus = default_corpus()
    if suite_ids is None:
        suite_ids = list(SUITES)
    results = []
    for suite_id in suite_ids:
        if suite_id not in SUITES:
            known = ", ".join(SUITES)
            raise ValidationError(f"unknown suite {suite_id!r} (known: {known})")
        description, runner = SUITES[suite_id]
        results.append(SuiteResult(suite=suite_id, description=description,
                                   cases=runner(corpus)))
    return results
