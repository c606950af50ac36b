"""Acceptance gate: one test per criterion, every comparison exact.

Each test prints a single `ACCEPTANCE <id> <name>: PASS/FAIL` line (run
pytest with -s to see them) and fails if any collected check failed.
"""

from functools import lru_cache

from ringprob.closedform import (
    MatrixClass,
    NONZERO_RADICAL,
    NONZERO_ZERO_DIVISOR,
    ZERO_CLASS,
    corollary_43_predicates,
    corollary_44_predicate,
    general_bounds,
    local_bounds,
    matrix_rank,
    prob_chain_formula,
    prob_j2zero_formula,
    prob_matrix_formula,
    prob_zn,
    subspace_count,
)
from ringprob.corpus import default_corpus
from ringprob.probability import (
    ProbFraction,
    annsum_counts,
    pair_counts,
    prob_annsum,
    prob_brute,
)
from ringprob.rings import ProductRing, quotient_make
from ringprob.specparse import parse_ring_spec
from ringprob.structure import (
    ideal_size_power_check,
    left_right_symmetry_check,
    principal_ideal_members,
    structure_report,
    unit_plus_radical_check,
    units,
    zero_divisors,
)

# One instance per path-free spec for the whole test session, so tests
# that revisit a ring share its tables and memos.
cached_ring = lru_cache(maxsize=None)(parse_ring_spec)
from ringprob.verify import enumerate_subspaces


def report(criterion: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}")
    assert not failures, failures[:5]


def test_01_engine_equivalence():
    failures = []
    for name, ring in default_corpus():
        if pair_counts(ring, cap=None) != annsum_counts(ring, cap=None):
            failures.append(f"{name}: aggregated engines disagree")
        targets = range(ring.size) if ring.size <= 128 else \
            range(0, ring.size, ring.size // 32)
        for x in targets:
            if prob_brute(ring, x, cap=None) != prob_annsum(ring, x, cap=None):
                failures.append(f"{name}: engines disagree at x=#{x}")
                break
    report("01 engine-equivalence", failures)


def test_02_unit_law_both_directions():
    failures = []
    for name, ring in default_corpus():
        counts = pair_counts(ring, cap=None)
        unit_set = units(ring)
        ucount = len(unit_set)
        for x in range(ring.size):
            if (x in unit_set) != (counts[x] == ucount):
                failures.append(f"{name}: unit law fails at x=#{x}")
    report("02 unit-law", failures)


def test_03_general_bounds():
    failures = []
    for name, ring in default_corpus():
        counts = pair_counts(ring, cap=None)
        total = ring.size ** 2
        rep = structure_report(ring)
        lo0, hi0 = general_bounds(ring, ZERO_CLASS)
        p0 = ProbFraction(counts[0], total)
        if not (lo0 <= p0 <= hi0):
            failures.append(f"{name}: zero-class bounds fail: {p0} not in [{lo0}, {hi0}]")
        if len(rep.zero_divisors) > 1:
            lo, hi = general_bounds(ring, NONZERO_ZERO_DIVISOR)
            for x in range(1, ring.size):
                if x in rep.units:
                    continue
                px = ProbFraction(counts[x], total)
                if not (lo <= px <= hi):
                    failures.append(f"{name}: bounds fail at x=#{x}: {px} not in [{lo}, {hi}]")
    report("03 general-bounds", failures)


def test_04_matrix_formula():
    failures = []
    expected_m2f2 = {2: 6, 1: 18, 0: 58}
    for spec in ["M1(GF2)", "M1(GF3)", "M2(GF2)", "M2(GF3)", "M3(GF2)", "M2(GF4)"]:
        ring = cached_ring(spec)
        counts = pair_counts(ring, cap=None)
        total = ring.size ** 2
        ranks = [matrix_rank(ring.element(i)) for i in range(ring.size)]
        for r in range(ring.k + 1):
            value = prob_matrix_formula(MatrixClass(ring.q, ring.k, r)).value
            if value.total != total:
                failures.append(f"{spec}: denominator mismatch at rank {r}")
                continue
            class_hits = {counts[i] for i in range(ring.size) if ranks[i] == r}
            if len(class_hits) != 1:
                failures.append(f"{spec}: rank-{r} class not constant")
                continue
            brute_hits = class_hits.pop()
            if brute_hits != value.hits:
                failures.append(
                    f"{spec}: rank {r} formula {value.hits} != brute {brute_hits}")
            if spec == "M2(GF2)" and brute_hits != expected_m2f2[r]:
                failures.append(f"M2(GF2): rank {r} expected {expected_m2f2[r]}")
    report("04 matrix-formula", failures)


def test_05_subspace_counts():
    failures = []
    for q in (2, 3):
        for n in range(1, 5):
            subs = {k: enumerate_subspaces(q, n, k) for k in range(n + 1)}
            for r in range(n + 1):
                for k in range(r, n + 1):
                    expected = subspace_count(q, n, r, k)
                    for ubasis, _ in subs[r]:
                        got = sum(1 for _, wspan in subs[k]
                                  if all(v in wspan for v in ubasis))
                        if got != expected:
                            failures.append(
                                f"q={q} n={n} r={r} k={k}: {got} != {expected}")
                            break
    report("05 subspace-counts", failures)


def test_06_product_law():
    failures = []

    def check_product_ring(name, ring):
        counts = pair_counts(ring, cap=None)
        fcounts = [pair_counts(f, cap=None) for f in ring.factors]
        for x in range(ring.size):
            expected = 1
            for fc, c in zip(fcounts, ring.decode(x)):
                expected *= fc[c]
            if counts[x] != expected:
                failures.append(f"{name}: fails at x=#{x}")
                return

    def check_crt(name, n, moduli):
        counts = pair_counts(cached_ring(f"Z{n}"), cap=None)
        fcounts = {m: pair_counts(cached_ring(f"Z{m}"), cap=None) for m in moduli}
        for x in range(n):
            expected = 1
            for m in moduli:
                expected *= fcounts[m][x % m]
            if counts[x] != expected:
                failures.append(f"{name}: fails at x={x}")
                return

    check_crt("Z6", 6, (2, 3))
    check_crt("Z12", 12, (4, 3))
    check_product_ring("Z2 x Z4", cached_ring("Z2 x Z4"))
    check_product_ring("Z2 x M2(GF2)", cached_ring("Z2 x M2(GF2)"))
    report("06 product-law", failures)


def test_07_quotient_monotonicity():
    failures = []
    for name, ring in default_corpus():
        ideals = []
        seen = set()
        for g in range(ring.size):
            members = principal_ideal_members(ring, g)
            if len(members) < ring.size and members not in seen:
                seen.add(members)
                ideals.append(members)
        counts = pair_counts(ring, cap=None)
        sq_r = ring.size ** 2
        for members in ideals:
            quot = quotient_make(ring, members)
            qcounts = pair_counts(quot, cap=None)
            sq_q = quot.size ** 2
            for x in range(ring.size):
                if counts[x] * sq_q > qcounts[quot.coset_index_of(x)] * sq_r:
                    failures.append(f"{name}: |I|={len(members)}, x=#{x}")
                    break
    report("07 quotient-monotonicity", failures)


def test_08_chain_formula():
    failures = []
    for spec in ["Z4", "Z8", "Z27", "chain(2,2)", "chain(2,3)", "chain(3,3)",
                 "GR(2,2,2)"]:
        ring = cached_ring(spec)
        counts = pair_counts(ring, cap=None)
        total = ring.size ** 2
        for x in range(ring.size):
            expected = prob_chain_formula(ring, x).value
            if expected != ProbFraction(counts[x], total):
                failures.append(f"{spec}: x=#{x} formula {expected} != brute")
    report("08 chain-formula", failures)


def test_09_j2zero_formula():
    failures = []
    for spec in ["Z4", "Z9", "chain(2,2)", "chain(3,2)", "triv(2,1)",
                 "triv(2,2)", "triv(2,3)", "triv(3,2)"]:
        ring = cached_ring(spec)
        counts = pair_counts(ring, cap=None)
        total = ring.size ** 2
        for x in range(ring.size):
            expected = prob_j2zero_formula(ring, x).value
            if expected != ProbFraction(counts[x], total):
                failures.append(f"{spec}: x=#{x} formula {expected} != brute")
    for name, ring in default_corpus():
        rep = structure_report(ring)
        if rep.is_local and rep.n == 2:
            for x in range(ring.size):
                if prob_chain_formula(ring, x).value != \
                        prob_j2zero_formula(ring, x).value:
                    failures.append(f"{name}: n=2 cross-consistency fails at x=#{x}")
    report("09 j2zero-formula", failures)


def test_10_local_bounds_and_equivalences():
    failures = []
    for name, ring in default_corpus():
        rep = structure_report(ring)
        if not rep.is_local:
            continue
        counts = pair_counts(ring, cap=None)
        total = ring.size ** 2
        if rep.n >= 2:
            lo, hi = local_bounds(ring, NONZERO_RADICAL)
            zlo, zhi = local_bounds(ring, ZERO_CLASS)
            unit_value = ProbFraction(rep.q - 1, rep.q ** (rep.n + 1))
            for x in range(ring.size):
                px = ProbFraction(counts[x], total)
                if x == 0:
                    ok = zlo <= px <= zhi
                elif x in rep.units:
                    ok = px == unit_value
                else:
                    ok = lo <= px <= hi
                if not ok:
                    failures.append(f"{name}: local bounds fail at x=#{x}")
            preds = corollary_43_predicates(ring)
            if len(set(preds)) != 1:
                failures.append(f"{name}: equivalence predicates differ: {preds}")
        lhs, rhs = corollary_44_predicate(ring)
        if lhs != rhs:
            failures.append(f"{name}: zero-extremal test disagrees with J^2 = 0")
    report("10 local-bounds-equivalences", failures)


def test_11_structural_properties():
    failures = []

    def nilradical(ring):
        out = set()
        for x in range(ring.size):
            power = x
            for _ in range(ring.size):
                if power == 0:
                    out.add(x)
                    break
                power = ring.mul_index(power, x)
        return frozenset(out)

    for name, ring in default_corpus():
        if not left_right_symmetry_check(ring):
            failures.append(f"{name}: one-sided zero-divisor asymmetry")
        u = units(ring)
        z = zero_divisors(ring)
        if u | z != frozenset(range(ring.size)) or (u & z):
            failures.append(f"{name}: units/zero-divisors do not partition")
        rep = structure_report(ring)
        if rep.is_local and not ideal_size_power_check(ring):
            failures.append(f"{name}: ideal size is not a power of q")
        if not unit_plus_radical_check(ring):
            failures.append(f"{name}: unit + radical escape the units")
        if ring.is_commutative() and rep.radical.members != nilradical(ring):
            failures.append(f"{name}: radical differs from nilradical")
    report("11 structural-properties", failures)


def test_12_zn_formula():
    failures = []
    for n in range(2, 31):
        counts = [0] * n
        for a in range(n):
            for b in range(n):
                counts[(a * b) % n] += 1
        for x in range(n):
            if prob_zn(n, x).value != ProbFraction(counts[x], n * n):
                failures.append(f"Z{n}: x={x}")
    report("12 zn-formula", failures)
