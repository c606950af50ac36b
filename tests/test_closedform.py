"""Closed forms and bounds against enumeration oracles and frozen values."""

from fractions import Fraction
from itertools import product as iter_product
from math import prod

import pytest

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
    prob_auto,
    prob_chain_formula,
    prob_formula,
    prob_j2zero_formula,
    prob_matrix_formula,
    prob_unit_formula,
    prob_zn,
    subspace_count,
)
from ringprob.errors import (
    BadDimensionOrder,
    EnumerationLimitExceeded,
    FormulaUnavailable,
    NotChain,
    NotJ2Zero,
    NotLocal,
    NTooSmall,
    ValidationError,
)
from ringprob.probability import ProbFraction, prob_brute
from ringprob.rings import (
    chain_ring,
    field_ring,
    galois_ring,
    matrix_ring,
    product,
    trivial_extension,
    zmod,
)
from ringprob import closedform, recipe
from ringprob.corpus import default_corpus, fixture_path
from ringprob.recipe import invariants
from ringprob.specparse import parse_ring_spec
from ringprob.structure import structure_report


def brute_span_lines_f2_2():
    """Oracle: distinct spans of nonzero vectors in F_2^2."""
    vectors = [(a, b) for a in range(2) for b in range(2)]
    lines = {frozenset({(0, 0), v}) for v in vectors if v != (0, 0)}
    return lines


class TestSubspaceCount:
    def test_lines_of_f2_squared(self):
        assert len(brute_span_lines_f2_2()) == 3
        assert subspace_count(2, 2, 0, 1) == 3

    def test_empty_product(self):
        for q, n, r in [(2, 3, 1), (3, 4, 2), (4, 2, 0)]:
            assert subspace_count(q, n, r, r) == 1

    def test_planes_through_a_line_in_f2_cubed(self):
        # Oracle: enumerate spans of pairs extending e1 in F_2^3.
        def span(rows):
            vecs = [(0, 0, 0)]
            for b in rows:
                vecs = [tuple((x + y * c) % 2 for x, y in zip(v, b))
                        for v in vecs for c in range(2)]
            return frozenset(vecs)

        e1 = (1, 0, 0)
        others = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
        planes = {span([e1, w]) for w in others if len(span([e1, w])) == 4}
        assert len(planes) == 3
        assert subspace_count(2, 3, 1, 2) == 3

    def test_dimension_order_errors(self):
        with pytest.raises(BadDimensionOrder):
            subspace_count(2, 3, 2, 1)
        with pytest.raises(BadDimensionOrder):
            subspace_count(2, 3, 1, 4)

    def test_basis_counting_identity(self):
        # subspaces times ordered bases per subspace = independent k-tuples
        for q in (2, 3, 4):
            for n in range(1, 5):
                for k in range(n + 1):
                    bases = 1
                    tuples = 1
                    for i in range(k):
                        bases *= q ** k - q ** i
                        tuples *= q ** n - q ** i
                    assert subspace_count(q, n, 0, k) * bases == tuples


class TestMatrixRank:
    def test_identity(self):
        m2 = matrix_ring(2, 2)
        assert matrix_rank(m2.element(m2.one_index)) == 2

    def test_zero(self):
        assert matrix_rank(matrix_ring(2, 2).element(0)) == 0

    def test_equal_rows(self):
        m2 = matrix_ring(2, 2)
        assert matrix_rank(m2.element(m2.encode(((1, 1), (1, 1))))) == 1

    @pytest.mark.parametrize("k,q", [(2, 2), (2, 3), (2, 4)])
    def test_rank_from_annihilator_size_oracle(self, k, q):
        # |ann_r(X)| = q^(k*(k-rank)) in M_k(GF(q)), so the annihilator
        # size determines the rank independently of the elimination path.
        ring = matrix_ring(k, q)
        for i in range(ring.size):
            ann = ring.mul_row(i).count(0)
            expected_rank = k
            size = 1
            while size < ann:
                size *= q ** k
                expected_rank -= 1
            assert size == ann
            assert matrix_rank(ring.element(i)) == expected_rank

    def test_rejects_non_matrix_elements(self):
        with pytest.raises(ValidationError):
            matrix_rank(zmod(4).element(1))


class TestMatrixFormula:
    def test_m2f2_strata(self):
        assert prob_matrix_formula(MatrixClass(2, 2, 2)).value == ProbFraction(6, 256)
        assert prob_matrix_formula(MatrixClass(2, 2, 1)).value == ProbFraction(18, 256)
        assert prob_matrix_formula(MatrixClass(2, 2, 0)).value == ProbFraction(58, 256)

    def test_m2f2_zero_strata_split(self):
        # rank-0 target: strata contribute 16 (k=0) + 36 (k=1) + 6 (k=2)
        hits = prob_matrix_formula(MatrixClass(2, 2, 0)).value.hits
        assert hits == 16 + 36 + 6

    def test_dim1_reduces_to_field_values(self):
        for q in (2, 3, 4, 9):
            zero = prob_matrix_formula(MatrixClass(q, 1, 0)).value
            unit = prob_matrix_formula(MatrixClass(q, 1, 1)).value
            assert zero == ProbFraction(2 * q - 1, q * q)
            assert unit == ProbFraction(q - 1, q * q)

    def test_invalid_class(self):
        with pytest.raises(ValidationError):
            MatrixClass(2, 2, 3)
        with pytest.raises(ValidationError):
            MatrixClass(6, 2, 1)


class TestUnitFormula:
    def test_zmod4(self):
        assert prob_unit_formula(zmod(4)).value == ProbFraction(2, 16)

    def test_fields(self):
        for q in (2, 3, 4, 9):
            assert prob_unit_formula(field_ring(q)).value == ProbFraction(q - 1, q * q)

    def test_matches_matrix_formula_at_full_rank(self):
        assert prob_unit_formula(matrix_ring(2, 2)).value == \
            prob_matrix_formula(MatrixClass(2, 2, 2)).value


class TestGeneralBounds:
    def test_zmod4_zero_class_is_tight(self):
        lo, hi = general_bounds(zmod(4), ZERO_CLASS)
        assert lo == hi == ProbFraction(8, 16)

    def test_zmod4_nonzero_class_is_tight(self):
        lo, hi = general_bounds(zmod(4), NONZERO_ZERO_DIVISOR)
        assert lo == hi == ProbFraction(4, 16)
        assert prob_brute(zmod(4), 2) == lo

    def test_zmod8_zero_class(self):
        lo, hi = general_bounds(zmod(8), ZERO_CLASS)
        assert lo == ProbFraction(18, 64)
        assert hi == ProbFraction(24, 64)
        assert lo <= prob_brute(zmod(8), 0) <= hi

    def test_unknown_class(self):
        with pytest.raises(ValidationError):
            general_bounds(zmod(4), "units")


class TestLocalBounds:
    def test_q2_n2_coincide(self):
        lo, hi = local_bounds(zmod(4), NONZERO_RADICAL)
        assert lo == hi == ProbFraction(2, 8)

    def test_q2_n3_zero_class(self):
        lo, hi = local_bounds(zmod(8), ZERO_CLASS)
        assert lo == ProbFraction(9, 32)
        assert hi == ProbFraction(6, 16)
        assert lo <= prob_brute(zmod(8), 0) <= hi

    def test_q3_n2_coincide(self):
        lo, hi = local_bounds(zmod(9), NONZERO_RADICAL)
        assert lo == hi == ProbFraction(4, 27)
        assert prob_brute(zmod(9), 3) == lo

    def test_not_local(self):
        with pytest.raises(NotLocal):
            local_bounds(zmod(6), ZERO_CLASS)

    def test_n_too_small(self):
        with pytest.raises(NTooSmall):
            local_bounds(field_ring(4), ZERO_CLASS)


class TestChainFormula:
    def test_zmod4_radical_member(self):
        assert prob_chain_formula(zmod(4), 2).value == ProbFraction(1, 4)

    def test_zmod8_zero(self):
        got = prob_chain_formula(zmod(8), 0).value
        assert got == ProbFraction(5, 16)
        assert got == prob_brute(zmod(8), 0)

    def test_chain23_deep_layer(self):
        ring = chain_ring(2, 3)
        t_squared = ring.encode((0, 0, 1))
        got = prob_chain_formula(ring, t_squared)
        assert got.value == ProbFraction(3, 16)
        assert got.applicability["layer"] == 2

    def test_unit_layer_matches_unit_formula(self):
        for ring in (zmod(8), chain_ring(3, 2), galois_ring(2, 2, 2)):
            unit = ring.one_index
            assert prob_chain_formula(ring, unit).value == \
                prob_unit_formula(ring).value

    def test_field_case(self):
        for q in (2, 3, 4):
            ring = field_ring(q)
            assert prob_chain_formula(ring, 0).value == ProbFraction(2 * q - 1, q * q)

    def test_rejects_short_chain(self):
        with pytest.raises(NotChain):
            prob_chain_formula(trivial_extension(2, 2), 0)
        with pytest.raises(NotChain):
            prob_chain_formula(zmod(6), 0)


class TestJ2ZeroFormula:
    def test_triv22(self):
        ring = trivial_extension(2, 2)
        in_j = ring.encode((0, (1, 0)))
        assert prob_j2zero_formula(ring, in_j).value == ProbFraction(2, 16)
        assert prob_j2zero_formula(ring, 0).value == ProbFraction(6, 16)
        assert prob_brute(ring, in_j) == ProbFraction(2, 16)
        assert prob_brute(ring, 0) == ProbFraction(6, 16)

    def test_zmod9_agrees_with_chain_at_n2(self):
        got = prob_j2zero_formula(zmod(9), 3).value
        assert got == ProbFraction(4, 27)
        assert got == prob_chain_formula(zmod(9), 3).value

    def test_rejects_deep_radical(self):
        with pytest.raises(NotJ2Zero):
            prob_j2zero_formula(zmod(8), 0)

    def test_n2_overlap_cross_consistency(self):
        for ring in (zmod(4), zmod(9), chain_ring(2, 2), chain_ring(3, 2),
                     galois_ring(2, 2, 2), trivial_extension(2, 1)):
            for x in range(ring.size):
                assert prob_chain_formula(ring, x).value == \
                    prob_j2zero_formula(ring, x).value


class TestZn:
    def test_examples(self):
        assert prob_zn(6, 0).value == ProbFraction(15, 36)
        assert prob_zn(12, 4).value == ProbFraction(1, 9)
        assert prob_zn(4, 1).value == ProbFraction(1, 8)

    def test_against_pure_integer_oracle(self):
        for n in range(2, 16):
            counts = [0] * n
            for a in range(n):
                for b in range(n):
                    counts[(a * b) % n] += 1
            for x in range(n):
                assert prob_zn(n, x).value == ProbFraction(counts[x], n * n)

    def test_rejects_small_modulus(self):
        with pytest.raises(ValidationError):
            prob_zn(1, 0)


def total_probability(classes):
    """Sum of class size x Prob(representative) over (size, ProbFraction)
    pairs that partition the ring: exactly 1 when the closed forms are."""
    return sum(size * Fraction(value.hits, value.total) for size, value in classes)


def layer_classes(ring, q, m, step):
    """Zero, and the m radical layers of a maximal-chain ring with residue
    field order q: layer i has q^(m-i) - q^(m-i-1) elements, index step^i
    among them."""
    yield 1, prob_formula(ring, 0).value
    for i in range(m):
        yield q ** (m - i) - q ** (m - i - 1), prob_formula(ring, step ** i).value


def crt(residues):
    """The x mod prod(m) with x = r mod m for each (r, m), m pairwise coprime."""
    n = prod(m for _, m in residues)
    return sum(r * (n // m) * pow(n // m, -1, m) for r, m in residues) % n


class TestProbabilitiesSumToOne:
    """Sum_x Prob_x(R) = 1, since every pair (a, b) has one product: the
    closed forms summed over the classes they are constant on, on rings far
    beyond enumeration."""

    @pytest.mark.parametrize("q, m", [(3, 200), (4, 50), (2, 1), (7, 3)])
    def test_chain(self, q, m):
        assert total_probability(layer_classes(chain_ring(q, m), q, m, q)) == 1

    @pytest.mark.parametrize("p, k, r", [(2, 64, 3), (3, 5, 2), (5, 2, 1)])
    def test_galois_ring(self, p, k, r):
        assert total_probability(layer_classes(galois_ring(p, k, r), p ** r, k, p)) == 1

    @pytest.mark.parametrize("q, m", [(2, 100), (9, 5), (5, 1)])
    def test_trivial_extension(self, q, m):
        ring = trivial_extension(q, m)
        classes = [((q - 1) * q ** m, prob_formula(ring, ring.one_index).value),
                   (q ** m - 1, prob_formula(ring, 1).value),
                   (1, prob_formula(ring, 0).value)]
        assert total_probability(classes) == 1

    @pytest.mark.parametrize("q, k", [(2, 20), (7, 12), (4, 3)])
    def test_matrix_ring(self, q, k):
        # Landsberg: prod_{i<r} (q^k - q^i)^2 / (q^r - q^i) matrices of rank r
        def rank_count(r):
            return prod((q ** k - q ** i) ** 2 for i in range(r)) // prod(
                q ** r - q ** i for i in range(r))
        assert sum(rank_count(r) for r in range(k + 1)) == q ** (k * k)
        assert total_probability((rank_count(r), prob_matrix_formula(MatrixClass(q, k, r)).value)
                                 for r in range(k + 1)) == 1

    @pytest.mark.parametrize("factors", [{2: 3, 3: 2, 5: 1}, {2: 1, 3: 1, 5: 1, 7: 1, 11: 1},
                                         {2: 10, 3: 7, 5: 4, 7: 3}, {2: 12}])
    def test_zn(self, factors):
        # the class with valuations (k_p) has prod (p^(e-k) - p^(e-k-1)) elements,
        # a factor of 1 where k = e; x = p^k mod p^e for every p represents it
        n = prod(p ** e for p, e in factors.items())
        classes = []
        for ks in iter_product(*(range(e + 1) for e in factors.values())):
            size = prod(p ** (e - k) - p ** (e - k - 1) if k < e else 1
                        for (p, e), k in zip(factors.items(), ks))
            x = crt([(p ** k % p ** e, p ** e) for (p, e), k in zip(factors.items(), ks)])
            classes.append((size, prob_zn(n, x).value))
        assert sum(size for size, _ in classes) == n
        assert total_probability(classes) == 1


class TestCorollaryPredicates:
    def test_q_squared_rings_all_true(self):
        assert corollary_43_predicates(zmod(4)) == (True, True, True, True)
        assert corollary_43_predicates(chain_ring(3, 2)) == (True, True, True, True)

    def test_larger_rings_all_false(self):
        assert corollary_43_predicates(zmod(8)) == (False, False, False, False)

    def test_cor44_sides(self):
        assert corollary_44_predicate(zmod(9)) == (True, True)
        assert corollary_44_predicate(zmod(8)) == (False, False)
        assert corollary_44_predicate(trivial_extension(2, 3)) == (True, True)

    def test_hypothesis_errors(self):
        with pytest.raises(NotLocal):
            corollary_43_predicates(zmod(6))
        with pytest.raises(NTooSmall):
            corollary_43_predicates(field_ring(3))
        with pytest.raises(NotLocal):
            corollary_44_predicate(zmod(12))


class TestDispatch:
    def test_unit_first(self):
        result = prob_auto(zmod(8), 3)
        assert result.formula == "unit"

    def test_matrix_ring(self):
        m2 = matrix_ring(2, 2)
        nonunit = m2.encode(((1, 1), (1, 1)))
        result = prob_auto(m2, nonunit)
        assert result.formula == "matrix"
        assert result.value == prob_brute(m2, nonunit)

    def test_chain(self):
        assert prob_auto(zmod(8), 2).formula == "chain"

    def test_only_the_fallback_meets_the_enumeration_limit(self):
        # GF65537 has a closed form above the limit; the table fixture
        # times Z8209 (65672 elements) has none at 0, so its
        # annihilator-sum fallback and its structure report are refused
        # before any work starts
        result = prob_auto(field_ring(65537), 0, cap=None)
        assert result.formula == "chain"
        assert result.value == ProbFraction(2 * 65537 - 1, 65537 ** 2)
        ring = parse_ring_spec(f"table:{fixture_path()} x Z8209")
        assert ring.size == 65672
        with pytest.raises(EnumerationLimitExceeded):
            prob_auto(ring, 0, cap=None)
        with pytest.raises(EnumerationLimitExceeded):
            structure_report(ring)

    def test_j2zero(self):
        assert prob_auto(trivial_extension(2, 2), 1).formula == "j2zero"

    def test_product_recursion(self):
        pr = product(zmod(4), zmod(9))
        x = pr.encode((2, 3))
        result = prob_auto(pr, x)
        assert result.formula == "product"
        assert result.value == prob_brute(pr, x)

    def test_product_tests_each_factor_for_a_unit_once(self, monkeypatch):
        calls = []

        def counting_rank(x):
            calls.append(x.index)
            return matrix_rank(x)

        monkeypatch.setattr(recipe, "matrix_rank", counting_rank)
        monkeypatch.setattr(closedform, "matrix_rank", counting_rank)
        ring = parse_ring_spec("M2(GF2) x Z4")
        result = prob_formula(ring, ring.encode((0, 1)))
        assert result.formula == "product"
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", ["M2(GF2) x Z4", "table x Z3", "Z2 x M2(GF2)",
                                      "GF4 x chain(2,2) x Z6", "M2(GF2) x GF3"])
    def test_product_unit_iff_every_factor_unit(self, spec):
        """A unit target gets the whole ring's unit formula, a non-unit the
        product of its factors' closed forms, and a non-unit with a factor
        that has none gets none."""
        ring = parse_ring_spec(spec.replace("table", f"table:{fixture_path()}"))
        inv = invariants(ring)
        for x in range(ring.size):
            try:
                got = prob_formula(ring, x)
            except FormulaUnavailable:
                assert not inv.is_unit(x)
                continue
            if inv.is_unit(x):
                assert (got.formula, got.applicability) == ("unit", {"units": inv.unit_count})
            else:
                assert got.formula == "product"
            assert got.value == prob_brute(ring, x)

    def test_annsum_fallback(self):
        # the upper-triangular table ring: indecomposable, not local, J != 0
        table = parse_ring_spec(f"table:{fixture_path()}")
        result = prob_auto(table, 0)
        assert result.formula == "annsum"
        assert result.value == prob_brute(table, 0)

    def test_composite_zn_dispatches_by_crt(self):
        ring = zmod(1000)
        result = prob_auto(ring, 10)
        assert result.formula == "product"
        assert result.applicability == {"components": ["chain", "chain"]}
        assert result.value == prob_brute(ring, 10)
        assert prob_auto(ring, 3).formula == "unit"

    def test_formula_unavailable(self):
        _, table = [m for m in default_corpus() if m[0].startswith("table:")][0]
        with pytest.raises(FormulaUnavailable):
            prob_formula(table, 2)

    def test_every_dispatch_matches_brute_on_corpus(self):
        for _, ring in default_corpus():
            step = max(1, ring.size // 8)
            for x in range(0, ring.size, step):
                assert prob_auto(ring, x, cap=None).value == \
                    prob_brute(ring, x, cap=None)
