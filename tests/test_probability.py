"""Probability engines against definitional oracles and each other."""

import gc
import pickle
import weakref
from math import prod

import pytest

from ringprob import closedform, recipe
from ringprob.closedform import prob_auto, prob_formula
from ringprob.corpus import default_corpus, fixture_path
from ringprob.errors import EnumerationLimitExceeded, MixedRings, SizeCapExceeded, ValidationError
from ringprob.probability import (
    ProbFraction,
    annsum_counts,
    delta,
    pair_counts,
    prob_annsum,
    prob_brute,
    spectrum,
)
from ringprob.rings import DEFAULT_SIZE_CAP, field_ring, matrix_ring, product, quotient_make, zmod
from ringprob.specparse import parse_element, parse_ring_spec
from ringprob.structure import structure_report
from ringprob.verify import _proper_principal_ideals


def zn_pair_oracle(n):
    """Pure-integer pair count per residue, independent of the ring layer."""
    counts = [0] * n
    for a in range(n):
        for b in range(n):
            counts[(a * b) % n] += 1
    return counts


class TestProbFraction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProbFraction(-1, 4)
        with pytest.raises(ValueError):
            ProbFraction(5, 4)
        with pytest.raises(ValueError):
            ProbFraction(0, 0)

    def test_exact_equality_cross_multiplied(self):
        assert ProbFraction(4, 16) == ProbFraction(1, 4)
        assert ProbFraction(4, 16) != ProbFraction(5, 16)
        assert hash(ProbFraction(4, 16)) == hash(ProbFraction(1, 4))

    def test_ordering(self):
        assert ProbFraction(1, 3) < ProbFraction(1, 2)
        assert ProbFraction(2, 4) <= ProbFraction(1, 2)
        assert ProbFraction(3, 4) > ProbFraction(2, 3)
        assert ProbFraction(2, 4) >= ProbFraction(1, 2)
        assert not ProbFraction(1, 2) < ProbFraction(2, 4)
        assert not ProbFraction(1, 2) > ProbFraction(2, 4)
        assert not ProbFraction(2, 3) >= ProbFraction(3, 4)
        assert not ProbFraction(2, 3) <= ProbFraction(1, 3)

    @pytest.mark.parametrize("compare", [
        lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b])
    def test_ordering_with_another_type_is_a_type_error(self, compare):
        half = ProbFraction(1, 2)
        for other in (1, 0.5, (1, 2), None):
            with pytest.raises(TypeError):
                compare(half, other)
            with pytest.raises(TypeError):
                compare(other, half)

    def test_display_is_reduced(self):
        assert str(ProbFraction(15, 36)) == "5/12"
        assert ProbFraction(15, 36).reduced() == (5, 12)

    def test_decimal_is_twelve_significant_digits(self):
        assert ProbFraction(15, 36).decimal_str() == "0.416666666667"
        assert ProbFraction(1, 4).decimal_str() == "0.25"

    def test_multiplication(self):
        prod = ProbFraction(3, 4) * ProbFraction(5, 9)
        assert prod == ProbFraction(15, 36)
        assert (prod.hits, prod.total) == (15, 36)


class TestDelta:
    def test_solvable(self):
        z4 = zmod(4)
        assert delta(z4.element(2), z4.element(2)) == 1

    def test_zero_row_misses_two(self):
        z4 = zmod(4)
        assert delta(z4.element(0), z4.element(2)) == 0

    def test_even_row_misses_one(self):
        z4 = zmod(4)
        assert delta(z4.element(2), z4.element(1)) == 0

    def test_mixed_rings(self):
        with pytest.raises(MixedRings):
            delta(zmod(4).element(1), zmod(6).element(1))

    def test_refused_above_the_enumeration_limit(self):
        # the row scan would build a 10^8-entry row
        ring = zmod(10 ** 8)
        with pytest.raises(EnumerationLimitExceeded):
            delta(ring.element(3), ring.element(6))


class TestBrute:
    def test_z2_zero(self):
        # pairs (0,0), (0,1), (1,0)
        assert prob_brute(zmod(2), 0) == ProbFraction(3, 4)

    def test_z2_one(self):
        assert prob_brute(zmod(2), 1) == ProbFraction(1, 4)

    def test_z4_two_with_literal_oracle(self):
        pairs = [(a, b) for a in range(4) for b in range(4) if (a * b) % 4 == 2]
        assert sorted(pairs) == [(1, 2), (2, 1), (2, 3), (3, 2)]
        got = prob_brute(zmod(4), 2)
        assert (got.hits, got.total) == (len(pairs), 16)

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            prob_brute(zmod(64), 0, cap=10)
        assert prob_brute(zmod(64), 0, cap=None).total == 64 * 64


class TestAnnsum:
    def test_z4_hand_evaluation(self):
        # contributions at x=2: a=1 and a=3 contribute |ann|=1 each,
        # a=2 contributes |{0,2}| = 2
        assert prob_annsum(zmod(4), 2) == ProbFraction(4, 16)

    def test_unit_target_counts_units(self):
        for _, ring in default_corpus():
            from ringprob.structure import units
            got = prob_annsum(ring, ring.one_index, cap=None)
            assert got.hits == len(units(ring))

    def test_z2_zero(self):
        assert prob_annsum(zmod(2), 0) == ProbFraction(3, 4)


class TestEngineEquivalence:
    def test_counts_agree_everywhere(self):
        for _, ring in default_corpus():
            assert pair_counts(ring, cap=None) == annsum_counts(ring, cap=None)

    def test_functions_agree_per_target(self):
        for _, ring in default_corpus():
            if ring.size > 128:
                targets = range(0, ring.size, ring.size // 16)
            else:
                targets = range(ring.size)
            for x in targets:
                assert prob_brute(ring, x, cap=None) == prob_annsum(ring, x, cap=None)

    @pytest.mark.parametrize("rings", [
        "default corpus", "Z625", "M2(GF5)", "triv(4,3)", "corpus quotients"])
    def test_annsum_counts_match_single_target_engine(self, rings):
        """annsum_counts walks the ring's partition by aR over every x;
        prob_annsum reads the same partition for one x.  They agree at
        every x, on rings of up to 625 elements and on the 71 quotients by
        proper principal ideals.  Both read one partition, so the oracle
        is test_annsum_matches_pair_counts_at_every_target."""
        if rings == "default corpus":
            group = [ring for _, ring in default_corpus()]
        elif rings == "corpus quotients":
            group = [quotient_make(ring, members) for _, ring in default_corpus()
                     for members in _proper_principal_ideals(ring)]
            assert len(group) == 71
        else:
            group = [parse_ring_spec(rings)]
        for ring in group:
            assert list(annsum_counts(ring, cap=None)) == \
                [prob_annsum(ring, x, cap=None).hits for x in range(ring.size)]

    @pytest.mark.parametrize("rings", [
        "default corpus", "Z625", "M2(GF5)", "triv(4,3)", "corpus quotients"])
    def test_annsum_matches_pair_counts_at_every_target(self, rings):
        """pair_counts bins every product and shares nothing with the
        partition by aR that prob_annsum reads."""
        if rings == "default corpus":
            group = [ring for _, ring in default_corpus()]
        elif rings == "corpus quotients":
            group = [quotient_make(ring, members) for _, ring in default_corpus()
                     for members in _proper_principal_ideals(ring)]
        else:
            group = [parse_ring_spec(rings)]
        for ring in group:
            counts = pair_counts(ring, cap=None)
            assert [prob_annsum(ring, x, cap=None).hits for x in range(ring.size)] == list(counts)

    def test_zmod_counts_match_pure_integer_oracle(self):
        for n in range(2, 13):
            assert list(pair_counts(zmod(n))) == zn_pair_oracle(n)


class TestMemo:
    """structure_report, pair_counts and spectrum memoize on the ring
    instance."""

    def test_repeat_calls_return_the_memo(self):
        ring = zmod(64)
        assert structure_report(ring) is structure_report(ring)
        assert pair_counts(ring) is pair_counts(ring)

    def test_memo_is_per_instance(self):
        first, second = zmod(12), zmod(12)
        assert first == second
        assert pair_counts(first) == pair_counts(second)
        assert pair_counts(first) is not pair_counts(second)

    def test_spectrum_is_memoized(self):
        ring = zmod(72)
        assert spectrum(ring) is spectrum(ring)
        assert spectrum(ring) == spectrum(zmod(72))
        with pytest.raises(SizeCapExceeded):
            spectrum(ring, cap=64)          # the memo does not lift the cap

    def test_memo_does_not_keep_the_ring_alive(self):
        # Z62 is built nowhere else in the suite, so no equal ring can
        # stand in for this instance in a cache keyed by ring equality.
        ring = zmod(62)
        structure_report(ring)
        pair_counts(ring)
        spectrum(ring)
        ref = weakref.ref(ring)
        del ring
        gc.collect()
        assert ref() is None

    def test_class_memos_do_not_keep_the_ring_alive(self):
        # Z58 is built nowhere else in the suite either
        ring = zmod(58)
        prob_auto(ring, 2)
        prob_formula(ring, 4)
        prob_annsum(ring, 2)
        ref = weakref.ref(ring)
        del ring
        gc.collect()
        assert ref() is None


class TestClassMemo:
    """A ring keeps one closed-form result per class, one slot per element
    up to DEFAULT_SIZE_CAP elements, and one partition of R by aR, so a
    repeated query reads the memo."""

    @pytest.mark.parametrize("spec, first, second", [
        ("M2(GF4)", "[[1,0],[0,0]]", "[[0,1],[0,0]]"),
        ("chain(2,8)", "0,0,1", "0,0,1,1"),
        ("Z1000", "10", "30"),
        ("Z8 x GF8", "(2,1)", "(6,(0,1))"),
    ])
    def test_one_result_per_class(self, spec, first, second):
        ring = parse_ring_spec(spec)
        x, y = (parse_element(ring, e).index for e in (first, second))
        assert x != y
        assert prob_formula(ring, x) is prob_formula(ring, y) is prob_auto(ring, y)
        assert prob_formula(ring, x).value == prob_brute(ring, x)

    @pytest.mark.parametrize("spec, target", [
        ("M2(GF4)", "[[1,1],[0,1]]"),       # a unit, found by a rank elimination
        ("M3(GF2)", "#77"),
        ("Z1000", "10"),
        ("Z8 x GF8", "(2,1)"),
    ])
    def test_repeated_target_reads_its_slot(self, monkeypatch, spec, target):
        """A repeated target returns the first answer itself and works out
        no class: no _formula_class, no matrix_rank."""
        ring = parse_ring_spec(spec)
        x = parse_element(ring, target).index
        calls = []

        def counted(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: calls.append(name) or fn(*args))

        counted(closedform, "_formula_class")
        counted(closedform, "matrix_rank")
        counted(recipe, "matrix_rank")
        first = prob_auto(ring, x)
        assert "_formula_class" in calls
        calls.clear()
        assert prob_formula(ring, x) is first and prob_auto(ring, x) is first
        assert calls == []
        assert len(ring._formula_at) == ring.size
        assert first.value == prob_brute(ring, x)

    @pytest.mark.parametrize("n", [6000, 8192])
    def test_no_slots_above_the_size_cap(self, n):
        ring = zmod(n)
        for x in range(0, n, 7):
            assert prob_auto(ring, x, cap=None) is prob_formula(ring, x)
        assert ring._formula_at is None
        assert prob_formula(ring, 14) == prob_formula(zmod(n), 14)

    def test_slot_hit_keeps_the_checks(self):
        """A memo hit still refuses a ring above prob_auto's cap and an
        index outside the ring."""
        ring = zmod(72)
        result = prob_auto(ring, 6, cap=None)
        assert ring._formula_at[6] is result
        with pytest.raises(SizeCapExceeded):
            prob_auto(ring, 6, cap=64)
        with pytest.raises(ValidationError):
            prob_formula(ring, 72)
        assert prob_auto(ring, 6) is result

    def test_fallback_stores_nothing(self):
        ring = parse_ring_spec(f"table:{fixture_path()}")
        for _ in range(2):
            result = prob_auto(ring, 0)
            assert (result.formula, result.value) == ("annsum", prob_brute(ring, 0))
        assert ring._formula_at is None and ring._formulas == {}

    def test_partition_is_memoized(self):
        ring = zmod(64)
        prob_annsum(ring, 8)
        partition = ring._principal
        assert partition is not None
        assert prob_annsum(ring, 4) == prob_brute(ring, 4)
        assert annsum_counts(ring) == pair_counts(ring)
        assert ring._principal is partition

    def test_memo_stops_at_the_size_cap(self):
        """Z_n over the first 13 primes has 2^13 classes: 0 or a unit in
        each component.  One query per class keeps at most
        DEFAULT_SIZE_CAP results, and each answer is a fresh ring's."""
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
        n = prod(primes)
        ring = zmod(n)
        for mask in range(1 << len(primes)):
            zero = prod(p for i, p in enumerate(primes) if mask >> i & 1)
            x = zero * pow(zero, -1, n // zero) % n if zero < n else 0   # 0 mod zero, 1 mod the rest
            got, fresh = prob_formula(ring, x), prob_formula(zmod(n), x)
            assert (got, got.applicability) == (fresh, fresh.applicability)
        assert len(ring._formulas) == DEFAULT_SIZE_CAP

    def test_shared_results_are_read_only(self):
        result = prob_formula(parse_ring_spec("chain(2,8)"), 4)
        with pytest.raises(TypeError):
            result.applicability["layer"] = 3
        with pytest.raises(TypeError):
            del result.applicability["layer"]
        assert result.applicability["layer"] == 2
        assert "applicability={'local': True, " in repr(result)
        copied = pickle.loads(pickle.dumps(result))
        assert copied.applicability == result.applicability
        with pytest.raises(TypeError):
            copied.applicability["layer"] = 3


class TestNormalization:
    def test_every_pair_lands_somewhere(self):
        for _, ring in default_corpus():
            assert sum(pair_counts(ring, cap=None)) == ring.size ** 2


class TestSpectrum:
    def test_zmod4_classes(self):
        report = spectrum(zmod(4))
        by_label = {e.label: e for e in report.entries}
        assert by_label["zero"].prob == ProbFraction(8, 16)
        assert by_label["unit"].prob == ProbFraction(2, 16)
        assert by_label["unit"].class_size == 2
        assert by_label["J^1"].prob == ProbFraction(4, 16)

    def test_gf3_spectrum(self):
        report = spectrum(field_ring(3))
        probs = {e.label: e.prob for e in report.entries}
        assert probs["zero"] == ProbFraction(5, 9)
        assert probs["unit"] == ProbFraction(2, 9)
        # (2q-1)/q^2 and (q-1)/q^2 at q = 3
        assert probs["zero"] == ProbFraction(2 * 3 - 1, 9)

    def test_m2f2_rank_classes(self):
        report = spectrum(matrix_ring(2, 2))
        data = {e.label: (e.class_size, e.prob.hits) for e in report.entries}
        assert data == {"zero": (1, 58), "rank 1": (9, 18), "rank 2": (6, 6)}

    def test_labels_partition_ring(self):
        for _, ring in default_corpus():
            report = spectrum(ring, cap=None)
            assert sum(e.class_size for e in report.entries) == ring.size

    def test_representative_is_minimal(self):
        report = spectrum(zmod(12))
        for entry in report.entries:
            assert report.counts[entry.representative] == entry.prob.hits

    def test_product_ring_spectrum_multiplies(self):
        pr = product(zmod(2), zmod(4))
        counts = pair_counts(pr)
        c2, c4 = pair_counts(zmod(2)), pair_counts(zmod(4))
        for x in range(pr.size):
            a, b = pr.decode(x)
            assert counts[x] == c2[a] * c4[b]


class TestQuotientRings:
    """Quotient constructions feed the same engines as everything else."""

    def test_engines_agree_on_quotients(self):
        from ringprob.rings import matrix_ring, quotient_make

        quotients = [
            quotient_make(zmod(12), {0, 6}),
            quotient_make(zmod(27), {0, 9, 18}),
            quotient_make(matrix_ring(2, 2), {0}),
        ]
        for quot in quotients:
            assert pair_counts(quot) == annsum_counts(quot)
            for x in range(quot.size):
                assert prob_brute(quot, x) == prob_annsum(quot, x)

    def test_quotient_probabilities_match_isomorphic_ring(self):
        from ringprob.rings import quotient_make

        # Z12 / 6Z12 has the arithmetic of Z6 on representatives
        quot = quotient_make(zmod(12), {0, 6})
        assert list(pair_counts(quot)) == list(pair_counts(zmod(6)))
