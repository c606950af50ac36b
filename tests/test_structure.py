"""Units, zero-divisors, radical chain, locality, and their invariants."""

import pytest

from ringprob.corpus import default_corpus, fixture_path
from ringprob.errors import NotAnIdeal, NotLocal
from ringprob.rings import (
    chain_ring,
    field_ring,
    galois_ring,
    matrix_ring,
    quotient_make,
    trivial_extension,
    zmod,
)
from ringprob.specparse import parse_ring_spec
from ringprob.structure import (
    Ideal,
    _radical_members,
    ideal_size_power_check,
    jacobson_radical,
    left_right_symmetry_check,
    principal_two_sided_ideal,
    radical_powers,
    right_annihilator,
    structure_report,
    unit_plus_radical_check,
    units,
    zero_divisors,
)


def nilradical(ring):
    """Oracle for commutative rings: elements with some power equal to 0."""
    out = set()
    for x in range(ring.size):
        power = x
        for _ in range(ring.size):
            if power == 0:
                out.add(x)
                break
            power = ring.mul_index(power, x)
    return frozenset(out)


def radical_by_unit_shifts(ring):
    """Oracle for any finite ring: the definition J = {x : 1 - ax is a unit
    for every a}, checked pair by pair through mul_index and add_index."""
    unit_set = units(ring)
    one = ring.one_index
    return frozenset(
        x for x in range(ring.size)
        if x not in unit_set and all(
            ring.add_index(one, ring.neg_index(ring.mul_index(a, x))) in unit_set
            for a in range(ring.size)))


RADICAL_EXTRA_SPECS = ["GR(3,2,2)", "chain(4,3)", "M2(GF5)", "triv(4,2)", "Z360",
                       "Z8 x GF8", "table:<fixture> x Z3", "Z4 x Z4 x Z2"]


class TestUnits:
    def test_zmod4(self):
        assert units(zmod(4)) == {1, 3}

    def test_m2f2_is_gl2(self):
        m2 = matrix_ring(2, 2)
        u = units(m2)
        assert len(u) == (4 - 1) * (4 - 2)  # |GL_2(F_2)|
        # rank scan cross-check: units are exactly the full-rank matrices
        from ringprob.closedform import matrix_rank
        full_rank = {i for i in range(16) if matrix_rank(m2.element(i)) == 2}
        assert u == full_rank

    def test_field_units(self):
        for q in (2, 3, 4, 9):
            ring = field_ring(q)
            assert units(ring) == frozenset(range(1, q))

    def test_units_closed_under_product_and_inverse(self):
        for _, ring in default_corpus():
            u = units(ring)
            inverses = set()
            for x in u:
                row = ring.mul_row(x)
                assert all(row[y] in u for y in u)
                inverses.add(row.index(ring.one_index))
            assert inverses <= u


class TestZeroDivisors:
    def test_zmod6(self):
        assert zero_divisors(zmod(6)) == {0, 2, 3, 4}

    def test_field(self):
        for q in (2, 4, 9):
            assert zero_divisors(field_ring(q)) == {0}

    def test_zmod4(self):
        assert zero_divisors(zmod(4)) == {0, 2}

    def test_partition_with_units(self):
        for _, ring in default_corpus():
            u = units(ring)
            z = zero_divisors(ring)
            assert u | z == frozenset(range(ring.size))
            assert not (u & z)


class TestAnnihilators:
    def test_zmod4(self):
        assert right_annihilator(zmod(4).element(2)) == {0, 2}

    def test_zero_annihilates_everything(self):
        for ring in (zmod(6), matrix_ring(2, 2)):
            assert right_annihilator(ring.element(0)) == frozenset(range(ring.size))

    def test_unit_annihilator_trivial(self):
        for _, ring in default_corpus():
            for u in sorted(units(ring))[:3]:
                assert right_annihilator(ring.element(u)) == {0}

    def test_annihilator_size_divides_ring_order(self):
        for _, ring in default_corpus():
            for a in range(ring.size):
                size = ring.mul_row(a).count(0)
                assert ring.size % size == 0

    def test_unit_iff_trivial_annihilator(self):
        for _, ring in default_corpus():
            u = units(ring)
            for a in range(ring.size):
                trivial = ring.mul_row(a).count(0) == 1
                assert trivial == (a in u)


class TestSymmetry:
    @pytest.mark.parametrize("n", [4, 6, 8, 12, 30])
    def test_zmod(self, n):
        assert left_right_symmetry_check(zmod(n))

    def test_matrix(self):
        assert left_right_symmetry_check(matrix_ring(2, 2))

    def test_whole_corpus(self):
        for _, ring in default_corpus():
            assert left_right_symmetry_check(ring)


class TestRadical:
    def test_zmod12(self):
        assert jacobson_radical(zmod(12)).members == {0, 6}

    def test_matrix_rings_semisimple(self):
        for k, q in [(1, 2), (2, 2), (2, 3)]:
            assert jacobson_radical(matrix_ring(k, q)).members == {0}

    def test_chain23(self):
        ring = chain_ring(2, 3)
        j = jacobson_radical(ring)
        forms = {ring.decode(i) for i in j.members}
        assert forms == {(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)}

    def test_powers_zmod8(self):
        chain = radical_powers(zmod(8))
        assert [i.sorted_members() for i in chain] == [[0, 2, 4, 6], [0, 4], [0]]

    def test_powers_trivial_extension(self):
        chain = radical_powers(trivial_extension(2, 2))
        assert [i.size for i in chain] == [4, 1]

    def test_powers_field(self):
        assert [i.sorted_members() for i in radical_powers(field_ring(4))] == [[0]]

    def test_matches_nilradical_on_commutative_corpus(self):
        for _, ring in default_corpus():
            if ring.is_commutative():
                assert jacobson_radical(ring).members == nilradical(ring)

    def test_radical_of_residue_ring_is_zero(self):
        for _, ring in default_corpus():
            j = jacobson_radical(ring)
            residue = quotient_make(ring, j.members)
            assert jacobson_radical(residue).members == {0}

    @pytest.mark.parametrize("spec", [name for name, _ in default_corpus()]
                             + RADICAL_EXTRA_SPECS)
    def test_nil_right_ideal_definition_matches_unit_shifts(self, spec):
        """J computed as {x : xR is nil} from the mul rows equals the
        definition through units, on every ring and on its residue ring."""
        ring = dict(default_corpus()).get(spec) or parse_ring_spec(
            spec.replace("<fixture>", fixture_path()))
        j = _radical_members(ring)
        assert j == radical_by_unit_shifts(ring)
        if len(j) > 1:
            residue = quotient_make(ring, j)
            assert _radical_members(residue) == radical_by_unit_shifts(residue) == {0}

    def test_chain_strictly_decreases(self):
        for _, ring in default_corpus():
            sizes = [i.size for i in radical_powers(ring)]
            assert sizes == sorted(sizes, reverse=True)
            assert len(set(sizes)) == len(sizes)


class TestClassification:
    def test_zmod9(self):
        rep = structure_report(zmod(9))
        assert (rep.is_local, rep.q, rep.n) == (True, 3, 2)
        assert rep.is_max_chain and rep.is_j2_zero

    def test_galois_ring(self):
        rep = structure_report(galois_ring(2, 2, 2))
        assert (rep.is_local, rep.q, rep.n) == (True, 4, 2)
        assert rep.is_max_chain

    def test_zmod6_not_local(self):
        rep = structure_report(zmod(6))
        assert not rep.is_local
        assert rep.q is None and rep.n is None

    def test_local_zero_divisors_equal_radical(self):
        for _, ring in default_corpus():
            rep = structure_report(ring)
            if rep.is_local:
                assert rep.zero_divisors == rep.radical.members
                assert rep.radical.size == rep.q ** (rep.n - 1)

    def test_nilpotency_at_most_n(self):
        for _, ring in default_corpus():
            rep = structure_report(ring)
            if rep.is_local:
                assert rep.nilpotency_index <= rep.n

    def test_radical_layers_zmod8(self):
        rep = structure_report(zmod(8))
        assert [rep.radical_layer(x) for x in range(1, 8)] == [0, 1, 0, 2, 0, 1, 0]
        with pytest.raises(ValueError):
            rep.radical_layer(0)


class TestIdealSizePowers:
    def test_zmod8(self):
        assert ideal_size_power_check(zmod(8))

    def test_chain32_principal_ideal_sizes(self):
        ring = chain_ring(3, 2)
        sizes = {len(set(ring.mul_row(a))) for a in range(ring.size)}
        assert sizes == {1, 3, 9}
        assert ideal_size_power_check(ring)

    def test_triv22_annihilator_sizes(self):
        ring = trivial_extension(2, 2)
        sizes = {ring.mul_row(a).count(0) for a in range(ring.size)}
        assert sizes == {1, 4, 8}
        assert ideal_size_power_check(ring)

    def test_not_local_rejected(self):
        with pytest.raises(NotLocal):
            ideal_size_power_check(zmod(6))


class TestUnitPlusRadical:
    def test_zmod4_exhaustive(self):
        z4 = zmod(4)
        assert z4.add_index(1, 2) == 3 and z4.add_index(3, 2) == 1
        assert unit_plus_radical_check(z4)

    def test_matrix_vacuous(self):
        assert unit_plus_radical_check(matrix_ring(2, 2))

    def test_chain23(self):
        assert unit_plus_radical_check(chain_ring(2, 3))

    def test_whole_corpus(self):
        for _, ring in default_corpus():
            assert unit_plus_radical_check(ring)


class TestPrincipalIdeals:
    def test_zmod12(self):
        assert principal_two_sided_ideal(zmod(12), 4).members == {0, 4, 8}

    def test_simple_ring_has_no_proper_nonzero(self):
        m2 = matrix_ring(2, 2)
        for g in range(1, 16):
            assert principal_two_sided_ideal(m2, g).size == 16

    def test_zero_generates_zero(self):
        for ring in (zmod(9), matrix_ring(2, 2)):
            assert principal_two_sided_ideal(ring, 0).members == {0}

    def test_noncommutative_two_sidedness(self):
        # Upper-triangular ring, elements (a, b, c) packed as a*4 + b*2 + c.
        _, table = [m for m in default_corpus() if m[0].startswith("table:")][0]
        strictly_upper = principal_two_sided_ideal(table, 2)   # [[0,1],[0,0]]
        assert strictly_upper.members == {0, 2}
        corner = principal_two_sided_ideal(table, 4)           # [[1,0],[0,0]]
        assert corner.members == {0, 2, 4, 6}                  # absorbs E12 too
        assert corner.is_proper


class TestIdealValidation:
    def test_rejects_additively_open_set(self):
        with pytest.raises(NotAnIdeal):
            Ideal(zmod(9), frozenset({0, 3}) | {1})

    def test_rejects_multiplicatively_open_set(self):
        # {0, E11} is an additive subgroup of M_2(F_2) but E11*E12 = E12
        # escapes it, so the absorption check must fire.
        m2 = matrix_ring(2, 2)
        e11 = m2.encode(((1, 0), (0, 0)))
        with pytest.raises(NotAnIdeal):
            Ideal(m2, frozenset({0, e11}))

    def test_accepts_radical(self):
        ideal = Ideal(zmod(12), frozenset({0, 6}))
        assert ideal.is_proper and not ideal.is_zero
