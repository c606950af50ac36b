"""Units, zero-divisors, radical chain, locality, and their invariants."""

import hashlib
import random
from functools import lru_cache
from pathlib import Path

import pytest

from ringprob import cli, rings
from ringprob.corpus import TABLE_LABEL, default_corpus, fixture_path
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
    additive_closure,
    ideal_size_power_check,
    left_right_symmetry_check,
    principal_ideal_members,
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

# Rings the report is compared with its definitions on, and whose
# `structure` output is pinned.
ORACLE_SPECS = ([name for name, _ in default_corpus()] + RADICAL_EXTRA_SPECS
                + ["Z1024", "chain(2,9)", "triv(2,9)", "GR(2,3,3)"])

PINS = Path(__file__).resolve().parent / "data"


def _spec_text(spec):
    if spec == TABLE_LABEL:
        return f"table:{fixture_path()}"
    return spec.replace("<fixture>", fixture_path())


@lru_cache(maxsize=None)
def _oracle_ring(spec):
    return dict(default_corpus()).get(spec) or parse_ring_spec(_spec_text(spec))


def locality_by_definition(ring):
    """Oracle: (is_local, q, n) from the definitions.  R is local iff its
    non-units are closed under addition (then they form the one maximal
    ideal M); q is the order of R/M, which must be a field, and
    |R| = q^n."""
    unit_set = units(ring)
    nonunits = [x for x in range(ring.size) if x not in unit_set]
    for x in nonunits:
        row = ring.add_row(x)
        if not unit_set.isdisjoint([row[y] for y in nonunits]):
            return False, None, None
    residue = quotient_make(ring, nonunits)
    assert len(units(residue)) == residue.size - 1, "residue ring is not a field"
    q, n, m = residue.size, 0, ring.size
    while m > 1:
        m, rem = divmod(m, q)
        assert rem == 0
        n += 1
    return True, q, n


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


def right_ann(ring, a):
    """ann_r(a) = {y : ay = 0}: the zero positions of a's mul row."""
    return {y for y, v in enumerate(ring.mul_row(a)) if v == 0}


class TestAnnihilators:
    def test_zmod4(self):
        assert right_ann(zmod(4), 2) == {0, 2}

    def test_zero_annihilates_everything(self):
        for ring in (zmod(6), matrix_ring(2, 2)):
            assert right_ann(ring, 0) == set(range(ring.size))

    def test_unit_annihilator_trivial(self):
        for _, ring in default_corpus():
            for u in sorted(units(ring))[:3]:
                assert right_ann(ring, u) == {0}

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
        assert structure_report(zmod(12)).radical.members == {0, 6}

    def test_matrix_rings_semisimple(self):
        for k, q in [(1, 2), (2, 2), (2, 3)]:
            assert structure_report(matrix_ring(k, q)).radical.members == {0}

    def test_chain23(self):
        ring = chain_ring(2, 3)
        j = structure_report(ring).radical
        forms = {ring.decode(i) for i in j.members}
        assert forms == {(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)}

    def test_powers_zmod8(self):
        chain = structure_report(zmod(8)).radical_chain
        assert [sorted(i.members) for i in chain] == [[0, 2, 4, 6], [0, 4], [0]]

    def test_powers_trivial_extension(self):
        chain = structure_report(trivial_extension(2, 2)).radical_chain
        assert [i.size for i in chain] == [4, 1]

    def test_powers_field(self):
        chain = structure_report(field_ring(4)).radical_chain
        assert [sorted(i.members) for i in chain] == [[0]]

    def test_matches_nilradical_on_commutative_corpus(self):
        for _, ring in default_corpus():
            if ring.is_commutative():
                assert structure_report(ring).radical.members == nilradical(ring)

    def test_radical_of_residue_ring_is_zero(self):
        for _, ring in default_corpus():
            j = structure_report(ring).radical
            residue = quotient_make(ring, j.members)
            assert structure_report(residue).radical.members == {0}

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
            sizes = [i.size for i in structure_report(ring).radical_chain]
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

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_report_matches_definitions(self, spec):
        """The report reads locality, q and n off |U| + |J| = |R| and takes
        the zero-divisors to be the non-units; both must agree with the
        definitions they replace."""
        ring = _oracle_ring(spec)
        rep = structure_report(ring)
        assert (rep.is_local, rep.q, rep.n) == locality_by_definition(ring)
        assert rep.zero_divisors == zero_divisors(ring)

    def test_structure_output_is_pinned(self, capsys):
        """`structure` prints the same bytes as before the report derived
        Z, locality and q from U and J."""
        for spec in ORACLE_SPECS:
            assert cli.main(["structure", "--ring", _spec_text(spec)]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == len(ORACLE_SPECS)
        pinned = (PINS / "structure_oracle.sha256").read_text().split()[0]
        assert hashlib.sha256(out.encode()).hexdigest() == pinned

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

    def test_left_ideals_are_read_off_columns(self, monkeypatch):
        # Ra is the column of a; a column of 3 distinct values must fail
        ring = zmod(8)
        column = ring.mul_column
        monkeypatch.setattr(ring, "mul_column", lambda j: [0, 1, 2] if j == 5 else column(j))
        assert not ideal_size_power_check(ring)


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


def principal_ideal(ring, g):
    """RgR as a validated Ideal."""
    return Ideal(ring, principal_ideal_members(ring, g))


class TestPrincipalIdeals:
    def test_zmod12(self):
        assert principal_ideal(zmod(12), 4).members == {0, 4, 8}

    def test_simple_ring_has_no_proper_nonzero(self):
        m2 = matrix_ring(2, 2)
        for g in range(1, 16):
            assert principal_ideal(m2, g).size == 16

    def test_zero_generates_zero(self):
        for ring in (zmod(9), matrix_ring(2, 2)):
            assert principal_ideal(ring, 0).members == {0}

    def test_noncommutative_two_sidedness(self):
        # Upper-triangular ring, elements (a, b, c) packed as a*4 + b*2 + c.
        _, table = [m for m in default_corpus() if m[0].startswith("table:")][0]
        strictly_upper = principal_ideal(table, 2)   # [[0,1],[0,0]]
        assert strictly_upper.members == {0, 2}
        corner = principal_ideal(table, 4)           # [[1,0],[0,0]]
        assert corner.members == {0, 2, 4, 6}                  # absorbs E12 too
        assert corner.size < table.size


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
        ring = zmod(12)
        ideal = Ideal(ring, frozenset({0, 6}))
        assert ideal.size < ring.size and not ideal.is_zero


def validate_ideal_all_pairs(ring, members):
    """Oracle: the ideal axioms straight from the definition, every member
    against every member (addition) and every ring element (products)."""
    if not members:
        raise NotAnIdeal("ideal is empty")
    if 0 not in members:
        raise NotAnIdeal("ideal does not contain 0")
    if any(not 0 <= x < ring.size for x in members):
        raise NotAnIdeal("ideal contains out-of-range indices")
    if any(ring.add_index(x, y) not in members for x in members for y in members):
        raise NotAnIdeal("ideal is not closed under addition")
    everything = range(ring.size)
    if any(ring.mul_index(x, a) not in members for x in members for a in everything):
        raise NotAnIdeal("ideal is not closed under right multiplication")
    if any(ring.mul_index(a, x) not in members for a in everything for x in members):
        raise NotAnIdeal("ideal is not closed under left multiplication")


def subgroup_oracle(ring, generators):
    """Oracle: additive closure by adding one multiple of a generator at a
    time (no doubling)."""
    closure = {0}
    for g in sorted(set(generators)):
        grown, cur = set(closure), g
        while cur not in closure:
            grown.update(ring.add_index(s, cur) for s in closure)
            cur = ring.add_index(cur, g)
        closure = grown
    return frozenset(closure)


def _quotient_of_table_x_z4():
    # table x Z4 modulo 0 x 2Z4: a noncommutative ring that is one opaque digit
    ring = parse_ring_spec(f"table:{fixture_path()} x Z4")
    return quotient_make(ring, {0, 2})


NONCOMMUTATIVE = {
    "M2(GF2)": lambda: matrix_ring(2, 2),
    "table": lambda: parse_ring_spec(f"table:{fixture_path()}"),
    "table x Z3": lambda: parse_ring_spec(f"table:{fixture_path()} x Z3"),
    "Z2 x M2(GF2)": lambda: parse_ring_spec("Z2 x M2(GF2)"),
    "quotient": _quotient_of_table_x_z4,
}


def _outcome(check, ring, members):
    try:
        check(ring, members)
    except NotAnIdeal as exc:
        return str(exc)
    return "ideal"


def _one_sided(ring):
    """(left ideals Ra, right ideals aR) that are not two-sided, by the oracle."""
    n = ring.size
    left = {subgroup_oracle(ring, [ring.mul_index(b, a) for b in range(n)]) for a in range(n)}
    right = {subgroup_oracle(ring, [ring.mul_index(a, b) for b in range(n)]) for a in range(n)}
    return ([m for m in left if _outcome(validate_ideal_all_pairs, ring, m) != "ideal"],
            [m for m in right if _outcome(validate_ideal_all_pairs, ring, m) != "ideal"])


class TestFastIdealChecks:
    """validate_ideal checks products only against the additive generators,
    principal ideals read rows and columns, and quotients compare whole
    rows; each must agree with the definition."""

    @pytest.mark.parametrize("name", sorted(NONCOMMUTATIVE))
    def test_one_sided_ideals_rejected_with_same_message(self, name):
        ring = NONCOMMUTATIVE[name]()
        left, right = _one_sided(ring)
        assert left and right, "ring should have ideals that are only left or only right"
        for members in left + right:
            expected = _outcome(validate_ideal_all_pairs, ring, members)
            assert expected.startswith("ideal is not closed under")
            assert _outcome(rings.validate_ideal, ring, members) == expected
        assert {_outcome(validate_ideal_all_pairs, ring, m) for m in left} == {
            "ideal is not closed under right multiplication"}
        assert {_outcome(validate_ideal_all_pairs, ring, m) for m in right} == {
            "ideal is not closed under left multiplication"}

    @pytest.mark.parametrize("name", sorted(NONCOMMUTATIVE))
    def test_agrees_with_definition_on_seeded_sets(self, name):
        ring = NONCOMMUTATIVE[name]()
        rnd = random.Random(5)
        n = ring.size
        sets = [principal_ideal_members(ring, g) for g in range(n)]
        sets += [subgroup_oracle(ring, rnd.sample(range(n), 2)) for _ in range(40)]
        sets += [frozenset({0, *rnd.sample(range(1, n), 3)}) for _ in range(20)]
        sets += [frozenset(), frozenset({1}), frozenset({0, n})]
        outcomes = set()
        for members in sets:
            expected = _outcome(validate_ideal_all_pairs, ring, members)
            assert _outcome(rings.validate_ideal, ring, members) == expected, sorted(members)
            outcomes.add(expected)
        assert "ideal" in outcomes and "ideal is not closed under addition" in outcomes

    @pytest.mark.parametrize("name", sorted(NONCOMMUTATIVE))
    def test_quotient_checks_cosets_on_its_own(self, name, monkeypatch):
        """With validation switched off, the whole-row coset comparison
        alone must refuse every one-sided ideal and accept two-sided ones."""
        ring = NONCOMMUTATIVE[name]()
        left, right = _one_sided(ring)
        monkeypatch.setattr(rings, "validate_ideal", lambda ring, members: None)
        for members in left + right:
            with pytest.raises(NotAnIdeal, match="not well-defined on cosets"):
                quotient_make(ring, members)
        proper = {m for m in map(lambda g: principal_ideal_members(ring, g), range(ring.size))
                  if len(m) < ring.size}
        assert proper
        for members in proper:
            assert quotient_make(ring, members).size == ring.size // len(members)

    @pytest.mark.parametrize("name", sorted(NONCOMMUTATIVE) + ["M2(GF4)", "chain(2,3)"])
    def test_principal_ideal_is_closure_of_agb(self, name):
        ring = NONCOMMUTATIVE[name]() if name in NONCOMMUTATIVE else parse_ring_spec(name)
        n = ring.size
        for g in range(n):
            products = set()
            for a in range(n):
                products.update(ring.mul_row(ring.mul_index(a, g)))   # a*g*b, every b
            assert principal_ideal_members(ring, g) == subgroup_oracle(ring, products), g

    @pytest.mark.parametrize("spec, expected", [
        ("Z12", [1]),
        ("GF4", [1, 2]),
        ("M2(GF2)", [1, 2, 4, 8]),
        ("Z2 x Z4", [1, 4]),
        ("table x Z3", [1] + [3 * v for v in range(1, 8)]),
        ("Z2 x table", list(range(1, 8)) + [8]),
        ("quotient", list(range(1, 16))),
    ])
    def test_additive_generators(self, spec, expected):
        """One unit vector per cyclic digit and every value of an opaque
        digit, fastest digit first."""
        if spec in NONCOMMUTATIVE:
            ring = NONCOMMUTATIVE[spec]()
        else:
            ring = parse_ring_spec(spec.replace("table", f"table:{fixture_path()}"))
        assert ring.additive_generators() == expected

    @pytest.mark.parametrize("name, ring", default_corpus())
    def test_generators_and_closure_span_the_ring(self, name, ring):
        assert additive_closure(ring, ring.additive_generators()) == frozenset(range(ring.size))
        rnd = random.Random(name)
        for _ in range(10):
            gens = rnd.sample(range(ring.size), min(3, ring.size))
            assert additive_closure(ring, gens) == subgroup_oracle(ring, gens)
