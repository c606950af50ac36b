"""Ring constructions: indexing, arithmetic, axioms, quotients, tables.

Run as a script (PYTHONPATH=src python tests/test_rings.py) to print the
table pins that TestTablePins checks, in the format of
tests/data/tables.sha256.
"""

import hashlib
import json
import random
from array import array
from pathlib import Path

import pytest

from ringprob import rings
from ringprob.corpus import default_corpus, fixture_path, upper_triangular_tables
from ringprob.errors import (
    EnumerationLimitExceeded,
    ImproperIdeal,
    NotAnIdeal,
    SizeCapExceeded,
    ValidationError,
)
from ringprob.probability import pair_counts
from ringprob.rings import (
    DEFAULT_SIZE_CAP,
    MatrixRing,
    PolyQuotientRing,
    ProductRing,
    TableRing,
    TrivialExtensionRing,
    ZModRing,
    chain_ring,
    field_ring,
    galois_ring,
    matrix_ring,
    product,
    quotient_make,
    trivial_extension,
    zmod,
)
from ringprob.specparse import parse_ring_spec
from ringprob.structure import principal_ideal_members, structure_report
from ringprob.verify import _proper_principal_ideals
from test_finfield import field_oracle
from test_structure import NONCOMMUTATIVE, _one_sided, _outcome, validate_ideal_all_pairs


class TestSizes:
    def test_zmod(self):
        assert zmod(12).size == 12

    def test_matrix(self):
        assert matrix_ring(2, 2).size == 16

    def test_product(self):
        assert product(zmod(2), matrix_ring(2, 2)).size == 32

    def test_quotient(self):
        assert quotient_make(zmod(12), {0, 6}).size == 6

    def test_chain_and_galois(self):
        assert chain_ring(3, 3).size == 27
        assert galois_ring(2, 2, 2).size == 16

    def test_size_matches_enumeration(self):
        for _, ring in default_corpus():
            rings.check_size_cap(ring)
            assert len({ring.decode(i) for i in range(ring.size)}) == ring.size


class TestArithmetic:
    def test_zmod_product(self):
        z4 = zmod(4)
        assert z4.mul_index(2, 3) == 2

    def test_matrix_square(self):
        # [[1,1],[0,1]]^2 over F_2, multiplied out by hand: entries
        # (1*1, 1*1+1*1, 0, 1*1) -> identity.
        m2 = matrix_ring(2, 2)
        a = m2.encode(((1, 1), (0, 1)))
        assert m2.decode(m2.mul_index(a, a)) == ((1, 0), (0, 1))

    def test_trivial_extension_square_zero(self):
        tv = trivial_extension(2, 1)
        u = tv.encode((0, (1,)))
        assert tv.mul_index(u, u) == 0

    def test_neg_and_sub(self):
        z5 = zmod(5)
        assert z5.neg_index(2) == 3
        assert z5.add_index(1, z5.neg_index(3)) == 3


def matrix_product_oracle(ring, i, j):
    """Oracle: decode both operands into row tuples, multiply entry by entry
    with the polynomial field operations, and encode the result."""
    (add, mul, _), k = field_oracle(ring.q), ring.k
    a, b = ring.decode(i), ring.decode(j)
    out = []
    for r in range(k):
        row = []
        for c in range(k):
            s = 0
            for t in range(k):
                s = add(s, mul(a[r][t], b[t][c]))
            row.append(s)
        out.append(tuple(row))
    return ring.encode(tuple(out))


class TestMatrixProduct:
    """_mul against the textbook product.  Ring axioms and probability pins
    cannot see a transposed product, since M_k(F)^op is isomorphic to
    M_k(F) and gives the same counts."""

    @pytest.mark.parametrize("spec", ["M1(GF2)", "M2(GF2)", "M2(GF3)", "M2(GF4)"])
    def test_every_pair(self, spec):
        ring = parse_ring_spec(spec)
        for i in range(ring.size):
            assert [ring._mul(i, j) for j in range(ring.size)] == [
                matrix_product_oracle(ring, i, j) for j in range(ring.size)]

    # M2(GF729) lies above DEFAULT_SIZE_CAP, so its products use the
    # per-call field operations; M2(GF8) the field tables; GF(2), GF(5)
    # integers
    @pytest.mark.parametrize("spec", ["M3(GF2)", "M2(GF5)", "M2(GF8)", "M2(GF729)"])
    def test_seeded_pairs(self, spec):
        ring = parse_ring_spec(spec, None)
        rng = random.Random(spec)
        for _ in range(1000):
            i, j = rng.randrange(ring.size), rng.randrange(ring.size)
            assert ring._mul(i, j) == matrix_product_oracle(ring, i, j)

    def test_not_transposed(self):
        # E_01 * E_10 = E_00 while E_10 * E_01 = E_11
        m2 = matrix_ring(2, 3)
        e01, e10 = m2.encode(((0, 1), (0, 0))), m2.encode(((0, 0), (1, 0)))
        assert m2.decode(m2._mul(e01, e10)) == ((1, 0), (0, 0))
        assert m2.decode(m2._mul(e10, e01)) == ((0, 0), (0, 1))


class TestEnumerationOrder:
    def test_zmod_order(self):
        z3 = zmod(3)
        assert [z3.element(i).form for i in range(z3.size)] == [0, 1, 2]

    def test_product_last_coordinate_fastest(self):
        pr = product(zmod(2), zmod(2))
        assert [pr.decode(i) for i in range(pr.size)] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_quotient_cosets(self):
        q = quotient_make(zmod(4), {0, 2})
        assert [q.decode(i) for i in range(q.size)] == [(0, 2), (1, 3)]
        assert [min(q.decode(i)) for i in range(q.size)] == [0, 1]

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            rings.check_size_cap(zmod(100), cap=50)
        rings.check_size_cap(zmod(100), cap=None)
        assert zmod(100).size == 100

    def test_enumeration_limit_is_not_lifted(self):
        limit = rings.ENUMERATION_LIMIT
        rings.check_size_cap(zmod(limit), cap=None)
        for cap in (None, DEFAULT_SIZE_CAP, 10 ** 9):
            with pytest.raises(EnumerationLimitExceeded):
                rings.check_size_cap(zmod(limit + 1), cap)

    def test_refusal_past_int_str_limit_names_a_power_of_two(self):
        # |M120(GF2)| = 2^14400 has more decimal digits than str() converts;
        # parse_ring_spec refuses such a spec before building it, a library
        # call does not
        with pytest.raises(EnumerationLimitExceeded, match=(
                r"^ring has at least 2\^14400 elements, above the enumeration limit of 65536,")):
            rings.check_size_cap(matrix_ring(120, 2), None)


class TestCanonicalIndexing:
    def test_encode_decode_bijection(self):
        for _, ring in default_corpus():
            for i in range(ring.size):
                assert ring.encode(ring.decode(i)) == i

    def test_zero_and_one(self):
        for _, ring in default_corpus():
            one = ring.one_index
            for i in range(ring.size):
                assert ring.add_index(0, i) == i
                assert ring.mul_index(one, i) == i
                assert ring.mul_index(i, one) == i
                assert ring.add_index(i, ring.neg_index(i)) == 0


class TestFieldsArePolynomialQuotients:
    """GF(p^r) is Z_p[t]/(f), the Galois ring GR(p, 1, r)."""

    @pytest.mark.parametrize("p, r", [(2, 1), (2, 3), (3, 2), (5, 1), (7, 2)])
    def test_field_equals_galois_ring_of_length_one(self, p, r):
        gf, gr = field_ring(p ** r), galois_ring(p, 1, r)
        assert gf == gr and hash(gf) == hash(gr)
        assert (gf.describe(), gr.describe()) == (f"GF{p ** r}", f"GR({p},1,{r})")
        assert [gf.mul_row(i) for i in range(gf.size)] == [gr.mul_row(i) for i in range(gr.size)]

    def test_prime_field_is_not_zmod_but_indexes_by_residue(self):
        gf5, z5 = field_ring(5), zmod(5)
        assert gf5 != z5
        assert [gf5.mul_row(i) for i in range(5)] == [z5.mul_row(i) for i in range(5)]
        assert [gf5.add_row(i) for i in range(5)] == [z5.add_row(i) for i in range(5)]

    def test_rings_over_a_field_embed_its_key(self):
        assert matrix_ring(2, 4).key() == ("matrix", 2, field_ring(4).key())
        assert trivial_extension(9, 2).key() == ("triv", field_ring(9).key(), 2)
        assert matrix_ring(2, 4) != matrix_ring(2, 2) and matrix_ring(1, 4) != field_ring(4)


class TestRingAxioms:
    """Exhaustive triples up to 256 elements, seeded random triples above."""

    @pytest.mark.parametrize("name", [n for n, _ in default_corpus()])
    def test_associativity_and_distributivity(self, name):
        ring = dict(default_corpus())[name]
        n = ring.size
        if n <= 256:
            triples = ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
        else:
            rnd = random.Random(12345)
            triples = ((rnd.randrange(n), rnd.randrange(n), rnd.randrange(n))
                       for _ in range(100_000))
        mul, add = ring.mul_index, ring.add_index
        for a, b, c in triples:
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))

    def test_addition_commutes(self):
        for _, ring in default_corpus():
            n = ring.size
            for a in range(n):
                row = ring.add_row(a)
                for b in range(a + 1, n):
                    assert row[b] == ring.add_index(b, a)


class TestProductRing:
    def test_componentwise_multiplication(self):
        pr = product(zmod(2), zmod(4))
        for i in range(pr.size):
            for j in range(pr.size):
                (a1, a2), (b1, b2) = pr.decode(i), pr.decode(j)
                assert pr.decode(pr.mul_index(i, j)) == ((a1 * b1) % 2, (a2 * b2) % 4)

    def test_needs_two_factors(self):
        with pytest.raises(ValidationError):
            ProductRing([zmod(2)])


class TestQuotients:
    def test_z4_mod_two_is_z2(self):
        q = quotient_make(zmod(4), {0, 2})
        assert q.size == 2
        assert q.add_index(1, 1) == 0

    def test_z6_mod_three_matches_z3(self):
        q = quotient_make(zmod(6), {0, 3})
        z3 = zmod(3)
        assert q.size == 3
        # representatives are 0,1,2, so tables must agree entrywise
        for i in range(3):
            for j in range(3):
                assert q.add_index(i, j) == z3.add_index(i, j)
                assert q.mul_index(i, j) == z3.mul_index(i, j)

    def test_quotient_by_zero_ideal_is_identity(self):
        for ring in (zmod(9), chain_ring(2, 2)):
            q = quotient_make(ring, {0})
            assert q.size == ring.size
            for i in range(ring.size):
                for j in range(ring.size):
                    assert q.mul_index(i, j) == ring.mul_index(i, j)
                    assert q.add_index(i, j) == ring.add_index(i, j)

    def test_rejects_non_ideal(self):
        with pytest.raises(NotAnIdeal):
            quotient_make(zmod(4), {0, 1})
        with pytest.raises(NotAnIdeal):
            quotient_make(zmod(4), {0, 3})

    def test_rejects_improper_ideal(self):
        with pytest.raises(ImproperIdeal):
            quotient_make(zmod(4), {0, 1, 2, 3})

    @staticmethod
    def _nested_ideal_pairs(ring):
        distinct = {principal_ideal_members(ring, g) for g in range(ring.size)}
        proper = [m for m in distinct if len(m) < ring.size]
        return [(a, b) for a in proper for b in proper if a < b and a <= b]

    def test_quotient_of_quotient(self):
        # (R/I)/(K/I) must match R/K through the canonical coset bijection.
        cases = [
            (zmod(12), {0, 6}, {0, 3, 6, 9}),
            (zmod(12), {0, 6}, {0, 2, 4, 6, 8, 10}),
            (zmod(8), {0, 4}, {0, 2, 4, 6}),
            (chain_ring(2, 3), {0, 4}, {0, 2, 4, 6}),
        ]
        for _, ring in default_corpus():
            if ring.size <= 64:
                cases.extend((ring, inner, outer)
                             for inner, outer in self._nested_ideal_pairs(ring))
        for ring, inner, outer in cases:
            q1 = quotient_make(ring, inner)
            image = {q1.coset_index_of(x) for x in outer}
            q2 = quotient_make(q1, image)
            direct = quotient_make(ring, outer)
            assert q2.size == direct.size
            # map a direct coset to the nested one through representatives
            to_nested = {
                i: q2.coset_index_of(q1.coset_index_of(min(direct.decode(i))))
                for i in range(direct.size)
            }
            assert sorted(to_nested.values()) == list(range(q2.size))
            for i in range(direct.size):
                for j in range(direct.size):
                    assert to_nested[direct.mul_index(i, j)] == \
                        q2.mul_index(to_nested[i], to_nested[j])
                    assert to_nested[direct.add_index(i, j)] == \
                        q2.add_index(to_nested[i], to_nested[j])

    def test_pair_counts_are_coset_sums(self):
        # #{(a, b) : ab in x + I} = |I|^2 * hits_{R/I}(x + I), so the
        # quotient's pair counts are coset sums of the parent's counts.
        for _, ring in default_corpus():
            counts = pair_counts(ring, cap=None)
            for members in _proper_principal_ideals(ring):
                quot = quotient_make(ring, members)
                sums = [0] * quot.size
                for y, c in enumerate(counts):
                    sums[quot.coset_index_of(y)] += c
                assert [len(members) ** 2 * c for c in pair_counts(quot, cap=None)] == sums

    @pytest.mark.parametrize("parent_first", [True, False])
    def test_quotient_by_zero_shares_pair_counts(self, parent_first):
        # R/{0} has R's indices and products: one count, by either's first call
        ring = matrix_ring(2, 3)
        quot = quotient_make(ring, {0})
        first, second = (ring, quot) if parent_first else (quot, ring)
        counts = pair_counts(first)
        assert pair_counts(second) is counts
        assert sum(counts) == ring.size ** 2

    def test_mul_rows_from_coset_check_add_rows_on_demand(self):
        """Each corpus quotient holds its mul rows from construction;
        pair_counts reads only them, and the add rows and negation list
        built later match the parent's rows read through the cosets."""
        quotients = 0
        for _, ring in default_corpus():
            n = ring.size
            for members in _proper_principal_ideals(ring):
                quot = quotient_make(ring, members)
                pair_counts(quot, cap=None)
                assert quot._mul_rows is not None
                assert quot._add_rows is None and quot._neg_list is None
                # oracle: each coset named by its minimal member, numbered in order
                rep_of = [min(ring.add_row(x)[m] for m in members) for x in range(n)]
                reps = sorted(set(rep_of))
                coset = [reps.index(r) for r in rep_of]
                for i, rep in enumerate(reps):
                    assert list(quot.add_row(i)) == [coset[ring.add_index(rep, r)] for r in reps]
                    assert list(quot.mul_row(i)) == [coset[ring.mul_index(rep, r)] for r in reps]
                    assert quot.neg_index(i) == coset[ring.neg_index(rep)]
                    form = quot.decode(i)
                    assert min(form) == rep
                    assert form == tuple(x for x in range(n) if rep_of[x] == rep)
                    assert quot.encode(form) == i
                assert [quot.coset_index_of(x) for x in range(n)] == coset
                quotients += 1
        assert quotients == 71

    def test_zero_ideal_quotient_is_its_parent(self):
        """R/{0} maps each element to itself and shares its parent's mul
        rows, on every verify-pool ring."""
        for _, ring in pool_rings():
            n = ring.size
            quot = quotient_make(ring, {0})
            assert [quot.coset_index_of(x) for x in range(n)] == list(range(n))
            assert all(quot.mul_row(i) is ring.mul_row(i) for i in range(n))
            assert pair_counts(quot, cap=None) == pair_counts(ring, cap=None)

    def test_construction_gathers_each_parent_row_once(self, monkeypatch):
        """Building a quotient reads each parent mul row once, plus one
        row per additive generator for validate_ideal."""
        for _, ring in default_corpus():
            for members in _proper_principal_ideals(ring):
                reads = []
                monkeypatch.setattr(ring, "mul_row", lambda i, row=ring.mul_row: reads.append(i) or row(i))
                quotient_make(ring, members)
                monkeypatch.undo()
                assert len(reads) == ring.size + len(ring.additive_generators())

    @pytest.mark.parametrize("name", sorted(NONCOMMUTATIVE))
    def test_one_sided_ideals_refused(self, name):
        ring = NONCOMMUTATIVE[name]()
        left, right = _one_sided(ring)
        for members in left + right:
            with pytest.raises(NotAnIdeal) as refused:
                quotient_make(ring, members)
            assert str(refused.value) == _outcome(validate_ideal_all_pairs, ring, members)


class TestTableRing:
    def test_fixture_construction_loads(self):
        payload = upper_triangular_tables()
        ring = TableRing(payload["add"], payload["mul"], payload["one"])
        assert ring.size == 8
        assert not ring.is_commutative()

    def test_rejects_trivial_ring(self):
        with pytest.raises(ValidationError):
            TableRing([[0]], [[0]], 0)
        with pytest.raises(ValidationError):
            zmod(1)

    def test_rejects_non_associative_multiplication(self):
        # Z_4 addition with a doctored product table.
        add = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        mul = [[(i * j) % 4 for j in range(4)] for i in range(4)]
        mul[3][3] = 2  # breaks 3*(3*3) = (3*3)*3
        with pytest.raises(ValidationError):
            TableRing(add, mul, 1)

    def test_rejects_bad_identity(self):
        add = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        mul = [[(i * j) % 4 for j in range(4)] for i in range(4)]
        with pytest.raises(ValidationError):
            TableRing(add, mul, 2)

    def test_rejects_broken_zero(self):
        add = [[(i + j + 1) % 3 for j in range(3)] for i in range(3)]
        mul = [[(i * j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(ValidationError):
            TableRing(add, mul, 1)


def cyclic_tables(n):
    """The add and mul tables of Z_n."""
    return ([[(i + j) % n for j in range(n)] for i in range(n)],
            [[i * j % n for j in range(n)] for i in range(n)])


def ring_tables(ring):
    """A ring's add and mul rows, as lists."""
    return ([list(ring.add_row(i)) for i in range(ring.size)],
            [list(ring.mul_row(i)) for i in range(ring.size)])


def maps_near_ring(opposite):
    """The zero-fixing maps of Z_3, added pointwise, with fg the composition
    f(g(x)): associative, with the identity map as 1 and the zero map as 0.
    (f+g)h = fh+gh always holds, and f(g+h) = fg+fh fails for a map f that
    is not additive; the opposite product breaks only the other law.  The
    map with values f(1), f(2) has index 3 f(1) + f(2)."""
    maps = [(0, a, b) for a in range(3) for b in range(3)]
    index = {f: 3 * f[1] + f[2] for f in maps}
    add = [[index[tuple((x + y) % 3 for x, y in zip(f, g))] for g in maps] for f in maps]
    compose = [[index[tuple(f[x] for x in g)] for g in maps] for f in maps]
    mul = [list(col) for col in zip(*compose)] if opposite else compose
    return add, mul, index[(0, 1, 2)]


# The permutations of {0, 1, 2} under composition, identity first: S_3 is
# a group that does not commute.
S3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]

# A commutative loop of order 6 (identity 0, each row a permutation) that is
# not associative: (2+2)+4 = 3 but 2+(2+4) = 2.
COMMUTATIVE_LOOP = [
    [0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3],
]


def audit_case(defect):
    """(add, mul, one) whose one defect is named by the refusal it draws."""
    add, mul = cyclic_tables(4)
    if defect == "table ring must have at least 2 elements":
        return [[0]], [[0]], 0
    if defect == "table ring capped at 256 elements, got 257":
        return [[0]] * 257, [[0]] * 257, 1
    if defect == "add table is not 4x4":
        add[2] = add[2][:3]
    elif defect == "mul table is not 4x4":
        mul = mul[:3]
    elif defect == "add table entry out of range":
        add[3][3] = 4
    elif defect == "mul table entry out of range":
        mul[2][3] = -1
    elif defect == "designated identity index out of range":
        return add, mul, 4
    elif defect == "element 0 is not the additive identity":
        # Z_4 relabelled by x -> x + 1: the identity is element 3
        add = [[(i + j + 1) % 4 for j in range(4)] for i in range(4)]
    elif defect == "addition is not commutative":
        add = [[S3.index(tuple(f[x] for x in g)) for g in S3] for f in S3]
        mul = cyclic_tables(6)[1]
    elif defect == "some element has no additive inverse":
        add[2][2] = 2       # row 2 is then 2, 3, 2, 1
    elif defect == "addition is not associative":
        add, mul = COMMUTATIVE_LOOP, cyclic_tables(6)[1]
    elif defect == "designated 1 is not a two-sided identity":
        return add, mul, 2
    elif defect == "0 does not annihilate under multiplication":
        mul[0][2] = 1
    elif defect == "multiplication is not associative":
        # (Z_2)^3 with basis 1 = 1, x = 2, y = 4 and the bilinear product
        # xx = y, xy = yy = 0, yx = x: (xx)x = x but x(xx) = 0
        basis = {(1, 1): 1, (1, 2): 2, (1, 4): 4, (2, 1): 2, (4, 1): 4,
                 (2, 2): 4, (2, 4): 0, (4, 4): 0, (4, 2): 2}
        add = [[i ^ j for j in range(8)] for i in range(8)]
        mul = [[0] * 8 for _ in range(8)]
        for i in range(8):
            for j in range(8):
                for (a, b), c in basis.items():
                    if i & a and j & b:
                        mul[i][j] ^= c
    elif defect == "left distributivity fails":
        return maps_near_ring(opposite=False)
    elif defect == "right distributivity fails":
        return maps_near_ring(opposite=True)
    return add, mul, 1


AUDIT_MESSAGES = [
    "table ring must have at least 2 elements",
    "table ring capped at 256 elements, got 257",
    "add table is not 4x4",
    "mul table is not 4x4",
    "add table entry out of range",
    "mul table entry out of range",
    "designated identity index out of range",
    "element 0 is not the additive identity",
    "addition is not commutative",
    "some element has no additive inverse",
    "addition is not associative",
    "designated 1 is not a two-sided identity",
    "0 does not annihilate under multiplication",
    "multiplication is not associative",
    "left distributivity fails",
    "right distributivity fails",
]


def is_ring_by_triples(add, mul, one):
    """Oracle: the ring axioms at every triple, O(n^3) lookups, each row
    compared whole: + is an abelian group with identity 0, * is associative
    with identity one, and * distributes over + on both sides."""
    n = len(add)
    elements = range(n)
    if any(add[0][x] != x for x in elements) or any(0 not in row for row in add):
        return False
    if any(add[x][y] != add[y][x] for x in elements for y in elements):
        return False
    if any(mul[one][x] != x or mul[x][one] != x for x in elements):
        return False
    for x in elements:
        ax, mx = add[x], mul[x]
        for y in elements:
            ay, my = add[y], mul[y]
            if add[ax[y]] != [ax[v] for v in ay]:                      # (x+y)+z
                return False
            if mul[mx[y]] != [mx[v] for v in my]:                      # (xy)z
                return False
            if [mx[v] for v in ay] != [add[mx[y]][v] for v in mx]:     # x(y+z)
                return False
            if mul[ax[y]] != [add[s][t] for s, t in zip(mx, my)]:      # (x+y)z
                return False
    return True


class TestTableAudit:
    """The audit at load refuses exactly the tables that are not a unital
    ring, with one message per defect."""

    @pytest.mark.parametrize("message", AUDIT_MESSAGES)
    def test_each_defect_draws_its_message(self, message):
        with pytest.raises(ValidationError) as refused:
            TableRing(*audit_case(message))
        assert str(refused.value) == message

    @pytest.mark.parametrize("spec", [
        "Z6", "GF4", "chain(2,3)", "triv(2,2)", "Z2 x Z4", "M2(GF2)", "GR(2,2,2)",
        "table:<fixture>", "Z2 x M2(GF2)", "GF27", "chain(4,3)", "M1(GF64)",
    ])
    def test_one_entry_mutations_are_refused_as_the_oracle_refuses(self, spec):
        """Seeded one-entry mutations of a ring's tables, and the tables
        themselves with the nonzero indices relabelled: the audit refuses
        exactly those the triple-by-triple oracle refuses."""
        ring = parse_ring_spec(spec.replace("<fixture>", fixture_path()))
        add, mul = ring_tables(ring)
        n, one = ring.size, ring.one_index
        rnd = random.Random(spec)
        perm = [0] + rnd.sample(range(1, n), n - 1)
        relabelled = []
        for tab in (add, mul):
            moved = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    moved[perm[i]][perm[j]] = perm[tab[i][j]]
            relabelled.append(moved)
        cases = [(*relabelled, perm[one])]
        for _ in range(40):
            tab = rnd.choice((add, mul))
            i, j = rnd.randrange(n), rnd.randrange(n)
            if tab is add and rnd.random() < 0.5:
                j = i       # + stays commutative, so associativity must refuse it
            mutated = [row[:] for row in tab]
            mutated[i][j] = rnd.choice([v for v in range(n) if v != tab[i][j]])
            cases.append((mutated, mul, one) if tab is add else (add, mutated, one))
        for case in cases:
            try:
                TableRing(*case)
                audited = True
            except ValidationError:
                audited = False
            assert audited == is_ring_by_triples(*case)

    def test_m2_gf4_rows_load_as_the_same_ring(self):
        """A 256-element table ring from the rows of M2(GF4) has M2(GF4)'s
        pair counts and structure."""
        recipe = parse_ring_spec("M2(GF4)")
        table = TableRing(*ring_tables(recipe), recipe.one_index)
        assert pair_counts(table) == pair_counts(recipe)
        got, want = structure_report(table), structure_report(recipe)
        for field in ("units", "zero_divisors", "nilpotency_index", "is_local", "q", "n",
                      "is_max_chain", "is_j2_zero"):
            assert getattr(got, field) == getattr(want, field), field
        assert ([ideal.members for ideal in got.radical_chain]
                == [ideal.members for ideal in want.radical_chain])


class TestConstructionValidation:
    def test_galois_ring_rejects_reducible_modulus(self):
        with pytest.raises(ValidationError):
            galois_ring(2, 2, 2, modulus=[0, 0, 1])  # t^2 is reducible mod 2
        ring = galois_ring(2, 2, 2, modulus=[1, 1, 1])
        assert ring.size == 16

    def test_poly_quotient_needs_commutative_base(self):
        from ringprob.rings import PolyQuotientRing
        m2 = matrix_ring(2, 2)
        with pytest.raises(ValidationError):
            PolyQuotientRing(m2, [0, m2.one_index])

    def test_poly_quotient_needs_monic_modulus(self):
        from ringprob.rings import PolyQuotientRing
        with pytest.raises(ValidationError):
            PolyQuotientRing(zmod(4), [0, 2])

    def test_field_ring_rejects_non_prime_power(self):
        with pytest.raises(ValidationError):
            field_ring(6)


def table_from_json(ring, name):
    """The "add" or "mul" table of a table ring, read from its file."""
    return json.loads(Path(ring.source_path).read_text())[name]


def addition_oracle(ring):
    """add(i, j) for ring: decode both operands, add component by component
    with the field or base-ring operations, and encode the sum."""
    if isinstance(ring, ZModRing):
        return lambda i, j: (i + j) % ring.n
    if isinstance(ring, TableRing):
        table = table_from_json(ring, "add")
        return lambda i, j: table[i][j]
    forms = [ring.decode(i) for i in range(ring.size)]
    if isinstance(ring, MatrixRing):
        fadd = field_oracle(ring.q)[0]
        return lambda i, j: ring.encode(tuple(
            tuple(map(fadd, ra, rb)) for ra, rb in zip(forms[i], forms[j])))
    if isinstance(ring, TrivialExtensionRing):
        fadd = field_oracle(ring.q)[0]
        return lambda i, j: ring.encode((fadd(forms[i][0], forms[j][0]),
                                         tuple(map(fadd, forms[i][1], forms[j][1]))))
    if isinstance(ring, PolyQuotientRing):
        base = addition_oracle(ring.base)
        return lambda i, j: ring.encode(tuple(map(base, forms[i], forms[j])))
    if isinstance(ring, ProductRing):
        parts = [addition_oracle(f) for f in ring.factors]
        return lambda i, j: ring.encode(tuple(
            add(x, y) for add, x, y in zip(parts, forms[i], forms[j])))
    raise TypeError(f"no addition oracle for {ring.describe()}")


EXTRA_ORACLE_SPECS = [
    "GR(3,2,2)", "chain(4,3)", "M2(GF4)", "M2(GF5)", "triv(4,2)", "table:<fixture> x Z3",
]


class TestMemoTables:
    """The built tables must agree with the structural operations."""

    @pytest.mark.parametrize("ring_factory", [
        lambda: matrix_ring(3, 2),
        lambda: matrix_ring(2, 4),
        lambda: chain_ring(3, 3),
        lambda: trivial_extension(3, 2),
        lambda: product(zmod(2), matrix_ring(2, 2)),
    ])
    def test_tables_match_structural_ops(self, ring_factory):
        ring = ring_factory()
        rnd = random.Random(7)
        pairs = [(rnd.randrange(ring.size), rnd.randrange(ring.size))
                 for _ in range(300)]
        for i, j in pairs:
            assert ring.mul_index(i, j) == ring._mul(i, j)

    @pytest.mark.parametrize("spec", [name for name, _ in default_corpus()] + EXTRA_ORACLE_SPECS)
    def test_tables_match_addition_oracle(self, spec):
        """Every sum and negative of every ring; sampled sums through the
        untabled digitwise path, and sampled products against the per-call
        product, or a table ring's own file, as it has no per-call path."""
        corpus = dict(default_corpus())
        ring = corpus.get(spec) or parse_ring_spec(spec.replace("<fixture>", fixture_path()))
        add = addition_oracle(ring)
        if isinstance(ring, TableRing):
            table = table_from_json(ring, "mul")
            mul = lambda i, j: table[i][j]
        else:
            mul = ring._mul
        n = ring.size
        for i in range(n):
            assert list(ring.add_row(i)) == [add(i, j) for j in range(n)]
            assert add(i, ring.neg_index(i)) == 0
        rnd = random.Random(11)
        for _ in range(300):
            i, j = rnd.randrange(n), rnd.randrange(n)
            assert ring._add(i, j) == add(i, j)
            assert ring.mul_index(i, j) == mul(i, j)

    @pytest.mark.parametrize("ring_factory, cls", [
        (lambda: chain_ring(2, 5), PolyQuotientRing),
        (lambda: matrix_ring(2, 2), MatrixRing),
        pytest.param(lambda: matrix_ring(3, 2), MatrixRing, id="M3(GF2)"),
    ])
    def test_build_calls_mul_only_on_generators(self, ring_factory, cls, monkeypatch):
        """The table build calls _mul on (digit element, additive generator)
        pairs only: at most one call per generator and nonzero digit value,
        81 for M3(GF2).  Construction builds nothing: the first table
        access does.  Only calls on the ring under test count, not those
        on its field, itself a polynomial quotient."""
        every_call = []
        structural = cls._mul

        def counted(self, i, j):
            every_call.append((self, i, j))
            return structural(self, i, j)

        monkeypatch.setattr(cls, "_mul", counted)
        ring = ring_factory()
        assert not every_call
        ring.mul_row(0)
        calls = [(i, j) for owner, i, j in every_call if owner is ring]
        generators = ring.additive_generators()
        assert 0 < len(calls) <= len(generators) * sum(m - 1 for m in ring.summands)
        assert {j for _, j in calls} <= set(generators)


class TestSplitTables:
    """The mul rows and the add rows are built separately, each on its
    first access; a ring of one cyclic digit builds its mul rows without
    add rows, any other ring from them."""

    # Z_n's rows are strided slices of a ruler, each restarting where the
    # last ran out; 360-1024 take the most restarts per row
    @pytest.mark.parametrize("spec", [f"Z{n}" for n in (*range(2, 301), 360, 625, 1000, 1024)]
                             + [f"GF{p}" for p in (2, 3, 13, 251, 257)])
    def test_cyclic_mul_rows_equal_mul_at_every_pair(self, spec):
        ring = parse_ring_spec(spec)
        assert ring._cyclic
        n = ring.size
        for i in range(n):
            assert list(ring.mul_row(i)) == [ring._mul(i, j) for j in range(n)]
        assert ring._add_rows is None and ring._neg_list is None

    def test_cyclic_mul_access_leaves_add_rows_unbuilt(self):
        ring = zmod(1024)
        ring.mul_row(0)
        assert ring._mul_rows is not None
        assert ring._add_rows is None and ring._neg_list is None
        assert ring.add_index(1000, 30) == 6
        assert ring._add_rows is not None and ring._neg_list is not None

    @pytest.mark.parametrize("spec", ["GF8", "M2(GF2)", "chain(2,3)", "Z2 x Z4"])
    def test_non_cyclic_mul_access_builds_both(self, spec):
        ring = parse_ring_spec(spec)
        assert (ring._add_rows, ring._mul_rows, ring._neg_list) == (None, None, None)
        ring.mul_index(1, 1)
        assert ring._add_rows is not None and ring._mul_rows is not None
        assert ring._neg_list is not None

    @pytest.mark.parametrize("ring_factory, row_type", [
        (lambda: quotient_make(chain_ring(2, 4), [0, 8]), bytes),
        (lambda: quotient_make(chain_ring(2, 10), [0, 512]), array),
        (lambda: quotient_make(zmod(600), range(0, 600, 2)), bytes),
        (lambda: quotient_make(zmod(600), [0, 300]), array),
        (lambda: parse_ring_spec(f"table:{fixture_path()} x Z32"), bytes),
        (lambda: zmod(255), bytes),
        (lambda: zmod(256), bytes),
        (lambda: zmod(257), array),
        (lambda: quotient_make(zmod(625), range(0, 625, 5)), bytes),
    ], ids=["chain(2,4)/I", "chain(2,10)/I", "Z600/2", "Z600/300", "table x Z32",
            "Z255", "Z256", "Z257", "Z625/5"])
    def test_byte_and_short_rows_agree_with_ops(self, ring_factory, row_type):
        # bytes rows up to 256 elements, arrays of shorts above
        ring = ring_factory()
        n = ring.size
        assert (n <= 256) == (row_type is bytes)
        for i in range(n):
            add, mul = ring.add_row(i), ring.mul_row(i)
            assert type(add) is type(mul) is row_type
            assert row_type is bytes or add.typecode == mul.typecode == "H"
            assert list(add) == [ring._add(i, j) for j in range(n)]
            assert list(mul) == [ring._mul(i, j) for j in range(n)]
        assert type(ring._neg_list) is row_type

    def test_ruler_rows_of_z4096_cover_every_gcd_class(self):
        # a row's slices restart where the ruler runs out, more often the
        # larger a*e is; sample each gcd 2^k with several odd cofactors
        n = 4096
        ring = zmod(n)
        sample = {0, n - 1}
        for k in range(12):
            d = 2 ** k
            sample.update(d * m for m in (1, 3, n // d - 1) if d * m < n)
        assert {a & -a for a in sample - {0}} == {2 ** k for k in range(12)}
        for a in sorted(sample):
            assert list(ring.mul_row(a)) == [a * b % n for b in range(n)]


class TestRowScan:
    """rings.row_scan's count, membership and positions equal plain list
    scans, on bytes rows, on tabled rows of shorts, and on per-call rows
    on each side of 0xD800 entries, where a row of shorts stops being read
    as UTF-16 text."""

    @staticmethod
    def assert_scans(row, values):
        entries = list(row)
        for value in values:
            hay, needle = rings.row_scan(row, value)
            assert hay.count(needle) == entries.count(value)
            assert (needle in hay) == (value in entries)
            positions, pos = [], -1
            for _ in range(hay.count(needle)):
                pos = hay.index(needle, pos + 1)
                positions.append(pos)
            with pytest.raises(ValueError):
                hay.index(needle, pos + 1)
            assert positions == [i for i, e in enumerate(entries) if e == value]

    @pytest.mark.parametrize("spec", ["Z255", "Z256", "M2(GF3)", "table:<fixture> x Z32",
                                      "Z625", "M2(GF5)", "M3(GF2)", "Z1024", "chain(2,10)"])
    def test_tabled_rows(self, spec):
        ring = parse_ring_spec(spec.replace("<fixture>", fixture_path()))
        n = ring.size
        rng = random.Random(spec)
        for a in {0, 1, ring.one_index, n - 1, *rng.sample(range(n), 6)}:
            row = ring.mul_row(a)
            assert type(rings.row_scan(row, 0)[0]) is (bytes if n <= 256 else str)
            self.assert_scans(row, {0, 1, ring.one_index, n - 1, row[-1], row[n // 2],
                                    *rng.sample(range(n), 4)})

    @pytest.mark.parametrize("n, scanned_as", [(0xD800, str), (0xD801, array), (60000, array)])
    def test_per_call_rows_at_the_surrogate_boundary(self, n, scanned_as):
        # row 1 of Z60000 holds 0xDBFF next to 0xDC00, which UTF-16 would
        # read as one character
        ring = zmod(n)
        for a in (1, 2):
            row = ring.mul_row(a)
            assert type(rings.row_scan(row, 0)[0]) is scanned_as
            self.assert_scans(row, {0, 1, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, n - 1} & set(range(n)))


PER_CALL_SPECS = [
    "Z12", "GF9", "M2(GF2)", "chain(2,3)", "GR(2,2,2)", "triv(2,2)", "Z2 x Z4",
    "Z3 x M1(GF4)", "table:<fixture> x Z2",
]


class TestPerCallOperations:
    """A ring above DEFAULT_SIZE_CAP builds no table and computes every
    operation per call; with the cap at 1 every small ring does, and must
    agree with a tabled instance of the same ring."""

    @pytest.mark.parametrize("spec", PER_CALL_SPECS)
    def test_untabled_matches_tabled(self, spec, monkeypatch):
        text = spec.replace("<fixture>", fixture_path())
        tabled = parse_ring_spec(text)
        n = tabled.size
        members = next((m for m in (principal_ideal_members(tabled, g) for g in range(1, n))
                        if len(m) < n), frozenset({0}))
        tabled_quot = quotient_make(tabled, members)
        tabled_quot.add_row(0)          # both rings build their tables here
        report = structure_report(tabled)
        monkeypatch.setattr(rings, "DEFAULT_SIZE_CAP", 1)
        untabled = parse_ring_spec(text)
        for i in range(n):
            assert list(untabled.add_row(i)) == list(tabled.add_row(i))
            assert list(untabled.mul_row(i)) == list(tabled.mul_row(i))
            assert untabled.mul_column(i) == tabled.mul_column(i)
            assert tabled.add_index(i, untabled.neg_index(i)) == 0
            for j in range(n):
                assert untabled.add_index(i, j) == tabled.add_index(i, j)
                assert untabled.mul_index(i, j) == tabled.mul_index(i, j)
        assert structure_report(untabled) == report
        quot = quotient_make(untabled, members)
        for i in range(quot.size):
            assert tabled_quot.add_index(i, quot.neg_index(i)) == 0
            for j in range(quot.size):
                assert quot.add_index(i, j) == tabled_quot.add_index(i, j)
                assert quot.mul_index(i, j) == tabled_quot.mul_index(i, j)
        assert tabled._mul_rows is not None and tabled_quot._mul_rows is not None
        assert untabled._mul_rows is None and quot._mul_rows is None


DATA = Path(__file__).resolve().parent / "data"

# with the pool's GR(3,2,2), chain(4,3), M2(GF5) and triv(4,2): an opaque
# table digit on each side of a cyclic one
TABLE_PIN_SPECS = ["table:<fixture> x Z3", "Z3 x table:<fixture>"]


def table_digest(ring) -> str:
    """sha256 of the add rows, the mul rows and the negation list."""
    h = hashlib.sha256()
    for rows in (map(ring.add_row, range(ring.size)), map(ring.mul_row, range(ring.size))):
        for row in rows:
            h.update((",".join(map(str, row)) + "\n").encode())
    h.update(",".join(str(ring.neg_index(i)) for i in range(ring.size)).encode())
    return h.hexdigest()


def pool_rings():
    """(spec, ring) for each verify-pool spec, table paths read from the
    checkout root."""
    root = DATA.parent.parent
    for spec in json.loads((DATA / "verify_pool.json").read_text()):
        path = spec.startswith("table:")
        yield spec, parse_ring_spec(f"table:{root / spec[6:]}" if path else spec)


def pinned_tables():
    """(label, ring) for every pinned table: the verify-pool specs, a few
    more recipe and table products, and each quotient of a default corpus
    ring by a proper principal ideal, labelled by its place in
    _proper_principal_ideals."""
    yield from pool_rings()
    for spec in TABLE_PIN_SPECS:
        yield spec, parse_ring_spec(spec.replace("<fixture>", fixture_path()))
    for label, ring in default_corpus():
        for k, members in enumerate(_proper_principal_ideals(ring)):
            yield f"{label} / I{k}", quotient_make(ring, members)


class TestTablePins:
    def test_tables_are_pinned(self):
        """Every table the builders produce, byte for byte as pinned."""
        pins = [line.split("  ", 1) for line in (DATA / "tables.sha256").read_text().splitlines()]
        got = [(table_digest(ring), label) for label, ring in pinned_tables()]
        assert [label for _, label in got] == [label for _, label in pins]
        assert [digest for digest, _ in got] == [digest for digest, _ in pins]


if __name__ == "__main__":
    for label, ring in pinned_tables():
        print(f"{table_digest(ring)}  {label}")
