"""Field layer: canonical moduli, exact arithmetic, enumeration order."""

import pytest

from ringprob.errors import (
    DegreeOutOfRange,
    DivisionByZero,
    NonPrime,
    ValidationError,
)
from ringprob.finfield import (
    FIELD_TABLE_CAP,
    _poly_divmod,
    GaloisField,
    factor_prime_power,
    field_make,
    galois_field,
    is_irreducible,
    is_prime,
    smallest_irreducible,
)


def poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def monic_polys(degree, p):
    """Monic polynomials of a degree over Z_p, constant term first, in the
    order smallest_irreducible tries them (constant term fastest)."""
    for v in range(p ** degree):
        yield tuple(v // p ** i % p for i in range(degree)) + (1,)


def irreducible_by_scan(poly, p):
    """Oracle: no monic divisor of degree 1 to deg/2 leaves remainder 0."""
    degree = len(poly) - 1
    if degree < 1:
        return False
    return not any(not _poly_divmod(poly, d, p)[1]
                   for k in range(1, degree // 2 + 1) for d in monic_polys(k, p))


def prime_flags(limit):
    """Oracle: sieve of Eratosthenes, i.e. trial division by every prime."""
    flags = [False, False] + [True] * (limit - 2)
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = [False] * len(range(p * p, limit, p))
    return flags


class TestPrimality:
    def test_matches_trial_division(self):
        flags = prime_flags(200000)
        assert [n for n in range(200000) if is_prime(n)] == [
            n for n, flag in enumerate(flags) if flag]

    @pytest.mark.parametrize("n", [
        3825123056546413051,            # strong pseudoprime to every base up to 31
        318665857834031151167461,       # ... up to 37, caught by 41
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert is_prime(n) is False

    def test_large_primes(self):
        assert is_prime(1000000000000000003)
        assert is_prime(2 ** 61 - 1)
        assert not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))
        assert factor_prime_power(1000000000000000003) == (1000000000000000003, 1)
        assert factor_prime_power(2 ** 4000) == (2, 4000)
        assert factor_prime_power((10 ** 9 + 7) ** 2) == (10 ** 9 + 7, 2)
        assert factor_prime_power((2 ** 61 - 1) ** 6) == (2 ** 61 - 1, 6)
        for composite in ((10 ** 9 + 7) * (10 ** 9 + 9), (6 * 10 ** 9 + 42) ** 2):
            with pytest.raises(NonPrime):
                factor_prime_power(composite)

    def test_undecided_above_the_bound_raises(self):
        # passes all 13 bases, and the test is only exact below this number
        with pytest.raises(ValidationError, match="cannot decide"):
            is_prime(3317044064679887385961981)

    def test_factor_prime_power_agrees_with_trial_division(self):
        flags = prime_flags(5000)
        for q in range(2, 5000):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            r, m = 0, q
            while m % p == 0:
                m, r = m // p, r + 1
            if m == 1:
                assert factor_prime_power(q) == (p, r) and flags[p]
            else:
                with pytest.raises(NonPrime):
                    factor_prime_power(q)


class TestFieldMake:
    def test_prime_field_modulus_is_t(self):
        assert field_make(2, 1).modulus == (0, 1)

    def test_gf4_modulus_unique_irreducible(self):
        # Oracle: the other monic quadratics over F_2 all have a root.
        for tail in [(0, 0), (1, 0), (0, 1)]:
            poly = tail + (1,)
            assert any(poly_eval(poly, x, 2) == 0 for x in (0, 1))
        assert field_make(2, 2).modulus == (1, 1, 1)

    def test_gf9_modulus_smallest_by_scan(self):
        # Oracle: degree-2 polys are reducible over F_3 iff they have a root.
        best = None
        for value in range(9):
            tail = (value % 3, value // 3)
            poly = tail + (1,)
            if all(poly_eval(poly, x, 3) != 0 for x in range(3)):
                best = poly
                break
        assert best == (1, 0, 1)
        assert field_make(3, 2).modulus == best

    def test_deterministic(self):
        assert field_make(5, 3) == field_make(5, 3)

    def test_rejects_composite(self):
        with pytest.raises(NonPrime):
            field_make(6, 1)

    def test_rejects_degree_out_of_range(self):
        with pytest.raises(DegreeOutOfRange):
            field_make(2, 9)
        with pytest.raises(DegreeOutOfRange):
            field_make(2, 0)

    @pytest.mark.parametrize("p,r", [(2, 3), (3, 3), (5, 2), (7, 2), (2, 8)])
    def test_modulus_is_irreducible(self, p, r):
        assert is_irreducible(smallest_irreducible(p, r), p)

    def test_rabin_test_matches_divisor_scan(self):
        n = 0
        for p in (2, 3, 5, 7):
            for r in range(1, 5):
                for poly in monic_polys(r, p):
                    assert is_irreducible(poly, p) == irreducible_by_scan(poly, p), (poly, p)
                    n += 1
        assert n == 3730

    def test_moduli_unchanged(self):
        """The first candidate the scan calls irreducible, so every field's
        modulus, and hence its element indexing, stays the same."""
        for p in range(2, 50):
            if is_prime(p):
                for r in range(1, 5):
                    first = next(f for f in monic_polys(r, p) if irreducible_by_scan(f, p))
                    assert smallest_irreducible(p, r) == first, (p, r)

    def test_large_characteristic(self):
        p = 10 ** 9 + 7                 # p = 3 mod 4, so -1 is not a square
        assert field_make(p, 2).modulus == (1, 0, 1)
        assert is_irreducible((1, 0, 1), p) and not is_irreducible((p - 1, 0, 1), p)


class TestArithmetic:
    """Elements are indices; coeffs_of and index_of convert to and from
    coefficient tuples, constant term first."""

    def test_gf4_t_squared(self):
        gf = galois_field(field_make(2, 2))
        t = gf.index_of((0, 1))
        assert gf.coeffs_of(gf.mul(t, t)) == (1, 1)

    def test_mul_identity(self):
        for q_spec in [(2, 2), (3, 2), (2, 3)]:
            gf = galois_field(field_make(*q_spec))
            one = gf.index_of((1,) + (0,) * (gf.r - 1))
            for x in range(gf.order):
                assert gf.mul(x, one) == x

    def test_char2_addition(self):
        gf = galois_field(field_make(2, 1))
        one = gf.index_of((1,))
        assert gf.add(one, one) == gf.index_of((0,))

    def test_neg(self):
        gf = galois_field(field_make(3, 1))
        assert gf.coeffs_of(gf.neg(gf.index_of((1,)))) == (2,)

    def test_char2_identities(self):
        gf = galois_field(field_make(2, 2))
        t = gf.index_of((0, 1))
        one = gf.index_of((1, 0))
        zero = gf.index_of((0, 0))
        assert gf.add(t, t) == zero
        assert gf.mul(t, t) == gf.add(t, one)
        assert gf.neg(t) == t
        assert gf.add(t, gf.neg(t)) == zero


class TestInverse:
    def test_gf2(self):
        gf = galois_field(field_make(2, 1))
        assert gf.coeffs_of(gf.inv(gf.index_of((1,)))) == (1,)

    def test_gf4_inv_t(self):
        gf = galois_field(field_make(2, 2))
        t = gf.index_of((0, 1))
        assert gf.coeffs_of(gf.inv(t)) == (1, 1)
        assert gf.coeffs_of(gf.mul(t, gf.inv(t))) == (1, 0)

    def test_gf3_self_inverse(self):
        gf = galois_field(field_make(3, 1))
        two = gf.index_of((2,))
        assert gf.inv(two) == two

    def test_zero_rejected(self):
        gf = galois_field(field_make(2, 2))
        with pytest.raises(DivisionByZero):
            gf.inv(gf.index_of((0, 0)))

    @pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (5, 1), (7, 1), (3, 3),
                                     (2, 8), (5, 3)])
    def test_inverse_matches_exhaustive_scan(self, p, r):
        gf = galois_field(field_make(p, r))
        one = 1
        for x in range(1, gf.order):
            by_scan = next(y for y in range(1, gf.order) if gf.mul(x, y) == one)
            assert gf.inv(x) == by_scan


def field_elements(p, r):
    """Coefficient tuples of GF(p^r) in canonical index order."""
    gf = galois_field(field_make(p, r))
    return [gf.coeffs_of(i) for i in range(gf.order)]


class TestEnumeration:
    def test_gf2_order(self):
        assert field_elements(2, 1) == [(0,), (1,)]

    def test_gf3_order(self):
        assert field_elements(3, 1) == [(0,), (1,), (2,)]

    def test_gf4_zero_then_one(self):
        elems = field_elements(2, 2)
        assert len(elems) == 4
        assert elems[0] == (0, 0)
        assert elems[1] == (1, 0)

    def test_index_round_trip(self):
        for p, r in [(2, 2), (3, 2), (2, 4)]:
            gf = galois_field(field_make(p, r))
            for i in range(gf.order):
                assert gf.index_of(gf.coeffs_of(i)) == i


class TestGroupLaws:
    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
    def test_lagrange(self, p, r):
        gf = galois_field(field_make(p, r))
        q = gf.order
        for x in range(1, q):
            assert gf.pow(x, q - 1) == 1

    @pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (5, 1)])
    def test_units_closed_under_inverse(self, p, r):
        gf = galois_field(field_make(p, r))
        nonzero = set(range(1, gf.order))
        assert {gf.inv(x) for x in nonzero} == nonzero

    def test_additive_group_order(self):
        for p, r in [(2, 3), (3, 2)]:
            assert len(field_elements(p, r)) == p ** r


class TestLazyTables:
    @pytest.mark.parametrize("op, args", [("add", (3, 5)), ("mul", (3, 5)), ("neg", (3,))])
    def test_built_on_first_operation(self, op, args):
        gf = GaloisField(field_make(3, 3))      # a fresh engine, not the shared one
        assert (gf.add_table, gf.mul_table, gf.neg_table) == (None, None, None)
        assert getattr(gf, op)(*args) == getattr(gf, f"_{op}_raw")(*args)
        assert gf.mul_table is not None and gf.add_table is not None
        assert gf.tables() == (gf.add_table, gf.mul_table, gf.neg_table)

    def test_never_built_above_the_cap(self):
        gf = GaloisField(field_make(3, 6))
        assert gf.order > FIELD_TABLE_CAP
        assert gf.mul(5, 7) == gf._mul_raw(5, 7)
        assert gf.tables() is None and gf.mul_table is None

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 8)])
    def test_inverse_builds_no_table(self, p, r):
        gf = GaloisField(field_make(p, r))
        inverses = [gf.inv(x) for x in range(1, gf.order)]
        assert (gf.add_table, gf.mul_table, gf.neg_table) == (None, None, None)
        assert all(gf._mul_raw(x, y) == 1 for x, y in enumerate(inverses, 1))

    def test_pow_builds_no_table(self):
        gf = GaloisField(field_make(2, 8))
        assert gf.pow(3, 254) == gf.inv(3) and gf.pow(0, 0) == 1
        assert (gf.add_table, gf.mul_table, gf.neg_table) == (None, None, None)

    @pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_pow_matches_repeated_mul(self, p, r):
        gf = GaloisField(field_make(p, r))
        for x in range(gf.order):
            power = 1
            for e in range(2 * gf.order):
                assert gf.pow(x, e) == power, (x, e)
                power = gf.mul(power, x)
