"""Field layer: canonical moduli, and exact arithmetic and enumeration
order of the field rings Z_p[t]/(f) built on them."""

from functools import lru_cache

import pytest

from ringprob.errors import (
    DegreeOutOfRange,
    NonPrime,
    ValidationError,
)
from ringprob.finfield import (
    _poly_divmod,
    _poly_mul,
    _poly_powmod,
    _poly_trim,
    factor_prime_power,
    field_make,
    is_irreducible,
    is_prime,
    smallest_irreducible,
)
from ringprob.rings import DEFAULT_SIZE_CAP, field_ring
from ringprob.specparse import parse_ring_spec


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

    def test_modulus_cache_is_bounded(self):
        """Parsing GF<p> for more primes than the cache holds evicts the
        oldest moduli instead of keeping one entry per field."""
        bound = smallest_irreducible.cache_info().maxsize
        assert bound is not None
        primes = [p for p in range(2, 10 ** 4) if is_prime(p)][:300]
        assert len(primes) == 300 > bound
        smallest_irreducible.cache_clear()
        for p in primes:
            assert parse_ring_spec(f"GF{p}").size == p
            assert smallest_irreducible.cache_info().currsize <= bound
        assert smallest_irreducible.cache_info().currsize == bound

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


def power(field, x, e):
    """x^e by repeated mul_index."""
    out = 1
    for _ in range(e):
        out = field.mul_index(out, x)
    return out


def inverse_by_scan(field, x):
    """The y with x*y = 1, or None, by a scan of x's mul row."""
    row = list(field.mul_row(x))
    return row.index(1) if 1 in row else None


@lru_cache(maxsize=None)
def field_oracle(q):
    """(add, mul, neg) on GF(q) indices by polynomial arithmetic over Z_p
    modulo the descriptor's modulus, so they share nothing with the field
    ring's own operations or tables; each memoizes its own answers."""
    p, r = factor_prime_power(q)
    modulus = field_make(p, r).modulus
    weights = [p ** d for d in range(r)]

    def digits(i):
        return [i // w % p for w in weights]

    def index(coeffs):
        return sum(c * w for c, w in zip(coeffs, weights))

    @lru_cache(maxsize=None)
    def add(i, j):
        return index((a + b) % p for a, b in zip(digits(i), digits(j)))

    @lru_cache(maxsize=None)
    def mul(i, j):
        prod = _poly_mul(_poly_trim(digits(i)), _poly_trim(digits(j)), p)
        return index(_poly_divmod(prod, modulus, p)[1])

    @lru_cache(maxsize=None)
    def neg(i):
        return index(-a % p for a in digits(i))

    return add, mul, neg


def poly_power(field, x, e):
    """Oracle: x^e by _poly_powmod modulo the field's modulus over Z_p,
    which never touches the field ring's operations."""
    c = _poly_powmod(_poly_trim(list(field.decode(x))), e, field.modulus, field.base.n)
    return field.encode(c + (0,) * (field.degree - len(c)))


class TestArithmetic:
    """GF(p^r) is the field ring Z_p[t]/(f): elements are indices, and
    decode and encode convert to and from coefficient tuples, constant
    term first."""

    def test_gf4_t_squared(self):
        gf = field_ring(4)
        t = gf.encode((0, 1))
        assert gf.decode(gf.mul_index(t, t)) == (1, 1)

    def test_mul_identity(self):
        for q in (4, 9, 8):
            gf = field_ring(q)
            one = gf.encode((1,) + (0,) * (gf.degree - 1))
            for x in range(gf.size):
                assert gf.mul_index(x, one) == x

    def test_char2_addition(self):
        gf = field_ring(2)
        one = gf.encode((1,))
        assert gf.add_index(one, one) == gf.encode((0,))

    def test_neg(self):
        gf = field_ring(3)
        assert gf.decode(gf.neg_index(gf.encode((1,)))) == (2,)

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
    def test_every_product_matches_polynomial_oracle(self, q):
        gf = field_ring(q)
        for x in range(gf.size):
            assert list(gf.mul_row(x)) == [field_oracle(q)[1](x, y) for y in range(q)]

    def test_char2_identities(self):
        gf = field_ring(4)
        t = gf.encode((0, 1))
        one = gf.encode((1, 0))
        zero = gf.encode((0, 0))
        assert gf.add_index(t, t) == zero
        assert gf.mul_index(t, t) == gf.add_index(t, one)
        assert gf.neg_index(t) == t
        assert gf.add_index(t, gf.neg_index(t)) == zero


class TestInverse:
    """Every nonzero element has an inverse under mul_index, zero none."""

    def test_gf2(self):
        gf = field_ring(2)
        assert gf.decode(inverse_by_scan(gf, gf.encode((1,)))) == (1,)

    def test_gf4_inv_t(self):
        gf = field_ring(4)
        t = gf.encode((0, 1))
        assert gf.decode(inverse_by_scan(gf, t)) == (1, 1)
        assert gf.decode(gf.mul_index(t, inverse_by_scan(gf, t))) == (1, 0)

    def test_gf3_self_inverse(self):
        gf = field_ring(3)
        two = gf.encode((2,))
        assert inverse_by_scan(gf, two) == two

    def test_zero_rejected(self):
        gf = field_ring(4)
        assert inverse_by_scan(gf, gf.encode((0, 0))) is None

    @pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (5, 1), (7, 1), (3, 3),
                                     (2, 8), (5, 3)])
    def test_inverse_matches_exhaustive_scan(self, p, r):
        # x^(q-2), raised by polynomial arithmetic, is the inverse the
        # field ring's table holds
        gf = field_ring(p ** r)
        for x in range(1, gf.size):
            assert poly_power(gf, x, gf.size - 2) == inverse_by_scan(gf, x)


def field_elements(p, r):
    """Coefficient tuples of GF(p^r) in canonical index order."""
    gf = field_ring(p ** r)
    return [gf.decode(i) for i in range(gf.size)]


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
            gf = field_ring(p ** r)
            for i in range(gf.size):
                assert gf.encode(gf.decode(i)) == i


class TestGroupLaws:
    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
    def test_lagrange(self, p, r):
        gf = field_ring(p ** r)
        q = gf.size
        for x in range(1, q):
            assert power(gf, x, q - 1) == 1

    @pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (5, 1)])
    def test_units_closed_under_inverse(self, p, r):
        gf = field_ring(p ** r)
        nonzero = set(range(1, gf.size))
        assert {inverse_by_scan(gf, x) for x in nonzero} == nonzero

    def test_additive_group_order(self):
        for p, r in [(2, 3), (3, 2)]:
            assert len(field_elements(p, r)) == p ** r


class TestLazyTables:
    """A field ring builds its tables on the first table access, like
    every ring, and above DEFAULT_SIZE_CAP computes per call."""

    @pytest.mark.parametrize("op, args", [("add", (3, 5)), ("mul", (3, 5)), ("neg", (3,))])
    def test_built_on_first_operation(self, op, args):
        """An additive access builds the add rows and the negation list
        only; a multiplicative one builds the mul rows, which GF27, having
        three digits, derives from its add rows."""
        gf = field_ring(27)
        assert (gf._add_rows, gf._mul_rows, gf._neg_list) == (None, None, None)
        assert getattr(gf, f"{op}_index")(*args) == getattr(gf, f"_{op}")(*args)
        assert gf._add_rows is not None and gf._neg_list is not None
        assert (gf._mul_rows is not None) == (op == "mul")

    def test_never_built_above_the_cap(self):
        gf = field_ring(3 ** 8)
        assert gf.size > DEFAULT_SIZE_CAP
        for x, y in [(5, 7), (3 ** 7, 6560), (1234, 4321)]:
            assert gf.mul_index(x, y) == field_oracle(gf.size)[1](x, y)
        assert gf._mul_rows is None and gf._add_rows is None

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 8)])
    def test_inverse_builds_no_table(self, p, r):
        # x^(q-2) by polynomial arithmetic, checked by per-call products
        gf = field_ring(p ** r)
        inverses = [poly_power(gf, x, gf.size - 2) for x in range(1, gf.size)]
        assert all(gf._mul(x, y) == 1 for x, y in enumerate(inverses, 1))
        assert (gf._add_rows, gf._mul_rows, gf._neg_list) == (None, None, None)

    def test_pow_builds_no_table(self):
        gf = field_ring(2 ** 8)
        assert gf._mul(3, poly_power(gf, 3, 254)) == 1 and poly_power(gf, 0, 0) == 1
        assert (gf._add_rows, gf._mul_rows, gf._neg_list) == (None, None, None)

    @pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_pow_matches_repeated_mul(self, p, r):
        gf = field_ring(p ** r)
        for x in range(gf.size):
            value = 1
            for e in range(2 * gf.size):
                assert poly_power(gf, x, e) == value, (x, e)
                value = gf.mul_index(value, x)
