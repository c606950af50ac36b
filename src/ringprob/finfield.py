"""Exact arithmetic in GF(p^r).

Elements are residue-coefficient vectors (constant term first) modulo a
canonical monic irreducible.  Every element also has a canonical index:
the base-p value of its coefficient vector with the constant term as the
least significant digit, so index 0 is zero and index 1 is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DegreeOutOfRange, DivisionByZero, NonPrime, ValidationError

MAX_EXTENSION_DEGREE = 8

# Above this order, index-level add/mul tables are never built and
# operations fall back to per-call polynomial arithmetic.
FIELD_TABLE_CAP = 512


# No composite below _MR_BOUND is a strong pseudoprime to all of these
# bases (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin.  A number at or above
    _MR_BOUND that passes every base raises ValidationError: it is never
    guessed to be prime."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1      # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False        # a witnesses that n is composite
    if n >= _MR_BOUND:
        raise ValidationError(f"cannot decide whether a {n.bit_length()}-bit number is prime")
    return True


def _integer_root(n: int, d: int) -> int:
    """Largest x with x**d <= n, set one bit at a time from the top."""
    x = 0
    for bit in range(n.bit_length() // d, -1, -1):
        if (x | 1 << bit) ** d <= n:
            x |= 1 << bit
    return x


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q as p^r with p prime, or raise NonPrime.  A prime factor up
    to 41 is divided out.  Otherwise p^r is a perfect d-th power for each
    prime d dividing r, with root p^(r/d), so the smallest such d is found
    by integer roots and the root split in turn."""
    if q < 2:
        raise NonPrime(f"{q} is not a prime power")
    if is_prime(q):
        return q, 1
    for p in _MR_BASES:
        if q % p == 0:
            r, m = 0, q
            while m % p == 0:
                m //= p
                r += 1
            if m != 1:
                raise NonPrime(f"{q} is not a prime power")
            return p, r
    for d in range(2, q.bit_length() + 1):
        if is_prime(d):
            root = _integer_root(q, d)
            if root ** d == q:
                p, r = factor_prime_power(root)
                return p, r * d
    raise NonPrime(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# Polynomials over Z_p: tuples of residues, constant term first, no trailing
# zero coefficients (the zero polynomial is the empty tuple).
# ---------------------------------------------------------------------------


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by b over Z_p; b must be nonzero."""
    rem = list(a)
    db = len(b) - 1
    lead_inv = pow(b[-1], p - 2, p) if p > 2 else b[-1]
    quot = [0] * max(len(a) - db, 1)
    while len(rem) - 1 >= db and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - 1 - db
        factor = (rem[-1] * lead_inv) % p
        quot[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bi) % p
        rem.pop()
    return _poly_trim(quot), _poly_trim(rem)


def _poly_powmod(base: tuple[int, ...], e: int, f: tuple[int, ...], p: int) -> tuple[int, ...]:
    """base^e mod f over Z_p, by square-and-multiply."""
    out = (1,)
    base = _poly_divmod(base, f, p)[1]
    while e:
        if e & 1:
            out = _poly_divmod(_poly_mul(out, base, p), f, p)[1]
        base = _poly_divmod(_poly_mul(base, base, p), f, p)[1]
        e >>= 1
    return out


def _poly_gcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _frobenius_gap(f: tuple[int, ...], m: int, p: int) -> tuple[int, ...]:
    """x^(p^m) - x mod f over Z_p, for f of degree at least 2."""
    h = (0, 1)
    for _ in range(m):
        h = _poly_powmod(h, p, f, p)
    c = list(h) + [0] * (2 - len(h))
    c[1] = (c[1] - 1) % p
    return _poly_trim(c)


def _monic_polys(degree: int, p: int):
    """Yield all monic polynomials of the given degree over Z_p."""
    for v in range(p ** degree):
        coeffs = []
        m = v
        for _ in range(degree):
            coeffs.append(m % p)
            m //= p
        yield tuple(coeffs) + (1,)


def is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Rabin's test: f of degree n over Z_p is irreducible iff f divides
    x^(p^n) - x and, for every prime d dividing n, x^(p^(n/d)) - x is
    coprime to f.  Its cost grows with n and log p only, so a large
    characteristic is as cheap as a small one."""
    degree = len(poly) - 1
    if degree < 1:
        return False
    if degree == 1:
        return True
    if _frobenius_gap(poly, degree, p):
        return False
    return all(len(_poly_gcd(poly, _frobenius_gap(poly, degree // d, p), p)) == 1
               for d in range(2, degree + 1) if degree % d == 0 and is_prime(d))


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree r over Z_p.

    Candidates are ordered by the base-p value of the non-leading
    coefficient vector, constant term varying fastest.
    """
    for candidate in _monic_polys(r, p):
        if is_irreducible(candidate, p):
            return candidate
    raise AssertionError(f"no irreducible of degree {r} over Z_{p}")


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldDescriptor:
    """Immutable recipe for GF(p^r): prime, degree, and the monic modulus."""

    p: int
    r: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p ** self.r

    def __repr__(self) -> str:
        return f"FieldDescriptor(GF({self.p}^{self.r}))" if self.r > 1 else f"FieldDescriptor(GF({self.p}))"


def field_make(p: int, r: int) -> FieldDescriptor:
    """Canonical descriptor for GF(p^r); deterministic across runs."""
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if not 1 <= r <= MAX_EXTENSION_DEGREE:
        raise DegreeOutOfRange(f"degree {r} outside [1, {MAX_EXTENSION_DEGREE}]")
    return FieldDescriptor(p, r, smallest_irreducible(p, r))


class GaloisField:
    """Index-level arithmetic engine for one FieldDescriptor.

    Indices are base-p encodings of coefficient vectors (constant term
    least significant).  add, mul and neg are the only code that chooses
    how to compute: for orders up to FIELD_TABLE_CAP full add/mul tables
    are built on the first of them, larger fields compute per call.
    Callers such as matrix products and ranks go through these three.
    """

    def __init__(self, descriptor: FieldDescriptor):
        self.descriptor = descriptor
        self.p = descriptor.p
        self.r = descriptor.r
        self.order = descriptor.order
        self._mod_tail = descriptor.modulus[:-1]
        self.add_table: list[tuple[int, ...]] | None = None
        self.mul_table: list[tuple[int, ...]] | None = None
        self.neg_table: tuple[int, ...] | None = None

    # -- coefficient/index codecs ------------------------------------------

    def coeffs_of(self, i: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.r):
            out.append(i % self.p)
            i //= self.p
        return tuple(out)

    def index_of(self, coeffs) -> int:
        i = 0
        for c in reversed(tuple(coeffs)):
            i = i * self.p + c
        return i

    # -- raw polynomial ops -------------------------------------------------

    def _add_raw(self, i: int, j: int) -> int:
        if self.r == 1:
            return (i + j) % self.p
        a, b = self.coeffs_of(i), self.coeffs_of(j)
        return self.index_of((x + y) % self.p for x, y in zip(a, b))

    def _neg_raw(self, i: int) -> int:
        if self.r == 1:
            return (-i) % self.p
        return self.index_of((-c) % self.p for c in self.coeffs_of(i))

    def _mul_raw(self, i: int, j: int) -> int:
        p, r = self.p, self.r
        if r == 1:
            return (i * j) % p
        a, b = self.coeffs_of(i), self.coeffs_of(j)
        prod = [0] * (2 * r - 1)
        for s, ai in enumerate(a):
            if ai:
                for t, bj in enumerate(b):
                    prod[s + t] = (prod[s + t] + ai * bj) % p
        # reduce by the monic modulus: t^r = -(tail)
        for s in range(2 * r - 2, r - 1, -1):
            c = prod[s]
            if c:
                prod[s] = 0
                for t, m in enumerate(self._mod_tail):
                    prod[s - r + t] = (prod[s - r + t] - c * m) % p
        return self.index_of(prod[:r])

    def tables(self):
        """(add, mul, neg) tables, built on first use; None above
        FIELD_TABLE_CAP.  The mul table is assigned last, so a field whose
        mul table is set has all three."""
        if self.mul_table is None:
            if self.order > FIELD_TABLE_CAP:
                return None
            n = self.order
            self.add_table = [tuple(self._add_raw(i, j) for j in range(n)) for i in range(n)]
            self.neg_table = tuple(self._neg_raw(i) for i in range(n))
            self.mul_table = [tuple(self._mul_raw(i, j) for j in range(n)) for i in range(n)]
        return self.add_table, self.mul_table, self.neg_table

    # -- public index-level ops ----------------------------------------------

    def add(self, i: int, j: int) -> int:
        table = self.add_table
        if table is None:
            if self.tables() is None:
                return self._add_raw(i, j)
            table = self.add_table
        return table[i][j]

    def neg(self, i: int) -> int:
        table = self.neg_table
        if table is None:
            if self.tables() is None:
                return self._neg_raw(i)
            table = self.neg_table
        return table[i]

    def mul(self, i: int, j: int) -> int:
        table = self.mul_table
        if table is None:
            if self.tables() is None:
                return self._mul_raw(i, j)
            table = self.mul_table
        return table[i][j]

    def inv(self, i: int) -> int:
        """Multiplicative inverse i^(q-2)."""
        if i == 0:
            raise DivisionByZero("inverse of zero")
        return self.pow(i, self.order - 2)

    def pow(self, i: int, e: int) -> int:
        """i^e for e >= 0, raised modulo the field's modulus by
        _poly_powmod, so no table is built."""
        coeffs = _poly_trim(list(self.coeffs_of(i)))
        return self.index_of(_poly_powmod(coeffs, e, self.descriptor.modulus, self.p))


@lru_cache(maxsize=None)
def galois_field(descriptor: FieldDescriptor) -> GaloisField:
    return GaloisField(descriptor)


def galois_field_of_order(q: int) -> GaloisField:
    """GF(q) for a prime power q, factored internally."""
    p, r = factor_prime_power(q)
    return galois_field(field_make(p, r))
