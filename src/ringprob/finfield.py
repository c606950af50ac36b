"""Primes, prime powers and the canonical modulus of GF(p^r).

GF(p^r) is Z_p[t]/(f) for f the lexicographically smallest monic
irreducible of degree r over Z_p (see smallest_irreducible); rings.field_ring
builds it as that polynomial quotient, so field arithmetic is the
quotient's.  This module supplies the number theory: exact primality,
prime-power splitting, polynomial arithmetic over Z_p with Rabin's
irreducibility test, and the FieldDescriptor (p, r, f).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DegreeOutOfRange, NonPrime, ValidationError

MAX_EXTENSION_DEGREE = 8


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


def galois_field_of_order(q: int) -> FieldDescriptor:
    """The descriptor of GF(q) for a prime power q, factored internally."""
    p, r = factor_prime_power(q)
    return field_make(p, r)
