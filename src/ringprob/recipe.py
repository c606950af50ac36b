"""Structural invariants of a ring, read off its construction recipe.

Closed-form dispatch and the spectrum labels need only a few numbers:
whether x is a unit and how many units there are; whether the ring is
local, with residue field order q, |R| = q^n and radical nilpotency index
t; the radical layer of x; and, in a matrix ring, the rank of x.  Every
grammar construction knows these from its recipe, so `invariants(ring)`
answers them without building a table or enumerating anything:

  Z_{p^e}      unit iff p does not divide x, layer v_p(x), t = n = e
  M_k(GF q)    unit iff rank k; semisimple (t = 1), local iff k = 1
  chain(q, m)  F[t]/(t^m) over a field F of order q (a base that is local
               with n = 1): layer is the t-adic valuation, t = n = m
  GR(p, k, r)  Z_{p^k}[t]/(f): layer is the least p-adic valuation of a
               coefficient, q = p^r, t = n = k; GF(p^r) = GR(p, 1, r)
               has n = t = 1
  triv(q, m)   square-zero radical: t = 2, n = m + 1
  products     combined from their components (never local)

`components(ring)` alone splits a ring into direct factors: a product into
its factors, a composite Z_n into its Z_{p^e} by CRT; both read their
invariants from these, and closed-form dispatch multiplies the
components' closed forms.

Table rings, quotient rings and any other polynomial quotient read the
same answers off `structure_report`, the enumeration oracle, so each ring
has one source of answers and dispatch has one code path.
"""

from __future__ import annotations

from collections.abc import Callable
from math import gcd, prod

from .errors import NonPrime, ValidationError
from .finfield import _MR_BOUND, factor_prime_power, is_irreducible, is_prime
from .rings import (
    MatrixRing,
    PolyQuotientRing,
    ProductRing,
    Ring,
    RingElement,
    TrivialExtensionRing,
    ZModRing,
    entry_ops,
    zmod,
)
from .structure import structure_report

_LAYER_OF_ZERO = "layer of 0 is not defined; every power contains it"


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization, primes in increasing order: trial division
    below 1000, then is_prime decides each cofactor and _rho splits a
    composite one, which is refused above is_prime's exactness bound."""
    out: dict[int, int] = {}
    p = 2
    while p < 1000 and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        elif m >= _MR_BOUND:
            raise ValidationError(f"cannot factor a {m.bit_length()}-bit number")
        else:
            d = _rho(m)
            rest += [d, m // d]
    return dict(sorted(out.items()))


def _rho(n: int) -> int:
    """A proper factor of a composite n: Pollard's rho in Brent's form
    (J. M. Pollard, BIT 15 (1975); R. P. Brent, BIT 20 (1980)).  x holds
    the walk y <- y^2 + c at each power of two until gcd(x - y, n) > 1;
    a walk that meets n itself is dropped for the next c."""
    for c in range(1, n):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g
    raise AssertionError(f"rho found no factor of {n}")


def _valuation(x: int, p: int) -> int:
    """Exponent of p in a nonzero x: its radical layer in Z_{p^e} or in
    chain(p, e), whose elements are base-p digit strings of coefficients."""
    v = 0
    while not x % p:
        x //= p
        v += 1
    return v


def _semisimple_layer(x: int) -> int:
    """Layer in a ring with J = 0: every nonzero element is at layer 0."""
    return 0


def matrix_rank(x: RingElement) -> int:
    """Rank of a matrix-ring element: the dimension of its column space.

    The columns are read off MatrixRing._entries; the rank does not depend
    on their order.  Each column is reduced against the echelon basis found
    so far by fraction-free steps v <- a*v - f*b (a the basis vector's
    pivot, f the entry of v there), which keep v in the span iff it was
    and need no inverse; a column left nonzero joins the basis at its
    first nonzero entry.  Entries are integers mod q over a prime field,
    else field indices combined by rings.entry_ops."""
    ring = x.ring
    if not isinstance(ring, MatrixRing):
        raise ValidationError("matrix_rank needs an element of a matrix ring")
    k, q, prime = ring.k, ring.q, ring.field._cyclic
    add, mul, neg = entry_ops(ring, ring.field)
    entries = ring._entries(x.index)
    basis = []              # (pivot position, pivot value, vector)
    for c in range(0, k * k, k):
        v = entries[c:c + k]
        for pos, a, b in basis:
            f = v[pos]
            if not f:
                continue
            if prime:
                v = [(a * s - f * t) % q for s, t in zip(v, b)]
            else:
                nf = neg(f)
                v = [add(mul(a, s), mul(nf, t)) for s, t in zip(v, b)]
        for pos, e in enumerate(v):
            if e:
                basis.append((pos, e, v))
                break
    return len(basis)


class Invariants:
    """What closed-form dispatch and the spectrum labels ask of a ring.

    is_unit(i) and radical_layer(i) take element indices; radical_layer is
    the largest k with the element inside the k-th radical power (0 for a
    unit) and, as in StructureReport, raises ValueError at 0.  q and n are
    set for local rings only; t is the nilpotency index (J^t = 0 and
    J^(t-1) != 0).  source names where the answers come from: "recipe" or
    "structure report"."""

    __slots__ = ("unit_count", "is_local", "q", "n", "t", "is_unit", "_layer",
                 "source", "is_max_chain", "is_j2_zero")

    def __init__(self, unit_count: int, is_local: bool, q: int | None, n: int | None,
                 t: int, is_unit: Callable[[int], bool], radical_layer: Callable[[int], int],
                 source: str = "recipe"):
        self.unit_count = unit_count
        self.is_local = is_local
        self.q = q
        self.n = n
        self.t = t
        self.is_unit = is_unit
        self._layer = radical_layer
        self.source = source
        self.is_max_chain = is_local and t == n
        self.is_j2_zero = t <= 2

    def radical_layer(self, i: int) -> int:
        if not i:
            raise ValueError(_LAYER_OF_ZERO)
        return self._layer(i)


def invariants(ring: Ring) -> Invariants:
    """The ring's invariants from its recipe, or from structure_report for
    rings without one; memoized on the ring instance."""
    if ring._invariants is None:
        ring._invariants = _from_recipe(ring) or _from_structure(ring)
    return ring._invariants


def _local(unit_count, q, n, t, is_unit, layer) -> Invariants:
    return Invariants(unit_count, True, q, n, t, is_unit, layer)


def _poly_quotient(ring: PolyQuotientRing) -> Invariants | None:
    base, d, modulus = ring.base, ring.degree, ring.modulus
    if not any(modulus[:-1]) and (inv := invariants(base)).is_local and inv.n == 1:
        # chain(q, d) = GF(q)[t]/(t^d), a local base with |R| = q^1 having J = 0:
        # x is a unit iff its constant term is nonzero, and its layer is the
        # number of leading zero coefficients
        q = base.size
        return _local((q - 1) * q ** (d - 1), q, d, d,
                      lambda i: i % q != 0, lambda i: _valuation(i, q))
    if not isinstance(base, ZModRing):
        return None
    try:
        p, k = factor_prime_power(base.n)
    except NonPrime:
        return None
    if not is_irreducible(tuple(c % p for c in modulus), p):
        return None
    if k == 1:
        # GF(p^d) = GR(p, 1, d) is a field: every nonzero x is a unit
        return _local(p ** d - 1, p ** d, 1, 1, bool, _semisimple_layer)
    # GR(p, k, d): J = pR, so the layer of x is the least p-adic valuation
    # of its coefficients (the base-p^k digits of its index), and x is a
    # unit iff that is 0.  content(x) = p^layer, the gcd of p^k and them.
    s = p ** k

    def content(i):
        g = s
        while i and g > 1:
            i, c = divmod(i, s)
            g = gcd(g, c)
        return g

    return _local(s ** d - p ** ((k - 1) * d), p ** d, k, k,
                  lambda i: content(i) == 1, lambda i: _valuation(content(i), p))


def components(ring: Ring) -> tuple[tuple[Ring, ...], Callable[[int], tuple]] | None:
    """The ring's direct factors and split(i), the indices of element i in
    them, or None for a ring this does not split: a product into its
    factors, a composite Z_n into its Z_{p^e} by CRT (x mod p^e).
    Memoized on the ring instance, so the factors keep their invariants."""
    if ring._components is False:
        ring._components = None
        if isinstance(ring, ProductRing):
            ring._components = ring.factors, ring.decode
        elif isinstance(ring, ZModRing):
            moduli = [p ** e for p, e in _factorize(ring.n).items()]
            if len(moduli) > 1:
                ring._components = tuple(map(zmod, moduli)), lambda i: tuple(i % m for m in moduli)
    return ring._components


def _product(factors: tuple[Ring, ...], split: Callable[[int], tuple]) -> Invariants:
    parts = [invariants(f) for f in factors]

    def is_unit(i):
        return all(f.is_unit(c) for f, c in zip(parts, split(i)))

    def layer(i):
        return min(f.radical_layer(c) for f, c in zip(parts, split(i)) if c)

    source = "structure report" if any(f.source != "recipe" for f in parts) else "recipe"
    return Invariants(prod(f.unit_count for f in parts), False, None, None,
                      max(f.t for f in parts), is_unit, layer, source)


def _trivial_extension(q: int, m: int) -> Invariants:
    qm = q ** m             # index of (1, 0): units are exactly the indices >= qm
    return _local((q - 1) * qm, q, m + 1, 2, lambda i: i >= qm, lambda i: 0 if i >= qm else 1)


def _from_recipe(ring: Ring) -> Invariants | None:
    if (split := components(ring)) is not None:
        return _product(*split)
    if isinstance(ring, ZModRing):
        p, e = factor_prime_power(ring.n)
        return _local((p - 1) * p ** (e - 1), p, e, e, lambda i: i % p != 0,
                      lambda i: _valuation(i, p))
    if isinstance(ring, MatrixRing):
        k, q = ring.k, ring.q
        units = prod(q ** k - q ** i for i in range(k))
        is_unit = lambda i: matrix_rank(ring.element(i)) == k
        if k == 1:
            return _local(units, q, 1, 1, is_unit, _semisimple_layer)
        return Invariants(units, False, None, None, 1, is_unit, _semisimple_layer)
    if isinstance(ring, TrivialExtensionRing):
        return _trivial_extension(ring.q, ring.m)
    if isinstance(ring, PolyQuotientRing):
        return _poly_quotient(ring)
    return None


def _from_structure(ring: Ring) -> Invariants:
    report = structure_report(ring)
    return Invariants(len(report.units), report.is_local, report.q, report.n,
                      report.nilpotency_index, report.units.__contains__,
                      report.radical_layer, "structure report")
