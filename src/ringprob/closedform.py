"""Closed-form probability formulas and bounds from structural parameters.

Every function here evaluates exact rationals from (q, n, rank, radical
layer, ...) alone, without enumerating pairs; the enumeration engines in
`probability` are the oracles these formulas are verified against.  The
closed forms read those parameters from `recipe.invariants`, so on a
recipe ring a closed-form query builds no table; the bounds and the
corollary predicates read `structure_report` and the pair counts.
"""

from __future__ import annotations

from math import prod
from types import MappingProxyType

from ._record import Record
from .errors import (
    BadDimensionOrder,
    FormulaUnavailable,
    NotChain,
    NotJ2Zero,
    NotLocal,
    NTooSmall,
    ValidationError,
)
from .finfield import factor_prime_power
from .probability import ProbFraction, _index_of, pair_counts, prob_annsum
from .recipe import _factorize, components, invariants, matrix_rank
from .rings import DEFAULT_SIZE_CAP, MatrixRing, Ring, RingElement, check_size_cap, zmod
from .structure import structure_report

ZERO_CLASS = "zero"
NONZERO_ZERO_DIVISOR = "nonzero_zero_divisor"
NONZERO_RADICAL = "nonzero_radical"


class FormulaResult(Record):
    """An exact value plus the formula tag and its verified hypotheses,
    which equality and hashing leave out.  The targets of one class share
    one result, so the hypotheses are read-only; they print as a dict."""

    __slots__ = ("value", "formula", "applicability")
    value: ProbFraction
    formula: str
    applicability: dict

    def __init__(self, value: ProbFraction, formula: str, applicability: dict | None = None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "applicability", MappingProxyType(applicability or {}))

    def __getstate__(self) -> tuple:
        return self.value, self.formula, dict(self.applicability)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)

    def _key(self) -> tuple:
        return self.value, self.formula


class MatrixClass(Record):
    """Target class for the matrix-ring formula: q, matrix size, rank."""

    q: int
    dim: int
    rank: int

    def _check(self):
        factor_prime_power(self.q)  # raises NonPrime unless q is a prime power
        if self.dim < 1:
            raise ValidationError(f"matrix dimension must be >= 1, got {self.dim}")
        if not 0 <= self.rank <= self.dim:
            raise ValidationError(f"rank {self.rank} outside [0, {self.dim}]")


def subspace_count(q: int, n: int, r: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_q^n containing a fixed
    r-dimensional subspace: the product of (q^(n-r) - q^i)/(q^(k-r) - q^i)
    over i < k - r, evaluated as one exact big-integer division."""
    if not (0 <= r <= k <= n):
        raise BadDimensionOrder(f"need 0 <= r <= k <= n, got r={r}, k={k}, n={n}")
    if q < 2:
        raise ValidationError(f"field order must be >= 2, got {q}")
    num = den = 1
    for i in range(k - r):
        num *= q ** (n - r) - q ** i
        den *= q ** (k - r) - q ** i
    count, rem = divmod(num, den)
    if rem:
        raise AssertionError("subspace count product is not integral")
    return count


def prob_matrix_formula(cls: MatrixClass) -> FormulaResult:
    """Closed form for M_dim(GF(q)) at a target of the given rank.

    Hit count per rank-k stratum: q^(dim*(dim-k)) times the number of
    k-spaces containing the target's column space times the number of
    surjections onto such a space; denominator q^(2*dim^2)."""
    q, dim, r = cls.q, cls.dim, cls.rank
    hits = 0
    for k in range(r, dim + 1):
        surjections = 1
        for i in range(k):
            surjections *= q ** dim - q ** i
        hits += q ** (dim * (dim - k)) * subspace_count(q, dim, r, k) * surjections
    total = q ** (2 * dim * dim)
    return FormulaResult(
        value=ProbFraction(hits, total),
        formula="matrix",
        applicability={"q": q, "dim": dim, "rank": r},
    )


def prob_unit_formula(ring: Ring) -> FormulaResult:
    """|R*| / |R|^2, the exact value for any unit target."""
    units = invariants(ring).unit_count
    return FormulaResult(
        value=ProbFraction(units, ring.size ** 2),
        formula="unit",
        applicability={"units": units},
    )


def general_bounds(ring: Ring, x_class: str) -> tuple[ProbFraction, ProbFraction]:
    """Exact lower/upper bounds from |R|, |R*|, |Z(R)| for the two
    non-unit classes (zero, or a nonzero zero-divisor)."""
    report = structure_report(ring)
    size = ring.size
    z = len(report.zero_divisors)
    u = len(report.units)
    sq = size * size
    if x_class == ZERO_CLASS:
        lo = ProbFraction(2 * size + z - 2, sq)
        hi = ProbFraction(2 * size - 2 * z + z * z, sq)
    elif x_class == NONZERO_ZERO_DIVISOR:
        lo = ProbFraction(u * (2 + z), z * sq)
        hi = ProbFraction(size - 2 * z + z * z, sq)
    else:
        raise ValidationError(f"unknown x class {x_class!r}")
    return lo, hi


def local_bounds(ring: Ring, x_class: str) -> tuple[ProbFraction, ProbFraction]:
    """Sharper bounds for local rings of order q^n with n >= 2."""
    report = structure_report(ring)
    if not report.is_local:
        raise NotLocal(f"{ring.describe()} is not local")
    q, n = report.q, report.n
    if n < 2:
        raise NTooSmall(f"local bounds need n >= 2, got n={n}")
    if x_class == ZERO_CLASS:
        lo = ProbFraction(3 * q ** (n - 1) - q ** (n - 2) - 1, q ** (2 * n - 1))
        hi = ProbFraction(q ** (n - 1) + 2 * q - 2, q ** (n + 1))
    elif x_class == NONZERO_RADICAL:
        lo = ProbFraction((q - 1) * (q ** (n - 2) + 1), q ** (2 * n - 1))
        hi = ProbFraction(q ** (n - 1) + q - 2, q ** (n + 1))
    else:
        raise ValidationError(f"unknown x class {x_class!r}")
    return lo, hi


def prob_chain_formula(ring: Ring, x: RingElement | int) -> FormulaResult:
    """Closed form for local rings whose radical chain has maximal length:
    (k+1)(q-1)/q^(n+1) on the k-th radical layer, ((n+1)q - n)/q^(n+1) at 0."""
    inv = invariants(ring)
    if not inv.is_max_chain:
        raise NotChain(f"{ring.describe()} is not a maximal-chain local ring")
    q, n = inv.q, inv.n
    xi = _index_of(ring, x)
    applicability = {"local": True, "max_chain": True, "q": q, "n": n}
    if xi == 0:
        value = ProbFraction((n + 1) * q - n, q ** (n + 1))
        applicability["target"] = "zero"
    else:
        k = inv.radical_layer(xi)
        value = ProbFraction((k + 1) * (q - 1), q ** (n + 1))
        applicability["layer"] = k
    return FormulaResult(value=value, formula="chain", applicability=applicability)


def prob_j2zero_formula(ring: Ring, x: RingElement | int) -> FormulaResult:
    """Closed form for local rings with square-zero radical: three-way
    dispatch on zero / nonzero radical member / non-member."""
    inv = invariants(ring)
    if not (inv.is_local and inv.is_j2_zero):
        raise NotJ2Zero(f"{ring.describe()} is not local with square-zero radical")
    q, n = inv.q, inv.n
    xi = _index_of(ring, x)
    applicability = {"local": True, "j2_zero": True, "q": q, "n": n}
    if xi == 0:
        value = ProbFraction(q ** (n - 1) + 2 * q - 2, q ** (n + 1))
        applicability["target"] = "zero"
    elif inv.radical_layer(xi) >= 1:
        value = ProbFraction(2 * (q - 1), q ** (n + 1))
        applicability["target"] = "radical"
    else:
        value = ProbFraction(q - 1, q ** (n + 1))
        applicability["target"] = "unit"
    return FormulaResult(value=value, formula="j2zero", applicability=applicability)


def prob_zn(n: int, x: int) -> FormulaResult:
    """Exact value over the integers mod n: prob_formula on Z_n, which
    multiplies the closed forms of its prime-power components Z_{p^e}."""
    ring = zmod(n)
    return FormulaResult(prob_formula(ring, int(x) % n).value, "zn",
                         {"n": n, "factors": _factorize(n)})


def corollary_43_predicates(ring: Ring) -> tuple[bool, bool, bool, bool]:
    """The four extremal statements for a local ring of order q^n, n >= 2:
    lower-bound equality on every nonzero radical member, upper-bound
    equality likewise, zero-target lower-bound equality, and |R| = q^2.
    Their pairwise equivalence is asserted by the test suite, not here.
    The three bounds and the NotLocal and NTooSmall refusals come from
    local_bounds."""
    lower, upper = local_bounds(ring, NONZERO_RADICAL)
    zero_lower, _ = local_bounds(ring, ZERO_CLASS)
    report = structure_report(ring)
    q = report.q
    counts = pair_counts(ring, cap=None)
    total = ring.size ** 2
    nonzero_j = [x for x in report.radical.members if x != 0]
    p1 = all(ProbFraction(counts[x], total) == lower for x in nonzero_j)
    p2 = all(ProbFraction(counts[x], total) == upper for x in nonzero_j)
    p3 = ProbFraction(counts[0], total) == zero_lower
    p4 = ring.size == q * q
    return p1, p2, p3, p4


def corollary_44_predicate(ring: Ring) -> tuple[bool, bool]:
    """(zero-target probability equals its upper bound, radical squares
    to zero) for a local ring; equivalence is asserted by tests."""
    report = structure_report(ring)
    if not report.is_local:
        raise NotLocal(f"{ring.describe()} is not local")
    q, n = report.q, report.n
    counts = pair_counts(ring, cap=None)
    lhs = (ProbFraction(counts[0], ring.size ** 2)
           == ProbFraction(q ** (n - 1) + 2 * q - 2, q ** (n + 1)))
    return lhs, report.is_j2_zero


def _formula_class(ring: Ring, xi: int):
    """The class of xi its closed form depends on: "unit", a matrix rank, a
    radical layer (0 at zero), or the tuple of its components' classes in
    a product or a composite Z_n; FormulaUnavailable when none applies."""
    if isinstance(ring, MatrixRing):
        rank = matrix_rank(ring.element(xi))
        return "unit" if rank == ring.k else rank
    inv = invariants(ring)
    if not inv.is_local and (factored := components(ring)) is not None:
        # a product, or a composite Z_n by CRT (a local ring never splits)
        factors, split = factored
        key = tuple(_formula_class(f, c) for f, c in zip(factors, split(xi)))
        return "unit" if all(k == "unit" for k in key) else key
    if inv.is_unit(xi):
        return "unit"
    if inv.is_max_chain or inv.is_local and inv.is_j2_zero:
        return inv.radical_layer(xi) if xi else 0
    raise FormulaUnavailable(f"no closed form applies to {ring.describe()}")


def _formula(ring: Ring, xi: int, key) -> FormulaResult:
    """The closed form of key, the class of xi, from the ring's memo of one
    result per class (held to DEFAULT_SIZE_CAP entries) or evaluated at xi."""
    if (result := ring._formulas.get(key)) is None:
        if key == "unit":
            result = prob_unit_formula(ring)
        elif isinstance(ring, MatrixRing):
            result = prob_matrix_formula(MatrixClass(ring.q, ring.k, key))
        elif isinstance(key, tuple):
            factors, split = components(ring)
            parts = [_formula(*part) for part in zip(factors, split(xi), key)]
            value = prod((part.value for part in parts), start=ProbFraction(1, 1))
            result = FormulaResult(value, "product", {"components": tuple(p.formula for p in parts)})
        else:
            chain = invariants(ring).is_max_chain
            result = (prob_chain_formula if chain else prob_j2zero_formula)(ring, xi)
        if len(ring._formulas) < DEFAULT_SIZE_CAP:
            ring._formulas[key] = result
    return result


def prob_formula(ring: Ring, x: RingElement | int) -> FormulaResult:
    """Closed form only; raises FormulaUnavailable when none applies.

    Reads the ring's invariants, so a recipe ring builds no table here;
    the targets of one class share one result.  A ring of at most
    DEFAULT_SIZE_CAP elements also keeps that result in one slot per
    element, so a repeated target skips working out its class; a larger
    ring keeps only the per-class memo, and a target without a closed form
    stores nothing."""
    xi = _index_of(ring, x)
    memo = ring._formula_at
    if memo is None or (result := memo[xi]) is None:
        result = _formula(ring, xi, _formula_class(ring, xi))
        if ring.size <= DEFAULT_SIZE_CAP:
            if memo is None:
                memo = ring._formula_at = [None] * ring.size
            memo[xi] = result
    return result


def prob_auto(ring: Ring, x: RingElement | int,
              cap: int | None = DEFAULT_SIZE_CAP) -> FormulaResult:
    """Formula dispatch with the annihilator-sum engine as the fallback,
    which alone is held to rings.ENUMERATION_LIMIT when cap is None."""
    if cap is not None:
        check_size_cap(ring, cap)
    try:
        return prob_formula(ring, x)
    except FormulaUnavailable:
        return FormulaResult(
            value=prob_annsum(ring, x, cap=cap),
            formula="annsum",
            applicability={"fallback": True},
        )
