"""Structural data of a finite ring: units, zero-divisors, annihilators,
the radical power chain, and the local-ring classification (q, n).

Everything here is exhaustive over element indices and reads the ring's
tables; rings are expected to be at corpus scale (a few hundred to a few
thousand elements).  `structure_report` is the enumeration oracle: the
`structure` command and the verify suites read it, and closed-form
dispatch (`recipe.invariants`) reads it only for rings without a recipe,
i.e. table rings, quotient rings and other polynomial quotients.

The report enumerates only the units U and the radical J.  A non-unit's
mul row repeats (injective would mean bijective, so invertible), so the
zero-divisors are the non-units; J lies inside them, so R is local iff
|U| + |J| = |R|, and then R/J is a finite division ring, a field by
Wedderburn's little theorem, of order q = |R|/|J|.

The work is done a whole row at a time: J is {x : xR is nil}, each
radical power's products read one table row per element, a principal
ideal RgR is the union of the rows xR over the column Rg, and additive
closures grow by doubling.  Every ideal is still validated
(`rings.validate_ideal`): its additive closure and its products with the
ring's d additive generators cost O(|I| * d) sums and products.
"""

from __future__ import annotations

from operator import contains

from ._record import Record
from .errors import NotLocal
from .rings import Ring, additive_closure, check_size_cap, row_scan, validate_ideal

# What radical_layer raises at 0, here and in recipe.Invariants.
_LAYER_OF_ZERO = "layer of 0 is not defined; every power contains it"


class Ideal(Record):
    """A validated two-sided ideal, stored as an element-index set."""

    ring: Ring
    members: frozenset[int]

    def _check(self):
        validate_ideal(self.ring, self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_zero(self) -> bool:
        return self.members == frozenset({0})

    def __contains__(self, index: int) -> bool:
        return index in self.members


def units(ring: Ring) -> frozenset[int]:
    """Indices with a multiplicative inverse (one-sided suffices here)."""
    one = ring.one_index
    return frozenset(u for u in range(ring.size) if contains(*row_scan(ring.mul_row(u), one)))


def _divisor_flags(ring: Ring) -> tuple[list[bool], list[bool]]:
    """(left, right) zero-divisor flags per index, straight from the definition."""
    n = ring.size
    left = [False] * n
    right = [False] * n
    for a in range(n):
        hay, zero = row_scan(ring.mul_row(a), 0)
        zeros = hay.count(zero)
        left[a] = zeros >= 2        # a*0 = 0 always; a second zero is a witness
        pos = -1
        for _ in range(zeros if a else 0):      # the zero positions of a nonzero a
            pos = hay.index(zero, pos + 1)
            right[pos] = True
    return left, right


def zero_divisors(ring: Ring) -> frozenset[int]:
    """Indices x with some y != 0 such that xy = 0 or yx = 0 (0 included)."""
    left, right = _divisor_flags(ring)
    return frozenset(x for x in range(ring.size) if left[x] or right[x])


def left_right_symmetry_check(ring: Ring) -> bool:
    """True iff every one-sided zero-divisor is two-sided (falsifier hook)."""
    left, right = _divisor_flags(ring)
    return left == right


def principal_ideal_members(ring: Ring, gi: int) -> frozenset[int]:
    """Index set of the two-sided ideal generated by element gi.

    RgR is the union of the rows xR over x in Rg, the column of gi.  Row
    gR is taken first, and any x already inside a row taken, say x = y*r,
    is skipped, since then xR lies inside yR.
    """
    n = ring.size
    if gi == 0:
        return frozenset({0})
    one = ring.one_index
    generators = set(ring.mul_row(gi))
    if one not in generators:
        for x in set(ring.mul_column(gi)):
            if x not in generators:
                generators.update(ring.mul_row(x))
                if one in generators:
                    break
    if one in generators:
        return frozenset(range(n))
    return additive_closure(ring, generators)


class StructureReport(Record):
    """Classification data every probability formula dispatches on."""

    ring: Ring
    units: frozenset[int]
    zero_divisors: frozenset[int]
    radical_chain: tuple[Ideal, ...]
    nilpotency_index: int
    is_local: bool
    q: int | None
    n: int | None
    is_max_chain: bool
    is_j2_zero: bool

    @property
    def radical(self) -> Ideal:
        return self.radical_chain[0]

    def radical_layer(self, index: int) -> int:
        """Largest k with the element inside the k-th radical power.

        Units sit at layer 0 (the whole ring); only meaningful for
        nonzero indices, since 0 lies in every power.
        """
        if index == 0:
            raise ValueError(_LAYER_OF_ZERO)
        k = 0
        for ideal in self.radical_chain:
            if index in ideal.members:
                k += 1
            else:
                break
        return k


def _nilpotents(ring: Ring) -> set[int]:
    """Indices x with x^m = 0 for some m.  A nilpotent x has x^|R| = 0, so
    squaring ceil(log2 |R|) times decides it."""
    n = ring.size
    out = set()
    for x in range(n):
        y, m = x, 1
        while y and m < n:
            y = ring.mul_index(y, y)
            m *= 2
        if not y:
            out.add(x)
    return out


def _radical_members(ring: Ring) -> frozenset[int]:
    """J = {x : xR is nil}.  In a finite ring J is nil and every nil right
    ideal lies in J, so this is the Jacobson radical; it needs only the
    mul rows."""
    nil = _nilpotents(ring)
    return frozenset(x for x in nil if nil.issuperset(ring.mul_row(x)))


def _radical_chain(ring: Ring, j_members: frozenset[int]) -> tuple[Ideal, ...]:
    chain = [Ideal(ring, j_members)]
    while not chain[-1].is_zero:
        prev = chain[-1].members
        seed = set()
        for a in prev:
            row = ring.mul_row(a)
            seed.update([row[b] for b in j_members])
        nxt = additive_closure(ring, seed)
        if len(nxt) >= len(prev):
            raise AssertionError("radical powers failed to decrease strictly")
        chain.append(Ideal(ring, nxt))
    return tuple(chain)


def structure_report(ring: Ring) -> StructureReport:
    """Full structural classification; memoized on the ring instance."""
    if ring._structure is not None:
        return ring._structure
    check_size_cap(ring, cap=None)      # the enumeration limit alone
    size = ring.size
    unit_set = units(ring)
    j_members = _radical_members(ring)
    if not unit_set.isdisjoint(j_members):
        raise AssertionError("the radical holds a unit")
    chain = _radical_chain(ring, j_members)
    t = len(chain)

    # J lies inside the non-units, so R is local iff J is all of them; R/J
    # is then a finite division ring, hence a field, of order |R|/|J|
    is_local = len(unit_set) + len(j_members) == size
    q = n = None
    if is_local:
        q = size // len(j_members)
        m, n = size, 0
        while m > 1 and m % q == 0:
            m //= q
            n += 1
        if m != 1:
            raise AssertionError("local ring order is not a power of the residue order")

    ring._structure = StructureReport(
        ring=ring,
        units=unit_set,
        zero_divisors=frozenset(range(size)) - unit_set,  # a non-unit's row repeats
        radical_chain=chain,
        nilpotency_index=t,
        is_local=is_local,
        q=q,
        n=n,
        is_max_chain=is_local and t == n,
        is_j2_zero=t <= 2,
    )
    return ring._structure


def _is_power_of(value: int, base: int) -> bool:
    while value > 1 and value % base == 0:
        value //= base
    return value == 1


def ideal_size_power_check(ring: Ring) -> bool:
    """All principal one-sided ideals, radical powers, and right
    annihilators have size a power of the residue field order."""
    report = structure_report(ring)
    if not report.is_local:
        raise NotLocal(f"{ring.describe()} is not local")
    q = report.q
    n = ring.size
    for ideal in report.radical_chain:
        if not _is_power_of(ideal.size, q):
            return False
    for a in range(n):
        row = ring.mul_row(a)
        if not _is_power_of(len(set(row)), q):          # aR
            return False
        hay, zero = row_scan(row, 0)
        if not _is_power_of(hay.count(zero), q):        # ann_r(a)
            return False
    return all(_is_power_of(len(set(ring.mul_column(x))), q) for x in range(n))  # Ra


def unit_plus_radical_check(ring: Ring) -> bool:
    """True iff u + j is a unit for every unit u and radical member j."""
    report = structure_report(ring)
    unit_set = report.units
    for u in unit_set:
        row = ring.add_row(u)
        for j in report.radical.members:
            if row[j] not in unit_set:
                return False
    return True
