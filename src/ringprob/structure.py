"""Structural data of a finite ring: units, zero-divisors, annihilators,
the radical power chain, and the local-ring classification (q, n).

Everything here is exhaustive over element indices and reads the ring's
tables; rings are expected to be at corpus scale (a few hundred to a few
thousand elements).  `structure_report` is the enumeration oracle: the
`structure` command and the verify suites read it, and closed-form
dispatch (`recipe.invariants`) reads it only for rings without a recipe,
i.e. table rings, quotient rings and other polynomial quotients.

The work is done a whole row at a time: J is {x : xR is nil}, each
radical power's products and the locality test read one table row per
element, a principal ideal RgR is the union of the rows xR over the
column Rg, and additive closures grow by doubling.  Every ideal is still
validated (`rings.validate_ideal`), which checks products only against
the ring's additive generators, so a radical power I costs O(|I|^2) sums
and O(|I| * d) products for d generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NotLocal
from .rings import Ring, RingElement, quotient_make, validate_ideal


@dataclass(frozen=True)
class Ideal:
    """A validated two-sided ideal, stored as an element-index set."""

    ring: Ring
    members: frozenset[int]

    def __post_init__(self):
        validate_ideal(self.ring, self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_zero(self) -> bool:
        return self.members == frozenset({0})

    @property
    def is_proper(self) -> bool:
        return len(self.members) < self.ring.size

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def __contains__(self, index: int) -> bool:
        return index in self.members


def additive_closure(ring: Ring, generators: Iterable[int],
                     stop_when_full: bool = False) -> frozenset[int]:
    """Smallest additive subgroup containing the generators.

    Each new generator g joins by doubling: with H the closure so far,
    S = H + {0, g, ..., (2^j - 1) g} grows by S + 2^j g until 2^j g lies in
    S, which happens exactly when S = H + <g>, so each generator costs
    log2 of its order modulo H row gathers.

    With stop_when_full, returns the full index set as soon as the closure
    is forced to be the whole group (size beyond half the ring).
    """
    n = ring.size
    closure: set[int] = {0}
    todo = set(generators)
    while True:
        todo -= closure
        if not todo:
            return frozenset(closure)
        step = min(todo)
        while step not in closure:
            row = ring.add_row(step)
            closure.update([row[s] for s in closure])
            step = row[step]
        if stop_when_full and len(closure) > n // 2:
            return frozenset(range(n))  # subgroup order divides n


def units(ring: Ring) -> frozenset[int]:
    """Indices with a multiplicative inverse (one-sided suffices here)."""
    one = ring.one_index
    return frozenset(u for u in range(ring.size) if one in ring.mul_row(u))


def _zero_positions(row) -> Iterable[int]:
    start = 0
    while True:
        try:
            pos = row.index(0, start)
        except ValueError:
            return
        yield pos
        start = pos + 1


def _divisor_flags(ring: Ring) -> tuple[list[bool], list[bool]]:
    """(left, right) zero-divisor flags per index, straight from the definition."""
    n = ring.size
    left = [False] * n
    right = [False] * n
    for a in range(n):
        row = ring.mul_row(a)
        if row.count(0) >= 2:        # a*0 = 0 always; a second zero is a witness
            left[a] = True
        if a != 0:
            for x in _zero_positions(row):
                right[x] = True
    return left, right


def zero_divisors(ring: Ring) -> frozenset[int]:
    """Indices x with some y != 0 such that xy = 0 or yx = 0 (0 included)."""
    left, right = _divisor_flags(ring)
    return frozenset(x for x in range(ring.size) if left[x] or right[x])


def left_right_symmetry_check(ring: Ring) -> bool:
    """True iff every one-sided zero-divisor is two-sided (falsifier hook)."""
    left, right = _divisor_flags(ring)
    return left == right


def right_annihilator(a: RingElement) -> frozenset[int]:
    """{y : ay = 0} as an index set."""
    return frozenset(_zero_positions(a.ring.mul_row(a.index)))


def right_annihilator_size(ring: Ring, index: int) -> int:
    return ring.mul_row(index).count(0)


def jacobson_radical(ring: Ring) -> Ideal:
    """{x : 1 - ax is a unit for every a}, as a validated ideal."""
    return structure_report(ring).radical_chain[0]


def radical_powers(ring: Ring) -> tuple[Ideal, ...]:
    """[J, J^2, ..., J^t = {0}], strictly decreasing."""
    return structure_report(ring).radical_chain


def principal_two_sided_ideal(ring: Ring, g: RingElement | int) -> Ideal:
    """Smallest two-sided ideal containing g (additive closure of agb)."""
    gi = g.index if isinstance(g, RingElement) else int(g)
    return Ideal(ring, principal_ideal_members(ring, gi))


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
    return additive_closure(ring, generators, stop_when_full=True)


@dataclass(frozen=True)
class StructureReport:
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
            raise ValueError("layer of 0 is not defined; every power contains it")
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


def _nonunits_add_closed(ring: Ring, unit_set: frozenset[int]) -> bool:
    nonunits = [x for x in range(ring.size) if x not in unit_set]
    for x in nonunits:
        row = ring.add_row(x)
        if not unit_set.isdisjoint([row[y] for y in nonunits]):
            return False
    return True


def structure_report(ring: Ring) -> StructureReport:
    """Full structural classification; memoized on the ring instance."""
    if ring._structure is not None:
        return ring._structure
    unit_set = units(ring)
    zd = zero_divisors(ring)
    j_members = _radical_members(ring)
    chain = _radical_chain(ring, j_members)
    t = len(chain)

    is_local = _nonunits_add_closed(ring, unit_set)
    q = n = None
    if is_local:
        nonunits = frozenset(x for x in range(ring.size) if x not in unit_set)
        if nonunits != j_members:
            raise AssertionError("non-units form an ideal but differ from the radical")
        residue = quotient_make(ring, j_members)
        residue_units = units(residue)
        if len(residue_units) != residue.size - 1:
            raise AssertionError("residue ring of a local ring is not a field")
        q = residue.size
        m, n = ring.size, 0
        while m > 1 and m % q == 0:
            m //= q
            n += 1
        if m != 1:
            raise AssertionError("local ring order is not a power of the residue order")

    ring._structure = StructureReport(
        ring=ring,
        units=unit_set,
        zero_divisors=zd,
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
    columns: list[set[int]] = [set() for _ in range(n)]
    for a in range(n):
        row = ring.mul_row(a)
        if not _is_power_of(len(set(row)), q):          # aR
            return False
        if not _is_power_of(row.count(0), q):           # ann_r(a)
            return False
        for x in range(n):
            columns[x].add(row[x])
    return all(_is_power_of(len(col), q) for col in columns)  # Ra


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
