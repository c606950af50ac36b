"""Exact engines for the multiplication probability of a finite ring.

Three independent routes are kept deliberately separate so that each can
serve as an oracle for the others:

  prob_brute   - the definitional count over all |R|^2 ordered pairs,
  prob_annsum  - the annihilator-sum identity (sum of |ann_r(a)| over the
                 elements a whose row reaches x),
  pair_counts  - a single pass binning every ordered pair by its product
                 (the workhorse behind full spectra).

All values are exact integer pairs; nothing here touches floating point.
"""

from __future__ import annotations

from math import gcd

from ._record import Record
from .errors import MixedRings, ValidationError
from .recipe import Invariants, invariants, matrix_rank
from .rings import DEFAULT_SIZE_CAP, MatrixRing, Ring, RingElement, check_size_cap


class ProbFraction(Record):
    """An exact probability as (hit count, total); reduced only on display."""

    __slots__ = ("hits", "total")
    hits: int
    total: int

    def __init__(self, hits: int, total: int):     # written out: the hottest record
        if total <= 0:
            raise ValueError("total must be positive")
        if not 0 <= hits <= total:
            raise ValueError(f"hits {hits} outside [0, {total}]")
        object.__setattr__(self, "hits", hits)
        object.__setattr__(self, "total", total)

    def reduced(self) -> tuple[int, int]:
        g = gcd(self.hits, self.total)
        return self.hits // g, self.total // g

    def decimal_str(self, digits: int = 12) -> str:
        from decimal import Decimal, localcontext   # only printed output needs decimal
        with localcontext() as ctx:
            ctx.prec = digits
            return str(Decimal(self.hits) / Decimal(self.total))

    def __mul__(self, other: "ProbFraction") -> "ProbFraction":
        return ProbFraction(self.hits * other.hits, self.total * other.total)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbFraction):
            return NotImplemented
        return self.hits * other.total == other.hits * self.total

    def __lt__(self, other: "ProbFraction") -> bool:
        return self.hits * other.total < other.hits * self.total

    def __le__(self, other: "ProbFraction") -> bool:
        return self.hits * other.total <= other.hits * self.total

    def __gt__(self, other: "ProbFraction") -> bool:
        return other < self

    def __ge__(self, other: "ProbFraction") -> bool:
        return other <= self

    def __hash__(self) -> int:
        return hash(self.reduced())

    def __str__(self) -> str:
        num, den = self.reduced()
        return f"{num}/{den}"


def _index_of(ring: Ring, x: RingElement | int) -> int:
    if isinstance(x, RingElement):
        if x.ring != ring:
            raise MixedRings(f"{x.ring.describe()} element used in {ring.describe()}")
        return x.index
    i = int(x)
    if not 0 <= i < ring.size:
        raise ValidationError(f"index {i} outside [0, {ring.size})")
    return i


def delta(a: RingElement, x: RingElement) -> int:
    """1 if some b solves ab = x, else 0 (scan over the full row, so a
    ring above rings.ENUMERATION_LIMIT is refused)."""
    ring = a.ring
    check_size_cap(ring, cap=None)
    xi = _index_of(ring, x)
    return 1 if xi in ring.mul_row(a.index) else 0


def prob_brute(ring: Ring, x: RingElement | int,
               cap: int | None = DEFAULT_SIZE_CAP) -> ProbFraction:
    """Definitional oracle: count ordered pairs (a, b) with ab = x."""
    check_size_cap(ring, cap)
    xi = _index_of(ring, x)
    n = ring.size
    hits = 0
    for a in range(n):
        hits += ring.mul_row(a).count(xi)
    return ProbFraction(hits, n * n)


def prob_annsum(ring: Ring, x: RingElement | int,
                cap: int | None = DEFAULT_SIZE_CAP) -> ProbFraction:
    """Annihilator-sum engine: add |ann_r(a)| whenever x lies in aR."""
    check_size_cap(ring, cap)
    xi = _index_of(ring, x)
    n = ring.size
    hits = 0
    for a in range(n):
        row = ring.mul_row(a)
        if xi in row:
            hits += row.count(0)
    return ProbFraction(hits, n * n)


def pair_counts(ring: Ring, cap: int | None = DEFAULT_SIZE_CAP) -> tuple[int, ...]:
    """Hit count per product index from one pass over all ordered pairs;
    memoized on the ring instance."""
    check_size_cap(ring, cap)
    if ring._pair_counts is None:
        counts = [0] * ring.size
        for a in range(ring.size):
            for v in ring.mul_row(a):
                counts[v] += 1
        ring._pair_counts = tuple(counts)
    return ring._pair_counts


def annsum_counts(ring: Ring, cap: int | None = DEFAULT_SIZE_CAP) -> tuple[int, ...]:
    """All-x analogue of prob_annsum (for cross-validation): x gets the
    sum of |ann_r(a)| over the a with x in aR.  The a are grouped by aR
    and each group's sum is added once over its aR.  |aR| = |R| /
    |ann_r(a)|, so the a with |ann_r(a)| = 1 are those with aR = R."""
    check_size_cap(ring, cap)
    whole = 0       # how many a have aR = R
    ann_sums: dict[frozenset[int], int] = {}
    for a in range(ring.size):
        row = ring.mul_row(a)
        ann = row.count(0)
        if ann == 1:
            whole += 1
        else:
            reached = frozenset(row)
            ann_sums[reached] = ann_sums.get(reached, 0) + ann
    counts = [whole] * ring.size
    for reached, ann in ann_sums.items():
        for x in reached:
            counts[x] += ann
    return tuple(counts)


class SpectrumEntry(Record):
    label: str
    representative: int
    class_size: int
    prob: ProbFraction


class SpectrumReport(Record):
    """Per-class multiplication probabilities over the whole ring."""

    ring: Ring
    counts: tuple[int, ...]
    entries: tuple[SpectrumEntry, ...]


def _class_label(ring: Ring, inv: Invariants, index: int) -> str:
    if index == 0:
        return "zero"
    if isinstance(ring, MatrixRing):
        return f"rank {matrix_rank(ring.element(index))}"
    if inv.is_unit(index):
        return "unit"
    if inv.is_local:
        return f"J^{inv.radical_layer(index)}"
    return "zero-divisor"


def spectrum(ring: Ring, cap: int | None = DEFAULT_SIZE_CAP) -> SpectrumReport:
    """Group elements into classes of equal probability and shared label;
    memoized on the ring instance."""
    counts = pair_counts(ring, cap)
    if ring._spectrum is not None:
        return ring._spectrum
    inv = invariants(ring)
    total = ring.size ** 2
    groups: dict[tuple[str, int], list[int]] = {}
    for i in range(ring.size):
        key = (_class_label(ring, inv, i), counts[i])
        groups.setdefault(key, [0, ring.size])
        groups[key][0] += 1
        groups[key][1] = min(groups[key][1], i)
    entries = [
        SpectrumEntry(label=label, representative=rep, class_size=size,
                      prob=ProbFraction(hits, total))
        for (label, hits), (size, rep) in groups.items()
    ]
    entries.sort(key=lambda e: e.representative)
    ring._spectrum = SpectrumReport(ring=ring, counts=counts, entries=tuple(entries))
    return ring._spectrum
