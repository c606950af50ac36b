"""Concrete finite unital rings with a canonical 0-based element indexing.

Every construction assigns each element an index in [0, |R|) with index 0
the additive zero.  All arithmetic is exact integer arithmetic on indices;
rings at or below DEFAULT_SIZE_CAP build two tables lazily, each whole:
the mul rows on the first multiplicative access (mul_row, mul_column,
mul_index) and the add rows with the negation list on the first additive
one (add_row, add_index, neg_index), so a query that never enumerates
builds neither.  A quotient ring sets its mul rows at construction (R/{0}
shares its parent's, any other quotient keeps those its coset check
gathers).  Threads racing on a first access may each build a table, with
equal results.

Additive presentation.  Each ring lists its summands, slowest first: an
int m is a cyclic digit Z_m, and a ring is one opaque digit that adds
through that ring's own operations.  An element index is exactly its
mixed-radix digit vector over these radices, so addition and negation
work digit by digit.  Ring._build_add_rows derives the add rows from
them, and Ring._build_mul_rows the mul rows from those plus _mul on
(digit element, additive generator) pairs only; a ring of one cyclic
digit (Z_n, GF(p)) needs no add rows for its mul rows.  A table ring's
tables are its rows and a quotient ring reads its tables off its
parent's; each is one opaque digit of any ring built over it.

Radices per construction, slowest digit first (q = p^r):
  ZMod(n)              (n,)             index = residue
  PolyQuotient         base radices * degree
                                        coefficient vector of base indices,
                                        constant term least significant;
                                        GF(q) = Z_p[t]/(f) has (p,)*r
  Matrix(k, GF(q))     (p,)*(r*k*k)     columns packed left to right, most
                                        significant first; within a column
                                        the top entry is most significant;
                                        each entry is a field index
  TrivialExtension     (p,)*(r*(m+1))   (a, u_1..u_m), a most significant,
                                        u_m fastest; each a field index
  Product              the factors' radices joined, first factor slowest
  Table                (|R|,) opaque    the raw table index
  Quotient             (|R|,) opaque    cosets sorted by their minimal
                                        parent index
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Callable, Iterable, Sequence
from functools import reduce
from math import gcd
from operator import itemgetter

from .errors import (
    EnumerationLimitExceeded,
    ImproperIdeal,
    NotAnIdeal,
    SizeCapExceeded,
    ValidationError,
)
from .finfield import factor_prime_power, field_make, is_irreducible, is_prime

# Rings up to this size get full |R| x |R| operation tables on first use,
# and the enumeration engines refuse larger ones unless given cap=None.
DEFAULT_SIZE_CAP = 4096

# Enumeration refuses a ring above this size whatever the cap.  It walks
# |R|^2 pairs, each a Python-level product above DEFAULT_SIZE_CAP: 18 s
# for Z8192 on a 2-vCPU host, so about 20 min at 2^16 and each doubling 4x
# that, while cheap closed forms answer rings up to 2^4096 elements.
ENUMERATION_LIMIT = 2 ** 16

# Cayley-table rings: one-byte rows up to here, audited at load in O(N^2 log N).
TABLE_RING_CAP = 256


def _row_typecode(size: int) -> str:
    return "B" if size <= 256 else "H" if size <= 65536 else "l"


class Ring:
    """Base class: immutable descriptor plus index-level exact arithmetic."""

    size: int
    one_index: int
    # Additive presentation, slowest summand first (see the module docstring).
    summands: tuple

    # -- construction-time plumbing -----------------------------------------

    def _init_tables(self) -> None:
        self._hash: int | None = None
        self._commutative: bool | None = None
        # per-ring memos of structure_report, invariants, pair_counts and
        # spectrum, and of recipe.components (False until first computed)
        self._structure = None
        self._invariants = None
        self._components = False
        self._pair_counts: tuple[int, ...] | None = None
        self._spectrum = None
        self._mul_rows: list[array] | None = None
        self._add_rows: list[array] | None = None
        self._neg_list: array | None = None
        # (stride, radix, opaque ring or None), fastest digit first
        self._digits: list[tuple[int, int, Ring | None]] = []
        stride = 1
        for s in reversed(self.summands):
            opaque = None if isinstance(s, int) else s
            m = s if opaque is None else opaque.size
            self._digits.append((stride, m, opaque))
            stride *= m
        self._cyclic = self.summands == (self.size,)

    def _mul_table(self) -> bool:
        """Build the mul rows on the first multiplicative access; False for
        a ring above DEFAULT_SIZE_CAP, which computes per call."""
        if self._mul_rows is None:
            if self.size > DEFAULT_SIZE_CAP:
                return False
            self._mul_rows = self._build_mul_rows()
        return True

    def _add_table(self) -> bool:
        """Build the add rows and the negation list on the first additive
        access, the list first, so a ring whose add rows are set has both."""
        if self._add_rows is None:
            if self.size > DEFAULT_SIZE_CAP:
                return False
            self._neg_list = array(_row_typecode(self.size), map(self._neg, range(self.size)))
            self._add_rows = self._build_add_rows()
        return True

    def _build_add_rows(self) -> list[array]:
        """Add rows from the additive presentation.

        Add row a: let v be a's slowest nonzero digit, at stride s, and
        rest = a - v*s, whose row is already built.  Then a + x = rest +
        (x + v*s), and x -> x + v*s only permutes stride-s slices within
        each run of radix*s indices (a rotation for a cyclic digit), so the
        row is rest's row re-sliced."""
        n = self.size
        code = _row_typecode(n)
        add_rows = [array(code, range(n))]
        for a in range(1, n):
            for stride, m, opaque in reversed(self._digits):
                v = a // stride % m
                if v:
                    break
            if opaque is None:
                cuts = [(v * stride, m * stride), (0, v * stride)]
            else:
                cuts = [(t * stride, (t + 1) * stride) for t in opaque.add_row(v)]
            prev = add_rows[a - v * stride]
            row = array(code)
            for base in range(0, n, m * stride):
                for lo, hi in cuts:
                    row += prev[base + lo:base + hi]
            add_rows.append(row[:])     # an exact-size copy drops the slack += leaves
        return add_rows

    def _build_mul_rows(self) -> list[array]:
        """Mul rows; only a ring of one cyclic digit skips the add rows.

        There 1 generates the additive group, so a*b = (a*e)*b mod n with
        e = 1*1, and row a repeats its first n / gcd(a*e, n) entries.

        Any other ring builds its add rows first.  Column g, a -> a*g, for
        each additive generator g: a*g = (v*s)*g + rest*g, and the a led by
        v*s are v*s + y for y < s, so the column grows digit by digit,
        fastest first, with col[v*s + y] = (v*s)*g + col[y].

        Mul row a grows digit by digit, fastest first: once row[0:s) is
        known, row[c*s + y] = a*(c*e) + row[y] for each value c of the digit
        at stride s, where a*(c*e) is c*(a*e) for a cyclic digit and a
        column entry for an opaque one.  So _mul runs only on (v*s,
        generator) pairs, at most len(additive_generators()) * sum(m - 1)
        calls, never on all pairs.
        """
        n = self.size
        code = _row_typecode(n)
        if self._cyclic:
            e = self._mul(1, 1)
            rows = []
            for a in range(n):
                c = a * e % n
                period = n // gcd(c, n)
                head = [x % n for x in range(0, c * period, c)] if c else [0]
                rows.append(array(code, head) * (n // period))
            return rows
        self._add_table()
        add_rows = self._add_rows
        cols = {}
        for g in self.additive_generators():
            col = cols[g] = [0]
            for stride, m, _ in self._digits:
                for v in range(1, m):
                    shift = add_rows[self._mul(v * stride, g)]
                    col += [shift[c] for c in col[:stride]]
        mul_rows = []
        for a in range(n):
            row = [0]
            for stride, m, opaque in self._digits:
                if opaque is None:
                    # doubling: row[(k + c)*s + y] = k*(a*e) + row[c*s + y]
                    step = add_rows[cols[stride][a]]
                    k = 1
                    while k < m:
                        shift = add_rows[step[row[(k - 1) * stride]]]
                        row += [shift[y] for y in row[:min(k, m - k) * stride]]
                        k = min(2 * k, m)
                else:
                    prods = [cols[c * stride][a] for c in range(1, m)]
                    row += [add_rows[x][y] for x in prods for y in row]
            mul_rows.append(array(code, row))
        return mul_rows

    # -- arithmetic: addition and negation digit by digit, _mul per class ----

    def _add(self, i: int, j: int) -> int:
        if self._cyclic:
            # one cyclic digit (Z_n): the loop below as a single modulo,
            # since an untabled Z_n pays this on every call
            return (i + j) % self.size
        # i // stride carries the slower digits only as multiples of m, which
        # a cyclic digit's own reduction mod m drops.
        out = 0
        for stride, m, opaque in self._digits:
            if opaque is None:
                out += (i // stride + j // stride) % m * stride
            else:
                out += opaque.add_index(i // stride % m, j // stride % m) * stride
        return out

    def _neg(self, i: int) -> int:
        if self._cyclic:
            return -i % self.size
        out = 0
        for stride, m, opaque in self._digits:
            if opaque is None:
                out += -(i // stride) % m * stride
            else:
                out += opaque.neg_index(i // stride % m) * stride
        return out

    def _mul(self, i: int, j: int) -> int:
        raise NotImplementedError

    def additive_generators(self) -> list[int]:
        """Elements whose sums give every element, fastest digit first: the
        unit vector of each cyclic digit and every nonzero value of each
        opaque digit, i.e. the elements _build_mul_rows multiplies by."""
        return [g for stride, m, opaque in self._digits
                for g in ([stride] if opaque is None else range(stride, m * stride, stride))]

    def decode(self, i: int):
        """Structural form of element i; encode() inverts it."""
        raise NotImplementedError

    def encode(self, form) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        """Ring-spec text; parseable for every grammar-backed construction."""
        raise NotImplementedError

    def key(self) -> tuple:
        """Hashable construction recipe; defines ring equality."""
        raise NotImplementedError

    def format_element(self, i: int) -> str:
        """Element literal text (round-trips through the literal parser)."""
        return f"#{i}"

    # -- public index-level API ----------------------------------------------

    def add_index(self, i: int, j: int) -> int:
        rows = self._add_rows
        if rows is None:
            if not self._add_table():
                return self._add(i, j)
            rows = self._add_rows
        return rows[i][j]

    def mul_index(self, i: int, j: int) -> int:
        rows = self._mul_rows
        if rows is None:
            if not self._mul_table():
                return self._mul(i, j)
            rows = self._mul_rows
        return rows[i][j]

    def neg_index(self, i: int) -> int:
        neg = self._neg_list
        if neg is None:
            if not self._add_table():
                return self._neg(i)
            neg = self._neg_list
        return neg[i]

    def mul_row(self, i: int) -> Sequence[int]:
        """Row i of the multiplication table: [i*0, i*1, ..., i*(n-1)]."""
        if self._mul_rows is not None or self._mul_table():
            return self._mul_rows[i]
        return array(_row_typecode(self.size), [self._mul(i, j) for j in range(self.size)])

    def mul_column(self, j: int) -> list[int]:
        """Column j of the multiplication table: [0*j, 1*j, ..., (n-1)*j]."""
        if self._mul_rows is not None or self._mul_table():
            return list(map(itemgetter(j), self._mul_rows))
        return [self._mul(i, j) for i in range(self.size)]

    def add_row(self, i: int) -> Sequence[int]:
        if self._add_rows is not None or self._add_table():
            return self._add_rows[i]
        return array(_row_typecode(self.size), [self._add(i, j) for j in range(self.size)])

    def element(self, i: int) -> "RingElement":
        if not 0 <= i < self.size:
            raise ValidationError(f"index {i} outside [0, {self.size})")
        return RingElement(self, i)

    def is_commutative(self) -> bool:
        if self._commutative is None:
            n = self.size
            self._commutative = all(
                self.mul_index(i, j) == self.mul_index(j, i)
                for i in range(n) for j in range(i + 1, n)
            )
        return self._commutative

    def __eq__(self, other) -> bool:
        # identity first: a table ring's key() joins all its rows
        return self is other or isinstance(other, Ring) and self.key() == other.key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self) -> str:
        return f"<Ring {self.describe()} (|R|={self.size})>"


class RingElement:
    """The (ring, index) pair an element literal parses to."""

    __slots__ = ("ring", "index")

    def __init__(self, ring: Ring, index: int):
        self.ring = ring
        self.index = index

    @property
    def form(self):
        return self.ring.decode(self.index)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RingElement)
                and self.index == other.index and self.ring == other.ring)

    def __hash__(self) -> int:
        return hash((self.index, self.ring))

    def __repr__(self) -> str:
        return f"<{self.ring.format_element(self.index)} in {self.ring.describe()}>"


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


class ZModRing(Ring):
    """Integers modulo n; index equals residue."""

    def __init__(self, n: int):
        if n < 2:
            raise ValidationError(f"ZMod needs modulus >= 2, got {n}")
        self.n = n
        self.size = n
        self.one_index = 1
        self.summands = (n,)
        self._init_tables()
        self._commutative = True

    def _mul(self, i, j):
        return (i * j) % self.n

    def decode(self, i):
        return i

    def encode(self, form):
        return int(form) % self.n

    def describe(self):
        return f"Z{self.n}"

    def key(self):
        return ("zmod", self.n)

    def format_element(self, i):
        return str(i)


def entry_ops(ring: Ring, inner: Ring) -> tuple[Callable, Callable, Callable]:
    """Index-level (add, mul, neg) of inner, the ring of the entries or
    coefficients of ring's elements (a matrix ring's field, a quotient's
    base).  While ring is within DEFAULT_SIZE_CAP they read inner's tables
    (for a field under M_k, k >= 2, or triv, q <= 64 then); above it they
    compute per call, so a closed form on M2(GF3721) or M2(GF(4093^2))
    builds no table of the field or of Z_4093."""
    if ring.size <= DEFAULT_SIZE_CAP:
        return inner.add_index, inner.mul_index, inner.neg_index
    return inner._add, inner._mul, inner._neg


def _wrap_entry(text: str) -> str:
    """An entry's literal inside a composite literal: parenthesised when it
    is itself a list, i.e. has a comma outside every bracket pair."""
    depth = 0
    for ch in text:
        depth += (ch in "([") - (ch in ")]")
        if ch == "," and not depth:
            return f"({text})"
    return text


class MatrixRing(Ring):
    """k-by-k matrices over a field ring (field_ring(q)); forms are row
    tuples of field indices."""

    def __init__(self, k: int, field: Ring):
        if k < 1:
            raise ValidationError(f"matrix dimension must be >= 1, got {k}")
        self.k = k
        self.field = field
        self.q = field.size
        self.size = self.q ** (k * k)
        self.one_index = self._encode_identity()
        self.summands = field.summands * (k * k)
        self._init_tables()
        self._commutative = (k == 1)

    # -- digit packing -------------------------------------------------------

    def _entries(self, i: int) -> list[int]:
        """The k*k base-q digits of index i, most significant first; entry
        (r, c) is digit c*k + r."""
        q = self.q
        out = [0] * (self.k * self.k)
        for d in range(len(out) - 1, -1, -1):
            i, out[d] = divmod(i, q)
        return out

    def _encode_identity(self) -> int:
        k = self.k
        rows = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        return self.encode(rows)

    def decode(self, i):
        k = self.k
        digits = self._entries(i)
        return tuple(tuple(digits[r::k]) for r in range(k))

    def encode(self, form) -> int:
        k, q = self.k, self.q
        idx = 0
        for c in range(k):
            for r in range(k):
                idx = idx * q + form[r][c]
        return idx

    # -- arithmetic ------------------------------------------------------------

    def _mul(self, i, j):
        """Entry (r, c) of the product is row r of i dotted with column c of
        j: integers mod q over a prime field, else field indices combined
        by entry_ops."""
        k, q = self.k, self.q
        a, b = self._entries(i), self._entries(j)
        rows = [a[r::k] for r in range(k)]
        prime = self.field._cyclic
        add, mul, _ = entry_ops(self, self.field)
        out = 0
        for c in range(0, k * k, k):
            col = b[c:c + k]
            for row in rows:
                if prime:
                    s = sum(x * y for x, y in zip(row, col)) % q
                else:
                    s = reduce(add, map(mul, row, col))
                out = out * q + s
        return out

    def describe(self):
        return f"M{self.k}(GF{self.q})"

    def key(self):
        return ("matrix", self.k, self.field.key())

    def format_element(self, i):
        fmt = self.field.format_element
        rows = ("[" + ",".join(_wrap_entry(fmt(e)) for e in row) + "]"
                for row in self.decode(i))
        return "[" + ",".join(rows) + "]"


class PolyQuotientRing(Ring):
    """base[t]/(modulus) for a commutative base and monic modulus.

    Forms are coefficient vectors of base-ring element indices, constant
    term first.  Covers the fields GF(p^r) = Z_p[t]/(f), chain rings
    GF(q)[t]/(t^m) and Galois rings Z_{p^k}[t]/(f) with f irreducible
    mod p, of which the fields are the case k = 1.
    """

    def __init__(self, base: Ring, modulus: Sequence[int], label: str | None = None):
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) < 2:
            raise ValidationError("modulus must have degree >= 1")
        if modulus[-1] != base.one_index:
            raise ValidationError("modulus must be monic over the base ring")
        if any(not 0 <= c < base.size for c in modulus):
            raise ValidationError("modulus coefficients outside the base ring")
        if not base.is_commutative():
            raise ValidationError("polynomial quotient base must be commutative")
        self.base = base
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.size = base.size ** self.degree
        self.one_index = base.one_index  # constant coefficient digit
        self.summands = base.summands * self.degree
        self._label = label
        self._init_tables()
        self._commutative = True

    def decode(self, i):
        s = self.base.size
        out = []
        for _ in range(self.degree):
            out.append(i % s)
            i //= s
        return tuple(out)

    def encode(self, form) -> int:
        s = self.base.size
        idx = 0
        for c in reversed(tuple(form)):
            idx = idx * s + c
        return idx

    def _mul(self, i, j):
        add, mul, neg = entry_ops(self, self.base)
        d = self.degree
        a, b = self.decode(i), self.decode(j)
        prod = [0] * (2 * d - 1) if d > 1 else [0]
        for s, ai in enumerate(a):
            if ai:
                for t, bj in enumerate(b):
                    if bj:
                        prod[s + t] = add(prod[s + t], mul(ai, bj))
        for s in range(2 * d - 2, d - 1, -1):
            c = prod[s]
            if c:
                prod[s] = 0
                for t in range(d):
                    m = self.modulus[t]
                    if m:
                        prod[s - d + t] = add(prod[s - d + t], neg(mul(c, m)))
        return self.encode(prod[:d])

    def describe(self):
        if self._label is not None:
            return self._label
        return f"polyquot({self.base.describe()},deg{self.degree})"

    def key(self):
        return ("polyquot", self.base.key(), self.modulus)

    def format_element(self, i):
        return ",".join(_wrap_entry(self.base.format_element(c)) for c in self.decode(i))


class TrivialExtensionRing(Ring):
    """GF(q) plus a q^m square-zero part: (a,u)(b,v) = (ab, av + bu), over
    a field ring (field_ring(q))."""

    def __init__(self, field: Ring, m: int):
        if m < 1:
            raise ValidationError(f"extension rank must be >= 1, got {m}")
        self.field = field
        self.q = field.size
        self.m = m
        self.size = self.q ** (m + 1)
        self.one_index = self.q ** m          # (1, 0, ..., 0)
        self.summands = field.summands * (m + 1)
        self._init_tables()
        self._commutative = True

    def decode(self, i):
        q, m = self.q, self.m
        u = [0] * m
        for t in range(m - 1, -1, -1):
            u[t] = i % q
            i //= q
        return (i, tuple(u))

    def encode(self, form) -> int:
        a, u = form
        idx = a
        for c in u:
            idx = idx * self.q + c
        return idx

    def _mul(self, i, j):
        add, mul, _ = entry_ops(self, self.field)
        (a, u), (b, v) = self.decode(i), self.decode(j)
        w = tuple(add(mul(a, y), mul(b, x)) for x, y in zip(u, v))
        return self.encode((mul(a, b), w))

    def describe(self):
        return f"triv({self.q},{self.m})"

    def key(self):
        return ("triv", self.field.key(), self.m)

    def format_element(self, i):
        a, u = self.decode(i)
        fmt = self.field.format_element
        return "(" + ",".join(_wrap_entry(fmt(e)) for e in (a, *u)) + ")"


class ProductRing(Ring):
    """Direct product of two or more rings; last component varies fastest."""

    def __init__(self, factors: Sequence[Ring]):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValidationError("product needs at least 2 factors")
        self.factors = factors
        self.size = 1
        for f in factors:
            self.size *= f.size
        self.one_index = self.encode(tuple(f.one_index for f in factors))
        self.summands = tuple(s for f in factors for s in f.summands)
        self._init_tables()
        self._commutative = all(f.is_commutative() for f in factors)

    def decode(self, i):
        out = [0] * len(self.factors)
        for t in range(len(self.factors) - 1, -1, -1):
            n = self.factors[t].size
            out[t] = i % n
            i //= n
        return tuple(out)

    def encode(self, form) -> int:
        idx = 0
        for f, c in zip(self.factors, form):
            idx = idx * f.size + c
        return idx

    def _mul(self, i, j):
        a, b = self.decode(i), self.decode(j)
        return self.encode(tuple(f.mul_index(x, y)
                                 for f, x, y in zip(self.factors, a, b)))

    def describe(self):
        return " x ".join(f.describe() for f in self.factors)

    def key(self):
        return ("product",) + tuple(f.key() for f in self.factors)

    def format_element(self, i):
        return "(" + ",".join(_wrap_entry(f.format_element(c))
                              for f, c in zip(self.factors, self.decode(i))) + ")"


class TableRing(Ring):
    """Ring given by explicit Cayley tables, its rows once audited at load."""

    def __init__(self, add: Sequence[Sequence[int]], mul: Sequence[Sequence[int]],
                 one: int, source_path: str | None = None):
        n = len(add)
        if n < 2:
            raise ValidationError("table ring must have at least 2 elements")
        if n > TABLE_RING_CAP:
            raise ValidationError(f"table ring capped at {TABLE_RING_CAP} elements, got {n}")
        tables = []
        for name, tab in (("add", add), ("mul", mul)):
            tab = [[int(x) for x in row] for row in tab]
            if len(tab) != n or any(len(row) != n for row in tab):
                raise ValidationError(f"{name} table is not {n}x{n}")
            if any(not 0 <= x < n for row in tab for x in row):
                raise ValidationError(f"{name} table entry out of range")
            tables.append(tab)
        if not 0 <= one < n:
            raise ValidationError("designated identity index out of range")
        self._audit(*tables, one)
        self.size = n
        self.one_index = one
        self.source_path = source_path
        self.summands = (self,)
        self._init_tables()
        code = _row_typecode(n)
        self._add_rows, self._mul_rows = ([array(code, row) for row in tab] for tab in tables)
        self._neg_list = array(code, [row.index(0) for row in tables[0]])

    @staticmethod
    def _audit(add: list[list[int]], mul: list[list[int]], one: int) -> None:
        """Refuse tables that are not a unital ring, checking each axiom with
        one argument an additive generator: O(n^2 d) lookups for d of them,
        d <= log2 n once + is a group.  A generator is each nonzero index
        that sums of earlier ones do not reach.  The g with (x+g)+y = x+(g+y)
        contain 0 and are closed under + (Light's test; A. H. Clifford and
        G. B. Preston, The Algebraic Theory of Semigroups I, 1961); once +
        is an abelian group, so are the summands c of each distributive
        law, and then the c with (ab)c = a(bc)."""
        n = len(add)
        rng = range(n)
        if any(add[0][j] != j or add[j][0] != j for j in rng):
            raise ValidationError("element 0 is not the additive identity")
        if any(add[i][j] != add[j][i] for i in rng for j in range(i)):
            raise ValidationError("addition is not commutative")
        if any(0 not in row for row in add):
            raise ValidationError("some element has no additive inverse")
        gens, reached = [], set()
        for g in range(1, n):
            if g not in reached:
                gens.append(g)
                todo = [g] + [add[r][g] for r in reached]
                while todo:
                    if (x := todo.pop()) not in reached:
                        reached.add(x)
                        todo += [add[x][h] for h in gens]
        for g in gens:
            for ax in add:      # over y: (x+g)+y against x+(g+y)
                if add[ax[g]] != [ax[v] for v in add[g]]:
                    raise ValidationError("addition is not associative")
        if any(mul[one][j] != j or mul[j][one] != j for j in rng):
            raise ValidationError("designated 1 is not a two-sided identity")
        if any(mul[0][j] != 0 or mul[j][0] != 0 for j in rng):
            raise ValidationError("0 does not annihilate under multiplication")
        for g in gens:
            ag, mg = add[g], mul[g]
            for a, ma in enumerate(mul):    # over b: a(g+b) and (g+a)b
                sag = add[ma[g]]
                if [ma[v] for v in ag] != [sag[v] for v in ma]:
                    raise ValidationError("left distributivity fails")
                if mul[ag[a]] != [add[x][y] for x, y in zip(mg, ma)]:
                    raise ValidationError("right distributivity fails")
        for g in gens:
            col = [row[g] for row in mul]
            for ma in mul:      # over b: (ab)g against a(bg)
                if [col[v] for v in ma] != [ma[v] for v in col]:
                    raise ValidationError("multiplication is not associative")

    def decode(self, i):
        return i

    def encode(self, form):
        return int(form)

    def describe(self):
        return f"table:{self.source_path}" if self.source_path else f"table:<{self.size} elements>"

    def key(self):
        return ("table", self.one_index, b"".join(map(bytes, self._add_rows + self._mul_rows)))


class QuotientRing(Ring):
    """R/I for a validated proper two-sided ideal; elements are cosets.

    The canonical representative of a coset is its minimal parent index
    and cosets are indexed in representative order, so coset 0 is I.  The
    mul rows are set at construction: R/{0} shares its parent's rows, and
    any other quotient keeps the rows its coset check gathers.  The add
    rows and negation list are built on the first additive access.
    """

    def __init__(self, parent: Ring, members: Iterable[int]):
        members = frozenset(int(x) for x in members)
        validate_ideal(parent, members)
        if len(members) == parent.size:
            raise ImproperIdeal("ideal equals the whole ring")
        self.parent = parent
        self.members = members
        pn = parent.size
        others = list(members - {0})
        cmap = [-1] * pn  # parent index -> its coset's index
        reps = []
        cosets = []     # the members of each coset other than its representative
        for x in range(pn):
            if cmap[x] < 0:
                # every smaller index already lies in another coset, so x
                # is the minimal index of x + I
                row = parent.add_row(x)
                coset = [row[i] for i in others]
                cmap[x] = len(reps)
                for y in coset:
                    cmap[y] = len(reps)
                reps.append(x)
                cosets.append(coset)
        self._cmap = cmap
        self._reps = reps
        self.size = len(reps)
        self.one_index = cmap[parent.one_index]
        self.summands = (self,)
        self._init_tables()
        if others:
            self._mul_rows = self._assert_well_defined(cosets)
        elif pn <= DEFAULT_SIZE_CAP:
            # R/{0}: cosets are single elements, so the check compares rows with themselves
            self._mul_rows = list(map(parent.mul_row, range(pn)))

    def _build_add_rows(self) -> list[array]:
        # Cosets add through their representatives: row i is the parent's
        # add row of representative i, read at every representative and
        # mapped to cosets.  The mul rows were set at construction.
        code, cmap, reps = _row_typecode(self.size), self._cmap, self._reps
        return [array(code, [cmap[row[r]] for r in reps]) for row in map(self.parent.add_row, reps)]

    def _assert_well_defined(self, cosets: list[list[int]]) -> list[array] | None:
        """cmap[x*y] == cmap[rep(x)*rep(y)] for every parent pair, compared
        a whole row at a time: cmap o row_x against the quotient's row
        read through cmap, which is computed once per coset from the
        representative's row, itself the first row compared.  Returns the
        quotient's mul rows, or None above DEFAULT_SIZE_CAP."""
        parent, cmap, reps = self.parent, self._cmap, self._reps
        code, keep = _row_typecode(self.size), self.size <= DEFAULT_SIZE_CAP
        mul_rows = []
        for rep, coset in zip(reps, cosets):
            got = [cmap[v] for v in parent.mul_row(rep)]
            qrow = [got[r] for r in reps]
            want = [qrow[c] for c in cmap]
            if got != want or any([cmap[v] for v in parent.mul_row(x)] != want for x in coset):
                raise NotAnIdeal("multiplication is not well-defined on cosets")
            if keep:
                mul_rows.append(array(code, qrow))
        return mul_rows if keep else None

    def _add(self, i, j):
        return self._cmap[self.parent.add_index(self._reps[i], self._reps[j])]

    def _mul(self, i, j):
        return self._cmap[self.parent.mul_index(self._reps[i], self._reps[j])]

    def _neg(self, i):
        return self._cmap[self.parent.neg_index(self._reps[i])]

    def coset_index_of(self, parent_index: int) -> int:
        """Quotient index of the coset containing a parent element."""
        return self._cmap[parent_index]

    def decode(self, i):
        return tuple(x for x in range(self.parent.size) if self._cmap[x] == i)

    def encode(self, form):
        return self.coset_index_of(min(form))

    def describe(self):
        return f"quotient({self.parent.describe()},|I|={len(self.members)})"

    def key(self):
        return ("quotient", self.parent.key(), tuple(sorted(self.members)))


# ---------------------------------------------------------------------------
# Ideal validation and module-level operations
# ---------------------------------------------------------------------------


def additive_closure(ring: Ring, generators: Iterable[int]) -> frozenset[int]:
    """Smallest additive subgroup containing the generators.

    Each new generator g joins by doubling: with H the closure so far,
    S = H + {0, g, ..., (2^j - 1) g} grows by S + 2^j g until 2^j g lies in
    S, which happens exactly when S = H + <g>, so each generator costs
    log2 of its order modulo H row gathers.

    After each generator the closure is a subgroup, whose order divides
    |R|; once it has more than |R|/2 elements it is the whole ring, which
    is returned at once.
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
        if len(closure) > n // 2:
            return frozenset(range(n))


def validate_ideal(ring: Ring, members: frozenset[int]) -> None:
    """Raise NotAnIdeal unless members is a two-sided ideal of the ring.

    A set is an additive subgroup iff it equals its additive closure, which
    costs O(|I|) sums per generator it picks up.  Once it is one,
    x*(c_1 e_1 + ... + c_d e_d) = c_1 (x e_1) + ... + c_d (x e_d) stays in
    it when every x*e_k does, and likewise on the left: multiplication is
    checked against the ring's d additive generators e_k only, O(|I| * d)
    products instead of O(|I| * |R|).
    """
    if not members:
        raise NotAnIdeal("ideal is empty")
    if 0 not in members:
        raise NotAnIdeal("ideal does not contain 0")
    if any(not 0 <= x < ring.size for x in members):
        raise NotAnIdeal("ideal contains out-of-range indices")
    if additive_closure(ring, members) != members:
        raise NotAnIdeal("ideal is not closed under addition")
    # whole-row gathers: each test reads one row or column at every member
    generators = ring.additive_generators()
    for e in generators:
        col = ring.mul_column(e)
        if not members.issuperset([col[x] for x in members]):
            raise NotAnIdeal("ideal is not closed under right multiplication")
    for e in generators:
        row = ring.mul_row(e)
        if not members.issuperset([row[x] for x in members]):
            raise NotAnIdeal("ideal is not closed under left multiplication")


def quotient_make(ring: Ring, ideal) -> QuotientRing:
    """Quotient by a two-sided proper ideal (an Ideal or an index set)."""
    members = getattr(ideal, "members", ideal)
    return QuotientRing(ring, members)


def check_size_cap(ring: Ring, cap: int | None = DEFAULT_SIZE_CAP) -> None:
    """Refuse to enumerate a ring above ENUMERATION_LIMIT, or above cap;
    None lifts the cap but not the limit."""
    if ring.size > ENUMERATION_LIMIT:
        raise EnumerationLimitExceeded(ring.size, ENUMERATION_LIMIT)
    if cap is not None and ring.size > cap:
        raise SizeCapExceeded(ring.size, cap)


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------


def zmod(n: int) -> ZModRing:
    return ZModRing(n)


def field_ring(q: int) -> PolyQuotientRing:
    """GF(q) = Z_p[t]/(f) for q = p^r and f the canonical irreducible of
    degree r, which makes it GR(p, 1, r); GF(p) is Z_p[t]/(t), whose index
    is the residue."""
    p, r = factor_prime_power(q)
    return PolyQuotientRing(zmod(p), field_make(p, r).modulus, label=f"GF{q}")


def matrix_ring(k: int, q: int) -> MatrixRing:
    return MatrixRing(k, field_ring(q))


def chain_ring(q: int, m: int) -> PolyQuotientRing:
    """GF(q)[t]/(t^m): the local chain ring of order q^m."""
    if m < 1:
        raise ValidationError(f"chain ring exponent must be >= 1, got {m}")
    base = field_ring(q)
    modulus = [0] * m + [base.one_index]
    return PolyQuotientRing(base, modulus, label=f"chain({q},{m})")


def galois_ring(p: int, k: int, r: int, modulus: Sequence[int] | None = None) -> PolyQuotientRing:
    """Z_{p^k}[t]/(f) with f monic of degree r and irreducible mod p."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if k < 1 or r < 1:
        raise ValidationError("Galois ring needs k >= 1 and r >= 1")
    base = zmod(p ** k)
    if modulus is None:
        lift = field_make(p, r).modulus
        modulus = [int(c) for c in lift]
    else:
        modulus = [int(c) % (p ** k) for c in modulus]
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise ValidationError(f"modulus must be monic of degree {r}")
        reduced = tuple(c % p for c in modulus)
        if reduced[-1] != 1 or not is_irreducible(reduced, p):
            raise ValidationError("modulus reduction mod p must be irreducible")
    return PolyQuotientRing(base, modulus, label=f"GR({p},{k},{r})")


def trivial_extension(q: int, m: int) -> TrivialExtensionRing:
    return TrivialExtensionRing(field_ring(q), m)


def product(*factors: Ring) -> ProductRing:
    return ProductRing(factors)


def table_ring_from_json(path: str) -> TableRing:
    """Load {"size": N, "one": i, "add": [[...]], "mul": [[...]]}."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        size = int(payload["size"])
        one = int(payload["one"])
        add = payload["add"]
        mul = payload["mul"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"table ring JSON missing or malformed field: {exc}") from exc
    for name, tab in (("add", add), ("mul", mul)):
        if not (isinstance(tab, list) and all(
                isinstance(row, list) and all(type(x) is int for x in row) for row in tab)):
            raise ValidationError(f"table ring JSON: {name} must be a list of lists of ints")
    if len(add) != size or len(mul) != size:
        raise ValidationError("table ring JSON: declared size does not match tables")
    return TableRing(add, mul, one, source_path=path)
