"""Ring-spec grammar and element literals for the command line.

Grammar (whitespace-insensitive between tokens):

    spec  := atom ( "x" atom )*
    atom  := "Z" int | "GF" int | "M" int "(GF" int ")"
           | "chain(" int "," int ")" | "GR(" int "," int "," int ")"
           | "triv(" int "," int ")" | "table:" path

Each atom is one row of the table _ATOMS: its pattern, its constructor
and its order as a power (b, e) of the spec's integers.  A table path
runs to the next whitespace, so follow it with a space before any "x"
separator.  The extension degree r, of q = p^r in GF, M, chain and triv
and of GR, is at most finfield.MAX_EXTENSION_DEGREE (8).
"""

from __future__ import annotations

import json
import re

from .errors import ParseError, SizeCapExceeded, ValidationError
from .rings import (
    MatrixRing,
    PolyQuotientRing,
    ProductRing,
    QuotientRing,
    Ring,
    RingElement,
    TableRing,
    TrivialExtensionRing,
    ZModRing,
    chain_ring,
    check_size_cap,
    field_ring,
    galois_ring,
    matrix_ring,
    table_ring_from_json,
    trivial_extension,
    zmod,
)

# A spec whose ring has 2^MAX_ORDER_BITS elements or more is refused even
# with the size cap lifted: its order, and the |R|^2 that `prob` prints,
# would pass the 4300 digits Python converts to text, and constructions
# that size exhaust memory before any cap check could run.
MAX_ORDER_BITS = 4096


def _load_table(path: str) -> TableRing:
    try:
        return table_ring_from_json(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot load table ring from {path}: {exc}") from exc


# One row per atom, tried in order: its pattern, its constructor, and its
# power, (b, e) with b^e elements, from its integers; None for a table
# atom, which is sized only once loaded (and whose argument stays a path).
_ATOMS = [
    (re.compile(r"M(\d+)\(\s*GF(\d+)\s*\)"), matrix_ring, lambda k, q: (q, k * k)),
    (re.compile(r"chain\(\s*(\d+)\s*,\s*(\d+)\s*\)"), chain_ring, lambda q, m: (q, m)),
    (re.compile(r"GR\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)"), galois_ring,
     lambda p, k, r: (p, k * r)),
    (re.compile(r"triv\(\s*(\d+)\s*,\s*(\d+)\s*\)"), trivial_extension,
     lambda q, m: (q, m + 1)),
    (re.compile(r"table:(\S+)"), _load_table, None),
    (re.compile(r"GF(\d+)"), field_ring, lambda q: (q, 1)),
    (re.compile(r"Z(\d+)"), zmod, lambda n: (n, 1)),
]


def _check_order(atoms: list[tuple], cap: int | None) -> None:
    """Refuse a spec whose order is above cap, or at least 2^MAX_ORDER_BITS,
    before anything is built.  Table atoms count as 1 here (they hold at
    most TABLE_RING_CAP elements), and so do atoms whose integers their
    constructors reject."""
    powers = [(b, e) for b, e in (power(*args) for _, power, args in atoms if power)
              if b >= 2 and e >= 1]
    # b^e < 2^(e * b.bit_length()), and b^e >= 2^(e * (b.bit_length() - 1)),
    # which is at least half the upper exponent since b >= 2
    if sum(e * b.bit_length() for b, e in powers) <= 2 * MAX_ORDER_BITS:
        order = 1
        for b, e in powers:
            order *= b ** e
        if cap is not None and order > cap:
            raise SizeCapExceeded(order, cap)
        bits = order.bit_length() - 1
    else:
        bits = sum(e * (b.bit_length() - 1) for b, e in powers)
        if cap is not None:
            raise SizeCapExceeded(None, cap, bits)
    if bits >= MAX_ORDER_BITS:
        raise ValidationError(f"ring has at least 2^{bits} elements; specs of "
                              f"2^{MAX_ORDER_BITS} elements or more are refused "
                              f"even with the size cap lifted")


def parse_ring_spec(text: str, cap: int | None = None) -> Ring:
    """Parse the grammar above into a validated ring descriptor.

    A ring above cap (None lifts it) raises SizeCapExceeded, and one of
    2^MAX_ORDER_BITS elements or more raises ValidationError whatever the
    cap.  Both are decided from the spec's integers before any atom is
    built, except for products with a table atom, which are checked
    against cap once built.
    """
    pos = 0
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    atoms: list[tuple] = []     # (constructor, power, arguments) per atom
    pos = skip_ws(pos)
    if pos == n:
        raise ParseError("empty ring spec", pos)
    while True:
        for rx, build, power in _ATOMS:
            m = rx.match(text, pos)
            if m:
                args = m.groups()
                if power:
                    try:
                        args = tuple(map(int, args))
                    except ValueError:      # more digits than int() converts
                        raise ParseError("integer too long", pos) from None
                atoms.append((build, power, args))
                pos = m.end()
                break
        else:
            raise ParseError("expected a ring atom (Z, GF, M, chain, GR, triv, table:)", pos)
        pos = skip_ws(pos)
        if pos == n:
            break
        if text[pos] != "x":
            raise ParseError("expected 'x' between ring atoms", pos)
        pos = skip_ws(pos + 1)
        if pos == n:
            raise ParseError("trailing 'x' with no ring atom", pos)
    _check_order(atoms, cap)
    rings = [build(*args) for build, _, args in atoms]
    ring = rings[0] if len(rings) == 1 else ProductRing(rings)
    if cap is not None:             # table atoms are sized only once loaded
        check_size_cap(ring, cap)
    return ring


# ---------------------------------------------------------------------------
# Element literals
# ---------------------------------------------------------------------------


def _split_top(text: str, pos: int = 0) -> list[str]:
    """Split at commas outside any (),[] nesting."""
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for off, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket", pos + off)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError("unbalanced bracket", pos + len(text))
    parts.append("".join(cur))
    return parts


def _encloses(text: str) -> bool:
    """Whether text is one parenthesised group: '(' closed at its end."""
    if len(text) < 2 or text[0] != "(" or text[-1] != ")":
        return False
    depth = 0
    for off, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return off == len(text) - 1
    return False


def _strip_parens(text: str) -> str:
    text = text.strip()
    while _encloses(text):
        text = text[1:-1].strip()
    return text


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"expected an integer, got {text.strip()!r}") from None


def parse_element(ring: Ring, text: str) -> RingElement:
    """Parse an element literal for the given ring ('#i' always works)."""
    text = text.strip()
    if not text:
        raise ParseError("empty element literal")
    if text.startswith("#"):
        i = _parse_int(text[1:])
        if not 0 <= i < ring.size:
            raise ParseError(f"element index {i} outside [0, {ring.size})")
        return ring.element(i)

    if isinstance(ring, ZModRing):
        return ring.element(_parse_int(text) % ring.n)

    if isinstance(ring, MatrixRing):
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError("matrix literal must look like [[a,b],[c,d]]")
        rows_text = _split_top(body[1:-1])
        if len(rows_text) != ring.k:
            raise ParseError(f"expected {ring.k} matrix rows, got {len(rows_text)}")
        rows = []
        for row_text in rows_text:
            row_text = row_text.strip()
            if not (row_text.startswith("[") and row_text.endswith("]")):
                raise ParseError("matrix row must be bracketed")
            entries = _split_top(row_text[1:-1])
            if len(entries) != ring.k:
                raise ParseError(f"expected {ring.k} entries per row, got {len(entries)}")
            rows.append(tuple(parse_element(ring.field, e).index for e in entries))
        return ring.element(ring.encode(tuple(rows)))

    if isinstance(ring, PolyQuotientRing):
        # one outer pair may wrap the whole list, as in the entry (1,1) of
        # a matrix over GF4 or the chain(4,2) factor ((1,0),(0,1)) of a
        # product; over an extension-field base, whose coefficients are
        # themselves parenthesised, (0,1) is one coefficient
        if _encloses(text) and (ring.base._cyclic or text[1:].lstrip().startswith("(")):
            text = text[1:-1]
        coeffs_text = _split_top(text)
        if len(coeffs_text) > ring.degree:
            raise ParseError(f"too many coefficients for degree-{ring.degree} quotient")
        coeffs = [parse_element(ring.base, c).index for c in coeffs_text]
        coeffs += [0] * (ring.degree - len(coeffs))
        return ring.element(ring.encode(coeffs))

    if isinstance(ring, TrivialExtensionRing):
        parts = _split_top(_strip_parens(text))
        if not 1 <= len(parts) <= ring.m + 1:
            raise ParseError(f"expected up to {ring.m + 1} components")
        vals = [parse_element(ring.field, p).index for p in parts]
        vals += [0] * (ring.m + 1 - len(vals))
        return ring.element(ring.encode((vals[0], tuple(vals[1:]))))

    if isinstance(ring, ProductRing):
        parts = _split_top(_strip_parens(text))
        if len(parts) != len(ring.factors):
            raise ParseError(f"expected {len(ring.factors)} components, got {len(parts)}")
        comps = tuple(parse_element(f, p).index for f, p in zip(ring.factors, parts))
        return ring.element(ring.encode(comps))

    if isinstance(ring, TableRing):
        return ring.element(_parse_int(text))

    if isinstance(ring, QuotientRing):
        parent_el = parse_element(ring.parent, text)
        return ring.element(ring.coset_index_of(parent_el.index))

    raise ParseError(f"no literal syntax for {ring.describe()}; use #index")
