"""Ring-spec grammar and element literals for the command line.

Grammar (whitespace-insensitive between tokens):

    spec  := atom ( "x" atom )*
    atom  := "Z" int | "GF" int | "M" int "(GF" int ")"
           | "chain(" int "," int ")" | "GR(" int "," int "," int ")"
           | "triv(" int "," int ")" | "table:" path

A table path runs to the next whitespace, so follow it with a space
before any "x" separator.
"""

from __future__ import annotations

import json
import re

from .errors import ParseError, ValidationError
from .rings import (
    FieldRing,
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
    field_ring,
    galois_ring,
    matrix_ring,
    table_ring_from_json,
    trivial_extension,
    zmod,
)

_ATOMS = [
    ("matrix", re.compile(r"M(\d+)\(\s*GF(\d+)\s*\)")),
    ("chain", re.compile(r"chain\(\s*(\d+)\s*,\s*(\d+)\s*\)")),
    ("gr", re.compile(r"GR\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")),
    ("triv", re.compile(r"triv\(\s*(\d+)\s*,\s*(\d+)\s*\)")),
    ("table", re.compile(r"table:(\S+)")),
    ("gf", re.compile(r"GF(\d+)")),
    ("zmod", re.compile(r"Z(\d+)")),
]


def _build_atom(kind: str, groups: tuple[str, ...]) -> Ring:
    if kind == "zmod":
        return zmod(int(groups[0]))
    if kind == "gf":
        return field_ring(int(groups[0]))
    if kind == "matrix":
        return matrix_ring(int(groups[0]), int(groups[1]))
    if kind == "chain":
        return chain_ring(int(groups[0]), int(groups[1]))
    if kind == "gr":
        return galois_ring(int(groups[0]), int(groups[1]), int(groups[2]))
    if kind == "triv":
        return trivial_extension(int(groups[0]), int(groups[1]))
    if kind == "table":
        path = groups[0]
        try:
            return table_ring_from_json(path)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot load table ring from {path}: {exc}") from exc
    raise AssertionError(kind)


def parse_ring_spec(text: str) -> Ring:
    """Parse the grammar above into a validated ring descriptor."""
    pos = 0
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    atoms: list[Ring] = []
    pos = skip_ws(pos)
    if pos == n:
        raise ParseError("empty ring spec", pos)
    while True:
        for kind, rx in _ATOMS:
            m = rx.match(text, pos)
            if m:
                atoms.append(_build_atom(kind, m.groups()))
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
    if len(atoms) == 1:
        return atoms[0]
    return ProductRing(atoms)


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


def _strip_parens(text: str) -> str:
    text = text.strip()
    while len(text) >= 2 and text[0] == "(" and text[-1] == ")":
        depth = 0
        closes_at_end = True
        for off, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and off != len(text) - 1:
                    closes_at_end = False
                    break
        if not closes_at_end:
            break
        text = text[1:-1].strip()
    return text


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"expected an integer, got {text.strip()!r}") from None


def _parse_field_index(gf, text: str) -> int:
    """Field literal: '#i', or coefficient list 'c0,c1,...' (short lists
    are zero-padded); parentheses around the list are allowed."""
    text = text.strip()
    if text.startswith("#"):
        i = _parse_int(text[1:])
        if not 0 <= i < gf.order:
            raise ParseError(f"field index {i} outside [0, {gf.order})")
        return i
    text = _strip_parens(text)
    coeffs = [_parse_int(part) % gf.p for part in _split_top(text)]
    if len(coeffs) > gf.r:
        raise ParseError(f"too many coefficients for GF({gf.p}^{gf.r})")
    coeffs += [0] * (gf.r - len(coeffs))
    return gf.index_of(coeffs)


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

    if isinstance(ring, FieldRing):
        return ring.element(_parse_field_index(ring.field, text))

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
            rows.append(tuple(_parse_field_index(ring.field, e) for e in entries))
        return ring.element(ring.encode(tuple(rows)))

    if isinstance(ring, PolyQuotientRing):
        # coefficient lists are never wrapped as a whole; parentheses
        # belong to individual coefficients over extension-field bases
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
        vals = [_parse_field_index(ring.field, p) for p in parts]
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
