"""The built-in ring corpus the verification suites run over.

The default corpus is built once per process, so repeated suite runs
share its rings' memoized operation tables.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .rings import Ring, check_size_cap
from .specparse import parse_ring_spec

FIXTURE_NAME = "upper_triangular_f2.json"

# Display label for the one corpus member addressed by file path.
TABLE_LABEL = "table:ut2(F2)"

_CORPUS_SPECS = [
    "Z2", "Z3", "Z4", "Z6", "Z8", "Z9", "Z12", "Z27",
    "GF2", "GF3", "GF4", "GF9",
    "chain(2,2)", "chain(2,3)", "chain(3,2)", "chain(3,3)",
    "GR(2,2,2)",
    "M1(GF2)", "M2(GF2)", "M2(GF3)", "M3(GF2)",
    "triv(2,1)", "triv(2,2)", "triv(2,3)", "triv(3,2)",
    "Z2 x Z4", "Z2 x M2(GF2)",
]


def fixture_path() -> str:
    """Filesystem path of the checked-in upper-triangular table ring."""
    return str(resources.files("ringprob") / "data" / FIXTURE_NAME)


def upper_triangular_tables() -> dict:
    """Regenerate the fixture's content: 2x2 upper triangular matrices
    over GF(2), elements (a, b, c) <-> [[a, b], [0, c]] packed as a*4+b*2+c."""
    def idx(a: int, b: int, c: int) -> int:
        return a * 4 + b * 2 + c

    def dec(i: int) -> tuple[int, int, int]:
        return (i >> 2) & 1, (i >> 1) & 1, i & 1

    add = [[0] * 8 for _ in range(8)]
    mul = [[0] * 8 for _ in range(8)]
    for i in range(8):
        a1, b1, c1 = dec(i)
        for j in range(8):
            a2, b2, c2 = dec(j)
            add[i][j] = idx(a1 ^ a2, b1 ^ b2, c1 ^ c2)
            mul[i][j] = idx(a1 & a2, (a1 & b2) ^ (b1 & c2), c1 & c2)
    return {"size": 8, "one": idx(1, 0, 1), "add": add, "mul": mul}


@lru_cache(maxsize=None)
def default_corpus() -> tuple[tuple[str, Ring], ...]:
    """(label, ring) pairs in fixed order; every member is pre-audited."""
    members = [(spec, parse_ring_spec(spec)) for spec in _CORPUS_SPECS]
    members.append((TABLE_LABEL, parse_ring_spec(f"table:{fixture_path()}")))
    return tuple(members)


def corpus_from_file(path: str, cap: int | None = None) -> tuple[tuple[str, Ring], ...]:
    """Custom corpus: a non-empty JSON array of ring-spec strings, each
    bounded by parse_ring_spec's cap and, since every verify suite
    enumerates it, by rings.ENUMERATION_LIMIT.  A spec that fails to
    parse is named in the error with its 1-based entry."""
    import json

    from .errors import ParseError, ValidationError

    try:
        with open(path, "r", encoding="utf-8") as fh:
            specs = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read corpus file {path}: {exc}") from exc
    if not isinstance(specs, list) or not all(isinstance(s, str) for s in specs):
        raise ValidationError("corpus file must be a JSON array of ring-spec strings")
    if not specs:
        raise ValidationError(f"corpus file {path} lists no ring specs")
    corpus = []
    for number, spec in enumerate(specs, 1):
        try:
            ring = parse_ring_spec(spec, cap)
        except (ParseError, ValidationError) as exc:
            raise ValidationError(f"corpus entry {number} ({spec!r}): {exc}") from exc
        check_size_cap(ring, cap)
        corpus.append((spec, ring))
    return tuple(corpus)
