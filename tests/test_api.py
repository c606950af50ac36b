"""The public API of `ringprob`, pinned: a name added to or dropped from
the package namespace has to be added to or dropped from this list."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ringprob

PUBLIC_NAMES = [
    "BadDimensionOrder", "DEFAULT_SIZE_CAP", "DegreeOutOfRange", "ENUMERATION_LIMIT", "EnumerationLimitExceeded", "FieldDescriptor", "FormulaResult",
    "FormulaUnavailable", "Ideal", "ImproperIdeal", "MatrixClass", "MixedRings", "NTooSmall",
    "NonPrime", "NotAnIdeal", "NotChain", "NotJ2Zero", "NotLocal", "ParseError",
    "ProbFraction", "Ring", "RingElement", "RingProbError", "SUITES", "SizeCapExceeded",
    "SpectrumEntry", "SpectrumReport", "StructureReport", "ValidationError", "annsum_counts",
    "chain_ring", "check_size_cap", "corollary_43_predicates", "corollary_44_predicate",
    "default_corpus", "delta", "field_make", "field_ring", "galois_ring", "general_bounds",
    "ideal_size_power_check", "left_right_symmetry_check", "local_bounds", "matrix_rank",
    "matrix_ring", "pair_counts", "parse_element", "parse_ring_spec", "prob_annsum",
    "prob_auto", "prob_brute", "prob_chain_formula", "prob_formula", "prob_j2zero_formula",
    "prob_matrix_formula", "prob_unit_formula", "prob_zn", "product", "quotient_make",
    "run_suites", "spectrum", "structure_report", "subspace_count", "table_ring_from_json",
    "trivial_extension", "unit_plus_radical_check", "units", "zero_divisors", "zmod",
]

# Wrappers removed because only tests called them; each test now calls
# what the wrapper wrapped (field ring index arithmetic, structure_report,
# principal_ideal_members, check_size_cap, ...).  The second field engine
# went too: GF(q) is the polynomial quotient Z_p[t]/(f) (rings.field_ring),
# and the spec cache ring_from_spec gave way to parse_ring_spec.
REMOVED_NAMES = [
    "FieldElement", "field_add", "field_neg", "field_mul", "field_inv", "field_enumerate",
    "_same_field", "MixedFields", "jacobson_radical", "radical_powers", "right_annihilator",
    "principal_two_sided_ideal", "ring_enumerate", "table_ring",
    "FieldRing", "GaloisField", "galois_field", "FIELD_TABLE_CAP", "DivisionByZero",
    "ring_from_spec",
]
REMOVED_ATTRIBUTES = [
    ("structure", "Ideal", "is_proper"),
    ("structure", "Ideal", "sorted_members"),
    ("probability", "SpectrumReport", "prob_of"),
    ("probability", "SpectrumReport", "total"),
    ("probability", "ProbFraction", "fraction"),
    # one copy of each ring's arithmetic: a table ring's tables are its
    # rows, and an element is only the (ring, index) pair a literal parses to
    ("rings", "TableRing", "_table_add"),
    ("rings", "TableRing", "_table_mul"),
    ("rings", "RingElement", "_same_ring"),
    ("rings", "RingElement", "__add__"),
    ("rings", "RingElement", "__mul__"),
    ("rings", "RingElement", "__neg__"),
    ("rings", "RingElement", "__sub__"),
    ("rings", "Ring", "zero"),
    ("rings", "Ring", "one"),
    ("rings", "Ring", "radices"),
    ("rings", "QuotientRing", "representative"),
]
# Overrides removed: a table ring sets its rows at load, so it needs no
# per-call operations and no row builders of its own.
REMOVED_OVERRIDES = [
    ("rings", "TableRing", attr) for attr in
    ("_add", "_mul", "_neg", "_build_add_rows", "_build_mul_rows")
]


def test_public_names_are_pinned():
    names = sorted(name for name in dir(ringprob) if not name.startswith("_")
                   and not isinstance(getattr(ringprob, name), ModuleType))
    assert names == sorted(PUBLIC_NAMES)


# What `import ringprob.cli` must not load: the verification modules and
# standard-library modules that only some calls need.
NOT_AT_IMPORT = ("dataclasses", "inspect", "typing", "decimal", "importlib.resources",
                 "ringprob.verify", "ringprob.corpus")


def test_import_loads_only_what_a_query_runs():
    """-S keeps site hooks from loading any of them first; the lazy names
    still resolve afterwards."""
    probe = ("import sys, ringprob.cli\n"
             f"print([m for m in {NOT_AT_IMPORT!r} if m in sys.modules])\n"
             "from ringprob import SUITES, run_suites, default_corpus\n"
             "print(len(SUITES), run_suites.__module__, default_corpus.__module__)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "15 ringprob.verify ringprob.corpus"]


@pytest.mark.parametrize("module", ["ringprob", "ringprob.finfield", "ringprob.structure",
                                    "ringprob.rings", "ringprob.errors", "ringprob.corpus"])
def test_removed_names_are_gone(module):
    mod = importlib.import_module(module)
    assert [name for name in REMOVED_NAMES if hasattr(mod, name)] == []


def test_removed_attributes_are_gone():
    for module, cls, attr in REMOVED_ATTRIBUTES:
        owner = getattr(importlib.import_module(f"ringprob.{module}"), cls)
        assert not hasattr(owner, attr), (cls, attr)


def test_removed_overrides_are_gone():
    for module, cls, attr in REMOVED_OVERRIDES:
        owner = getattr(importlib.import_module(f"ringprob.{module}"), cls)
        assert attr not in vars(owner), (cls, attr)


def test_records_keep_frozen_dataclass_behaviour():
    """The result records are built without dataclasses but compare, hash,
    print, copy and refuse assignment as the frozen dataclasses did, and
    add no tuple behaviour."""
    half = ringprob.ProbFraction(1, 2)
    tagged = ringprob.FormulaResult(half, "unit", {"unit": True})
    cls = ringprob.MatrixClass(q=4, dim=2, rank=1)
    assert repr(half) == "ProbFraction(hits=1, total=2)"
    assert repr(cls) == "MatrixClass(q=4, dim=2, rank=1)"
    assert repr(ringprob.FormulaResult(value=half, formula="unit")) == \
        "FormulaResult(value=ProbFraction(hits=1, total=2), formula='unit', applicability={})"
    # applicability is left out of equality and hashing
    assert tagged == ringprob.FormulaResult(half, "unit") and hash(tagged) == hash((half, "unit"))
    assert cls == ringprob.MatrixClass(4, 2, 1) and hash(cls) == hash((4, 2, 1))
    assert cls != (4, 2, 1)
    for record in (half, tagged, cls, ringprob.field_make(2, 3)):
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
        with pytest.raises(AttributeError):
            record.total = 3
        with pytest.raises(AttributeError):
            del record.total
        with pytest.raises(TypeError):
            len(record)
    for bad in ((4,), (4, 2), (4, 2, 1, 0), ()):
        with pytest.raises(TypeError):
            ringprob.MatrixClass(*bad)
    with pytest.raises(TypeError):
        ringprob.MatrixClass(4, 2, dim=2)
    with pytest.raises(ringprob.ValidationError):
        ringprob.MatrixClass(4, 2, 3)
