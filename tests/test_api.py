"""The public API of `ringprob`, pinned: a name added to or dropped from
the package namespace has to be added to or dropped from this list."""

import importlib
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
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(ringprob).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("module", ["ringprob", "ringprob.finfield", "ringprob.structure",
                                    "ringprob.rings", "ringprob.errors", "ringprob.corpus"])
def test_removed_names_are_gone(module):
    mod = importlib.import_module(module)
    assert [name for name in REMOVED_NAMES if hasattr(mod, name)] == []


def test_removed_attributes_are_gone():
    for module, cls, attr in REMOVED_ATTRIBUTES:
        owner = getattr(importlib.import_module(f"ringprob.{module}"), cls)
        assert not hasattr(owner, attr), (cls, attr)
