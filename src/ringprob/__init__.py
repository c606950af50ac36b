"""Exact multiplication probabilities of finite unital rings.

Construct a ring, ask for Prob_x = |{(a,b) : ab = x}| / |R|^2 by
enumeration or closed form, and machine-verify the formulas::

    >>> from ringprob import parse_ring_spec, prob_brute
    >>> ring = parse_ring_spec("Z6")
    >>> str(prob_brute(ring, 0))
    '5/12'

Importing the package loads what a query runs: rings, structure, the
engines and the closed forms.  SUITES, run_suites and default_corpus load
the verification modules on first use.
"""

from .closedform import (
    FormulaResult,
    MatrixClass,
    corollary_43_predicates,
    corollary_44_predicate,
    general_bounds,
    local_bounds,
    matrix_rank,
    prob_auto,
    prob_chain_formula,
    prob_formula,
    prob_j2zero_formula,
    prob_matrix_formula,
    prob_unit_formula,
    prob_zn,
    subspace_count,
)
from .errors import (
    BadDimensionOrder,
    DegreeOutOfRange,
    EnumerationLimitExceeded,
    FormulaUnavailable,
    ImproperIdeal,
    MixedRings,
    NonPrime,
    NotAnIdeal,
    NotChain,
    NotJ2Zero,
    NotLocal,
    NTooSmall,
    ParseError,
    RingProbError,
    SizeCapExceeded,
    ValidationError,
)
from .finfield import (
    FieldDescriptor,
    field_make,
)
from .probability import (
    ProbFraction,
    SpectrumEntry,
    SpectrumReport,
    annsum_counts,
    delta,
    pair_counts,
    prob_annsum,
    prob_brute,
    spectrum,
)
from .rings import (
    DEFAULT_SIZE_CAP,
    ENUMERATION_LIMIT,
    Ring,
    RingElement,
    chain_ring,
    check_size_cap,
    field_ring,
    galois_ring,
    matrix_ring,
    product,
    quotient_make,
    table_ring_from_json,
    trivial_extension,
    zmod,
)
from .specparse import parse_element, parse_ring_spec
from .structure import (
    Ideal,
    StructureReport,
    ideal_size_power_check,
    left_right_symmetry_check,
    structure_report,
    unit_plus_radical_check,
    units,
    zero_divisors,
)

__version__ = "0.1.0"

_LAZY = {"SUITES": "verify", "run_suites": "verify", "default_corpus": "corpus"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
