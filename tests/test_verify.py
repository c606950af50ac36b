"""Harness behaviour: clean corpus passes, skips carry reasons, failures
are reported with both fractions."""

import json
from collections import Counter
from pathlib import Path

import pytest

from ringprob import verify
from ringprob.closedform import (
    NONZERO_RADICAL,
    NONZERO_ZERO_DIVISOR,
    ZERO_CLASS,
    FormulaResult,
)
from ringprob.corpus import corpus_from_file
from ringprob.errors import ValidationError
from ringprob.probability import ProbFraction
from ringprob.recipe import components
from ringprob.rings import MatrixRing, ProductRing, QuotientRing, Ring, ZModRing
from ringprob.specparse import parse_ring_spec
from ringprob.structure import principal_ideal_members
from ringprob.verify import SUITES, run_suites
from test_acceptance import cached_ring

ROOT = Path(__file__).resolve().parent.parent
# The default corpus plus every seeded alternative of the benchmark's
# verify-corpus pool; the table fixture is named from the repository root.
POOL_SPECS = json.loads((ROOT / "tests" / "data" / "verify_pool.json").read_text())


class TestRunSuites:
    def test_all_suites_pass_on_default_corpus(self):
        results = run_suites()
        assert [r.suite for r in results] == list(SUITES)
        for res in results:
            assert res.passed, f"{res.suite}: {[c for c in res.cases if c.status == 'FAIL']}"

    def test_skips_always_carry_a_reason(self):
        for res in run_suites():
            for case in res.cases:
                if case.status == "SKIP":
                    assert case.detail, f"{res.suite}/{case.case} skipped silently"

    def test_single_suite_selection(self):
        results = run_suites(["thm46"])
        assert len(results) == 1
        assert results[0].suite == "thm46"
        statuses = {c.case: c.status for c in results[0].cases}
        assert statuses["Z4"] == "PASS"
        assert statuses["M2(GF2)"] == "SKIP"
        assert statuses["triv(2,2)"] == "SKIP"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValidationError):
            run_suites(["thm99"])

    def test_deterministic_results(self):
        first = run_suites(["lemma24", "thm48"])
        second = run_suites(["lemma24", "thm48"])
        flat = lambda results: [(c.suite, c.case, c.status, c.detail)
                                for r in results for c in r.cases]
        assert flat(first) == flat(second)

    def test_hypothesis_suites_skip_whole_families(self):
        by_suite = {r.suite: r for r in run_suites(["thm42", "thm48", "lemma41"])}
        for suite_id in ("thm42", "thm48", "lemma41"):
            res = by_suite[suite_id]
            skipped = {c.case for c in res.cases if c.status == "SKIP"}
            assert "M2(GF2)" in skipped
            assert "Z2 x Z4" in skipped


class TestFailureReporting:
    def test_sabotaged_formula_is_caught(self, monkeypatch):
        def wrong_formula(ring, x):
            return FormulaResult(value=ProbFraction(0, ring.size ** 2),
                                 formula="chain", applicability={})

        monkeypatch.setattr(verify, "prob_chain_formula", wrong_formula)
        results = run_suites(["thm46"])
        failing = [c for c in results[0].cases if c.status == "FAIL"]
        assert failing
        case = failing[0]
        assert case.expected and case.actual
        assert "/" in case.expected and "/" in case.actual

    def test_sabotaged_engine_is_caught(self, monkeypatch):
        def wrong_annsum(ring, cap=None):
            counts = list(verify.pair_counts(ring, cap=None))
            counts[0] += 1
            return tuple(counts)

        monkeypatch.setattr(verify, "annsum_counts", wrong_annsum)
        results = run_suites(["lemma23"])
        assert not results[0].passed


NOTHING = (ProbFraction(0, 1), ProbFraction(0, 1))


def _bump(orig, at, when=lambda ring: True):
    """pair_counts with one more hit at index at(ring) on the rings `when` picks."""
    def counts(ring, cap=None):
        result = orig(ring, cap=cap)
        if not when(ring):
            return result
        bumped = list(result)
        bumped[at(ring)] += 1
        return tuple(bumped)
    return counts


def _wrong_formula(orig):
    return lambda *args: FormulaResult(value=ProbFraction(0, 1), formula="x", applicability={})


def _bounds_off_for(x_class):
    return lambda orig: (lambda ring, cls: NOTHING if cls == x_class else orig(ring, cls))


def _matrix_units_off(orig):
    def formula(cls):
        result = orig(cls)
        if cls.rank < cls.dim:
            return result
        value = ProbFraction(result.value.hits + 1, result.value.total)
        return FormulaResult(value=value, formula=result.formula, applicability={})
    return formula


def _is_crt_composite(ring):
    return isinstance(ring, ZModRing) and components(ring) is not None


# key -> (suite, name patched in verify, patch factory taking the original,
#         number of FAIL cases, (case, detail, expected, actual) of the first)
SABOTAGE = {
    "lemma21": ("lemma21", "left_right_symmetry_check", lambda orig: lambda ring: False,
                28, ("Z2", "one-sided zero-divisor found", "", "")),
    "lemma23": ("lemma23", "annsum_counts", lambda orig: _bump(orig, lambda r: 0),
                28, ("Z2", "engines disagree at x=#0", "3/4", "1/1")),
    "lemma24-unit": ("lemma24", "pair_counts", lambda orig: _bump(orig, lambda r: r.size - 1),
                     24, ("Z2", "unit law fails at x=#1", "1/4 iff unit", "1/2")),
    "lemma24-zero": ("lemma24", "general_bounds", _bounds_off_for(ZERO_CLASS),
                     28, ("Z2", "zero-target probability outside bounds", "[0/1, 0/1]", "3/4")),
    "lemma24-zd": ("lemma24", "general_bounds", _bounds_off_for(NONZERO_ZERO_DIVISOR),
                   21, ("Z4", "bounds fail at x=#2", "[0/1, 0/1]", "1/4")),
    "lemma25-product": ("lemma25", "pair_counts",
                        lambda orig: _bump(orig, lambda r: 1,
                                           lambda r: isinstance(r, ProductRing)),
                        2, ("Z2 x Z4", "product law fails at x=#1", "3/32", "7/64")),
    "lemma25-crt": ("lemma25", "pair_counts",
                    lambda orig: _bump(orig, lambda r: 1, _is_crt_composite),
                    2, ("Z6", "CRT product law fails at x=1", "1/18", "1/12")),
    "lemma26": ("lemma26", "pair_counts",
                lambda orig: _bump(orig, lambda r: 0,
                                   lambda r: not isinstance(r, QuotientRing)),
                28, ("Z2", "quotient bound fails at x=#0, |I|=1", "at most 3/4", "1/1")),
    "lemma31": ("lemma31", "subspace_count", lambda orig: lambda *a: orig(*a) + 1,
                8, ("q=2,n=1", "count mismatch at r=0, k=0", "2", "1")),
    "thm32": ("thm32", "prob_matrix_formula", _matrix_units_off,
              6, ("M1(GF2)", "formula misses x=#1 (rank 1)", "1/2", "1/4")),
    "lemma41": ("lemma41", "ideal_size_power_check", lambda orig: lambda ring: False,
                20, ("Z2", "ideal size is not a power of q", "", "")),
    "thm42-zero": ("thm42", "local_bounds", _bounds_off_for(ZERO_CLASS),
                   13, ("Z4", "zero-target outside bounds", "[0/1, 0/1]", "1/2")),
    "thm42-unit": ("thm42", "pair_counts", lambda orig: _bump(orig, lambda r: r.one_index),
                   13, ("Z4", "unit value fails at x=#1", "1/8", "3/16")),
    "thm42-radical": ("thm42", "local_bounds", _bounds_off_for(NONZERO_RADICAL),
                      13, ("Z4", "radical member x=#2 outside bounds", "[0/1, 0/1]", "1/4")),
    "cor43": ("cor43", "corollary_43_predicates",
              lambda orig: lambda ring: (True, False, True, True),
              13, ("Z4", "predicates are not equivalent", "all equal",
                   "(True, False, True, True)")),
    "cor44": ("cor44", "corollary_44_predicate", lambda orig: lambda ring: (True, False),
              20, ("Z2", "sides disagree", "square-zero radical=False", "extremal=True")),
    "lemma45": ("lemma45", "unit_plus_radical_check", lambda orig: lambda ring: False,
                28, ("Z2", "unit + radical member is not a unit", "", "")),
    "thm46": ("thm46", "prob_chain_formula", _wrong_formula,
              17, ("Z2", "chain formula fails at x=#0", "0/1", "3/4")),
    "remark_zn": ("remark_zn", "zn_formula", _wrong_formula,
                  29, ("Z2", "split formula fails at x=0", "0/1", "3/4")),
    "thm48": ("thm48", "prob_j2zero_formula", _wrong_formula,
              16, ("Z2", "square-zero formula fails at x=#0", "0/1", "3/4")),
}


class TestSabotageStrings:
    """Every suite's failure report under a sabotaged formula, bound or
    engine: how many cases fail, and the first one string for string."""

    @pytest.mark.parametrize("key", list(SABOTAGE))
    def test_first_failure(self, monkeypatch, key):
        suite, name, patch, fails, first = SABOTAGE[key]
        monkeypatch.setattr(verify, name, patch(getattr(verify, name)))
        cases = run_suites([suite])[0].cases
        failing = [(c.case, c.detail, c.expected, c.actual)
                   for c in cases if c.status == "FAIL"]
        assert len(failing) == fails
        assert failing[0] == first


class TestSubspaceOracle:
    def test_known_counts(self):
        assert len(verify.enumerate_subspaces(2, 2, 1)) == 3
        assert len(verify.enumerate_subspaces(2, 3, 2)) == 7
        assert len(verify.enumerate_subspaces(3, 2, 1)) == 4
        assert len(verify.enumerate_subspaces(2, 4, 2)) == 35

    def test_full_and_trivial(self):
        assert len(verify.enumerate_subspaces(3, 3, 0)) == 1
        assert len(verify.enumerate_subspaces(3, 3, 3)) == 1

    def test_spans_have_field_power_size(self):
        for _, span in verify.enumerate_subspaces(3, 3, 2):
            assert len(span) == 9


def every_g_ideals(ring):
    """Oracle: the proper ideals RgR over every g, in order of first g."""
    proper = (principal_ideal_members(ring, g) for g in range(ring.size))
    return list(dict.fromkeys(m for m in proper if len(m) < ring.size))


def pool_ring(spec):
    if spec.startswith("table:"):
        return parse_ring_spec(f"table:{ROOT / spec[len('table:'):]}")
    return cached_ring(spec)


class TestSharedWork:
    """verify's shortcuts keep the results of the work they skip."""

    @pytest.mark.parametrize("spec", POOL_SPECS)
    def test_lemma26_ideals_match_every_g(self, spec, monkeypatch):
        ring = pool_ring(spec)
        closures = []
        monkeypatch.setattr(verify, "principal_ideal_members",
                            lambda r, g: closures.append(g) or principal_ideal_members(r, g))
        assert verify._proper_principal_ideals(ring) == every_g_ideals(ring)
        # one closure per distinct right ideal gR != R, each at its first g;
        # a g with gR = R (one zero in its row) generates R, never proper
        first = {}
        for g in range(ring.size):
            if len(set(ring.mul_row(g))) < ring.size:
                first.setdefault(frozenset(ring.mul_row(g)), g)
        assert closures == list(first.values())

    def test_targets_are_the_corpus_instances(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(["M2(GF2)", "Z6", "M1(GF2)", "Z4", "GF4"]))
        corpus = corpus_from_file(str(path))
        checked = []
        first_miss = verify._first_miss
        monkeypatch.setattr(verify, "_first_miss",
                            lambda ring, *a, **kw: checked.append(ring) or first_miss(ring, *a, **kw))
        results = run_suites(["thm32", "remark_zn"], corpus)
        assert all(r.passed for r in results)
        assert len(checked) == 6 + 29
        for _, ring in corpus[:4]:
            assert sum(r is ring for r in checked) == 1
        # GF4 equals no target: M1(GF4) is not among them
        assert not any(r is corpus[4][1] for r in checked)

    def test_matrix_tables_built_once_per_run(self, tmp_path, monkeypatch):
        # no spec cache outlives a run, so each run builds its own instances
        # and builds each of its two tables once
        builds = Counter()
        for name in ("_build_add_rows", "_build_mul_rows"):
            def counting(ring, _name=name, _build=getattr(Ring, name)):
                builds[ring.describe(), _name] += 1
                return _build(ring)

            monkeypatch.setattr(MatrixRing, name, counting)
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(["M3(GF2)", "M2(GF3)"]))
        results = run_suites(None, corpus_from_file(str(path)))
        assert all(r.passed for r in results)
        assert all(builds[spec, name] == 1 for spec in ("M3(GF2)", "M2(GF3)")
                   for name in ("_build_add_rows", "_build_mul_rows"))
