"""Recipe invariants against the enumeration oracle, the matrix rank
against the table oracle, and closed-form queries that build no table."""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ringprob.cli import main
from ringprob.closedform import prob_formula, prob_matrix_formula, MatrixClass
from ringprob.corpus import default_corpus, fixture_path
from ringprob.errors import FormulaUnavailable, ValidationError
from ringprob.probability import ProbFraction, prob_brute
from ringprob.recipe import _factorize, components, invariants, matrix_rank
from ringprob.rings import (
    DEFAULT_SIZE_CAP,
    MatrixRing,
    PolyQuotientRing,
    ProductRing,
    Ring,
    ZModRing,
    chain_ring,
    field_ring,
    matrix_ring,
    quotient_make,
    trivial_extension,
    zmod,
)
from ringprob.specparse import parse_ring_spec
from ringprob.structure import structure_report
from test_finfield import field_oracle

# Z360 and Z210 split into three and four components; Z6 x Z10 is a
# product whose factors split again.
RECIPE_EXTRA_SPECS = ["GR(3,2,2)", "chain(4,3)", "M2(GF5)", "triv(4,2)", "Z360", "Z210",
                      "Z8 x GF8", "Z6 x Z10", "table:<fixture> x Z3"]

# Rings without a recipe: they read their invariants off structure_report.
NO_RECIPE = {
    "Z4[t]/(t^2)": lambda: PolyQuotientRing(zmod(4), [0, 0, 1]),
    "Z6[t]/(t^2+1)": lambda: PolyQuotientRing(zmod(6), [1, 0, 1]),
    "GF4[t]/(t^2+t+1)": lambda: PolyQuotientRing(field_ring(4), [1, 1, 1]),
    "chain(2,4)/J^2": lambda: quotient_make(chain_ring(2, 4), [0, 4, 8, 12]),
}


def build(spec: str) -> Ring:
    corpus = dict(default_corpus())
    return corpus.get(spec) or parse_ring_spec(spec.replace("<fixture>", fixture_path()))


def assert_matches_structure_report(ring: Ring) -> None:
    inv = invariants(ring)
    rep = structure_report(ring)
    assert (inv.unit_count, inv.is_local, inv.q, inv.n, inv.t) == (
        len(rep.units), rep.is_local, rep.q, rep.n, rep.nilpotency_index)
    assert (inv.is_max_chain, inv.is_j2_zero) == (rep.is_max_chain, rep.is_j2_zero)
    assert [inv.is_unit(i) for i in range(ring.size)] == [
        i in rep.units for i in range(ring.size)]
    assert [inv.radical_layer(i) for i in range(1, ring.size)] == [
        rep.radical_layer(i) for i in range(1, ring.size)]


class TestRecipeMatchesStructure:
    @pytest.mark.parametrize("spec", [name for name, _ in default_corpus()]
                             + RECIPE_EXTRA_SPECS)
    def test_every_element(self, spec):
        ring = build(spec)
        assert invariants(ring).source == (
            "structure report" if spec.startswith("table:ut2") else "recipe")
        assert_matches_structure_report(ring)

    @pytest.mark.parametrize("name", list(NO_RECIPE))
    def test_rings_without_recipe_read_structure_report(self, name):
        ring = NO_RECIPE[name]()
        assert invariants(ring).source == "structure report"
        assert_matches_structure_report(ring)

    def test_layer_of_zero_is_undefined(self):
        for spec in ("Z8", "Z12", "GF4", "M2(GF2)", "M1(GF3)", "chain(2,3)", "GR(2,2,2)",
                     "triv(2,2)", "Z8 x GF8", "Z210", "Z6 x Z10", "table:<fixture> x Z3"):
            ring = build(spec)
            with pytest.raises(ValueError):
                invariants(ring).radical_layer(0)


class TestComponents:
    def test_composite_zn_splits_by_crt(self):
        factors, split = components(zmod(360))
        assert [f.describe() for f in factors] == ["Z8", "Z9", "Z5"]
        assert split(12) == (4, 3, 2)

    @pytest.mark.parametrize("n", [60, 210])
    def test_crt_split_is_a_ring_isomorphism(self, n):
        factors, split = components(zmod(n))
        assert len({split(i) for i in range(n)}) == n
        for i in range(n):
            for j in range(n):
                assert split((i + j) % n) == tuple(
                    f.add_index(a, b) for f, a, b in zip(factors, split(i), split(j)))
                assert split(i * j % n) == tuple(
                    f.mul_index(a, b) for f, a, b in zip(factors, split(i), split(j)))

    @pytest.mark.parametrize("spec", ["Z2", "Z8", "Z9", "GF4", "M2(GF2)", "chain(2,3)",
                                      "GR(2,2,2)", "triv(2,2)", "table:<fixture>"])
    def test_indecomposable_rings_do_not_split(self, spec):
        assert components(build(spec)) is None

    @pytest.mark.parametrize("spec", ["Z360", "Z2 x M2(GF2)", "Z8"])
    def test_memoized_on_the_ring(self, spec):
        ring = build(spec)
        first = components(ring)
        assert components(ring) is first
        if first is not None:
            assert invariants(first[0][0]) is invariants(components(ring)[0][0])


def factorize_by_trial_division(n):
    """Oracle: divide by every p with p^2 <= n in turn."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactorize:
    def test_matches_trial_division(self):
        for n in range(2, 20001):
            factors = _factorize(n)
            assert factors == factorize_by_trial_division(n), n
            assert list(factors) == sorted(factors)

    @pytest.mark.parametrize("n, factors", [
        ((10 ** 9 + 7) * (10 ** 9 + 9), {10 ** 9 + 7: 1, 10 ** 9 + 9: 1}),
        (3 * (10 ** 9 + 7) ** 2, {3: 1, 10 ** 9 + 7: 2}),
        (1009 * 1013, {1009: 1, 1013: 1}),
        (1009 ** 3 * 1013, {1009: 3, 1013: 1}),
        (997 * 1009, {997: 1, 1009: 1}),
    ])
    def test_cofactors_past_trial_division(self, n, factors):
        """Factors above the trial-division range are split by Pollard's
        rho; trial division alone would take up to 10^9 steps."""
        assert _factorize(n) == factors
        assert list(_factorize(n)) == sorted(factors)

    def test_composite_above_primality_bound_is_refused(self):
        # a 92-bit composite left after trial division: refused, not guessed
        with pytest.raises(ValidationError, match="cannot factor a 92-bit number"):
            _factorize((2 ** 31 - 1) * (2 ** 61 - 1))


class TestMatrixRank:
    @pytest.mark.parametrize("spec", ["M1(GF7)", "M1(GF9)", "M2(GF2)", "M2(GF3)",
                                      "M2(GF4)", "M2(GF5)", "M3(GF2)"])
    def test_rank_is_log_of_right_ideal_size(self, spec):
        # xR is the set of matrices whose columns lie in x's column space,
        # so |xR| = q^(k * rank): the table oracle log_q(|xR|) / k.
        ring = parse_ring_spec(spec)
        for i in range(ring.size):
            rank = matrix_rank(ring.element(i))
            assert ring.q ** (ring.k * rank) == len(set(ring.mul_row(i)))

    def test_rank_by_determinant_in_odd_characteristic(self):
        # M2(GF9) is above the cap; there the rank is 2 iff det != 0, else 1
        # for a nonzero matrix.  GF(9) has -1 != 1, unlike GF(4) and GF(8).
        ring = matrix_ring(2, 9)
        add, mul, neg = field_oracle(9)
        for i in range(ring.size):
            (a, b), (c, d) = ring.decode(i)
            det = add(mul(a, d), neg(mul(b, c)))
            expected = 2 if det else (1 if i else 0)
            assert matrix_rank(ring.element(i)) == expected

    def test_field_above_table_cap_computes_per_call(self):
        # M2 over GF(729) = GF(3^6) has 729^4 elements, above the cap, so its
        # entries are multiplied per call and the field builds no table
        ring = matrix_ring(2, 729)
        add, mul, neg = field_oracle(729)
        rank_by_det = {}
        for a, b, c, d in [(0, 0, 0, 0), (5, 0, 0, 0), (5, 7, 0, 0), (1, 2, 3, 4),
                           (700, 3, 12, 99), (0, 1, 1, 0)]:
            for scale in (1, 2, 728):
                rows = ((a, b), (mul(scale, a), mul(scale, b)))   # rank <= 1
                rank_by_det[rows] = 1 if a or b else 0
            rows = ((a, b), (c, d))
            det = add(mul(a, d), neg(mul(b, c)))
            rank_by_det[rows] = 2 if det else (1 if any((a, b, c, d)) else 0)
        for rows, rank in rank_by_det.items():
            assert matrix_rank(ring.element(ring.encode(rows))) == rank
        assert ring.field._mul_rows is None and ring._mul_rows is None
        # a field within the cap whose ring is above it: 3721 = 61^2 and
        # 2187 = 3^7 would give 13.8M and 4.8M table entries; above the cap,
        # GF(4093^2) multiplies its coefficients in Z_4093 per call too
        big = matrix_ring(2, 4093 ** 2)
        for ring in (matrix_ring(2, 729), matrix_ring(2, 3721), trivial_extension(2187, 2), big):
            for xi in (0, ring.one_index, 2, ring.size - 1):
                prob_formula(ring, xi)
            assert ring.field._mul_rows is None and ring._mul_rows is None
        assert big.field.base._mul_rows is None


@pytest.fixture
def table_work(monkeypatch):
    """Counts ring table builds, index-level ring operations (field entry
    ops among them) and structure_report calls."""
    counts = {"ring tables": 0, "index ops": 0, "structure_report": 0}
    for name, attr in (("_add_table", "_add_rows"), ("_mul_table", "_mul_rows")):
        def counted_table(self, _build=getattr(Ring, name), _attr=attr):
            built = getattr(self, _attr) is None
            ok = _build(self)
            counts["ring tables"] += built and getattr(self, _attr) is not None
            return ok

        monkeypatch.setattr(Ring, name, counted_table)
    for name in ("add_index", "mul_index", "neg_index"):
        op = getattr(Ring, name)

        def counted_op(self, *args, _op=op):
            counts["index ops"] += 1
            return _op(self, *args)

        monkeypatch.setattr(Ring, name, counted_op)

    def counted_report(ring, _report=structure_report):
        counts["structure_report"] += 1
        return _report(ring)

    for module in [m for n, m in sys.modules.items() if n.startswith("ringprob")]:
        if getattr(module, "structure_report", None) is structure_report:
            monkeypatch.setattr(module, "structure_report", counted_report)
    return counts


class TestNoTablesForClosedForms:
    @pytest.mark.parametrize("spec", ["M3(GF2)", "GF128", "chain(2,8)"])
    @pytest.mark.parametrize("method", ["formula", "auto"])
    def test_cli_query_builds_nothing(self, table_work, capsys, spec, method):
        size = parse_ring_spec(spec).size
        for target in sorted({0, 1, 2, 77 % size, size - 1}):
            code = main(["prob", "--ring", spec, "--x", f"#{target}",
                         "--method", method, "--explain"])
            assert code == 0
        assert table_work == {"ring tables": 0, "index ops": 0, "structure_report": 0}
        assert capsys.readouterr().err == ""

    def test_table_factor_reads_structure_report_once(self, table_work, capsys):
        spec = f"table:{fixture_path()} x Z8"
        for target in ("#0", "#9", "#63"):
            assert main(["prob", "--ring", spec, "--x", target, "--method", "auto"]) == 0
        # one report per freshly parsed table factor, none for Z8 or the product
        assert table_work["structure_report"] == 3
        capsys.readouterr()

    def test_spectrum_runs_no_structure_report(self, table_work, capsys):
        assert main(["spectrum", "--ring", "Z512", "--format", "json"]) == 0
        assert table_work["structure_report"] == 0
        capsys.readouterr()

    def test_closed_forms_above_the_cap(self):
        m20 = matrix_ring(20, 2)
        assert m20.size > DEFAULT_SIZE_CAP
        assert prob_formula(m20, 0).value == prob_matrix_formula(MatrixClass(2, 20, 0)).value
        assert prob_formula(m20, m20.one_index).formula == "unit"
        z = zmod(1000003)
        assert prob_formula(z, 0).value == ProbFraction(2 * 1000003 - 1, 1000003 ** 2)
        assert m20._mul_rows is None and z._mul_rows is None


# ---------------------------------------------------------------------------
# Property: closed forms equal prob_brute or refuse exactly when the
# structure-report rule of the enumeration oracle refuses
# ---------------------------------------------------------------------------

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64]
CORPUS_SPECS = {name for name, _ in default_corpus()}
MAX_SIZE = 256


def _atoms() -> list[tuple[str, int]]:
    atoms = [(f"Z{n}", n) for n in range(2, MAX_SIZE + 1)] + [(f"GF{q}", q) for q in PRIME_POWERS]
    for q in PRIME_POWERS:
        atoms += [(f"chain({q},{m})", q ** m) for m in range(1, 9) if q ** m <= MAX_SIZE]
        atoms += [(f"triv({q},{m})", q ** (m + 1)) for m in range(1, 8)
                  if q ** (m + 1) <= MAX_SIZE]
        atoms += [(f"M{k}(GF{q})", q ** (k * k)) for k in (1, 2, 3) if q ** (k * k) <= MAX_SIZE]
    for p in (2, 3, 5, 7):
        atoms += [(f"GR({p},{k},{r})", p ** (k * r)) for k in range(1, 5) for r in range(1, 5)
                  if p ** (k * r) <= MAX_SIZE]
    return atoms


ATOMS = _atoms()
PAIRS = [(f"{a} x {b}", m * n) for a, m in ATOMS for b, n in ATOMS if m * n <= 64]
ATOM_SPECS = sorted({spec for spec, _ in ATOMS} - CORPUS_SPECS)
PAIR_SPECS = sorted({spec for spec, _ in PAIRS} - CORPUS_SPECS)
SPECS = ATOM_SPECS + PAIR_SPECS


def prime_powers(n: int) -> list[int]:
    """The prime-power factors p^e of n, by trial division."""
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            out.append(1)
            while n % p == 0:
                out[-1] *= p
                n //= p
        p += 1
    return out


def structure_rule_applies(ring: Ring, xi: int) -> bool:
    """The closed-form dispatch rule as the structure report states it."""
    report = structure_report(ring)
    if xi in report.units or isinstance(ring, MatrixRing):
        return True
    if report.is_local and (report.is_max_chain or report.is_j2_zero):
        return True
    if isinstance(ring, ProductRing):
        return all(structure_rule_applies(f, c) for f, c in zip(ring.factors, ring.decode(xi)))
    if isinstance(ring, ZModRing) and len(moduli := prime_powers(ring.n)) > 1:
        # CRT: Z_n is the product of its Z_{p^e}, x going to x mod p^e
        return all(structure_rule_applies(zmod(m), xi % m) for m in moduli)
    return False


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_formula_equals_brute_or_refuses_like_structure_rule(data):
    spec = data.draw(st.one_of(st.sampled_from(ATOM_SPECS), st.sampled_from(PAIR_SPECS)),
                     label="spec")
    ring = parse_ring_spec(spec)
    targets = data.draw(st.lists(st.integers(0, ring.size - 1), min_size=1, max_size=6),
                        label="targets")
    for xi in targets + [0, ring.one_index]:
        try:
            value = prob_formula(ring, xi).value
        except FormulaUnavailable:
            assert not structure_rule_applies(ring, xi), (spec, xi)
        else:
            assert structure_rule_applies(ring, xi), (spec, xi)
            assert value == prob_brute(ring, xi), (spec, xi)


def test_property_specs_cover_every_construction():
    kinds = {"Z", "GF", "chain", "triv", "M", "GR", " x "}
    assert all(any(k in spec for spec in SPECS) for k in kinds)
    assert max(parse_ring_spec(spec).size for spec in SPECS) <= MAX_SIZE
    assert not set(SPECS) & CORPUS_SPECS
