"""Ring-spec grammar and element-literal round trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringprob.corpus import default_corpus, fixture_path
from ringprob.errors import ParseError, SizeCapExceeded, ValidationError
from ringprob.rings import (
    MatrixRing,
    ProductRing,
    ZModRing,
    chain_ring,
    field_ring,
    matrix_ring,
    quotient_make,
    trivial_extension,
    zmod,
)
from ringprob.specparse import parse_element, parse_ring_spec


class TestGrammar:
    def test_zmod(self):
        ring = parse_ring_spec("Z4")
        assert isinstance(ring, ZModRing) and ring.n == 4

    def test_product(self):
        ring = parse_ring_spec("M2(GF2) x Z3")
        assert isinstance(ring, ProductRing)
        assert isinstance(ring.factors[0], MatrixRing)
        assert isinstance(ring.factors[1], ZModRing)

    def test_whitespace_insensitive(self):
        assert parse_ring_spec("Z2xZ4") == parse_ring_spec(" Z2  x  Z4 ")

    def test_gf_requires_prime_power(self):
        with pytest.raises(ValidationError):
            parse_ring_spec("GF6")

    def test_gf_factors_order(self):
        ring = parse_ring_spec("GF9")
        assert ring.size == 9 and ring.base.n == 3

    def test_chain_gr_triv(self):
        assert parse_ring_spec("chain(2,3)").size == 8
        assert parse_ring_spec("GR(2,2,2)").size == 16
        assert parse_ring_spec("triv(3,2)").size == 27

    def test_table_path(self, tmp_path):
        payload = {"size": 2, "one": 1,
                   "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}
        path = tmp_path / "z2.json"
        path.write_text(json.dumps(payload))
        ring = parse_ring_spec(f"table:{path}")
        assert ring.size == 2

    def test_table_in_product(self, tmp_path):
        payload = {"size": 2, "one": 1,
                   "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}
        path = tmp_path / "z2.json"
        path.write_text(json.dumps(payload))
        ring = parse_ring_spec(f"table:{path} x Z3")
        assert ring.size == 6

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_ring_spec("Z4 x Q7")
        assert err.value.position == 5

    def test_trailing_separator(self):
        with pytest.raises(ParseError):
            parse_ring_spec("Z4 x")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_ring_spec("   ")

    def test_missing_separator(self):
        with pytest.raises(ParseError):
            parse_ring_spec("Z4 Z6")

    def test_round_trip_whole_corpus(self):
        for _, ring in default_corpus():
            assert parse_ring_spec(ring.describe()) == ring


class TestOrderBound:
    """parse_ring_spec bounds the order from the spec's integers before
    building anything."""

    def test_cap_refusal_names_the_exact_order_when_cheap(self):
        with pytest.raises(SizeCapExceeded, match="ring has 9765625 elements, above the cap of 4096"):
            parse_ring_spec("Z5 x M3(GF5)", cap=4096)
        assert parse_ring_spec("M2(GF8)", cap=4096).size == 4096

    def test_cap_refusal_gives_a_lower_bound_when_huge(self):
        with pytest.raises(SizeCapExceeded, match=r"at least 2\^3000000000000 elements"):
            parse_ring_spec("M1000000(GF8)", cap=4096)

    def test_product_with_a_table_is_checked_once_built(self):
        fixture = [r for name, r in default_corpus() if name.startswith("table:")][0]
        with pytest.raises(SizeCapExceeded, match="ring has 8000 elements"):
            parse_ring_spec(f"table:{fixture.source_path} x Z1000", cap=4096)

    def test_hard_limit_holds_without_a_cap(self):
        with pytest.raises(ValidationError, match=r"at least 2\^4096 elements"):
            parse_ring_spec("M64(GF2)")
        assert parse_ring_spec("M63(GF2)").size == 2 ** 3969

    def test_invalid_atoms_are_left_to_their_constructors(self):
        with pytest.raises(ValidationError, match="matrix dimension must be >= 1"):
            parse_ring_spec("M0(GF2)", cap=4096)
        with pytest.raises(ValidationError, match="ZMod needs modulus >= 2"):
            parse_ring_spec("Z1 x Z3", cap=4096)


class TestElementLiterals:
    def test_zmod_decimal(self):
        assert parse_element(zmod(12), "7").index == 7
        assert parse_element(zmod(12), "-1").index == 11

    def test_universal_index_form(self):
        for _, ring in default_corpus():
            assert parse_element(ring, "#0").index == 0
            assert parse_element(ring, f"#{ring.size - 1}").index == ring.size - 1

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_element(zmod(4), "#4")

    def test_field_coefficient_list(self):
        gf4 = field_ring(4)
        assert parse_element(gf4, "0,1").index == 2
        assert parse_element(gf4, "1").index == 1  # short list pads zeros
        assert parse_element(gf4, "(1,1)").index == 3

    def test_field_too_many_coefficients(self):
        with pytest.raises(ParseError):
            parse_element(field_ring(4), "1,0,1")

    def test_matrix_prime_field(self):
        m2 = matrix_ring(2, 2)
        el = parse_element(m2, "[[1,1],[0,1]]")
        assert el.form == ((1, 1), (0, 1))

    def test_matrix_extension_field_entries(self):
        m2g4 = matrix_ring(2, 4)
        el = parse_element(m2g4, "[[(0,1),1],[0,#3]]")
        assert el.form == ((2, 1), (0, 3))

    def test_matrix_shape_errors(self):
        m2 = matrix_ring(2, 2)
        with pytest.raises(ParseError):
            parse_element(m2, "[[1,1],[0,1],[0,0]]")
        with pytest.raises(ParseError):
            parse_element(m2, "[[1,1,0],[0,1]]")
        with pytest.raises(ParseError):
            parse_element(m2, "1,1,0,1")

    def test_poly_quotient_coefficients(self):
        c23 = chain_ring(2, 3)
        assert parse_element(c23, "1,0,1").form == (1, 0, 1)
        assert parse_element(c23, "0,1").form == (0, 1, 0)

    def test_galois_ring_coefficients(self):
        gr = parse_ring_spec("GR(2,2,2)")
        assert parse_element(gr, "3,2").form == (3, 2)
        # over Z_n one outer pair may wrap the list, as for a field
        assert parse_element(gr, "(3,2)").form == (3, 2)
        with pytest.raises(ParseError):
            parse_element(gr, "(3),2)")

    def test_trivial_extension_tuple(self):
        tv = parse_ring_spec("triv(2,2)")
        el = parse_element(tv, "(1,0,1)")
        assert el.form == (1, (0, 1))

    def test_product_tuple(self):
        pr = parse_ring_spec("Z2 x M2(GF2)")
        el = parse_element(pr, "(1,[[1,0],[0,1]])")
        assert pr.decode(el.index)[0] == 1
        assert pr.factors[1].decode(pr.decode(el.index)[1]) == ((1, 0), (0, 1))

    def test_product_arity_error(self):
        with pytest.raises(ParseError):
            parse_element(parse_ring_spec("Z2 x Z3"), "(1,2,0)")

    def test_quotient_accepts_parent_literal(self):
        q = quotient_make(zmod(12), {0, 6})
        assert parse_element(q, "7").index == q.coset_index_of(7)
        assert parse_element(q, "#3").index == 3

    def test_unbalanced_brackets(self):
        with pytest.raises(ParseError):
            parse_element(matrix_ring(2, 2), "[[1,1],[0,1]")

    def test_extension_field_coefficients_in_quotients(self):
        # base GF(4) coefficients are parenthesized, even at degree 1
        c41 = chain_ring(4, 1)
        assert parse_element(c41, "(0,1)").form == (2,)
        c42 = chain_ring(4, 2)
        el = parse_element(c42, "(0,1),(1,1)")
        assert el.form == (2, 3)

    def test_format_round_trip_every_corpus_element(self):
        for _, ring in default_corpus():
            for i in range(ring.size):
                text = ring.format_element(i)
                assert parse_element(ring, text).index == i

    def test_format_round_trip_extension_field_constructions(self):
        for ring in (chain_ring(4, 1), chain_ring(4, 2), matrix_ring(2, 4),
                     trivial_extension(4, 1), parse_ring_spec("GF4 x Z3")):
            for i in range(ring.size):
                assert parse_element(ring, ring.format_element(i)).index == i


# ---------------------------------------------------------------------------
# Grammar fuzzing: generated specs and literals, some of them mutated,
# either parse and round-trip or are refused with ParseError/ValidationError
# ---------------------------------------------------------------------------

_SMALL = st.integers(0, 300)
_ATOM = st.one_of(
    st.builds("Z{}".format, _SMALL),
    st.builds("GF{}".format, _SMALL),
    st.builds("M{}(GF{})".format, st.integers(0, 3), st.integers(0, 16)),
    st.builds("chain({},{})".format, st.integers(0, 16), st.integers(0, 4)),
    st.builds("GR({},{},{})".format, st.integers(0, 7), st.integers(0, 3), st.integers(0, 3)),
    st.builds("triv({},{})".format, st.integers(0, 16), st.integers(0, 3)),
    st.just(f"table:{fixture_path()}"),
)
_NOISE = "ZGFMx(),:# []-0123456789"


@st.composite
def _mutated(draw, text: str) -> str:
    """text, or text with up to three single-character edits."""
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        ch = draw(st.sampled_from(_NOISE))
        if op == "insert":
            text = text[:pos] + ch + text[pos:]
        else:
            text = text[:pos] + (ch if op == "replace" else "") + text[pos + 1:]
    return text


def _parse_or_refuse(parse, *args):
    try:
        return parse(*args)
    except (ParseError, ValidationError):
        return None


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_fuzzed_specs_and_literals_parse_or_refuse(data):
    atoms = data.draw(st.lists(_ATOM, min_size=1, max_size=3), label="atoms")
    spec = data.draw(_mutated(" x ".join(atoms)), label="spec")
    ring = _parse_or_refuse(parse_ring_spec, spec)
    if ring is None:
        return
    assert parse_ring_spec(ring.describe()) == ring
    i = data.draw(st.integers(0, ring.size - 1), label="index")
    assert parse_element(ring, ring.format_element(i)).index == i
    literal = data.draw(_mutated(ring.format_element(i)), label="literal")
    element = _parse_or_refuse(parse_element, ring, literal)
    if element is not None:
        assert parse_element(ring, ring.format_element(element.index)) == element
