"""Reports read and written from ints: the JSON writer against
``json.dumps(..., indent=2)``, and the matrix parser and the rational,
weight and q-scalar printers against the Fraction forms in ``oracles``."""

import json
from fractions import Fraction

import pytest

from oracles import fraction_text, parse_matrix, scalar_text, weight_coords
from qwhit import cli, rootsys
from qwhit.qarith import EXP_UNIT, LaurentScalar
from qwhit.ratmat import rat_text

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _settings(examples):
    return hypothesis.settings(max_examples=examples, deadline=None,
                               database=None, derandomize=True)


# -- the writer ----------------------------------------------------------------

_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    "\x00\x01\x1f\x7f\"\\/\b\f\n\r\t \ud800\U0001f600é")), max_size=8)
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-10 ** 300, 10 ** 300), _TEXT)
_TREES = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=3).map(tuple),
    st.dictionaries(_TEXT, children, max_size=4)), max_leaves=40)


def test_the_writer_gives_the_bytes_of_json_dumps_indent_2():
    @_settings(300)
    @hypothesis.given(_TREES)
    def check(tree):
        assert cli._json_text(tree) == json.dumps(tree, indent=2)

    check()


@pytest.mark.parametrize("tree", [
    {}, [], (), "", 0, -1, True, None, {"a": {}}, [[], {}, ()],
    {"schema": "1", "rows": [["1/2", "-3"], []], "ok": False}])
def test_the_writer_on_edge_trees(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("tree", [
    1.5, [0.0], {"a": [1, {"b": float("nan")}]}, {1: "x"}, {"a": {None: 1}},
    {"a": [{(1, 2): 3}]}, {True: 1}, [Fraction(1, 2)], {"a": {1, 2}}])
def test_the_writer_refuses_a_float_a_non_str_key_and_other_types(tree):
    with pytest.raises(TypeError):
        cli._json_text(tree)


# -- the matrix parser -----------------------------------------------------------

def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


_DIGITS = st.text("0123456789", max_size=5)
_SIGNED = st.builds(lambda sign, digits: sign + digits,
                    st.sampled_from(["", "-", "+", " ", "--"]), _DIGITS)
_ENTRY_TEXT = st.one_of(
    _SIGNED,
    st.builds(lambda a, b: f"{a}/{b}", _SIGNED, _DIGITS),
    st.sampled_from([
        "1/0", "0/0", "3/00", "-0", "007/010", "4/6", "-3/-4", "1.5", ".5",
        "5.", "-2.50", "1e3", "1E-3", "2e+5", "1e1000", "1e-1000", "1e1001",
        "1E-1001", "1_000", "1__0", "_1", "1_", "1/2_0", " 1", "1 ", "\t2",
        "١٢", "²", "１", "1/٣", "", "-", "/", "1/",
        "inf", "nan", "0x10", "1/2/3", "10" * 30 + "/7", "-" + "9" * 4400]),
    st.text(max_size=4))
# entries as they appear in the JSON text: strings, JSON numbers (read from
# their text) and values that are not numbers at all
_JSON_ENTRY = st.one_of(
    _ENTRY_TEXT.map(json.dumps), _ENTRY_TEXT.map(json.dumps),
    st.sampled_from(["0", "-0", "12", "-7", "1.5", "0.50000000000000001",
                     "1e400", "1E-5", "-2.5e3", "true", "null", "[]", "[1]",
                     "{}", '{"a": 1}', "[[1]]"]))


def _matrix_text(rows):
    return "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"


_ROW = st.lists(_JSON_ENTRY, max_size=4)
_MATRIX_TEXT = st.one_of(
    st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(_JSON_ENTRY, min_size=n, max_size=n), min_size=n,
        max_size=n)).map(_matrix_text),
    st.lists(_ROW, max_size=4).map(_matrix_text),  # ragged, empty rows
    st.lists(st.one_of(_ROW.map(lambda r: "[" + ",".join(r) + "]"),
                       _JSON_ENTRY), max_size=3).map(
        lambda rows: "[" + ",".join(rows) + "]"),  # rows that are not lists
    st.integers(1, 40).map(lambda d: "[" * d + '"1"' + "]" * d),
    st.integers(5000, 20000).map(lambda d: "[" * d + "]" * d),
    st.sampled_from(["", "[", "[[1]", "[[1]]]", "{}", '"1"', "1", "null",
                     "[[1,]]", "[[1] [2]]", "﻿[[1]]", " [[ 1 ]] ",
                     "[['1']]", "[[NaN]]", "[[Infinity]]", "[[-Infinity]]"]),
    st.text(max_size=12))


def test_the_matrix_parser_agrees_with_the_fraction_parser():
    @_settings(600)
    @hypothesis.given(_MATRIX_TEXT)
    def check(text):
        assert _outcome(cli._parse_matrix, text) == _outcome(parse_matrix,
                                                             text)

    check()


def test_plain_entries_are_read_without_a_fraction(monkeypatch):
    def refused(text):
        raise AssertionError(f"{text!r} went through a Fraction")

    text = '[["3","-2/4",7],["0/5","-0","007/010"]]'
    want = parse_matrix(text)
    monkeypatch.setattr(cli, "_parse_rational", refused)
    assert cli._parse_matrix(text) == want


# -- the printers ------------------------------------------------------------------

def test_rat_text_is_the_text_of_the_fraction():
    @_settings(400)
    @hypothesis.given(st.one_of(st.integers(), st.integers(-10 ** 60,
                                                           10 ** 60)),
                      st.one_of(st.integers(1, 12), st.integers(1, 10 ** 40),
                                st.sampled_from([EXP_UNIT, EXP_UNIT ** 2])))
    def check(x, den):
        assert rat_text(x, den) == fraction_text(x, den)

    check()


_COEFFS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


def test_weight_text_is_the_text_of_the_fraction_coordinates():
    @_settings(200)
    @hypothesis.given(st.lists(st.integers(-5 * EXP_UNIT, 5 * EXP_UNIT),
                               max_size=6))
    def check(lam):
        assert rootsys.weight_text(lam) == [str(x)
                                            for x in weight_coords(lam)]

    check()


def test_scalars_print_as_through_their_fraction_views():
    @_settings(400)
    @hypothesis.given(st.data())
    def check(data):
        # exponents k/step for one step per draw, a divisor of EXP_UNIT, so
        # that the dense polynomials the gcd works on stay short
        step = data.draw(st.sampled_from([1, 2, 3, 5, 7, 12, 36, 2520]))
        poly = st.dictionaries(st.builds(Fraction, st.integers(-8, 8),
                                         st.just(step)), _COEFFS, max_size=4)
        try:
            x = LaurentScalar(data.draw(poly),
                              data.draw(st.one_of(st.none(), poly)))
        except ZeroDivisionError:
            return
        # sums and products reach forms no constructor call gives directly
        y = LaurentScalar(data.draw(poly))
        for z in (x, x + y, x * y, -x):
            assert str(z) == scalar_text(z)

    check()


def test_scalar_text_on_fixed_forms():
    q = {Fraction(1): Fraction(1)}
    for x, want in [
            (LaurentScalar({}), "0"),
            (LaurentScalar({0: Fraction(-3, 4)}), "-3/4"),
            (LaurentScalar(q), "q"),
            (LaurentScalar({Fraction(1, 2): 2, Fraction(-7, 3): -1}),
             "-1*q^(-7/3) + 2*q^(1/2)"),
            (LaurentScalar({0: 1}, {0: 2, 1: 4}), "(1/2)/(1 + 2*q)")]:
        assert str(x) == scalar_text(x) == want
