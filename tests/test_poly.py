import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from m2alg.fields import GF, GF2, QQ, FpElem
from m2alg.freealg import NCPoly, Word
from m2alg.groebner import structure_basis
from m2alg.poly import (
    BiPoly,
    NEG_INF,
    UniPoly,
    parse_bipoly,
    parse_unipoly,
)
from m2alg.sequences import f_st


def u(ints, field=QQ):
    return UniPoly.of_ints(ints, field)


def test_unipoly_basics():
    p = u([1, 0, -2])  # -2t^2 + 1
    assert p.degree == 2
    assert p.text() == "-2*t^2 + 1"
    assert u([]).is_zero()
    assert u([]).degree == NEG_INF
    assert (p - p).is_zero()
    assert (p * u([0, 1])).text() == "-2*t^3 + t"


@st.composite
def unipolys(draw, field=QQ, max_deg=4):
    coeffs = draw(
        st.lists(st.integers(-5, 5), min_size=0, max_size=max_deg + 1)
    )
    return UniPoly.of_ints(coeffs, field)


def bp(text, field=QQ):
    return parse_bipoly(text, field)


def test_bipoly_arith():
    p = bp("t^2 + s")
    assert p + BiPoly.zero(QQ) == p
    assert bp("t") * bp("t") == bp("t^2")
    assert f_st(3) * BiPoly.const(1, QQ) == bp("t^2 + s")
    assert (p - p).is_zero()
    assert bp("s + 1") * bp("s - 1") == bp("s^2 - 1")
    assert bp("t + s") ** 2 == bp("t^2 + 2*s*t + s^2")


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_reflected_operators_match_left_operand_form(field):
    two = field.of(2)
    for p in (BiPoly.s(field), bp("t^2 - s*t + 1", field), u([1, -1, 2], field)):
        for c in (2, two):
            assert c * p == p * c
            assert c + p == p + c
            assert c - p == -(p - c)
    assert 1 - BiPoly.s(field) == BiPoly.const(1, field) - BiPoly.s(field)


def test_bipoly_pow_negative_rejected():
    with pytest.raises(ValueError):
        bp("t") ** (-1)


def test_bipoly_lm_order():
    # lex with t > s: t dominates any pure s power
    p = bp("s^5 + t")
    assert p.lm() == (0, 1)
    assert bp("s*t^2 + t^2").lm() == (1, 2)


def test_bipoly_text_canonical():
    assert f_st(7).text() == "t^6 + 5*s*t^4 + 6*s^2*t^2 + s^3"
    assert (f_st(6) - BiPoly.s(QQ, 2)).text() == "t^5 + 4*s*t^3 + 3*s^2*t - s^2"
    assert BiPoly.zero(QQ).text() == "0"
    assert bp("-t + 1").text() == "-t + 1"


def test_evaluate_s_golden():
    img = f_st(7).evaluate_s(QQ.of(-1))
    assert img.text() == "t^6 - 5*t^4 + 6*t^2 - 1"
    assert bp("s + 1").evaluate_s(QQ.of(-1)).is_zero()
    # s -> 0 keeps the s-free part
    assert bp("s*t + t^2 + s^3").evaluate_s(QQ.of(0)).text() == "t^2"


@st.composite
def bipolys(draw, field=QQ):
    n = draw(st.integers(1, 5))
    terms = {}
    for _ in range(n):
        mono = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[mono] = field.of(draw(st.integers(-4, 4)))
    return BiPoly(terms, field)


@settings(max_examples=50)
@given(bipolys(), bipolys(), st.integers(-3, 3))
def test_evaluate_s_is_homomorphic(p, q, v):
    v = QQ.of(v)
    assert (p * q).evaluate_s(v) == p.evaluate_s(v) * q.evaluate_s(v)
    assert (p + q).evaluate_s(v) == p.evaluate_s(v) + q.evaluate_s(v)


@settings(max_examples=60)
@given(bipolys())
def test_bipoly_text_round_trip(p):
    assert parse_bipoly(p.text(), QQ) == p


@settings(max_examples=40)
@given(unipolys())
def test_unipoly_text_round_trip(p):
    assert parse_unipoly(p.text(), QQ) == p


def test_round_trip_over_fp():
    f3 = GF(3)
    p = BiPoly({(1, 2): f3.of(2), (0, 0): f3.of(1)}, f3)
    assert parse_bipoly(p.text(), f3) == p


# monomial k in {0, 1} of each polynomial type, so equal pairs are common
_MONOS = {
    "uni-t": lambda k: k,
    "uni-x": lambda k: k,
    "bi": lambda k: (0, k),
    "nc": lambda k: Word.from_letters("x" * k),
}


@st.composite
def any_polys(draw):
    """A UniPoly (var t or x), BiPoly or NCPoly over Q or GF(3)."""
    field = draw(st.sampled_from([QQ, GF(3)]))
    kind = draw(st.sampled_from(sorted(_MONOS)))
    ints = draw(st.lists(st.integers(0, 3), max_size=2))
    terms = {_MONOS[kind](k): field.of(n) for k, n in enumerate(ints)}
    if kind == "bi":
        return BiPoly(terms, field)
    if kind == "nc":
        return NCPoly(terms, field)
    return UniPoly(terms, field, var=kind[-1])


@settings(max_examples=300)
@given(any_polys(), any_polys())
def test_equal_polynomials_hash_alike(a, b):
    if a == b:
        assert hash(a) == hash(b)
        assert a in {b}


@settings(max_examples=100)
@given(any_polys(), st.integers(-2, 2))
def test_polynomial_equals_no_int_or_word(p, n):
    assert p != n and n != p
    for w in (Word.one(), Word.from_letters("x")):
        assert p != w and w != p


# L over Q and GF(3) at (4, 3), where s = -1 and most elements are
# constants, and at (7, 3)
_RINGS = [structure_basis(i, j, f) for f in (QQ, GF(3)) for i, j in ((4, 3), (7, 3))]


@st.composite
def ring_values(draw):
    """An element of L (random_element, from one of four seeds), an FpElem
    over GF(5) or GF(7), or an Fp2Elem over GF2(7)."""
    kind = draw(st.sampled_from(["L", "fp", "fp2"]))
    if kind == "L":
        ring = draw(st.sampled_from(_RINGS))
        return ring.random_element(random.Random(draw(st.integers(0, 3))))
    if kind == "fp":
        return GF(draw(st.sampled_from([5, 7]))).of(draw(st.integers(-7, 7)))
    return GF2(7).make(draw(st.integers(-7, 7)), draw(st.integers(0, 1)))


_VALUES = st.one_of(any_polys(), ring_values())


@settings(max_examples=300)
@given(_VALUES, _VALUES)
def test_equal_values_hash_alike(a, b):
    if isinstance(a, FpElem) and isinstance(b, FpElem) and a.p != b.p:
        with pytest.raises(ValueError):
            a == b
        return
    if a == b:
        assert hash(a) == hash(b)
        assert a in {b}


@settings(max_examples=200)
@example(_RINGS[0].one, 1)
@example(GF(5).of(6), 1)
@example(GF2(7).make(8, 0), 1)
@given(_VALUES, st.integers(-2, 8))
def test_value_equals_no_int(a, n):
    assert a != n and n != a
    assert n not in {a}
