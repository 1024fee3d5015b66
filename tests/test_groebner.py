import math
import random

import pytest

from m2alg.errors import UnsupportedParameters
from m2alg.fields import GF, QQ
from m2alg.groebner import (
    INFINITE,
    GroebnerBasis,
    QuotientElem,
    QuotientRing,
    buchberger,
    buchberger_with_certificate,
    build_ideal_I,
    structure_basis,
)
from m2alg.poly import BiPoly, parse_bipoly, uni_gcd
from m2alg.sequences import f_st, fbar


def coprime_pairs(max_i, include_diag=True):
    pairs = [(1, 1)] if include_diag else []
    pairs += [
        (i, j)
        for i in range(2, max_i + 1)
        for j in range(1, i)
        if math.gcd(i, j) == 1
    ]
    return pairs


def test_build_ideal_goldens():
    ideal = build_ideal_I(2, 1)
    assert [g.text() for g in ideal.generators] == ["t^2 + s", "t - 1", "s + 1"]
    ideal = build_ideal_I(4, 3)
    assert [g.text() for g in ideal.generators] == [
        "t^6 + 5*s*t^4 + 6*s^2*t^2 + s^3",
        "t^5 + 4*s*t^3 + 3*s^2*t - s^2",
        "s + 1",
    ]
    assert [g.text() for g in build_ideal_I(1, 1).generators] == ["t"]
    # orientation is normalized
    assert [g.text() for g in build_ideal_I(3, 4).generators] == [
        g.text() for g in build_ideal_I(4, 3).generators
    ]


def test_build_ideal_rejects_non_coprime():
    with pytest.raises(UnsupportedParameters):
        build_ideal_I(4, 2)
    with pytest.raises(UnsupportedParameters):
        build_ideal_I(6, 3)
    with pytest.raises(UnsupportedParameters):
        build_ideal_I(0, 1)


def test_reduced_basis_goldens():
    assert [g.text() for g in structure_basis(2, 1).polys] == ["s + 1", "t - 1"]
    assert [g.text() for g in structure_basis(4, 3).polys] == [
        "s + 1",
        "t^3 - t^2 - 2*t + 1",
    ]
    assert [g.text() for g in structure_basis(1, 1).polys] == ["t"]


def test_trivial_input_basis():
    gb = buchberger([BiPoly.const(1, QQ)], QQ)
    assert gb.is_trivial()
    gb = buchberger([BiPoly.s(QQ), BiPoly.s(QQ) + BiPoly.const(1, QQ)], QQ)
    assert gb.is_trivial()


def test_basis_must_be_monic():
    # division assumes monic divisors; a non-monic one used to loop forever
    with pytest.raises(ValueError):
        GroebnerBasis([parse_bipoly("2*s + 1", QQ)], QQ)


def test_normal_form_examples():
    gb21 = structure_basis(2, 1)
    assert gb21.normal_form(parse_bipoly("t - 1", QQ)).is_zero()
    assert gb21.normal_form(BiPoly.s(QQ)) == parse_bipoly("-1", QQ)
    gb43 = structure_basis(4, 3)
    assert gb43.normal_form(BiPoly.t(QQ, 3)) == parse_bipoly("t^2 + 2*t - 1", QQ)


def test_quotient_basis_examples():
    assert structure_basis(2, 1).quotient_basis() == [(0, 0)]
    assert structure_basis(4, 3).quotient_basis() == [(0, 0), (0, 1), (0, 2)]
    assert structure_basis(1, 1).quotient_basis() is INFINITE
    assert structure_basis(2, 1).dimension() == 1
    assert structure_basis(4, 3).dimension() == 3


def test_nontrivial_for_coprime_pairs_at_scale():
    for field in (QQ, GF(3), GF(5)):
        for i, j in coprime_pairs(10):
            gb = structure_basis(i, j, field)
            assert not gb.is_trivial(), (i, j, field)


def test_dimension_bound():
    # dim(quotient) = (i+j-1)(i-j)/2 exactly for coprime i > j
    for field in (QQ, GF(3)):
        for i, j in coprime_pairs(10, include_diag=False):
            dim = structure_basis(i, j, field).dimension()
            assert dim is not INFINITE
            assert 2 * dim == (i + j - 1) * (i - j), (i, j, field)


def test_certificate_soundness():
    # each reduced-basis element is an explicit combination of the inputs
    for field in (QQ, GF(3)):
        for i, j in [(2, 1), (4, 3), (5, 2), (7, 4)]:
            ideal = build_ideal_I(i, j, field)
            gb, certs = buchberger_with_certificate(ideal)
            assert gb == buchberger(ideal)
            for g, cofs in zip(gb.polys, certs):
                acc = BiPoly.zero(field)
                for q, gen in zip(cofs, ideal.generators):
                    acc = acc + q * gen
                assert acc == g, (i, j, field)
            # and every input generator reduces to zero against the basis
            for gen in ideal.generators:
                assert gb.normal_form(gen).is_zero()


def test_evaluation_route_even_sum():
    # i + j even (both odd): every generator maps into (t) under s -> 1
    for i, j in [(1, 1), (3, 1), (5, 3), (7, 5), (9, 7)]:
        for gen in build_ideal_I(i, j).generators:
            img = gen.evaluate_s(QQ.of(1))
            assert img.constant_term() == QQ.zero, (i, j, gen)


def test_evaluation_route_odd_sum():
    # i + j odd: under s -> -1 the two recursion generators become monic
    # univariate polynomials with a nonconstant common factor
    for i, j in [(2, 1), (4, 3), (5, 2), (7, 4), (8, 3)]:
        sign = QQ.of((-1) ** (j - 1))
        g1 = f_st(i + j).evaluate_s(QQ.of(-1))
        g2 = fbar(i + j - 1) - sign
        assert g1.leading_coeff() == QQ.one
        assert g2.leading_coeff() == QQ.one
        common = uni_gcd(g1, g2)
        assert common.degree >= 1, (i, j)


def _draw_operand(ring, rng):
    """An operand: a random, zero or constant quotient element, or a raw int or field scalar."""
    kind = rng.randrange(5)
    if kind == 0:
        return ring.zero
    if kind == 1:
        return ring.of(ring.field.random_element(rng))
    if kind == 2:
        return rng.randint(-4, 4)
    if kind == 3:
        return ring.field.random_element(rng)
    return ring.random_element(rng)


def _as_poly(ring, x):
    return x.poly if isinstance(x, QuotientElem) else BiPoly.const(x, ring.field)


def test_normal_form_respects_multiplication():
    for field in (QQ, GF(3)):
        ring = QuotientRing(structure_basis(4, 3, field))
        rng = random.Random(7)
        for _ in range(300):
            p = ring.random_element(rng) if rng.random() < 0.5 else ring.of(_draw_operand(ring, rng))
            q = _draw_operand(ring, rng)
            direct = ring.gb.normal_form(p.poly * _as_poly(ring, q))
            assert (p * q).poly == direct
            assert (q * p).poly == direct
            assert (p * q).ring is ring


def test_quotient_ring_arithmetic():
    ring = QuotientRing(structure_basis(2, 1))
    # in this quotient s = -1 and t = 1, so everything collapses to a scalar
    assert ring.s() == ring.of(-1)
    assert ring.t() == ring.one
    assert ring.t(5) + ring.s() == ring.zero
    ring43 = QuotientRing(structure_basis(4, 3))
    t = ring43.t()
    assert t**3 == ring43.of(parse_bipoly("t^2 + 2*t - 1", QQ))
    assert (t - t).poly.is_zero()


def test_quotient_elem_pow_negative():
    ring = QuotientRing(structure_basis(2, 1))
    with pytest.raises(ValueError):
        ring.t() ** (-2)


def test_basis_over_fp_matches_q_shape():
    # with p = 3 the (4,3) basis has the same leading monomials
    gbq = structure_basis(4, 3, QQ)
    gb3 = structure_basis(4, 3, GF(3))
    assert [g.lm() for g in gbq.polys] == [g.lm() for g in gb3.polys]
    assert gb3.dimension() == 3
