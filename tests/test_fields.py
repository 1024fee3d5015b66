import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2alg.errors import UnsupportedParameters
from m2alg.groebner import structure_basis
from m2alg.membership import decide_ii_Zp, decide_Q, decide_Zp
from m2alg.oracle import oracle_roots_fp2
from m2alg.fields import (
    GF,
    GF2,
    INF,
    MR_BOUND,
    QQ,
    is_odd_multiple,
    is_prime,
    nu2,
    smallest_nonresidue,
)


def test_nu2_basics():
    assert nu2(12) == 2
    assert nu2(0) == INF
    assert nu2(7) == 0
    assert nu2(-8) == 3
    assert nu2(1) == 0


@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0))
def test_nu2_defining_property(n):
    v = nu2(n)
    assert n % 2**v == 0
    assert n % 2 ** (v + 1) != 0


def test_is_odd_multiple():
    assert is_odd_multiple(6, 2)
    assert not is_odd_multiple(8, 2)
    assert not is_odd_multiple(5, 0)
    assert not is_odd_multiple(0, 0)
    assert not is_odd_multiple(0, 3)  # 0/3 is even
    assert is_odd_multiple(-6, 2) and is_odd_multiple(6, -2)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(n) == _trial_division(n) for n in range(10**5))


def test_is_prime_rejects_strong_pseudoprimes():
    # a Carmichael number; the least strong pseudoprime to bases 2, 3, 5, 7;
    # and the least one to every prime base <= 37, caught by base 41
    assert not is_prime(561)
    assert not is_prime(3215031751)
    assert not is_prime(318665857834031151167461)
    assert is_prime(1000000000000000003) and is_prime(2**61 - 1)
    assert not is_prime((2**61 - 1) * 1000003)


def test_is_prime_refuses_beyond_its_proven_bound():
    assert not is_prime(MR_BOUND + 1)  # even: settled before the bound
    with pytest.raises(UnsupportedParameters, match="too large"):
        is_prime(2**89 - 1)
    with pytest.raises(UnsupportedParameters):
        GF(2**89 - 1)


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        GF.__wrapped__(6)


@pytest.mark.parametrize(
    "call",
    [
        lambda: decide_Zp(2, 3, 2),
        lambda: decide_ii_Zp(2, 2),
        lambda: oracle_roots_fp2(2, 3, 2),
        lambda: GF2(2),
    ],
    ids=["decide_Zp", "decide_ii_Zp", "oracle_roots_fp2", "GF2"],
)
def test_odd_prime_guard_refuses_two(call):
    # the procedures that need an odd prime all refuse p = 2 through one guard
    with pytest.raises(UnsupportedParameters, match="^2 is not an odd prime$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: decide_Q(2.0, 1),
        lambda: decide_Q(3, True),
        lambda: decide_Zp(7.0, 2, 1),
        lambda: decide_Zp(7, Fraction(2), 1),
        lambda: structure_basis(3, 2.0),
        lambda: GF(7.0),
        lambda: GF2(7.0),
    ],
    ids=[
        "decide_Q",
        "decide_Q_bool",
        "decide_Zp",
        "decide_Zp_fraction",
        "structure_basis",
        "GF",
        "GF2",
    ],
)
def test_parameter_guards_refuse_non_ints(call):
    # a float equal to an int is refused too, even once GF(7) and GF2(7) are cached
    GF(7), GF2(7)
    with pytest.raises(TypeError, match="is not an int$"):
        call()


def test_fp_arithmetic():
    f5 = GF(5)
    a = f5.of(3)
    assert a + 4 == f5.of(2)
    assert 4 + a == f5.of(2)
    assert a - 4 == f5.of(4)
    assert a * a == f5.of(4)
    assert (a / f5.of(2)) * 2 == a
    assert a ** (-1) * a == f5.one
    assert -a == f5.of(2)
    assert list(f5.elements()) == [f5.of(v) for v in range(5)]


def test_fp_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF(5).one / GF(5).zero


def test_zero_to_a_negative_power_raises_zero_division():
    # the same error as .inverse(), 1/z and GF2(p).zero ** -1
    for z in (GF(5).zero, GF(2).zero, GF2(5).zero):
        with pytest.raises(ZeroDivisionError):
            z ** -1
        with pytest.raises(ZeroDivisionError):
            z ** -3


@settings(max_examples=60)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_field_axioms_fp(a, b, c):
    f = GF(13)
    x, y, z = f.of(a), f.of(b), f.of(c)
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x + (y + z) == (x + y) + z
    if x != f.zero:
        assert x * (f.one / x) == f.one


@settings(max_examples=60)
@given(st.fractions(), st.fractions(), st.fractions())
def test_field_axioms_rat(x, y, z):
    assert (x + y) * z == x * z + y * z
    if x != 0:
        assert x * (1 / x) == 1


def test_rat_canonical_form():
    q = QQ.of(6) / QQ.of(4)
    assert q.numerator == 3 and q.denominator == 2
    assert QQ.of(0) == Fraction(0, 1)
    assert (QQ.of(-2) / QQ.of(4)).denominator == 2  # denominator stays positive


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(11) == 2
    assert smallest_nonresidue(13) == 2


def test_fp2_frobenius_examples():
    f9 = GF2(3)
    assert f9.u == GF(3).of(2)
    # subfield elements are fixed
    for v in range(3):
        z = f9.of(v)
        assert z.conjugate() == z
    # w -> w^3 = 2w in the nine-element field
    w = f9.make(0, 1)
    assert w.conjugate() == f9.make(0, 2)
    # conjugation is the p-power map, and an involution
    for z in f9.elements():
        assert z.conjugate() == z**3
        assert z.conjugate().conjugate() == z


def test_fp2_norm_lands_in_base_field():
    f25 = GF2(5)
    for z in f25.elements():
        assert (z * z.conjugate()).in_base_field()


@settings(max_examples=40)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_fp2_field_axioms(a1, b1, a2, b2):
    f49 = GF2(7)
    z1, z2 = f49.make(a1, b1), f49.make(a2, b2)
    assert z1 * z2 == z2 * z1
    assert (z1 + z2) * z1 == z1 * z1 + z2 * z1
    if z1:
        assert z1 * z1.inverse() == f49.one


def test_fp2_generator_and_order():
    for p in (3, 5, 7):
        f = GF2(p)
        g = f.generator()
        powers, z = set(), f.one
        for _ in range(p * p - 1):
            powers.add(z)
            z = z * g
        assert powers == set(f.units())


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("p", [3, 5])
def test_subgroup_contains_mth_root_of_minus_one(p):
    # For the cyclic subgroup G of order n in the units of F_{p^2}:
    # some g in G has g^m = -1  iff  nu2(m) + 1 <= nu2(n).
    # (The full prime list runs in the acceptance suite.)
    f = GF2(p)
    gen = f.generator()
    total = p * p - 1
    minus_one = -f.one
    for n in _divisors(total):
        g0 = gen ** (total // n)
        group = []
        z = f.one
        for _ in range(n):
            group.append(z)
            z = z * g0
        for m in range(1, 2 * n + 1):
            exists = any(g**m == minus_one for g in group)
            assert exists == (nu2(m) + 1 <= nu2(n)), (p, n, m)


@pytest.mark.parametrize("p", [3])
def test_trace_criterion_z_plus_c_over_z(p):
    # z + c/z lies in the base field iff z^(p-1) = 1 or z^(p+1) = c.
    f = GF2(p)
    for c in range(p):
        cc = f.of(c)
        for z in f.units():
            lhs = (z + cc / z).in_base_field()
            rhs = z ** (p - 1) == f.one or z ** (p + 1) == cc
            assert lhs == rhs, (p, c, z)


def test_fp_of_fraction_inverts_denominator():
    f5 = GF(5)
    assert f5.of(Fraction(1, 2)) == f5.of(3)  # 2 * 3 = 6 = 1 mod 5
    assert f5.parse_coeff("1/2") == f5.of(3)
    assert f5.of(Fraction(7, 1)) == f5.of(2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fp2_of_fraction_goes_through_the_base_field(p):
    f, base = GF2(p), GF(p)
    for a in range(-4, 5):
        for b in range(1, 7):
            if b % p:
                q = Fraction(a, b)
                assert f.of(q) == f.of(base.of(q)), (p, q)
    assert f.of(Fraction(1, 2)) * 2 == f.one


@pytest.mark.parametrize("field", [QQ, GF(5), GF2(5)], ids=repr)
def test_fields_refuse_floats(field):
    for x in (2.7, 0.1, 2.0):
        with pytest.raises(TypeError):
            field.of(x)


@pytest.mark.parametrize("field", [GF(11), GF2(11)], ids=repr)
def test_prime_fields_take_exact_numbers_exactly(field):
    # 2.7 = 27 * 10^(-1) = 5 * 10 = 6 in F_11, not int(2.7) = 2
    assert field.of(Decimal("2.7")) == field.of(6) == field.of(Fraction(27, 10))
    assert field.of(Decimal("-0.5")) == field.of(5) == -field.of(1) / 2
    assert field.of(Decimal("12")) == field.of(True) == field.one
    assert field.of(Fraction(22, 3)) == field.zero


@pytest.mark.parametrize("field", [GF(5), GF2(5)], ids=repr)
def test_prime_fields_refuse_a_denominator_divisible_by_p(field):
    for x in (Decimal("2.7"), Fraction(1, 5), Fraction(-3, 25)):
        with pytest.raises(ValueError, match="divisible by 5"):
            field.of(x)
    assert field.of(Fraction(10, 5)) == field.of(2)  # in lowest terms, no 5 below


def test_rational_coeff_text_matches_sign_and_magnitude():
    huge = 7 * 10**4999 + 3  # 5000 digits, past the default int-string limit
    values = [0, 1, -1, 12, -12, huge, -huge]
    values += [Fraction(v) for v in values]
    values += [Fraction(n, d) for n in (1, -1, 7, -22, huge, -huge) for d in (3, 10**4999 + 9)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for c in values:
            assert QQ.coeff_text(c) == (c < 0, str(abs(c))), c
    finally:
        sys.set_int_max_str_digits(limit)
