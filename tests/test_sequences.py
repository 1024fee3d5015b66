from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2alg.fields import GF, QQ
from m2alg.poly import BiPoly, UniPoly, parse_bipoly, parse_unipoly
from m2alg.sequences import (
    companion_matrix_st,
    companion_power,
    f_coeffs,
    f_st,
    fbar,
    trace_poly,
    trace_value,
)


def test_f_st_goldens():
    assert f_st(0).is_zero()
    assert f_st(1) == BiPoly.const(1, QQ)
    assert f_st(7) == parse_bipoly("t^6 + 5*s*t^4 + 6*s^2*t^2 + s^3", QQ)
    assert f_st(6) == parse_bipoly("t^5 + 4*s*t^3 + 3*s^2*t", QQ)
    assert f_st(3) == parse_bipoly("t^2 + s", QQ)


def test_f_coeffs_equal_the_binomials():
    # the rows are built by ratios along the row; n = 0, 1, 2 are the edges.
    # math.comb is the referee at every n <= 120 and every 80th n up to
    # 2000 (all of them would take about 18 s); in between, each row obeys
    # f(n) = t*f(n-1) + s*f(n-2), which fixes every row from the first two
    assert f_coeffs(0) == []
    assert f_coeffs(1) == f_coeffs(2) == [1]
    rows = [f_coeffs(n) for n in range(2001)]
    for n in [*range(121), *range(160, 2001, 80)]:
        assert rows[n] == [comb(n - 1 - k, k) for k in range((n + 1) // 2)], n
    for n in range(2, 2001):
        assert rows[n] == [a + b for a, b in zip(rows[n - 1] + [0], [0, *rows[n - 2]])], n
    with pytest.raises(ValueError):
        f_coeffs(-1)


def _recurrence_ints(n_max, first, second, step):
    """Int coefficient dicts of a two-term recurrence, for n = 0..n_max."""
    out = [first, second]
    while len(out) <= n_max:
        out.append(step(out[-1], out[-2]))
    return out


def _f_step(prev, prev2):
    """t*f(n-1) + s*f(n-2) on {(e_s, e_t): int}."""
    terms = {(es, et + 1): c for (es, et), c in prev.items()}
    for (es, et), c in prev2.items():
        terms[(es + 1, et)] = terms.get((es + 1, et), 0) + c
    return terms


def _trace_step(prev, prev2):
    """x*f(n-1) - f(n-2) on {e_x: int}."""
    terms = {e + 1: c for e, c in prev.items()}
    for e, c in prev2.items():
        terms[e] = terms.get(e, 0) - c
    return terms


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
def test_closed_forms_match_int_recurrences(field):
    f_ints = _recurrence_ints(300, {}, {(0, 0): 1}, _f_step)
    trace_ints = _recurrence_ints(300, {0: 2}, {1: 1}, _trace_step)
    for n in range(301):
        want = {m: field.of(c) for m, c in f_ints[n].items() if field.of(c)}
        assert f_st(n, field).terms == want, n  # no stored zero coefficients
        coeffs = [trace_ints[n].get(e, 0) for e in range(n + 1)]
        assert trace_poly(n, field) == UniPoly.of_ints(coeffs, field, var="x"), n
        bar = [0] * n
        for (es, et), c in f_ints[n].items():
            bar[et] += (-1) ** es * c
        assert fbar(n, field) == UniPoly.of_ints(bar, field), n


def test_f_st_negative_index():
    with pytest.raises(ValueError):
        f_st(-1)


def test_fbar_goldens():
    assert fbar(2) == parse_unipoly("t", QQ)
    assert fbar(7) == parse_unipoly("t^6 - 5*t^4 + 6*t^2 - 1", QQ)
    assert fbar(3) == parse_unipoly("t^2 - 1", QQ)


def test_fbar_satisfies_own_recursion():
    t = UniPoly.gen(QQ)
    for n in range(2, 60):
        assert fbar(n) == t * fbar(n - 1) - fbar(n - 2)


def test_trace_poly_goldens():
    assert trace_poly(0) == UniPoly.const(2, QQ, var="x")
    assert trace_poly(1) == UniPoly.gen(QQ, var="x")
    assert trace_poly(2).text() == "x^2 - 2"
    assert trace_poly(3).text() == "x^3 - 3*x"


def test_trace_value_matches_trace_poly():
    for n in range(121):
        for c in range(-5, 6):
            assert trace_value(n, c) == trace_poly(n).evaluate(QQ.of(c)), (n, c)
    with pytest.raises(ValueError):
        trace_value(-1, 0)


def test_monicity_and_constant_terms_small():
    # monic of degree n-1 in t; even indices have no constant term,
    # odd index 2n+1 has constant term s^n (full range in acceptance)
    for n in range(1, 60):
        p = f_st(n)
        assert p.deg_t() == n - 1
        assert p.coeff((0, n - 1)) == QQ.one
        const = {m: c for m, c in p.terms.items() if m[1] == 0}
        if n % 2 == 0:
            assert const == {}
        else:
            assert const == {(n // 2, 0): QQ.one}


def test_factorization_identities_small():
    for n in range(1, 40):
        lhs = fbar(2 * n - 1)
        assert lhs == (fbar(n) + fbar(n - 1)) * (fbar(n) - fbar(n - 1))
        one = UniPoly.const(1, QQ)
        assert fbar(2 * n) - one == (fbar(n + 1) - fbar(n)) * (fbar(n) + fbar(n - 1))
        assert fbar(2 * n) + one == (fbar(n + 1) + fbar(n)) * (fbar(n) - fbar(n - 1))


def laurent_identity_holds(n, field=QQ):
    """z^n * f_n(z + 1/z) == z^(2n) + 1 after clearing denominators."""
    fn = trace_poly(n, field)
    z2p1 = UniPoly.of_ints([1, 0, 1], field, var="z")  # z^2 + 1
    acc = UniPoly.zero(field, var="z")
    for k, c in enumerate(fn.coeffs):
        if c:
            acc = acc + (z2p1**k).scale(c) * UniPoly.gen(field, var="z") ** (n - k)
    want = UniPoly.of_ints([1] + [0] * (2 * n - 1) + [1], field, var="z")
    return acc == want


def test_laurent_identity_small():
    assert all(laurent_identity_holds(n) for n in range(1, 25))


def test_doubling_identity_small():
    two = UniPoly.const(2, QQ, var="x")
    for n in range(1, 30):
        assert trace_poly(2 * n) + two == trace_poly(n) * trace_poly(n)


def test_companion_power_golden():
    m = companion_power(1)
    assert m.rows() == (
        (BiPoly.t(QQ), BiPoly.s(QQ)),
        (BiPoly.const(1, QQ), BiPoly.zero(QQ)),
    )
    m2 = companion_power(2)
    assert m2.a == parse_bipoly("t^2 + s", QQ)
    assert m2.b == parse_bipoly("s*t", QQ)
    assert m2.c == parse_bipoly("t", QQ)
    assert m2.d == parse_bipoly("s", QQ)


def test_companion_power_requires_positive():
    with pytest.raises(ValueError):
        companion_power(0)


def test_companion_power_matches_iterated_multiplication():
    c = companion_matrix_st()
    acc = c
    for n in range(1, 26):
        assert companion_power(n) == acc
        acc = acc * c
    assert companion_power(7).a == f_st(8)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40))
def test_companion_power_is_multiplicative(m, n):
    assert companion_power(m) * companion_power(n) == companion_power(m + n)


def test_families_over_prime_fields():
    f5 = GF(5)
    t = BiPoly.t(f5)
    s = BiPoly.s(f5)
    for n in range(2, 20):
        assert f_st(n, f5) == t * f_st(n - 1, f5) + s * f_st(n - 2, f5)
    assert trace_poly(2, f5).text() == "x^2 + 3"  # -2 = 3 mod 5
