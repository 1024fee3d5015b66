import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from m2alg import groebner
from m2alg.errors import UnsupportedParameters
from m2alg.fields import GF, QQ
from m2alg.groebner import structure_basis
from m2alg.mat2 import (
    Mat2,
    hall_identity_holds,
    mat_pow,
    pi_identity_check,
    solve_sylvester,
    standard_identity_s4,
)
from m2alg.model import witness_XY
from m2alg.poly import BiPoly, BiPolyRing
from m2alg.sequences import f_st


def rows(ring, r):
    return Mat2.of_rows(ring, r)


def test_mat_pow_basics():
    m = rows(QQ, ((1, 2), (3, 4)))
    assert mat_pow(m, 0) == Mat2.identity(QQ)
    assert mat_pow(m, 1) == m
    assert mat_pow(m, 3) == m * m * m
    swap = rows(QQ, ((0, 1), (1, 0)))
    for k in range(5):
        assert mat_pow(swap, 2 * k + 1) == swap
    with pytest.raises(ValueError):
        mat_pow(m, -1)


def test_mat_pow_companion_entry():
    from m2alg.sequences import companion_matrix_st

    c = companion_matrix_st()
    assert mat_pow(c, 7).a == f_st(8)
    assert mat_pow(c, 7).c == f_st(7)


def _left_to_right_powers(m, emax):
    """m^0, ..., m^emax as the plain products I, m, m*m, m*m*m, ...

    The second route for mat_pow: nothing but Mat2.__mul__, one factor at
    a time, with no squaring and no use of the characteristic polynomial.
    """
    power = Mat2.identity(m.ring)
    out = [power]
    for _ in range(emax):
        power = power * m
        out.append(power)
    return out


def _power_test_matrices(ring, s, t):
    """Companion, nilpotent, singular, scalar and swap matrices over ring."""
    zero, one = ring.zero, ring.one
    return [
        Mat2(ring, t, s, one, zero),
        Mat2.e12(ring),
        Mat2(ring, s, s * t, one, t),  # rank one: det = s*t - s*t = 0
        Mat2(ring, s, zero, zero, s),
        Mat2(ring, zero, one, one, zero),
        Mat2(ring, -one, zero, zero, -one),
    ]


def _power_test_cases():
    cases = []
    for field in (QQ, GF(2), GF(7)):
        cases.append(pytest.param(field, field.of(3), field.of(5), id=field.name))
    ring = BiPolyRing(QQ)
    cases.append(pytest.param(ring, BiPoly.s(QQ), BiPoly.t(QQ), id=ring.name))
    for field in (QQ, GF(3)):
        ring = structure_basis(7, 3, field)
        cases.append(pytest.param(ring, ring.s(), ring.t(), id=f"{ring.name}(7,3)"))
    return cases


@pytest.mark.parametrize("ring, s, t", _power_test_cases())
def test_mat_pow_matches_left_to_right_product(ring, s, t):
    for m in _power_test_matrices(ring, s, t):
        for e, want in enumerate(_left_to_right_powers(m, 40)):
            assert mat_pow(m, e) == want, (m, e)
            assert m**e == want, (m, e)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=4, max_size=4),
    st.integers(min_value=0, max_value=24),
)
def test_mat_pow_matches_left_to_right_product_random_q(entries, e):
    m = Mat2(QQ, *entries)
    assert mat_pow(m, e) == _left_to_right_powers(m, e)[e]


def test_solve_sylvester_unique():
    ident = Mat2.identity(QQ)
    sol = solve_sylvester(ident, Mat2.zero(QQ), ident)
    assert sol.particular == ident
    assert sol.dimension == 0


def test_solve_sylvester_affine():
    a = rows(QQ, ((1, 0), (0, 0)))
    b = rows(QQ, ((0, 0), (0, 1)))
    ident = Mat2.identity(QQ)
    sol = solve_sylvester(a, b, ident)
    assert not sol.empty
    # verify by substitution, including each homogeneous basis vector
    y = sol.particular
    assert a * y + y * b == ident
    for h in sol.homogeneous:
        assert (a * h + h * b).is_zero()
    # the identity solves this system and lies in the affine set
    assert a * ident + ident * b == ident
    # E21 is annihilated on both sides, E12 is doubled: dimension is 1
    assert sol.dimension == 1
    assert sol.homogeneous[0] == rows(QQ, ((0, 0), (1, 0)))


def test_solve_sylvester_empty():
    # A = B = 0 forces the left side to vanish, so C = I is unreachable
    sol = solve_sylvester(Mat2.zero(QQ), Mat2.zero(QQ), Mat2.identity(QQ))
    assert sol.empty


def test_solve_sylvester_random_substitution():
    rng = random.Random(3)
    for _ in range(40):
        ring = GF(7)
        mats = [
            rows(ring, ((rng.randrange(7), rng.randrange(7)), (rng.randrange(7), rng.randrange(7))))
            for _ in range(3)
        ]
        a, b, c = mats
        sol = solve_sylvester(a, b, c)
        if not sol.empty:
            y = sol.particular
            assert a * y + y * b == c
            for h in sol.homogeneous:
                assert (a * h + h * b).is_zero()


def test_sylvester_witness_membership_case():
    # For a rational member pair, A = x^i, B = x^j admits a square-zero y.
    from m2alg.oracle import construct_witness_Q

    rep = construct_witness_Q(1, 2)
    assert rep.found and rep.verified
    a = mat_pow(rep.x, 1)
    b = mat_pow(rep.x, 2)
    sol = solve_sylvester(a, b, Mat2.identity(QQ))
    assert not sol.empty


def test_hall_identity_degenerate():
    m = rows(QQ, ((1, 2), (3, 4)))
    z = rows(QQ, ((5, 0), (1, 2)))
    assert hall_identity_holds(m, m, z)  # xy - yx = 0 identically


def test_pi_identities_randomized():
    rng = random.Random(0)
    rep = pi_identity_check(GF(7), 100, rng)
    assert rep.ok and rep.samples == 100
    rep = pi_identity_check(QQ, 60, rng)
    assert rep.ok


@pytest.mark.parametrize("ring", [QQ, GF(7)], ids=["Q", "F7"])
def test_pi_checks_count_failures_of_a_broken_product(monkeypatch, ring):
    # a product whose (2,1) entry picks up other.c: the Hall check sees k^2
    # fail to commute, and the accumulated S_4 sum is no longer zero
    real = Mat2.__mul__

    def broken(self, other):
        m = real(self, other)
        return Mat2(self.ring, m.a, m.b, m.c + other.c, m.d)

    monkeypatch.setattr(Mat2, "__mul__", broken)
    rep = pi_identity_check(ring, 10, random.Random(0))
    assert rep.hall_failures > 0 and rep.s4_failures > 0
    assert not rep.ok


def test_mat2_difference_hash_repr_and_refusals():
    a = rows(QQ, ((1, 2), (3, 4)))
    b = rows(QQ, ((5, 7), (11, 13)))
    assert (a - b).rows() == ((-4, -5), (-8, -9))
    assert (b - a).rows() == ((4, 5), (8, 9))
    assert hash(a) == hash(rows(QQ, ((1, 2), (3, 4))))
    assert repr(a) == "[[1, 2], [3, 4]]"
    assert a != 1 and 1 != a
    with pytest.raises(TypeError):
        a * 2


def test_s4_vanishes_on_specific_quadruple():
    ring = GF(5)
    ms = [
        rows(ring, ((1, 2), (0, 3))),
        rows(ring, ((4, 1), (2, 2))),
        rows(ring, ((0, 1), (1, 0))),
        rows(ring, ((3, 3), (1, 4))),
    ]
    assert standard_identity_s4(*ms).is_zero()


def coprime_pairs(max_i):
    return [(1, 1)] + [
        (i, j)
        for i in range(2, max_i + 1)
        for j in range(1, i)
        if math.gcd(i, j) == 1
    ]


def test_witness_invariants_small_sweep():
    for field in (QQ, GF(3)):
        for i, j in coprime_pairs(5):
            pair = witness_XY(i, j, field)
            ident = Mat2.identity(pair.ring)
            assert (pair.Y * pair.Y).is_zero()
            assert mat_pow(pair.X, i) * pair.Y + pair.Y * mat_pow(pair.X, j) == ident
            assert mat_pow(pair.X, j) * pair.Y + pair.Y * mat_pow(pair.X, i) == ident


def test_witness_examples():
    pair = witness_XY(2, 1)
    # quotient collapses to the base field: s = -1, t = 1
    ring = pair.ring
    assert pair.X == Mat2(ring, ring.one, ring.of(-1), ring.one, ring.zero)
    pair = witness_XY(1, 1)
    assert pair.X == Mat2(pair.ring, pair.ring.zero, pair.ring.s(), pair.ring.one, pair.ring.zero)
    witness_XY(4, 3)  # verified at construction


def test_witness_closed_forms():
    for i, j in [(3, 2), (5, 2), (4, 3)]:
        pair = witness_XY(i, j)
        ring = pair.ring
        assert mat_pow(pair.X, j) == Mat2(ring, ring.t(), ring.s(), ring.one, ring.zero)
        assert mat_pow(pair.X, i) == Mat2(ring, ring.zero, ring.s(), ring.one, -ring.t())


def test_witness_root_of_unity_power():
    for i, j in [(2, 1), (3, 2), (4, 3), (5, 4)]:
        pair = witness_XY(i, j)
        ident = Mat2.identity(pair.ring)
        want = ident if (i + j) % 2 == 0 else -ident
        assert mat_pow(pair.X, i * i - j * j) == want


@pytest.mark.parametrize(
    "i, j, field, bound",
    [pytest.param(21, 20, QQ, 17, id="Q-21-20"), pytest.param(13, 8, GF(3), 15, id="F3-13-8")],
)
def test_witness_division_count(monkeypatch, i, j, field, bound):
    """Building and verifying a witness pair stays within a fixed number of divisions.

    X's pair (a, b) is two closed-form coordinates, one division each.  One
    chain of squarings in L[C] gives X^lo and X^r, r = hi mod lo, two
    divisions per pair product; q C-steps give X^hi, and one more builds
    X's top row, two divisions each.  Every division of L is the ring's, so
    all are counted: 17 at (21, 20) over Q and 15 at (13, 8) over F_3.
    Cayley-Hamilton ladders for X^lo and X^(hi-lo) took 25 and 41, a ladder
    for C^(alpha+beta) scaled by s^(-beta) 41 and 57, and full 8-product
    squarings with two separate powers X^lo and X^hi 158 and 101.
    """
    gb = structure_basis(i, j, field)
    calls = []
    real = groebner._divide

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_divide", counting)
    witness_XY(i, j, field, gb=gb)
    assert len(calls) <= bound


def test_witness_rejects_a_basis_of_another_ring():
    with pytest.raises(ValueError, match=r"\(7, 3\) over Q"):
        witness_XY(5, 4, QQ, gb=structure_basis(7, 3, QQ))
    with pytest.raises(ValueError, match=r"\(5, 4\) over F3"):
        witness_XY(5, 4, QQ, gb=structure_basis(5, 4, GF(3)))
    assert witness_XY(4, 5, GF(3), gb=structure_basis(5, 4, GF(3))).ring.field == GF(3)


def test_witness_rejects_bad_parameters():
    with pytest.raises(UnsupportedParameters):
        witness_XY(4, 2)
    with pytest.raises(UnsupportedParameters):
        witness_XY(0, 3)
