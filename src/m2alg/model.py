"""Explicit 2x2 witness matrices over the quotient ring A[s,t]/I.

For coprime (i, j), with lo = min(i, j), hi = max(i, j), n = i + j and
C = [[t, s], [1, 0]], the pair X = x_power(L, 1), Y = [[0, 1], [0, 0]],
computed in the quotient L, satisfies the defining relations
X^i Y + Y X^j = 1 and Y^2 = 0, and in fact X^lo = C and
X^hi = [[0, s], [1, -t]] = s*C^(-1), so X^n = s*I.  For i = j = 1 the
quotient degenerates to A[s] and X = C = [[0, s], [1, 0]].  All of this is
re-verified at construction; a failure raises Inconsistency rather than
returning a bad pair.  The pair's ``ring`` is L itself: the reduced basis,
a ``GroebnerBasis``.

Every power of X has one closed form, ``x_power``: lo is a unit mod n, so
e = u*lo + m*n with u = e*lo^(-1) mod n, taken balanced in (-n/2, n/2],
and X^e = s^m * C^u with C^u = f(u)*C + s*f(u-1)*I.  For i != j, s is a
unit in L, so f extends to negative indices by f(-k) = -(-s)^(-k)*f(k),
and the formula for C^u holds for every integer u: C^(-k) =
(-s)^(-k)*(-f(k)*C + f(k+1)*I) is the inverse of C^k, since det C = -s.
So X^e = a*C + b*I with

    a = s^m * f(u),   b = s^(m+1) * f(u-1).

Each of a, b is one normal form of ``groebner._s_power_f`` (s-exponents
folded by s^(i-j) = (-1)^(i-j)) of t-degree at most n/2, the height of
the basis's own leading monomials; a*t and a*s are the only products.  At
(1, 1), where s is no unit, n = 2 and u is 0 or 1: the only negative
index is u - 1 = -1, and s*f(-1) = 1 keeps every s-exponent >= 0.

The verification runs in the commutative algebra L[C] = L*C + L*I, where
C^2 = t*C + s*I, so a*C + b*I = [[a*t + b, a*s], [a, b]] is held as its
pair (a, b), and (1, 0) is C, (1, -t) is [[0, s], [1, -t]].  It checks
that X is a*C + b*I with a = X_21, b = X_22, raises the pair to lo by
square-and-multiply (``_pair_pow``) and compares it with C's.  Then, with
hi = q*lo + r, X^hi = C^q * X^r: it raises C's pair to q and X's to
r < lo, multiplies the two (skipped for r = 0) and compares the product
with (1, -t).  With Y = E12, whose square is 0, X^i Y + Y X^j = 1 reads
(X^i)_21 = (X^j)_21 = 1 and (X^i)_11 + (X^j)_22 = 0, in both
orientations t + b_lo + b_hi = 0 on the pairs; the pairs (1, 0) and
(1, -t) satisfy it, so the two comparisons check the relation as well.
The ladder uses only products in L and division by the certified basis,
never f or ``x_power``'s exponent arithmetic, and it divides once per new
coordinate: the products that make it up are summed unreduced
(``groebner._mul_into``), since the remainder is linear.  With
C^u = f(u)*C + s*f(u-1)*I, an identity in A[s,t] for u >= 1 and in L for
every u, and C^n = s^lo*I in L (the generators f(n) and f(n-1) - s^(lo-1)
say so), this makes x_power(L, e) = X^e for every e >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Inconsistency
from .fields import QQ
from .groebner import (
    GroebnerBasis,
    _divide,
    _mul_into,
    _oriented,
    _s_power_f,
    structure_basis,
)
from .mat2 import Mat2


@dataclass(frozen=True)
class WitnessPair:
    """Matrices X, Y realizing the defining relations for exponents (i, j)."""

    X: Mat2
    Y: Mat2
    i: int
    j: int
    ring: GroebnerBasis


def witness_XY(i: int, j: int, field=QQ, gb: GroebnerBasis | None = None) -> WitnessPair:
    """Construct and verify the witness pair over A[s,t]/I.

    Accepts either orientation of (i, j); the matrices satisfy the relation
    in both orientations (the two presentations coincide).  A given gb must
    be the structure basis of the same pair over the same field.  X is
    verified through its pair in L[C] (module doc): X = a*C + b*I,
    X^lo = C and X^hi = s*C^(-1), which give X^i Y + Y X^j = 1 both ways
    round.
    """
    hi, lo = _oriented(i, j)
    ring = structure_basis(hi, lo, field) if gb is None else gb
    if ring.params != (hi, lo) or ring.field != field:
        raise ValueError(
            f"basis for {ring.params} over {ring.field.name} does not present"
            f" ({hi}, {lo}) over {field.name}"
        )
    X = x_power(ring, 1)
    a, b = X.c, X.d
    t, one = ring.t(), ring.one
    x = (a.terms, b.terms)
    lo_pair = _pair_pow(ring, x, lo)
    # X^hi = C^q * X^r with hi = q*lo + r, once X^lo = C
    q, r = divmod(hi, lo)
    hi_pair = _pair_pow(ring, (one.terms, {}), q)
    if r:
        hi_pair = _pair_mul(ring, hi_pair, _pair_pow(ring, x, r))
    (a_lo, b_lo), (a_hi, b_hi) = ([ring.zero._new(v) for v in p] for p in (lo_pair, hi_pair))
    checks = [
        X == Mat2(ring, a * t + b, a * ring.s(), a, b),
        (a_lo, b_lo) == (one, ring.zero),
        (a_hi, b_hi) == (one, -t),
    ]
    if not all(checks):
        raise Inconsistency(f"witness construction failed for (i, j) = ({i}, {j})")
    return WitnessPair(X=X, Y=Mat2.e12(ring), i=i, j=j, ring=ring)


def _pair_mul(ring: GroebnerBasis, x: tuple, y: tuple) -> tuple:
    """The pair of (a1*C + b1*I)(a2*C + b2*I) in L[C], on kernel dicts.

    That is (a1*a2*t + a1*b2 + b1*a2, a1*a2*s + b1*b2), since
    C^2 = t*C + s*I; each coordinate is summed unreduced and divided once.
    """
    (a1, b1), (a2, b2) = x, y
    aa = _mul_into({}, a1, a2)
    alpha = {(es, et + 1): c for (es, et), c in aa.items()}
    beta = {(es + 1, et): c for (es, et), c in aa.items()}
    if x is y:
        _mul_into(alpha, {m: 2 * c for m, c in a1.items()}, b1)
    else:
        _mul_into(_mul_into(alpha, a1, b2), b1, a2)
    _mul_into(beta, b1, b2)
    divisors, mod = ring._divisors, ring._mod
    return _divide(alpha, divisors, mod), _divide(beta, divisors, mod)


def _pair_pow(ring: GroebnerBasis, x: tuple, e: int) -> tuple:
    """The pair of (a*C + b*I)^e for x = (a, b) and e >= 0, by square-and-multiply."""
    y = x if e else ({}, ring.one.terms)
    for bit in bin(e)[3:]:
        y = _pair_mul(ring, y, y)
        if bit == "1":
            y = _pair_mul(ring, y, x)
    return y


def x_power(ring: GroebnerBasis, e: int) -> Mat2:
    """X^e = s^m * C^u over L, the structure basis, for e >= 0 (module doc)."""
    hi, lo = ring.params
    n, d, mod = hi + lo, hi - lo, ring._mod
    u = e * pow(lo, -1, n) % n
    if 2 * u > n:
        u -= n  # the balanced residue; never at (1, 1), where n = 2
    m = (e - u * lo) // n
    a = ring._element(_s_power_f(m, u, d, mod))
    b = ring._element(_s_power_f(m + 1, u - 1, d, mod))
    return Mat2(ring, a * ring.t() + b, a * ring.s(), a, b)
