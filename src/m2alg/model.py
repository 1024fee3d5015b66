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
the basis's own leading monomials (``_x_pair``).  The matrix is
a*C + b*I = [[a*t + b, a*s], [a, b]], and its top row comes from shifting
a by t and by s, one division per entry, with no product in L
(``_times_C``: the same row is the pair of C*(a*C + b*I)).  At (1, 1),
where s is no unit, n = 2 and u is 0 or 1: the only negative index is
u - 1 = -1, and s*f(-1) = 1 keeps every s-exponent >= 0.

The verification runs in the commutative algebra L[C] = L*C + L*I, where
C^2 = t*C + s*I, so a*C + b*I is held as its pair (a, b), and (1, 0) is
C, (1, -t) is [[0, s], [1, -t]].  X's pair comes from the closed form,
and X is built from it only after the checks, so X lies in L[C] by
construction.  With hi = q*lo + r and r < lo, one chain of squarings
X, X^2, X^4, ... gives both X^lo and X^r (``_pair_powers``; each power
multiplies in the squares its binary digits select), and X^lo is compared
with C's pair.  Then X^hi = C^q * X^r: for q = 1 that is the C-step
(a, b) -> (a*t + b, a*s) on X^r's pair, two divisions and no product;
for q >= 2, C's pair has its own chain, and C^q * X^r is one product
(none for r = 0).  X^hi is compared with (1, -t).  With Y = E12, whose
square is 0, X^i Y + Y X^j = 1 reads (X^i)_21 = (X^j)_21 = 1 and
(X^i)_11 + (X^j)_22 = 0, in both orientations t + b_lo + b_hi = 0 on the
pairs; the pairs (1, 0) and (1, -t) satisfy it, so the two comparisons
check the relation as well.  The chains use only products in L and
division by the certified basis, never f or ``x_power``'s exponent
arithmetic, and they divide once per new coordinate: the products that
make up a coordinate are summed unreduced (``groebner._mul_into``), since
the remainder is linear.  With C^u = f(u)*C + s*f(u-1)*I, an identity in
A[s,t] for u >= 1 and in L for every u, and C^n = s^lo*I in L (the
generators f(n) and f(n-1) - s^(lo-1) say so), this makes
x_power(L, e) = X^e for every e >= 0.
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
    be the structure basis of the same pair over the same field.  X's pair
    (a, b) comes from the closed form (``_x_pair``) and is verified in L[C]
    (module doc): one chain of squarings gives X^lo and X^r, r = hi mod lo,
    and X^lo = C and X^hi = C^q * X^r = s*C^(-1) give X^i Y + Y X^j = 1
    both ways round.  X = a*C + b*I is then built from the verified pair.
    """
    hi, lo = _oriented(i, j)
    ring = structure_basis(hi, lo, field) if gb is None else gb
    if ring.params != (hi, lo) or ring.field != field:
        raise ValueError(
            f"basis for {ring.params} over {ring.field.name} does not present"
            f" ({hi}, {lo}) over {field.name}"
        )
    x = _x_pair(ring, 1)
    one = ring.one.terms
    # X^hi = C^q * X^r once X^lo = C; r < lo, so X^lo's chain also gives X^r
    q, r = divmod(hi, lo)
    lo_pair, hi_pair = _pair_powers(ring, x, lo, r)
    if q == 1:
        hi_pair = _times_C(ring, hi_pair)
    else:
        (c_q,) = _pair_powers(ring, (one, {}), q)
        hi_pair = _pair_mul(ring, c_q, hi_pair) if r else c_q
    if lo_pair != (one, {}) or hi_pair != (one, (-ring.t()).terms):
        raise Inconsistency(f"witness construction failed for (i, j) = ({i}, {j})")
    return WitnessPair(X=_matrix(ring, x), Y=Mat2.e12(ring), i=i, j=j, ring=ring)


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


def _pair_powers(ring: GroebnerBasis, x: tuple, *exps: int) -> tuple:
    """The pairs of (a*C + b*I)^e for x = (a, b), one for each e >= 0 in exps.

    One chain of squarings x, x^2, x^4, ... serves them all: each power
    multiplies together the squares its binary digits select.
    """
    powers = [None] * len(exps)  # None: no digit met yet, the power is I
    square = x
    for k in range(max(exps).bit_length()):
        if k:
            square = _pair_mul(ring, square, square)
        for n, e in enumerate(exps):
            if e >> k & 1:
                power = powers[n]
                powers[n] = square if power is None else _pair_mul(ring, power, square)
    identity = ({}, ring.one.terms)
    return tuple(identity if power is None else power for power in powers)


def _times_C(ring: GroebnerBasis, x: tuple) -> tuple:
    """The pair of C*(a*C + b*I) = (a*t + b)*C + a*s*I, for x = (a, b).

    It is also the top row of a*C + b*I.  a is shifted by t and by s, and
    each coordinate is divided once: no product in L.
    """
    a, b = x
    alpha = {(es, et + 1): c for (es, et), c in a.items()}
    for m, c in b.items():
        alpha[m] = alpha.get(m, 0) + c
    beta = {(es + 1, et): c for (es, et), c in a.items()}
    divisors, mod = ring._divisors, ring._mod
    return _divide(alpha, divisors, mod), _divide(beta, divisors, mod)


def _matrix(ring: GroebnerBasis, x: tuple) -> Mat2:
    """a*C + b*I = [[a*t + b, a*s], [a, b]] over L, for the pair x = (a, b)."""
    new = ring.zero._new
    return Mat2(ring, *(new(v) for v in _times_C(ring, x)), new(x[0]), new(x[1]))


def _x_pair(ring: GroebnerBasis, e: int) -> tuple:
    """The pair (a, b) of X^e = a*C + b*I over L, the structure basis, for e >= 0.

    a = s^m * f(u) and b = s^(m+1) * f(u-1), one division each (module doc).
    """
    hi, lo = ring.params
    n, d, mod = hi + lo, hi - lo, ring._mod
    u = e * pow(lo, -1, n) % n
    if 2 * u > n:
        u -= n  # the balanced residue; never at (1, 1), where n = 2
    m = (e - u * lo) // n
    divisors = ring._divisors
    return (
        _divide(_s_power_f(m, u, d, mod), divisors, mod),
        _divide(_s_power_f(m + 1, u - 1, d, mod), divisors, mod),
    )


def x_power(ring: GroebnerBasis, e: int) -> Mat2:
    """X^e = s^m * C^u over L, the structure basis, for e >= 0 (module doc)."""
    return _matrix(ring, _x_pair(ring, e))
