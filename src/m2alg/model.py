"""Explicit 2x2 witness matrices over the quotient ring A[s,t]/I.

For coprime (i, j), with lo = min(i, j), hi = max(i, j), n = i + j and
C = [[t, s], [1, 0]], the pair X = a*C + b*I with a, b the coordinates of
X^1 (``x_coordinate``), Y = [[0, 1], [0, 0]], computed in the quotient L,
satisfies the defining relations X^i Y + Y X^j = 1 and Y^2 = 0, and in
fact X^lo = C and X^hi = [[0, s], [1, -t]] = s*C^(-1), so X^n = s*I.  For
i = j = 1 the quotient degenerates to A[s] and X = C = [[0, s], [1, 0]].
All of this is re-verified at construction; a failure raises
Inconsistency rather than returning a bad pair.  The pair's ``ring`` is L
itself: the reduced basis, a ``GroebnerBasis``, which owns every element's
representation and the arithmetic of L[C] below.

Every power of X has one closed form, ``x_coordinate``: lo is a unit mod
n, so e = u*lo + m*n with u = e*lo^(-1) mod n, taken balanced in
(-n/2, n/2], and X^e = s^m * C^u with C^u = f(u)*C + s*f(u-1)*I.  For
i != j, s is a unit in L, so f extends to negative indices by
f(-k) = -(-s)^(-k)*f(k), and the formula for C^u holds for every integer
u: C^(-k) = (-s)^(-k)*(-f(k)*C + f(k+1)*I) is the inverse of C^k, since
det C = -s.  So X^e = a*C + b*I, and coordinate k of X^e (a for k = 0,
b for k = 1) is

    s^(m+k) * f(u-k),

one ``GroebnerBasis.s_power_f`` (s-exponents folded by
s^(i-j) = (-1)^(i-j)), a normal form of t-degree at most n/2, the height
of the basis's own leading monomials.  At (1, 1), where s is no unit,
n = 2 and u is 0 or 1: the only negative index is u - 1 = -1, and
s*f(-1) = 1 keeps every s-exponent >= 0.

The top row of a*C + b*I = [[a*t + b, a*s], [a, b]] is the next pair:
(a*t + b, a*s) is the pair of C*(a*C + b*I), as C^2 = t*C + s*I, and
C*X^e = X^(e+lo) once X^lo = C.  So X^e = [[a(e+lo), b(e+lo)], [a(e),
b(e)]] for every e >= 0, and the matrix model reads every entry of a
power of X from closed-form coordinates (``freealg.MatrixModel``).

The verification runs in the commutative algebra L[C] = L*C + L*I, where
a*C + b*I is held as its pair (a, b), and (1, 0) is C, (1, -t) is
[[0, s], [1, -t]].  X's pair comes from the closed form, and X is built
from it only after the checks, so X lies in L[C] by construction.  With
hi = q*lo + r and r < lo, one chain of squarings X, X^2, X^4, ... gives
both X^lo and X^r (``_pair_powers``; each power multiplies in the squares
its binary digits select, by ``GroebnerBasis.pair_mul``), and X^lo is
compared with C's pair.  Then X^hi = C^q * X^r is q C-steps
(a, b) -> (a*t + b, a*s) on X^r's pair (``GroebnerBasis.times_C``), each
a shift by t and by s and two divisions, no product, and X^hi is compared
with (1, -t).  With Y = E12, whose square is 0, X^i Y + Y X^j = 1 reads
(X^i)_21 = (X^j)_21 = 1 and (X^i)_11 + (X^j)_22 = 0, in both orientations
t + b_lo + b_hi = 0 on the pairs; the pairs (1, 0) and (1, -t) satisfy
it, so the two comparisons check the relation as well.  The chain uses
only products in L and division by the certified basis, never f or the
closed form's exponent arithmetic, and it divides once per new
coordinate.  With C^u = f(u)*C + s*f(u-1)*I, an identity in A[s,t] for
u >= 1 and in L for every u, and C^n = s^lo*I in L (the generators f(n)
and f(n-1) - s^(lo-1) say so), this makes x_coordinate(L, e, k) the
coordinates of X^e for every e >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Inconsistency
from .fields import QQ
from .groebner import GroebnerBasis, _oriented, structure_basis
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
    (a, b) comes from the closed form (``x_coordinate``) and is verified in
    L[C] (module doc): one chain of squarings gives X^lo and X^r,
    r = hi mod lo, q C-steps on X^r give X^hi = C^q * X^r, and X^lo = C and
    X^hi = s*C^(-1) give X^i Y + Y X^j = 1 both ways round.  X = a*C + b*I
    is then built from the verified pair.
    """
    hi, lo = _oriented(i, j)
    ring = structure_basis(hi, lo, field) if gb is None else gb
    if ring.params != (hi, lo) or ring.field != field:
        raise ValueError(
            f"basis for {ring.params} over {ring.field.name} does not present"
            f" ({hi}, {lo}) over {field.name}"
        )
    x = (x_coordinate(ring, 1, 0), x_coordinate(ring, 1, 1))
    # X^hi = C^q * X^r once X^lo = C; r < lo, so X^lo's chain also gives X^r
    q, r = divmod(hi, lo)
    lo_pair, hi_pair = _pair_powers(ring, x, lo, r)
    for _ in range(q):
        hi_pair = ring.times_C(hi_pair)
    if lo_pair != (ring.one, ring.zero) or hi_pair != (ring.one, -ring.t()):
        raise Inconsistency(f"witness construction failed for (i, j) = ({i}, {j})")
    # a*C + b*I = [[a*t + b, a*s], [a, b]], its top row the pair of C*X
    X = Mat2(ring, *ring.times_C(x), *x)
    return WitnessPair(X=X, Y=Mat2.e12(ring), i=i, j=j, ring=ring)


def _pair_powers(ring: GroebnerBasis, x: tuple, *exps: int) -> tuple:
    """The pairs of (a*C + b*I)^e for x = (a, b), one for each e >= 0 in exps.

    One chain of squarings x, x^2, x^4, ... serves them all: each power
    multiplies together the squares its binary digits select.
    """
    powers = [None] * len(exps)  # None: no digit met yet, the power is I
    square = x
    for k in range(max(exps).bit_length()):
        if k:
            square = ring.pair_mul(square, square)
        for n, e in enumerate(exps):
            if e >> k & 1:
                power = powers[n]
                powers[n] = square if power is None else ring.pair_mul(power, square)
    return tuple((ring.zero, ring.one) if power is None else power for power in powers)


def x_coordinate(ring: GroebnerBasis, e: int, k: int):
    """Coordinate k of X^e = a*C + b*I over L, the structure basis, for e >= 0.

    a for k = 0 and b for k = 1: s^(m+k) * f(u-k), one division (module doc).
    """
    hi, lo = ring.params
    n = hi + lo
    u = e * pow(lo, -1, n) % n
    if 2 * u > n:
        u -= n  # the balanced residue; never at (1, 1), where n = 2
    return ring.s_power_f((e - u * lo) // n + k, u - k)
