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
e = u*lo + m*n with u = e*lo^(-1) mod n, X^e = s^m * C^u, and
C^u = f(u)*C + s*f(u-1)*I.  So X^e = s^m*I for u = 0, and a*C + b*I with
a = s^m*f(u), b = s^(m+1)*f(u-1) otherwise: each one normal form of
``groebner._s_power_f`` (s-exponents folded by s^(i-j) = (-1)^(i-j); m < 0
only for i != j, where s is a unit), with a*t and a*s the only products.

The verification computes X^lo and X^hi = X^lo * X^(hi-lo) by ``mat_pow``
(X^lo = C makes that last product cheap) and compares both entry by entry
with the expected matrices; with C^u = f(u)*C + s*f(u-1)*I, an identity in
A[s,t], that makes x_power(L, e) = X^e for every e >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Inconsistency
from .fields import QQ
from .groebner import GroebnerBasis, _oriented, _s_power_f, structure_basis
from .mat2 import Mat2, mat_pow


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
    be the structure basis of the same pair over the same field.
    """
    hi, lo = _oriented(i, j)
    ring = structure_basis(hi, lo, field) if gb is None else gb
    if ring.params != (hi, lo) or ring.field != field:
        raise ValueError(
            f"basis for {ring.params} over {ring.field.name} does not present"
            f" ({hi}, {lo}) over {field.name}"
        )
    companion = Mat2(ring, ring.t(), ring.s(), ring.one, ring.zero)
    X = x_power(ring, 1)
    Y = Mat2.e12(ring)
    power = {lo: mat_pow(X, lo)}
    power[hi] = power[lo] * mat_pow(X, hi - lo)
    checks = [
        (Y * Y).is_zero(),
        power[i] * Y + Y * power[j] == Mat2.identity(ring),
        power[j] * Y + Y * power[i] == Mat2.identity(ring),
        power[lo] == companion,
        power[hi] == Mat2(ring, ring.zero, ring.s(), ring.one, -ring.t()),
    ]
    if not all(checks):
        raise Inconsistency(f"witness construction failed for (i, j) = ({i}, {j})")
    return WitnessPair(X=X, Y=Y, i=i, j=j, ring=ring)


def x_power(ring: GroebnerBasis, e: int) -> Mat2:
    """X^e = s^m * C^u over L, the structure basis, for e >= 0 (module doc)."""
    hi, lo = ring.params
    n, d, mod = hi + lo, hi - lo, ring._mod
    u = e * pow(lo, -1, n) % n
    m = (e - u * lo) // n
    if not u:
        return Mat2.scalar(ring, ring._element(_s_power_f(m, 1, d, mod)))
    a = ring._element(_s_power_f(m, u, d, mod))
    b = ring._element(_s_power_f(m + 1, u - 1, d, mod))
    return Mat2(ring, a * ring.t() + b, a * ring.s(), a, b)
