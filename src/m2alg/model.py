"""Explicit 2x2 witness matrices over the quotient ring A[s,t]/I.

For coprime (i, j), the pair

    X = s^(-beta) * [[t, s], [1, 0]]^(alpha+beta)   (alpha*j - beta*i = 1),
    Y = [[0, 1], [0, 0]],

computed in the quotient L, satisfies the defining relations
X^i Y + Y X^j = 1 and Y^2 = 0, and in fact X^j = [[t, s], [1, 0]] and
X^i = [[0, s], [1, -t]].  For i = j = 1 the quotient degenerates to A[s]
and X = [[0, s], [1, 0]].  All of this is re-verified at construction;
a failure raises Inconsistency rather than returning a bad pair.  The
pair's ``ring`` is L itself: the reduced basis, a ``GroebnerBasis``.

X is built in closed form, with no matrix power: with C = [[t, s], [1, 0]],
C^k = f(k)*C + s*f(k-1)*I, so X = a*C + b*I where a = s^(-beta)*f(k) and
b = s^(1-beta)*f(k-1), k = alpha+beta.  Each of a and b is one normal form
of a kernel dict whose s-exponents are folded by s^(i-j) = (-1)^(i-j)
(``groebner._s_power_f``), and a*t, a*s are the only products.

The verification computes X^lo and then X^hi = X^lo * X^(hi-lo), with
lo = min(i, j) and hi = max(i, j).  For a correct pair X^lo is the
companion matrix, whose entries 1, 0, s and t make that last product
cheap; both powers are still compared entry by entry with the expected
matrices.
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
    ident = Mat2.identity(ring)
    if hi == lo == 1:
        X = Mat2(ring, ring.zero, ring.s(), ring.one, ring.zero)
    else:
        alpha = pow(lo, -1, hi)
        beta = (alpha * lo - 1) // hi
        k, d = alpha + beta, hi - lo
        # C^k = f(k)*C + s*f(k-1)*I, scaled by s^(-beta)
        a = ring._element(_s_power_f(-beta, k, d, ring._mod))
        b = ring._element(_s_power_f(1 - beta, k - 1, d, ring._mod))
        X = companion.scale(a) + ident.scale(b)
    Y = Mat2.e12(ring)
    power = {lo: mat_pow(X, lo)}
    power[hi] = power[lo] * mat_pow(X, hi - lo)
    checks = [
        (Y * Y).is_zero(),
        power[i] * Y + Y * power[j] == ident,
        power[j] * Y + Y * power[i] == ident,
        power[lo] == companion,
        power[hi] == Mat2(ring, ring.zero, ring.s(), ring.one, -ring.t()),
    ]
    if not all(checks):
        raise Inconsistency(f"witness construction failed for (i, j) = ({i}, {j})")
    return WitnessPair(X=X, Y=Y, i=i, j=j, ring=ring)
