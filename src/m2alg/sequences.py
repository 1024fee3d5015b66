"""The three recursive polynomial families behind the structure theory.

* ``f_st(n)``   in A[s, t]:  f(0) = 0, f(1) = 1, f(n) = t*f(n-1) + s*f(n-2).
* ``fbar(n)``   in A[t]:     the image of f(n) under s -> -1.
* ``trace_poly(n)`` in A[x]: f_0 = 2, f_1 = x, f_{n+1} = x*f_n - f_{n-1},
  the family with z^n + z^-n = f_n(z + z^-1).

``trace_value(n, c)`` is the int f_n(c) for an int c, read off the same
recurrence on ints in n steps; it builds no polynomial and keeps no memo,
so the rational decision procedure runs on exact ints in bounded memory.

``companion_power`` gives the closed form for powers of [[t, s], [1, 0]]
whose entries are the f(n).  ``f_st``, ``fbar`` and ``trace_poly`` are
memoized per field, so repeated calls reuse them (memo tables are only ever
grown under the GIL, so shared use across threads is safe).
"""

from __future__ import annotations

from .fields import QQ
from .mat2 import Mat2
from .poly import BiPoly, BiPolyRing, UniPoly

_F_ST: dict = {}
_FBAR: dict = {}
_TRACE: dict = {}
_TRACE_INTS: list = [(2,), (0, 1)]


def f_st(n: int, field=QQ) -> BiPoly:
    """f(n) in the polynomial ring in s and t over the field."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    memo = _F_ST.setdefault(field, [BiPoly.zero(field), BiPoly.const(1, field)])
    t = BiPoly.t(field)
    s = BiPoly.s(field)
    while len(memo) <= n:
        memo.append(t * memo[-1] + s * memo[-2])
    return memo[n]


def fbar(n: int, field=QQ) -> UniPoly:
    """Image of f(n) under the evaluation s -> -1 (a polynomial in t)."""
    memo = _FBAR.setdefault(field, {})
    if n not in memo:
        memo[n] = f_st(n, field).evaluate_s(field.of(-1))
    return memo[n]


def trace_poly(n: int, field=QQ) -> UniPoly:
    """The n-th trace polynomial in x."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    # The coefficients are integers in every field, so the recurrence runs
    # on ints once and each field only converts the indices it asks for.
    while len(_TRACE_INTS) <= n:
        shifted = [0, *_TRACE_INTS[-1]]
        for k, c in enumerate(_TRACE_INTS[-2]):
            shifted[k] -= c
        _TRACE_INTS.append(tuple(shifted))
    memo = _TRACE.setdefault(field, {})
    if n not in memo:
        memo[n] = UniPoly.of_ints(_TRACE_INTS[n], field, var="x")
    return memo[n]


def trace_value(n: int, c: int) -> int:
    """The int f_n(c) of the n-th trace polynomial at the int c."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    prev, cur = 2, c
    for _ in range(n):
        prev, cur = cur, c * cur - prev
    return prev


def companion_matrix_st(field=QQ) -> Mat2:
    """[[t, s], [1, 0]] over the bivariate polynomial ring."""
    ring = BiPolyRing(field)
    return Mat2(
        ring, BiPoly.t(field), BiPoly.s(field), ring.one, ring.zero
    )


def companion_power(n: int, field=QQ) -> Mat2:
    """Closed form [[f(n+1), s*f(n)], [f(n), s*f(n-1)]] for n >= 1.

    Equals the n-th power of companion_matrix_st; the equality is exercised
    by the test suite rather than assumed here.
    """
    if n < 1:
        raise ValueError("power index must be >= 1")
    ring = BiPolyRing(field)
    s = BiPoly.s(field)
    return Mat2(
        ring,
        f_st(n + 1, field),
        s * f_st(n, field),
        f_st(n, field),
        s * f_st(n - 1, field),
    )
