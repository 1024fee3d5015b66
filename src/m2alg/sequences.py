"""The three polynomial families behind the structure theory, in closed form.

* ``f_st(n)``   in A[s, t]:  f(0) = 0, f(1) = 1, f(n) = t*f(n-1) + s*f(n-2),
  that is f(n) = sum over k <= (n-1)/2 of C(n-1-k, k) * s^k * t^(n-1-2k).
* ``fbar(n)``   in A[t]:     the image of f(n) under s -> -1, whose
  coefficient on t^(n-1-2k) is (-1)^k * C(n-1-k, k).
* ``trace_poly(n)`` in A[x]: f_0 = 2, f_1 = x, f_{n+1} = x*f_n - f_{n-1},
  the family with z^n + z^-n = f_n(z + z^-1); its coefficient on x^(n-2k)
  is (-1)^k * n/(n-k) * C(n-k, k).

Each is built term by term on ints (the binomials of ``f_coeffs`` by
their ratio along a row, those of ``trace_poly`` from ``math.comb``) and
converted into the field once, so no polynomial arithmetic runs and
nothing is cached; coefficients that vanish in the field are dropped.
The recurrences are checked against these sums by the test suite, not
used to build them.

``trace_value(n, c)`` is the int f_n(c) for an int c, read off the
recurrence on ints in n steps; it builds no polynomial and keeps no memo,
so the rational decision procedure runs on exact ints in bounded memory.

``companion_power`` gives the closed form for powers of [[t, s], [1, 0]]
whose entries are the f(n).
"""

from __future__ import annotations

from math import comb

from .fields import QQ
from .mat2 import Mat2
from .poly import BiPoly, BiPolyRing, UniPoly


def f_coeffs(n: int) -> list[int]:
    """C(n-1-k, k) for k = 0..(n-1)//2: the coefficient of s^k t^(n-1-2k) in f(n).

    With m = n-1, each is read off the one before it:
    C(m-k-1, k+1) = C(m-k, k) * (m-2k)(m-2k-1) / ((k+1)(m-k)), exactly.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return []
    m, c = n - 1, 1
    row = [c]
    for k in range(m // 2):  # m - k > 0 here
        c = c * (m - 2 * k) * (m - 2 * k - 1) // ((k + 1) * (m - k))
        row.append(c)
    return row


def f_st(n: int, field=QQ) -> BiPoly:
    """f(n) in the polynomial ring in s and t over the field."""
    terms = {(k, n - 1 - 2 * k): field.of(c) for k, c in enumerate(f_coeffs(n))}
    return BiPoly(terms, field)


def fbar(n: int, field=QQ) -> UniPoly:
    """Image of f(n) under the evaluation s -> -1 (a polynomial in t)."""
    coeffs = [0] * n
    for k, c in enumerate(f_coeffs(n)):
        coeffs[n - 1 - 2 * k] = -c if k % 2 else c
    return UniPoly.of_ints(coeffs, field)


def trace_poly(n: int, field=QQ) -> UniPoly:
    """The n-th trace polynomial in x."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return UniPoly.const(2, field, var="x")
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        c = n * comb(n - k, k) // (n - k)
        coeffs[n - 2 * k] = -c if k % 2 else c
    return UniPoly.of_ints(coeffs, field, var="x")


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
