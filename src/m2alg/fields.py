"""Exact coefficient arithmetic: rationals, prime fields, quadratic extensions.

Every element type here is an immutable value supporting +, -, *, /, ** and
equality, and may be mixed freely with plain ints on either side of the
arithmetic.  An F_p or F_{p^2} element equals only an element of its own
type and p, never a plain int, so equal elements hash alike.  Rationals
are plain ``fractions.Fraction`` (always stored in lowest terms with positive
denominator, which is exactly the canonical form we need); the field objects
``QQ``, ``GF(p)`` and ``GF2(p)`` provide a uniform construction surface
(``zero``, ``one``, ``of``, ``random_element``, ...) for generic code.

Also home to the small number-theoretic predicates used by the membership
classification (the 2-adic valuation and the odd-multiple test), to the
parameter guards the library's entry points call before any work
(``require_exponents`` and ``require_prime``), and to ``power``, the one
square-and-multiply loop behind ``**`` on F_{p^2}, polynomials and
quotient-ring elements.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import UnsupportedParameters

INF = math.inf  # 2-adic valuation of 0; compares and adds like a number


def nu2(n: int):
    """2-adic valuation of an integer: the exponent of 2 in n, with nu2(0) = INF."""
    if n == 0:
        return INF
    n = abs(n)
    return (n & -n).bit_length() - 1


def is_odd_multiple(a: int, b: int) -> bool:
    """True iff b != 0, b divides a and a/b is odd.

    Signs are ignored.  In particular 0 is never an odd multiple of anything
    (0/b is even), and nothing is an odd multiple of 0; the (0, 0) corner is
    therefore False as well.
    """
    if b == 0:
        return False
    a, b = abs(a), abs(b)
    return a % b == 0 and (a // b) % 2 == 1


# Miller-Rabin with the thirteen primes <= 41 as bases is exact below this
# bound (Sorenson and Webster, 2015); the first twelve bases alone are exact
# only below 3.18e23.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n < MR_BOUND (about 3.3e24).

    Multiples of the small primes are settled by one division each, and
    n < 41^2 needs nothing more; larger n go through deterministic
    Miller-Rabin.  A larger n raises UnsupportedParameters rather than
    guessing.
    """
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True
    if n >= MR_BOUND:
        raise UnsupportedParameters(
            f"{n} is too large: primality is decided only below {MR_BOUND}"
        )
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_int(n):
    if type(n) is not int:  # a bool or a float is refused too
        raise TypeError(f"{n!r} is not an int")


def require_exponents(i: int, j: int):
    """Refuse exponents that are not ints >= 1: the algebra needs i, j >= 1."""
    _require_int(i)
    _require_int(j)
    if i < 1 or j < 1:
        raise UnsupportedParameters("exponents must be >= 1")


def require_prime(p: int, odd: bool = False):
    """Refuse a p that is not a prime int, and 2 when ``odd`` asks for an odd prime.

    The type is checked on every call; the primality verdict of the last int
    asked about is kept, so repeated calls with one p prove it once.
    """
    _require_int(p)
    if not _proven_prime(p):
        raise UnsupportedParameters(f"{p} is not prime")
    if odd and p == 2:
        raise UnsupportedParameters("2 is not an odd prime")


# every entry point calls require_prime, and Miller-Rabin takes about 0.13 ms
# at p = 10^18 + 3 (Python 3.11, 2-core x86-64 host), so without the memo a
# 40000-row table over one p reruns it on every row.  require_prime refuses
# every type but int before this is read, so the key is always an int
@functools.lru_cache(maxsize=1)
def _proven_prime(p: int) -> bool:
    return is_prime(p)


def factorize(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def power(base, e: int, one):
    """base^e for e >= 0 by square-and-multiply, starting from ``one``."""
    if e < 0:
        raise ValueError("negative exponent")
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


class RationalField:
    """The rational numbers; elements are fractions.Fraction."""

    name = "Q"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.char = 0

    def of(self, n) -> Fraction:
        if isinstance(n, float):
            raise TypeError(f"{n!r} is a float: rationals are made exactly")
        return Fraction(n)

    def random_element(self, rng) -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def coeff_text(self, c) -> tuple[bool, str]:
        """(is_negative, magnitude text) for polynomial display: "n" or "n/d"."""
        n, d = c.numerator, c.denominator
        mag = str(-n if n < 0 else n)
        return (n < 0, mag if d == 1 else f"{mag}/{d}")

    def parse_coeff(self, text: str) -> Fraction:
        return Fraction(text)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FpElem:
    """An element of the prime field with p elements, stored in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElem):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpElem(other, self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElem(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElem(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElem(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpElem(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElem(-self.value, self.p)

    def inverse(self) -> "FpElem":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return FpElem(pow(self.value, -1, self.p), self.p)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FpElem(pow(self.value, e, self.p), self.p)

    def __eq__(self, other):
        if not isinstance(other, FpElem):
            return NotImplemented
        return self.value == self._lift(other).value

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}"


class PrimeField:
    """The field Z_p for a prime p; use the interned constructor GF(p)."""

    def __init__(self, p: int):
        require_prime(p)
        self.p = p
        self.char = p
        self.name = f"F{p}"
        self.zero = FpElem(0, p)
        self.one = FpElem(1, p)

    def of(self, n) -> FpElem:
        """n in F_p: an int, an element of this field, or any exact number.

        Other numbers go through ``Fraction(n)``, as in ``QQ.of``, so a
        ``Decimal('2.7')`` is 27 * 10^(-1); a denominator that vanishes
        mod p raises ValueError, and a float raises TypeError.
        """
        p = self.p
        if type(n) is int:
            return FpElem(n, p)
        if isinstance(n, FpElem):
            if n.p != p:
                raise ValueError("modulus mismatch")
            return n
        if isinstance(n, float):
            raise TypeError(f"{n!r} is a float: F_{p} elements are made exactly")
        q = Fraction(n)
        if q.denominator % p == 0:
            raise ValueError(f"{n!r} has a denominator divisible by {p}: no value in F_{p}")
        return FpElem(q.numerator * pow(q.denominator, -1, p), p)

    def elements(self):
        for v in range(self.p):
            yield FpElem(v, self.p)

    def random_element(self, rng) -> FpElem:
        return FpElem(rng.randrange(self.p), self.p)

    def coeff_text(self, c) -> tuple[bool, str]:
        return (False, str(c.value))

    def parse_coeff(self, text: str) -> FpElem:
        return self.of(Fraction(text))  # "a/b" becomes a * b^(-1)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


@functools.lru_cache(maxsize=None, typed=True)  # so GF(7.0) meets the guard
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def smallest_nonresidue(p: int) -> int:
    """Smallest quadratic nonresidue mod an odd prime p (deterministic)."""
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) == p - 1:
            return u
    raise ValueError(f"no nonresidue mod {p}")  # unreachable for p >= 3


class Fp2Elem:
    """a + b*w in the quadratic extension of F_p, where w*w = u (a nonresidue)."""

    __slots__ = ("a", "b", "field")

    def __init__(self, a: FpElem, b: FpElem, field: "QuadExtField"):
        self.a = a
        self.b = b
        self.field = field

    def _lift(self, other):
        if isinstance(other, Fp2Elem):
            if other.field.p != self.field.p:
                raise ValueError("modulus mismatch")
            return other
        if isinstance(other, (int, FpElem)):
            return self.field.of(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Fp2Elem(self.a + o.a, self.b + o.b, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Fp2Elem(self.a - o.a, self.b - o.b, self.field)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        u = self.field.u
        return Fp2Elem(
            self.a * o.a + u * (self.b * o.b),
            self.a * o.b + self.b * o.a,
            self.field,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Fp2Elem(-self.a, -self.b, self.field)

    def conjugate(self) -> "Fp2Elem":
        """a - b*w, which is also z^p, the p-power (Frobenius) map.

        Since w^2 = u is a nonresidue, w^(p-1) = u^((p-1)/2) = -1, so
        w^p = -w and (a + b*w)^p = a^p + b^p*w^p = a - b*w.  It fixes
        exactly the base-field elements.
        """
        return Fp2Elem(self.a, -self.b, self.field)

    def norm(self) -> FpElem:
        """a^2 - u*b^2, the product of the element with its conjugate."""
        return self.a * self.a - self.field.u * (self.b * self.b)

    def inverse(self) -> "Fp2Elem":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("0 has no inverse")
        ninv = n.inverse()
        return Fp2Elem(self.a * ninv, -self.b * ninv, self.field)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.field.one)

    def __eq__(self, other):
        if not isinstance(other, Fp2Elem):
            return NotImplemented
        o = self._lift(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.field.p))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def in_base_field(self) -> bool:
        return not self.b

    def __repr__(self):
        if not self.b:
            return f"{self.a}"
        return f"({self.a}+{self.b}w)"


class QuadExtField:
    """F_{p^2} = F_p(w) with w^2 = u, u the smallest nonresidue mod p (p odd)."""

    def __init__(self, p: int):
        require_prime(p, odd=True)
        self.base = GF(p)
        self.p = p
        self.char = p
        self.u = self.base.of(smallest_nonresidue(p))
        self.name = f"F{p * p}"
        self.zero = Fp2Elem(self.base.zero, self.base.zero, self)
        self.one = Fp2Elem(self.base.one, self.base.zero, self)

    def of(self, n) -> Fp2Elem:
        if isinstance(n, Fp2Elem):
            if n.field.p != self.p:
                raise ValueError("modulus mismatch")
            return n
        return Fp2Elem(self.base.of(n), self.base.zero, self)

    def make(self, a, b) -> Fp2Elem:
        return Fp2Elem(self.base.of(a), self.base.of(b), self)

    def elements(self):
        for a in range(self.p):
            for b in range(self.p):
                yield self.make(a, b)

    def units(self):
        for z in self.elements():
            if z:
                yield z

    def random_element(self, rng) -> Fp2Elem:
        return self.make(rng.randrange(self.p), rng.randrange(self.p))

    def generator(self) -> Fp2Elem:
        """A generator of the cyclic group of units (order p^2 - 1)."""
        n = self.p * self.p - 1
        primes = factorize(n)
        for z in self.units():
            if all(z ** (n // q) != self.one for q in primes):
                return z
        raise RuntimeError("no generator found")  # unreachable

    def coeff_text(self, c) -> tuple[bool, str]:
        return (False, repr(c))

    def __eq__(self, other):
        return isinstance(other, QuadExtField) and other.p == self.p

    def __hash__(self):
        return hash(("QuadExtField", self.p))

    def __repr__(self):
        return f"GF2({self.p})"


@functools.lru_cache(maxsize=None, typed=True)  # so GF2(7.0) meets the guard
def GF2(p: int) -> QuadExtField:
    return QuadExtField(p)

