"""Commutative polynomial arithmetic over an exact field.

Two representations:

* ``UniPoly`` -- dense univariate polynomials (coefficient list, ascending),
  with Euclidean division and monic gcd.
* ``BiPoly`` -- sparse bivariate polynomials in s and t, as a map from
  exponent pairs (e_s, e_t) to nonzero coefficients.

The monomial order used everywhere (display, Groebner bases, normal forms)
is lexicographic with t > s: compare the t-exponent first, then the
s-exponent.  Canonical text is written descending in that order, e.g.
``t^3 - t^2 - 2*t + 1`` or ``t^6 + 5*s*t^4 + 6*s^2*t^2 + s^3``.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .fields import power

NEG_INF = float("-inf")  # degree of the zero polynomial


# Sort key for a monomial (e_s, e_t) under lex with t > s: (e_t, e_s).
order_key = itemgetter(1, 0)


def mono_divides(m1, m2) -> bool:
    """Does s^a t^b given by m1 divide m2?"""
    return m1[0] <= m2[0] and m1[1] <= m2[1]


def _mono_text(mono: tuple[int, int]) -> str:
    es, et = mono
    parts = []
    if es:
        parts.append("s" if es == 1 else f"s^{es}")
    if et:
        parts.append("t" if et == 1 else f"t^{et}")
    return "*".join(parts)


def _join_terms(pieces: list[tuple[bool, str]]) -> str:
    """Assemble ±term pieces into canonical text."""
    if not pieces:
        return "0"
    out = []
    for k, (neg, text) in enumerate(pieces):
        if k == 0:
            out.append(f"-{text}" if neg else text)
        else:
            out.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(out)


def _term_text(field, coeff, mono_text: str) -> tuple[bool, str]:
    neg, mag = field.coeff_text(coeff)
    if not mono_text:
        return (neg, mag)
    if mag == "1":
        return (neg, mono_text)
    return (neg, f"{mag}*{mono_text}")


class UniPoly:
    """Dense univariate polynomial over a field."""

    __slots__ = ("coeffs", "field", "var")

    def __init__(self, coeffs, field, var="t"):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.field = field
        self.var = var

    @classmethod
    def zero(cls, field, var="t"):
        return cls((), field, var)

    @classmethod
    def const(cls, c, field, var="t"):
        return cls((field.of(c),), field, var)

    @classmethod
    def gen(cls, field, var="t"):
        return cls((field.zero, field.one), field, var)

    @classmethod
    def of_ints(cls, ints, field, var="t"):
        """Polynomial from ascending integer coefficients."""
        return cls([field.of(n) for n in ints], field, var)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def leading_coeff(self):
        return self.coeffs[-1] if self.coeffs else self.field.zero

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self.field.zero

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.field.zero

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            (self[k] + other[k] for k in range(n)), self.field, self.var
        )

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            (self[k] - other[k] for k in range(n)), self.field, self.var
        )

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return UniPoly((-c for c in self.coeffs), self.field, self.var)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.field, self.var)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for a, ca in enumerate(self.coeffs):
            if not ca:
                continue
            for b, cb in enumerate(other.coeffs):
                out[a + b] = out[a + b] + ca * cb
        return UniPoly(out, self.field, self.var)

    __radd__ = __add__
    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        return UniPoly.const(other, self.field, self.var)

    def scale(self, c):
        c = self.field.of(c) if isinstance(c, int) else c
        return UniPoly((c * a for a in self.coeffs), self.field, self.var)

    def shift(self, k: int):
        """Multiply by var^k."""
        if self.is_zero():
            return self
        return UniPoly(
            (self.field.zero,) * k + self.coeffs, self.field, self.var
        )

    def __pow__(self, e: int):
        return power(self, e, UniPoly.const(1, self.field, self.var))

    def divmod(self, other):
        """Euclidean division; other must be nonzero."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q = UniPoly.zero(self.field, self.var)
        r = self
        inv_lc = self.field.one / other.leading_coeff()
        while not r.is_zero() and r.degree >= other.degree:
            k = r.degree - other.degree
            c = r.leading_coeff() * inv_lc
            q = q + UniPoly.const(c, self.field, self.var).shift(k)
            r = r - other.scale(c).shift(k)
        return q, r

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        lc = self.leading_coeff()
        if lc == self.field.one:
            return self
        return self.scale(self.field.one / lc)

    def evaluate(self, v):
        """Horner evaluation at a field element."""
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def divides(self, other) -> bool:
        if self.is_zero():
            return other.is_zero()
        return other.divmod(self)[1].is_zero()

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs and self.field == other.field

    def __hash__(self):
        return hash((self.coeffs, self.field, self.var))

    def text(self) -> str:
        pieces = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mono = "" if k == 0 else (self.var if k == 1 else f"{self.var}^{k}")
            pieces.append(_term_text(self.field, c, mono))
        return _join_terms(pieces)

    def __repr__(self):
        return self.text()


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


class BiPoly:
    """Sparse polynomial in s and t; terms maps (e_s, e_t) -> nonzero coeff."""

    __slots__ = ("terms", "field")

    def __init__(self, terms: dict, field, _clean=True):
        if _clean:
            terms = {m: c for m, c in terms.items() if c}
        self.terms = terms
        self.field = field

    @classmethod
    def zero(cls, field):
        return cls({}, field, _clean=False)

    @classmethod
    def const(cls, c, field):
        c = field.of(c)
        return cls({(0, 0): c} if c else {}, field, _clean=False)

    @classmethod
    def s(cls, field, e=1):
        return cls({(e, 0): field.one}, field, _clean=False)

    @classmethod
    def t(cls, field, e=1):
        return cls({(0, e): field.one}, field, _clean=False)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            v = c if v is None else v + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return BiPoly(out, self.field, _clean=False)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return BiPoly(
            {m: -c for m, c in self.terms.items()}, self.field, _clean=False
        )

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1])
                v = out.get(m)
                v = c1 * c2 if v is None else v + c1 * c2
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return BiPoly(out, self.field, _clean=False)

    __radd__ = __add__
    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, BiPoly):
            return other
        return BiPoly.const(other, self.field)

    def scale(self, c):
        c = self.field.of(c) if isinstance(c, int) else c
        if not c:
            return BiPoly.zero(self.field)
        return BiPoly(
            {m: c * v for m, v in self.terms.items()}, self.field, _clean=False
        )

    def __pow__(self, e: int):
        return power(self, e, BiPoly.const(1, self.field))

    def __eq__(self, other):
        if isinstance(other, int):
            other = BiPoly.const(other, self.field)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms and self.field == other.field

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.field))

    def sorted_terms(self, reverse=True):
        return sorted(self.terms.items(), key=lambda kv: order_key(kv[0]), reverse=reverse)

    def lm(self) -> tuple[int, int]:
        """Leading monomial under lex t > s; polynomial must be nonzero."""
        return max(self.terms, key=order_key)

    def deg_t(self):
        return max((m[1] for m in self.terms), default=NEG_INF)

    def coeff(self, mono):
        return self.terms.get(mono, self.field.zero)

    def evaluate_s(self, v) -> UniPoly:
        """Ring-homomorphic image under s -> v, landing in polynomials in t."""
        v = self.field.of(v) if isinstance(v, int) else v
        out: dict[int, object] = {}
        for (es, et), c in self.terms.items():
            w = c * v**es
            if et in out:
                out[et] = out[et] + w
            else:
                out[et] = w
        deg = max(out, default=-1)
        coeffs = [out.get(k, self.field.zero) for k in range(deg + 1)]
        return UniPoly(coeffs, self.field, var="t")

    def evaluate(self, sv, tv):
        """Full evaluation at field elements (s, t)."""
        acc = self.field.zero
        for (es, et), c in self.terms.items():
            acc = acc + c * sv**es * tv**et
        return acc

    def text(self) -> str:
        pieces = [
            _term_text(self.field, c, _mono_text(m)) for m, c in self.sorted_terms()
        ]
        return _join_terms(pieces)

    def __repr__(self):
        return self.text()


class BiPolyRing:
    """Ring wrapper so generic matrix code can make 0, 1 and integer images."""

    def __init__(self, field):
        self.field = field
        self.zero = BiPoly.zero(field)
        self.one = BiPoly.const(1, field)
        self.name = f"{field.name}[s,t]"

    def of(self, n):
        if isinstance(n, BiPoly):
            return n
        return BiPoly.const(n, self.field)

    def random_element(self, rng):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = (rng.randint(0, 2), rng.randint(0, 2))
            terms[mono] = self.field.random_element(rng)
        return BiPoly(terms, self.field)

    def __eq__(self, other):
        return isinstance(other, BiPolyRing) and other.field == self.field

    def __hash__(self):
        return hash(("BiPolyRing", self.field))

    def __repr__(self):
        return self.name


_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z]|\^|\*|\+|-)")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse near {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _parse_terms(text: str, field, variables):
    """Yield (coeff, [(var, exp), ...]) for each signed term of text.

    Grammar: terms joined by + / -, each term a '*'-separated product of
    rational coefficients and variable factors ``v`` or ``v^k`` (the '*'
    may be omitted, but each '*' stands between two factors).  Factors keep
    their order, so the caller decides whether variables commute.  Anything
    else, a zero denominator included, raises ValueError.
    """
    tokens = _tokenize(text)
    pos = 0
    while True:
        coeff = field.one
        while pos < len(tokens) and tokens[pos] in ("+", "-"):
            if tokens[pos] == "-":
                coeff = -coeff
            pos += 1
        factors = []
        empty = True
        while pos < len(tokens) and tokens[pos] not in ("+", "-"):
            tok = tokens[pos]
            pos += 1
            if tok == "*":
                if empty or pos == len(tokens) or tokens[pos] in ("+", "-", "*"):
                    raise ValueError("empty factor")
                continue
            if tok in variables:
                e = 1
                if pos < len(tokens) and tokens[pos] == "^":
                    if pos + 1 >= len(tokens) or not tokens[pos + 1].isdigit():
                        raise ValueError("malformed exponent")
                    e = int(tokens[pos + 1])
                    pos += 2
                factors.append((tok, e))
            elif tok[0].isdigit():
                try:
                    coeff = coeff * field.parse_coeff(tok)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {tok!r}") from None
            else:
                raise ValueError(f"unexpected token {tok!r}")
            empty = False
        if empty:
            raise ValueError("empty term")
        yield coeff, factors
        if pos == len(tokens):
            return


def _exponent(factors, var) -> int:
    return sum(e for v, e in factors if v == var)


def parse_bipoly(text: str, field) -> BiPoly:
    """Inverse of BiPoly.text() on canonical output."""
    terms: dict = {}
    for coeff, factors in _parse_terms(text, field, ("s", "t")):
        mono = (_exponent(factors, "s"), _exponent(factors, "t"))
        terms[mono] = terms.get(mono, field.zero) + coeff
    return BiPoly(terms, field)


def parse_unipoly(text: str, field, var="t") -> UniPoly:
    coeffs: dict = {}
    for coeff, factors in _parse_terms(text, field, (var,)):
        k = _exponent(factors, var)
        coeffs[k] = coeffs.get(k, field.zero) + coeff
    deg = max(coeffs, default=-1)
    return UniPoly([coeffs.get(k, field.zero) for k in range(deg + 1)], field, var=var)
