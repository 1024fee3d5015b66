"""Sparse polynomial arithmetic over an exact field.

``SparsePoly`` holds a polynomial as a map from monomials to nonzero
coefficients and owns the one arithmetic (sum, difference, negation,
product, scaling, equality, hash).  Three types subclass it:

* ``UniPoly`` -- univariate, monomial = degree;
* ``BiPoly`` -- bivariate in s and t, monomial = exponent pair (e_s, e_t);
* ``freealg.NCPoly`` -- noncommutative in x and y, monomial = ``Word``.

The monomial order used everywhere for s and t (display, Groebner bases,
normal forms) is lexicographic with t > s: compare the t-exponent first,
then the s-exponent.  Canonical text is written descending in that order,
e.g. ``t^3 - t^2 - 2*t + 1`` or ``t^6 + 5*s*t^4 + 6*s^2*t^2 + s^3``.

One parser, ``_parse_terms``, reads all three kinds of expression
(``parse_bipoly``, ``parse_unipoly`` and ``freealg.parse_word_expr``): it
sums the terms in one pass into one dict, keyed by the monomial its caller
makes of each term's factors, and the caller builds its polynomial from
that dict once.
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


class SparsePoly:
    """Sparse polynomial over a field: terms maps monomials to nonzero coeffs.

    The one arithmetic behind ``UniPoly``, ``BiPoly``, ``freealg.NCPoly``
    and ``groebner.QuotientElem``.  A subclass fixes the monomials through
    ``_mono_mul`` (their product, which need not commute) and ``_coerce``
    (a scalar, or anything else it accepts, as a polynomial).  A
    polynomial equals only a polynomial of the same type and field, and
    equal polynomials hash alike.

    Two hooks let a subclass hold plain numbers instead of field elements:
    ``_scalar`` turns a scalar into the coefficient type, and a nonzero
    ``_mod`` makes every sum, negation and scaling reduce its
    coefficients mod ``_mod``.
    """

    __slots__ = ("terms", "field")

    _mod = 0  # coefficients are field elements; no reduction

    def _scalar(self, c):
        """The scalar c as a coefficient."""
        return self.field.of(c) if isinstance(c, int) else c

    def __init__(self, terms: dict, field, _clean=True):
        if _clean:
            terms = {m: c for m, c in terms.items() if c}
        self.terms = terms
        self.field = field

    def _new(self, terms: dict):
        """A polynomial of the same kind from terms with no zero coefficient."""
        return type(self)(terms, self.field, _clean=False)

    @classmethod
    def zero(cls, field):
        return cls({}, field, _clean=False)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        mod = self._mod
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            if v is None:
                out[m] = c
                continue
            v += c
            if mod:
                v %= mod
            if v:
                out[m] = v
            else:
                del out[m]
        return self._new(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        mod = self._mod
        return self._new({m: -c % mod if mod else -c for m, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        mono_mul = self._mono_mul
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = out.get(m)
                v = c1 * c2 if v is None else v + c1 * c2
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return self._new(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return power(self, e, self._coerce(1))

    def scale(self, c):
        c = self._scalar(c)
        if not c:
            return self._new({})
        mod = self._mod
        return self._new({m: c * v % mod if mod else c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms and self.field == other.field

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.field))

    def __repr__(self):
        return self.text()


class UniPoly(SparsePoly):
    """Univariate polynomial in var; terms maps degree -> nonzero coeff."""

    __slots__ = ("var",)

    def __init__(self, terms: dict, field, var="t", _clean=True):
        super().__init__(terms, field, _clean)
        self.var = var

    def _new(self, terms):
        return UniPoly(terms, self.field, self.var, _clean=False)

    _mono_mul = staticmethod(int.__add__)
    # perfbench's tracer wraps __mul__ from this class's own __dict__
    __mul__ = SparsePoly.__mul__
    __rmul__ = SparsePoly.__mul__

    @classmethod
    def zero(cls, field, var="t"):
        return cls({}, field, var, _clean=False)

    @classmethod
    def const(cls, c, field, var="t"):
        return cls({0: field.of(c)}, field, var)

    @classmethod
    def gen(cls, field, var="t"):
        return cls({1: field.one}, field, var, _clean=False)

    @classmethod
    def of_ints(cls, ints, field, var="t"):
        """Polynomial from ascending integer coefficients."""
        return cls({k: field.of(n) for k, n in enumerate(ints)}, field, var)

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        return UniPoly.const(other, self.field, self.var)

    @property
    def degree(self):
        return max(self.terms, default=NEG_INF)

    @property
    def coeffs(self) -> tuple:
        """Dense ascending coefficients, up to the leading one."""
        if not self.terms:
            return ()
        return tuple(self[k] for k in range(self.degree + 1))

    def __getitem__(self, k):
        return self.terms.get(k, self.field.zero)

    def evaluate(self, v):
        """Horner evaluation at a field element."""
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def text(self) -> str:
        pieces = []
        for k in sorted(self.terms, reverse=True):
            mono = "" if k == 0 else (self.var if k == 1 else f"{self.var}^{k}")
            pieces.append(_term_text(self.field, self.terms[k], mono))
        return _join_terms(pieces)


class BiPoly(SparsePoly):
    """Sparse polynomial in s and t; terms maps (e_s, e_t) -> nonzero coeff."""

    __slots__ = ()

    @staticmethod
    def _mono_mul(m1, m2):
        return (m1[0] + m2[0], m1[1] + m2[1])

    # perfbench's tracer wraps __mul__ from this class's own __dict__
    __mul__ = SparsePoly.__mul__
    __rmul__ = SparsePoly.__mul__

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

    def _coerce(self, other):
        if isinstance(other, BiPoly):
            return other
        return BiPoly.const(other, self.field)

    def lm(self) -> tuple[int, int]:
        """Leading monomial under lex t > s; polynomial must be nonzero."""
        return max(self.terms, key=order_key)

    def deg_t(self):
        return max((m[1] for m in self.terms), default=NEG_INF)

    def evaluate_s(self, v) -> UniPoly:
        """Ring-homomorphic image under s -> v, landing in polynomials in t."""
        v = self.field.of(v) if isinstance(v, int) else v
        out: dict[int, object] = {}
        for (es, et), c in self.terms.items():
            w = c * v**es
            out[et] = out[et] + w if et in out else w
        return UniPoly(out, self.field)

    def text(self) -> str:
        monos = sorted(self.terms, key=order_key, reverse=True)
        return _join_terms([_term_text(self.field, self.terms[m], _mono_text(m)) for m in monos])


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


_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z]|\^|\*|\+|-)")

# the longest number a parsed literal may hold: the interpreter's default
# limit on int(str), checked here so that parsing stays bounded whatever
# limit the caller has set
MAX_LITERAL_DIGITS = 4300


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse near {text[pos:]!r}")
            break
        tok = m.group(1)
        if tok[0].isdigit() and max(map(len, tok.split("/"))) > MAX_LITERAL_DIGITS:
            raise ValueError(f"a number with more than {MAX_LITERAL_DIGITS} digits")
        tokens.append(tok)
        pos = m.end()
    return tokens


def _parse_terms(text: str, field, variables, monomial) -> dict:
    """The summed terms of text: {monomial(factors): coefficient}, zeros kept.

    Grammar: terms joined by + / -, each term a '*'-separated product of
    rational coefficients and variable factors ``v`` or ``v^k`` (the '*'
    may be omitted, but each '*' stands between two factors).  A term's
    factors are passed to ``monomial`` as a list of (var, exp) pairs in
    their order, so the caller decides whether variables commute.  Terms
    with one monomial are summed as they are read, in one pass.  Anything
    else, a zero denominator included, raises ValueError.
    """
    tokens = _tokenize(text)
    terms: dict = {}
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
        mono = monomial(factors)
        v = terms.get(mono)
        terms[mono] = coeff if v is None else v + coeff
        if pos == len(tokens):
            return terms


def _exponent(factors, var) -> int:
    return sum(e for v, e in factors if v == var)


def parse_bipoly(text: str, field) -> BiPoly:
    """Inverse of BiPoly.text() on canonical output."""
    mono = lambda factors: (_exponent(factors, "s"), _exponent(factors, "t"))
    return BiPoly(_parse_terms(text, field, ("s", "t"), mono), field)


def parse_unipoly(text: str, field, var="t") -> UniPoly:
    mono = lambda factors: _exponent(factors, var)
    return UniPoly(_parse_terms(text, field, (var,), mono), field, var=var)
