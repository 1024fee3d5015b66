"""Buchberger engine for ideals of A[s, t] over a field, lex order t > s.

Purpose-built for the structure ideal

    I(i, j) = ( f(i+j), f(i+j-1) - s^(j-1), s^(i-j) - (-1)^(i-j) ),

defined for coprime i >= j (with the degenerate single generator (t) at
i = j = 1), whose quotient carries the whole algebra via 2x2 matrices.
The engine itself is standard: S-polynomials, multivariate division,
full inter-reduction, deterministic pair selection (smallest lcm first),
so identical inputs always produce the identical reduced basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnsupportedParameters
from .fields import QQ
from .poly import (
    BiPoly,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    order_key,
)
from .sequences import f_st


class _Infinite:
    """Marker for an infinite-dimensional quotient."""

    def __repr__(self):
        return "INFINITE"

    def __reduce__(self):
        return (_infinite_instance, ())


INFINITE = _Infinite()


def _infinite_instance():
    return INFINITE


@dataclass(frozen=True)
class Ideal:
    """A finite generating set, remembering (i, j) when built structurally."""

    generators: tuple
    field: object
    params: tuple | None = None


def build_ideal_I(i: int, j: int, field=QQ) -> Ideal:
    """The structure ideal for the presentation with exponents (i, j).

    Requires gcd(i, j) = 1; the pair is used in the orientation i >= j
    (the two orientations present the same ring).
    """
    if i < 1 or j < 1:
        raise UnsupportedParameters("exponents must be >= 1")
    if math.gcd(i, j) != 1:
        raise UnsupportedParameters(
            f"gcd({i}, {j}) != 1: no quotient description is available"
        )
    if i < j:
        i, j = j, i
    if i == j == 1:
        return Ideal((BiPoly.t(field),), field, (1, 1))
    gens = (
        f_st(i + j, field),
        f_st(i + j - 1, field) - BiPoly.s(field, j - 1),
        BiPoly.s(field, i - j) - BiPoly.const((-1) ** (i - j), field),
    )
    return Ideal(gens, field, (i, j))


def _divide(p: BiPoly, polys, lms, cofs=(), poly_cofs=()):
    """Remainder of p on division by the monic polys, whose LMs are lms.

    Returns (remainder, cofactors).  When p carries cofactors cofs over some
    fixed generators and polys[k] carries poly_cofs[k], the returned
    cofactors express the remainder over the same generators.
    """
    field = p.field
    work = dict(p.terms)
    remainder = {}
    cofs = list(cofs)
    while work:
        lm = max(work, key=order_key)
        lc = work.pop(lm)
        for k, (gs, gt) in enumerate(lms):
            if gs <= lm[0] and gt <= lm[1]:
                shift = (lm[0] - gs, lm[1] - gt)
                for (es, et), c in polys[k].terms.items():
                    m = (es + shift[0], et + shift[1])
                    if m == lm:
                        continue  # the monic leading term cancels lc exactly
                    v = work.get(m)
                    v = -(lc * c) if v is None else v - lc * c
                    if v:
                        work[m] = v
                    elif m in work:
                        del work[m]
                if cofs:
                    cofs = [c - h.mul_monomial(lc, shift) for c, h in zip(cofs, poly_cofs[k])]
                break
        else:
            remainder[lm] = lc
    return BiPoly(remainder, field, _clean=False), cofs


def _monic(p: BiPoly, cofs):
    inv = p.field.one / p.lc()
    return p.scale(inv), [c.scale(inv) for c in cofs]


def _buchberger(gens, cofs=()):
    """Reduced Groebner basis of the nonzero gens, ascending by LM.

    cofs is empty, or cofs[k] lists the cofactors of gens[k] over some fixed
    generators; returns (basis, cofactors of each basis element), the
    cofactor lists being empty when cofs is.
    """
    basis, basis_cofs = [], []
    for g, g_cofs in zip(gens, cofs or [()] * len(gens)):
        if not g.is_zero():
            g, g_cofs = _monic(g, g_cofs)
            basis.append(g)
            basis_cofs.append(g_cofs)
    lms = [g.lm() for g in basis]
    pairs = {(a, b) for b in range(len(basis)) for a in range(b)}
    while pairs:
        # normal selection: smallest lcm in the monomial order, then indices
        a, b = min(pairs, key=lambda ab: (order_key(mono_lcm(lms[ab[0]], lms[ab[1]])), ab))
        pairs.discard((a, b))
        la, lb = lms[a], lms[b]
        lcm = mono_lcm(la, lb)
        if lcm == mono_mul(la, lb):
            continue  # coprime leading monomials: S-polynomial reduces to zero
        one = basis[a].field.one
        ma, mb = mono_div(lcm, la), mono_div(lcm, lb)
        spoly = basis[a].mul_monomial(one, ma) - basis[b].mul_monomial(one, mb)
        sp_cofs = [
            ca.mul_monomial(one, ma) - cb.mul_monomial(one, mb)
            for ca, cb in zip(basis_cofs[a], basis_cofs[b])
        ]
        r, r_cofs = _divide(spoly, basis, lms, sp_cofs, basis_cofs)
        if r.is_zero():
            continue
        r, r_cofs = _monic(r, r_cofs)
        basis.append(r)
        basis_cofs.append(r_cofs)
        lms.append(r.lm())
        pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))
    # minimalize: drop elements whose LM is divisible by another's
    keep = [
        k
        for k, lm in enumerate(lms)
        if not any(
            mono_divides(h, lm) and (h != lm or m < k)
            for m, h in enumerate(lms)
            if m != k
        )
    ]
    # fully reduce each survivor against the others; its monic leading term
    # is divisible by no other LM, so it survives and stays leading
    reduced = []
    for k in keep:
        others = [m for m in keep if m != k]
        reduced.append(
            _divide(
                basis[k],
                [basis[m] for m in others],
                [lms[m] for m in others],
                basis_cofs[k],
                [basis_cofs[m] for m in others],
            )
        )
    reduced.sort(key=lambda r: order_key(r[0].lm()))
    return [r for r, _ in reduced], [c for _, c in reduced]


class GroebnerBasis:
    """A reduced basis, with cached leading monomials for fast division."""

    __slots__ = ("polys", "field", "params", "_lms")

    def __init__(self, polys, field, params=None):
        self.polys = tuple(polys)
        self.field = field
        self.params = params
        self._lms = tuple(g.lm() for g in self.polys)
        if any(g.terms[lm] != field.one for g, lm in zip(self.polys, self._lms)):
            raise ValueError("basis polynomials must be monic")

    def normal_form(self, p: BiPoly) -> BiPoly:
        """The unique remainder of p modulo the basis; zero iff p is in the ideal."""
        return _divide(p, self.polys, self._lms)[0]

    def contains(self, p: BiPoly) -> bool:
        return self.normal_form(p).is_zero()

    def is_trivial(self) -> bool:
        """True iff 1 is in the ideal, i.e. the basis is {1}."""
        return len(self.polys) == 1 and self.polys[0] == BiPoly.const(1, self.field)

    def quotient_basis(self):
        """Standard monomials of the quotient, ascending, or INFINITE.

        The quotient is finite-dimensional over the field exactly when some
        leading monomial is a pure power of s and some is a pure power of t.
        """
        if self.is_trivial():
            return []
        s_bound = None
        t_bound = None
        for es, et in self._lms:
            if et == 0:
                s_bound = es if s_bound is None else min(s_bound, es)
            if es == 0:
                t_bound = et if t_bound is None else min(t_bound, et)
        if s_bound is None or t_bound is None:
            return INFINITE
        monos = [
            (es, et)
            for es in range(s_bound)
            for et in range(t_bound)
            if not any(mono_divides(lm, (es, et)) for lm in self._lms)
        ]
        monos.sort(key=order_key)
        return monos

    def dimension(self):
        qb = self.quotient_basis()
        return INFINITE if qb is INFINITE else len(qb)

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.polys == other.polys and self.field == other.field

    def __hash__(self):
        return hash((self.polys, self.field))

    def __repr__(self):
        return "{" + ", ".join(g.text() for g in self.polys) + "}"


def buchberger(ideal_or_gens, field=None, params=None) -> GroebnerBasis:
    """Reduced Groebner basis of an Ideal or an iterable of polynomials."""
    if isinstance(ideal_or_gens, Ideal):
        gens = ideal_or_gens.generators
        field = ideal_or_gens.field
        params = ideal_or_gens.params
    else:
        gens = list(ideal_or_gens)
        if field is None:
            if not gens:
                raise ValueError("field required for an empty generator list")
            field = gens[0].field
    return GroebnerBasis(_buchberger(gens)[0], field, params)


def structure_basis(i: int, j: int, field=QQ) -> GroebnerBasis:
    return buchberger(build_ideal_I(i, j, field))


def buchberger_with_certificate(ideal: Ideal):
    """Reduced basis plus, per element, cofactors over the input generators.

    Returns (GroebnerBasis, certificates) where certificates[k] is a list of
    polynomials q_m with basis[k] = sum_m q_m * generators[m].  Lets a test
    confirm soundness (basis contained in the ideal) without trusting the
    engine that produced the basis.
    """
    field = ideal.field
    n = len(ideal.generators)
    units = [
        [BiPoly.const(int(m == k), field) for m in range(n)] for k in range(n)
    ]
    polys, certificates = _buchberger(ideal.generators, units)
    return GroebnerBasis(polys, field, ideal.params), certificates


class QuotientElem:
    """Normal-form representative in A[s,t]/I against a fixed basis."""

    __slots__ = ("poly", "ring")

    def __init__(self, poly: BiPoly, ring: "QuotientRing"):
        self.poly = poly
        self.ring = ring

    def __add__(self, other):
        other = self.ring.of(other)
        return QuotientElem(self.poly + other.poly, self.ring)

    __radd__ = __add__

    def __sub__(self, other):
        other = self.ring.of(other)
        return QuotientElem(self.poly - other.poly, self.ring)

    def __rsub__(self, other):
        return self.ring.of(other) - self

    def __neg__(self):
        return QuotientElem(-self.poly, self.ring)

    def __mul__(self, other):
        ring = self.ring
        if not isinstance(other, (QuotientElem, BiPoly)):
            return self._times_constant(ring.field.of(other))
        other = ring.of(other)
        a, b = self.poly.terms, other.poly.terms
        if not a or not b:
            return ring.zero
        # a constant times a normal form is a normal form: no product, no division
        if len(b) == 1 and (0, 0) in b:
            return self._times_constant(b[0, 0])
        if len(a) == 1 and (0, 0) in a:
            return other._times_constant(a[0, 0])
        return QuotientElem(ring.gb.normal_form(self.poly * other.poly), ring)

    __rmul__ = __mul__

    def _times_constant(self, c):
        if c == self.ring.field.one:
            return self
        return QuotientElem(self.poly.scale(c), self.ring)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, BiPoly)):
            other = self.ring.of(other)
        if not isinstance(other, QuotientElem):
            return NotImplemented
        return self.poly == other.poly and (
            self.ring is other.ring or self.ring.gb == other.ring.gb
        )

    def __hash__(self):
        return hash((self.poly, self.ring.gb))

    def __bool__(self):
        return not self.poly.is_zero()

    def __repr__(self):
        return self.poly.text()


class QuotientRing:
    """A[s,t]/I presented by a reduced Groebner basis; elements are normal forms."""

    __slots__ = ("gb", "field", "zero", "one")

    def __init__(self, gb: GroebnerBasis):
        self.gb = gb
        self.field = gb.field
        self.zero = QuotientElem(BiPoly.zero(self.field), self)
        self.one = QuotientElem(
            gb.normal_form(BiPoly.const(1, self.field)), self
        )

    def of(self, x) -> QuotientElem:
        if isinstance(x, QuotientElem):
            if x.ring is not self and x.ring.gb != self.gb:
                raise ValueError("element of a different quotient")
            return x
        if not isinstance(x, BiPoly):
            x = BiPoly.const(x, self.field)
        return QuotientElem(self.gb.normal_form(x), self)

    def s(self, e=1) -> QuotientElem:
        return self.of(BiPoly.s(self.field, e))

    def t(self, e=1) -> QuotientElem:
        return self.of(BiPoly.t(self.field, e))

    @property
    def name(self):
        return f"{self.field.name}[s,t]/I"

    def random_element(self, rng):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = self.field.random_element(rng)
        return self.of(BiPoly(terms, self.field))

    def __eq__(self, other):
        return isinstance(other, QuotientRing) and other.gb == self.gb

    def __hash__(self):
        return hash(("QuotientRing", self.gb))

    def __repr__(self):
        return self.name
