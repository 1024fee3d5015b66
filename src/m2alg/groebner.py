"""Groebner bases of ideals of A[s, t] over Q or GF(p), lex order t > s.

Purpose-built for the structure ideal

    I(i, j) = ( f(i+j), f(i+j-1) - s^(j-1), s^(i-j) - (-1)^(i-j) ),

defined for coprime i >= j (with the degenerate single generator (t) at
i = j = 1), whose quotient carries the whole algebra via 2x2 matrices.
``build_ideal_I`` returns these generators, which ``structure`` prints;
``structure_basis`` writes their reduced basis down in closed form from
two generators of half their t-degree, read off the closed form of the
powers of [[t, s], [1, 0]] (see its docstring), built on ints from
``sequences.f_coeffs``, and certifies it (``_certify``).  ``buchberger``
is the general engine and its referee: S-polynomials, multivariate division,
Gebauer and Moeller's pair update (the coprime and chain criteria applied
once, as each element is added, with elements whose leading monomial a
newer one divides retired from division), full inter-reduction and
deterministic pair selection (smallest lcm first), so identical inputs
always produce the identical reduced basis.

The kernel (``_buchberger``, ``_divide``) runs on plain numbers in
``{(e_s, e_t): c}`` dicts: over GF(p) ints reduced mod p, with inverses
from ``pow(c, -1, p)``; over Q ints, with a ``Fraction`` only where a
leading coefficient other than +-1 has to be divided out or a
``Fraction`` scalar comes in.  The structure ideals meet only leading
coefficients +-1 (the tests check every coprime pair with i <= 21), so
their bases are integral and monic and their division never leaves Z.
``_divide`` is the one division routine, behind Buchberger, ``_certify``,
normal forms and every product in L.  It needs no heap: it sweeps the
pending terms t-level by t-level from the top, and within a level by
s-exponent from the top, which is descending lex order, because every
term a division step adds is lex-smaller than the term it removes.  It
steps down one level, or one s-exponent, at a time, and jumps a gap with
``max`` only after as many misses as there are pending entries, so an f,
which fills every other t-level, costs no scan.  A divisor is a triple
(s-exponent, t-exponent, rest) of its monic leading monomial and the
rest, split once: ``_certify`` splits the structure basis and hands the
triples to the ``GroebnerBasis``, which holds them for every division in
its ring.  A reduced basis lists its divisors ascending by leading
monomial, so in a structure ring s^d - sigma comes first and folding
s^d = sigma is a one-term step.  ``_mul_into`` is the one product loop;
it leaves its sums unreduced, so a sum of products needs one division,
since the remainder is linear (Cox, Little and O'Shea, ch. 2 section 6).

A ``GroebnerBasis`` is also the ring L = A[s,t]/I it presents, and a
``QuotientElem`` (a ``SparsePoly`` that knows its basis) is a normal form
in it, held on kernel numbers as well: its sums, negations, scalings and
products never leave them.  Coefficients are converted to and from field
elements only at the ``BiPoly`` boundary: ``buchberger`` and
``structure_basis`` (the basis polynomials), ``GroebnerBasis.of`` of a
``BiPoly``, and ``QuotientElem.bipoly``, which ``text`` prints; a normal
form (``GroebnerBasis.normal_form``) goes in through the one and out
through the other.

The ring also owns the arithmetic of L[C] = L*C + L*I, C = [[t, s],
[1, 0]], on pairs (a, b) of elements standing for a*C + b*I, which
``model`` builds and checks the witness with and ``freealg``'s matrix model
reads powers of X from: ``s_power_f`` (s^e * f(n), folded by s^d = (-1)^d),
``pair_mul`` (a product of pairs, as C^2 = t*C + s*I) and ``times_C`` (the
C-step).  Each forms a coordinate on kernel numbers, summed unreduced, and
divides it once, so how an element of L is stored is this module's
decision alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import Inconsistency, UnsupportedParameters
from .fields import QQ, FpElem, PrimeField, RationalField, require_exponents
from .poly import BiPoly, SparsePoly, mono_divides, order_key
from .sequences import f_coeffs, f_st


class _Infinite:
    """Marker for an infinite-dimensional quotient."""

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


@dataclass(frozen=True)
class Ideal:
    """A finite generating set, remembering (i, j) when built structurally."""

    generators: tuple
    field: object
    params: tuple | None = None


def _oriented(i: int, j: int) -> tuple[int, int]:
    """(max, min) of a coprime pair of positive exponents."""
    require_exponents(i, j)
    if math.gcd(i, j) != 1:
        raise UnsupportedParameters(
            f"gcd({i}, {j}) != 1: no quotient description is available"
        )
    return max(i, j), min(i, j)


def build_ideal_I(i: int, j: int, field=QQ) -> Ideal:
    """The structure ideal for the presentation with exponents (i, j).

    Requires gcd(i, j) = 1; the pair is used in the orientation i >= j
    (the two orientations present the same ring).
    """
    i, j = _oriented(i, j)
    if i == j == 1:
        return Ideal((BiPoly.t(field),), field, (1, 1))
    gens = (
        f_st(i + j, field),
        f_st(i + j - 1, field) - BiPoly.s(field, j - 1),
        BiPoly.s(field, i - j) - BiPoly.const((-1) ** (i - j), field),
    )
    return Ideal(gens, field, (i, j))


def _modulus(field) -> int:
    """The kernel's coefficient modulus: p over GF(p), 0 (no reduction) over Q."""
    if isinstance(field, PrimeField):
        return field.p
    if isinstance(field, RationalField):
        return 0
    raise UnsupportedParameters(f"Groebner bases need Q or GF(p), not {field!r}")


def _numbers(p: BiPoly, mod: int) -> dict:
    """Kernel form of p: ints mod p over GF(p); ints, or non-integral Fractions, over Q."""
    if mod:
        return {m: c.value for m, c in p.terms.items()}
    return {m: c.numerator if c.denominator == 1 else c for m, c in p.terms.items()}


def _poly(nums: dict, field, mod: int) -> BiPoly:
    """The BiPoly over field of a kernel dict: FpElems over GF(p), Fractions over Q."""
    if mod:
        return BiPoly({m: FpElem(c, mod) for m, c in nums.items()}, field, _clean=False)
    return BiPoly({m: Fraction(c) for m, c in nums.items()}, field, _clean=False)


def _sub_shifted(acc: dict, h: dict, c, ds: int, dt: int, mod: int) -> None:
    """acc -= c * s^ds * t^dt * h, in place."""
    for (es, et), v in h.items():
        m = (es + ds, et + dt)
        w = acc.get(m, 0) - c * v
        if mod:
            w %= mod
        if w:
            acc[m] = w
        elif m in acc:
            del acc[m]


def _mul_into(out: dict, p: dict, q: dict) -> dict:
    """out += p * q on kernel dicts, unreduced (no mod, no division); returns out.

    Division is linear, so a sum of such products needs one ``_divide``.
    """
    get = out.get
    b = q.items()
    for (as_, at), ca in p.items():
        for (bs, bt), cb in b:
            m = (as_ + bs, at + bt)
            out[m] = get(m, 0) + ca * cb
    return out


def _scale(f: dict, c, mod: int) -> dict:
    """c * f; over Q an integral coefficient is stored as an int."""
    if mod:
        return {m: v * c % mod for m, v in f.items()}
    out = {}
    for m, v in f.items():
        v *= c
        out[m] = v.numerator if v.denominator == 1 else v
    return out


def _divisor(g: dict) -> tuple:
    """The nonzero kernel dict g as a divisor: (s-exponent, t-exponent, rest).

    The exponents are those of g's leading monomial, and the rest is g
    without its leading term, a dict.
    """
    gs, gt = lm = max(g, key=order_key)
    return gs, gt, {m: c for m, c in g.items() if m != lm}


def _spoly(a: tuple, b: tuple, mod: int) -> dict:
    """The S-polynomial of the monic divisors a and b; their leading terms cancel."""
    (as_, at, tail_a), (bs, bt, tail_b) = a, b
    ls, lt = max(as_, bs), max(at, bt)
    spoly = {}
    _sub_shifted(spoly, tail_a, -1, ls - as_, lt - at, mod)
    _sub_shifted(spoly, tail_b, 1, ls - bs, lt - bt, mod)
    return spoly


def _divide(p: dict, divisors, mod: int) -> dict:
    """Remainder of the kernel dict p on division by monic divisors.

    Over GF(p) the coefficients of p are reduced mod p here; zero
    coefficients are skipped.  Each divisor is a ``_divisor`` triple
    (s-exponent, t-exponent, rest) in kernel form, split once when it was
    made.

    The pending terms are swept in descending lex order (t > s): t-level
    by t-level from the top, and within a level by s-exponent from the
    top.  Each term is divided by the first divisor in list order whose
    leading monomial divides it.  Every term a step adds is lex-smaller
    than the one it removes, on a lower t-level or on the same level with
    a lower s-exponent, so the sweep never has to look back.  It steps
    down one level, or one s-exponent, at a time, from the highest level
    and from a bound on every pending s-exponent; after as many misses in
    a row as there are pending levels, or terms in the level, it jumps to
    the highest pending one with ``max``, so a gap in a sparse input costs
    at most twice the scan that jump makes.
    """
    rows = {}  # t-exponent -> {s-exponent: coefficient} of the pending terms
    lt = top = -1  # the highest level, and a bound on every pending s-exponent
    for (es, et), c in p.items():
        if mod:
            c %= mod
        if c:
            row = rows.get(et)
            if row is None:
                rows[et] = {es: c}
                if et > lt:
                    lt = et
            else:
                row[es] = c
            if es > top:
                top = es
    remainder = {}
    missed = 0
    while rows:
        row = rows.pop(lt, None)
        if row is None:
            missed += 1
            if missed > len(rows):
                lt = max(rows)  # a pending level: its pop resets missed
            else:
                lt -= 1
            continue
        missed = 0
        ls = top
        while row:
            lc = row.pop(ls, 0)
            if not lc:
                missed += 1
                if missed > len(row):
                    ls = max(row)  # a pending term: its pop resets missed
                else:
                    ls -= 1
                continue
            missed = 0
            for gs, gt, tail in divisors:
                if gs <= ls and gt <= lt:
                    ds, dt = ls - gs, lt - gt
                    # the monic leading term cancels lc exactly
                    for (es, et), c in tail.items():
                        es += ds
                        if et == gt:
                            level = row
                        else:
                            et += dt
                            level = rows.get(et)
                            if level is None:
                                rows[et] = {es: -lc * c % mod if mod else -lc * c}
                                if es > top:
                                    top = es
                                continue
                        v = level.get(es)
                        if v is None:
                            level[es] = -lc * c % mod if mod else -lc * c
                            if es > top:
                                top = es
                            continue
                        v -= lc * c
                        if mod:
                            v %= mod
                        if v:
                            level[es] = v
                        else:
                            del level[es]
                    break
            else:
                remainder[ls, lt] = lc
            ls -= 1
        lt -= 1
    return remainder


def _buchberger(gens, mod: int) -> list:
    """Reduced Groebner basis of the kernel dicts gens, ascending by LM.

    Zero generators are skipped.  Pairs are pruned once, as each element
    h is added, by Gebauer and Moeller's update (J. Symbolic Comput. 6,
    1988): criterion B drops an old pair whose lcm LM(h) divides unless h
    shares that lcm with one of its elements; of the new pairs, one with
    the lowest partner is kept per minimal lcm, and a whole lcm class is
    dropped if a pair in it has coprime leading monomials; an element
    whose LM is divisible by LM(h) is retired, and S-polynomials are
    divided by the active elements only.
    """
    basis, divisors = [], []
    active = []  # indices of the elements not retired, ascending
    pairs = []  # heap of (lcm key, a, b): smallest lcm first, then indices
    live = {}  # (a, b) -> lcm for the heap entries no criterion removed

    def add(f):
        lm = max(f, key=order_key)
        lc = f[lm]
        if lc != 1:
            # over Q a -1 is negated away: only other values make Fractions
            if mod:
                inv = pow(lc, -1, mod)
            elif lc == -1:
                inv = -1
            else:
                inv = 1 / Fraction(lc)
            f = _scale(f, inv, mod)
        hs, ht = lm
        # criterion B: LM(h) divides the lcm of (a, c), and neither (a, h)
        # nor (c, h) has that same lcm; in two variables that needs LM(h)
        # strictly below the lcm in both exponents, so < would test alike
        for (a, c), (ls, lt) in list(live.items()):
            if hs <= ls and ht <= lt:
                as_, at, _ = divisors[a]
                cs, ct, _ = divisors[c]
                if (max(as_, hs), max(at, ht)) != (ls, lt) != (max(cs, hs), max(ct, ht)):
                    del live[a, c]
        # the new pairs by lcm; a class with a coprime pair reduces to zero
        classes = {}
        for a in active:
            gs, gt, _ = divisors[a]
            lcm = (max(gs, hs), max(gt, ht))
            coprime = lcm == (gs + hs, gt + ht)
            if lcm in classes:
                classes[lcm][1] |= coprime
            else:
                classes[lcm] = [a, coprime]
        b = len(basis)
        for lcm, (a, coprime) in classes.items():
            if coprime or any(
                m != lcm and m[0] <= lcm[0] and m[1] <= lcm[1] for m in classes
            ):
                continue
            heapq.heappush(pairs, (lcm[1], lcm[0], a, b))
            live[a, b] = lcm
        active[:] = [a for a in active if not mono_divides(lm, divisors[a])]
        active.append(b)
        basis.append(f)
        divisors.append(_divisor(f))

    for g in gens:
        if g:
            add(g)
    while pairs:
        _, _, a, b = heapq.heappop(pairs)
        if live.pop((a, b), None) is None:
            continue  # removed by criterion B
        r = _divide(_spoly(divisors[a], divisors[b], mod), [divisors[k] for k in active], mod)
        if r:
            add(r)
    # minimalize: an input whose LM an earlier input's LM divides is still
    # active; no two active LMs are equal, since adding h retires an equal one
    keep = [
        k
        for k in active
        if not any(mono_divides(divisors[m], divisors[k]) for m in active if m != k)
    ]
    keep.sort(key=lambda k: order_key(divisors[k]))
    # fully reduce each survivor against the others; its monic leading term
    # is divisible by no other LM, so it survives and stays leading
    return [_divide(basis[k], [divisors[m] for m in keep if m != k], mod) for k in keep]


def _certify(basis, gens, mod: int) -> list:
    """Raise Inconsistency unless basis is a reduced Groebner basis holding gens.

    basis and gens are kernel dicts, basis ascending by leading monomial.
    Checked: each element is monic and the leading monomials ascend; no
    monomial but an element's own leading one is divisible by a leading
    monomial; Buchberger's criterion on each pair whose leading monomials
    are not coprime; each of gens reduces to 0.  The divisors it divides
    by are returned, so that the ring need not split basis again.
    """
    divisors = [_divisor(g) for g in basis]
    lms = [(gs, gt) for gs, gt, _ in divisors]
    pairs = [(a, b) for k, a in enumerate(divisors) for b in divisors[k + 1:]
             if min(a[0], b[0]) or min(a[1], b[1])]
    if (
        any(g[lm] != 1 for g, lm in zip(basis, lms))
        or any(order_key(a) >= order_key(b) for a, b in zip(lms, lms[1:]))
        or any(mono_divides(h, m) and (m, h) != (lm, lm)
               for g, lm in zip(basis, lms) for m in g for h in lms)
        or any(_divide(_spoly(a, b, mod), divisors, mod) for a, b in pairs)
        or any(_divide(g, divisors, mod) for g in gens)
    ):
        raise Inconsistency("the basis fails its certificate")
    return divisors


class GroebnerBasis:
    """A reduced basis over Q or GF(p), and the quotient ring L it presents.

    ``polys`` are the basis polynomials, ascending by leading monomial
    when ``structure_basis`` wrote them down in closed form or the
    ``buchberger`` referee computed them.  ``_divisors`` holds each one in
    kernel form as a ``_divisor`` triple (the exponents of its leading
    monomial and the rest), in the same order; it is what ``normal_form``
    and every product in L divide by, and it is split once, when the
    basis is made.

    The basis is also the ring L = A[s,t]/I: ``zero``, ``one``, ``of``,
    ``s``, ``t`` and ``name`` are the protocol ``Mat2`` reads, and its
    elements are ``QuotientElem``s, the normal forms on kernel numbers.
    ``_mod`` (p over GF(p), 0 over Q) and ``_number`` (a scalar as a
    kernel number) are the two hooks their ``SparsePoly`` arithmetic
    reads.  ``s_power_f``, ``pair_mul`` and ``times_C`` are the
    arithmetic of L[C] on pairs of elements (module doc); ``s_power_f``
    needs a structure basis.
    """

    __slots__ = ("polys", "field", "params", "zero", "one", "_mod", "_lms", "_divisors")

    def __init__(self, polys, field, params=None, divisors=None):
        """divisors, when given, are the monic polys as ``_divisor`` triples, in order."""
        self.polys = tuple(polys)
        self.field = field
        self.params = params
        self._mod = mod = _modulus(field)
        if divisors is None:
            numbers = [_numbers(g, mod) for g in self.polys]
            divisors = [_divisor(g) for g in numbers]
            if any(g[gs, gt] != 1 for g, (gs, gt, _) in zip(numbers, divisors)):
                raise ValueError("basis polynomials must be monic")
        self._divisors = tuple(divisors)
        self._lms = tuple((gs, gt) for gs, gt, _ in self._divisors)
        self.zero = QuotientElem({}, self, _clean=False)
        self.one = self.of(1)

    def normal_form(self, p: BiPoly) -> BiPoly:
        """The unique remainder of p modulo the basis; zero iff p is in the ideal."""
        return self.of(p).bipoly()

    def _element(self, nums: dict) -> QuotientElem:
        """The element of L represented by the kernel dict nums."""
        # _clean=False, passed by position: the hot path of every product
        return QuotientElem(_divide(nums, self._divisors, self._mod), self, False)

    def _number(self, c):
        """The scalar c as a kernel number: an int in [0, p) over GF(p).

        Over Q an int stays an int and any other scalar becomes a Fraction,
        integral or not.
        """
        mod = self._mod
        if mod:
            return c % mod if type(c) is int else self.field.of(c).value
        return c if type(c) is int or type(c) is Fraction else self.field.of(c)

    def multiply(self, p: QuotientElem, q: QuotientElem) -> QuotientElem:
        """The element p * q of L, for elements p and q of this ring.

        The product is formed on their kernel numbers and divided once; it
        is never built as a polynomial.
        """
        # _divide reduces mod p and skips cancelled (zero) terms
        return self._element(_mul_into({}, p.terms, q.terms))

    def s_power_f(self, e: int, n: int) -> QuotientElem:
        """s^e * f(n) in L, for a structure basis: ``_s_power_f``, divided once."""
        hi, lo = self.params
        return self._element(_s_power_f(e, n, hi - lo, self._mod))

    def pair_mul(self, x: tuple, y: tuple) -> tuple:
        """The pair of (a1*C + b1*I)(a2*C + b2*I) in L[C], for x = (a1, b1), y = (a2, b2).

        That is (a1*a2*t + a1*b2 + b1*a2, a1*a2*s + b1*b2), since
        C^2 = t*C + s*I; each coordinate is summed unreduced and divided once.
        """
        (a1, b1), (a2, b2) = (x[0].terms, x[1].terms), (y[0].terms, y[1].terms)
        aa = _mul_into({}, a1, a2)
        alpha = {(es, et + 1): c for (es, et), c in aa.items()}
        beta = {(es + 1, et): c for (es, et), c in aa.items()}
        if x is y:
            _mul_into(alpha, {m: 2 * c for m, c in a1.items()}, b1)
        else:
            _mul_into(_mul_into(alpha, a1, b2), b1, a2)
        _mul_into(beta, b1, b2)
        return self._element(alpha), self._element(beta)

    def times_C(self, x: tuple) -> tuple:
        """The pair of C*(a*C + b*I) = (a*t + b)*C + a*s*I in L[C], for x = (a, b).

        It is also the top row of a*C + b*I.  a, a normal form, is shifted by
        t and by s, and each coordinate is divided once: no product in L.
        """
        a, b = x[0].terms, x[1].terms
        alpha = {(es, et + 1): c for (es, et), c in a.items()}
        for m, c in b.items():
            alpha[m] = alpha.get(m, 0) + c
        return self._element(alpha), self._element({(es + 1, et): c for (es, et), c in a.items()})

    def of(self, x) -> QuotientElem:
        """x in L: an element of this ring, a BiPoly or a scalar."""
        if isinstance(x, QuotientElem):
            if x.ring is not self and x.ring != self:
                raise ValueError("element of a different quotient")
            return x
        if isinstance(x, BiPoly):
            return self._element(_numbers(x, self._mod))
        c = self._number(x)
        # a nonzero constant is a normal form unless the basis is {1}
        if not c or (0, 0) in self._lms:
            return self.zero
        return QuotientElem({(0, 0): c}, self, _clean=False)

    def s(self, e=1) -> QuotientElem:
        return self._element({(e, 0): 1})

    def t(self, e=1) -> QuotientElem:
        return self._element({(0, e): 1})

    @property
    def name(self):
        return f"{self.field.name}[s,t]/I"

    def is_trivial(self) -> bool:
        """True iff 1 is in the ideal, i.e. the basis is {1}."""
        return len(self.polys) == 1 and self.polys[0] == BiPoly.const(1, self.field)

    def _columns(self):
        """Heights of the staircase's columns, or None for an infinite quotient.

        The quotient is finite-dimensional over the field exactly when some
        leading monomial is a pure power of s and some is a pure power of t.
        Column e_s, for e_s below the least pure power of s, holds the t^e_t
        with e_t below the least t-exponent of a leading monomial whose
        s-exponent is at most e_s.
        """
        low = {}  # s-exponent -> least t-exponent of a leading monomial
        for es, et in self._lms:
            low[es] = min(et, low.get(es, et))
        s_bound = min((es for es, et in low.items() if not et), default=None)
        if s_bound is None or 0 not in low:
            return None
        heights, h = [], low[0]
        for es in range(s_bound):
            h = min(h, low.get(es, h))
            heights.append(h)
        return heights

    def quotient_basis(self):
        """Standard monomials of the quotient, ascending, or INFINITE."""
        heights = self._columns()
        if heights is None:
            return INFINITE
        return sorted(
            ((es, et) for es, h in enumerate(heights) for et in range(h)), key=order_key
        )

    def dimension(self):
        """The quotient's dimension over the field, or INFINITE, from the column heights."""
        heights = self._columns()
        return INFINITE if heights is None else sum(heights)

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.field == other.field and self.polys == other.polys

    def __hash__(self):
        return hash((self.polys, self.field))

    def __repr__(self):
        return "{" + ", ".join(g.text() for g in self.polys) + "}"


def buchberger(ideal_or_gens, field=None) -> GroebnerBasis:
    """Reduced Groebner basis of an Ideal, or of an iterable of polynomials over field."""
    gens, params = ideal_or_gens, None
    if isinstance(ideal_or_gens, Ideal):
        gens, field, params = gens.generators, gens.field, gens.params
    mod = _modulus(field)
    nums = _buchberger([_numbers(g, mod) for g in gens], mod)
    return GroebnerBasis(
        [_poly(g, field, mod) for g in nums], field, params, [_divisor(g) for g in nums]
    )


def _s_power_f(e: int, n: int, d: int, mod: int) -> dict:
    """Kernel form of s^e * f(n) modulo s^d - (-1)^d, for d >= 0.

    For d >= 1 every s-exponent is folded into [0, d) by s^d = (-1)^d, so e
    and n may be negative: s is a unit modulo s^d - (-1)^d, and f extends
    to negative indices by f(-k) = -(-s)^(-k) * f(k), which keeps
    f(n) = t*f(n-1) + s*f(n-2), so s^e * f(-k) = -(-1)^k * s^(e-k) * f(k).
    For d = 0 nothing is folded, and the s-exponent e + n when n < 0, or e
    otherwise, must be >= 0.
    """
    flip = 0  # 1 when the sign -(-1)^k of f(-k) is -1
    if n < 0:
        e, n = e + n, -n
        flip = 1 - n % 2
    out = {}
    for k, c in enumerate(f_coeffs(n)):
        q, r = divmod(e + k, d) if d else (0, e + k)
        # distinct k have distinct t-exponents, so no two terms meet
        c = -c if (d * q + flip) % 2 else c
        if mod:
            c %= mod
        if c:
            out[r, n - 1 - 2 * k] = c
    return out


def structure_basis(i: int, j: int, field=QQ) -> GroebnerBasis:
    """The reduced basis of I(i, j), in closed form.

    With C = [[t, s], [1, 0]], C^k = [[f(k+1), s*f(k)], [f(k), s*f(k-1)]]
    and det C = -s.  For i > j let n = i + j, d = i - j and
    sigma = (-1)^d.  The generators f(n) and f(n-1) - s^(j-1) say
    C^(n-1) e1 = s^(j-1) e2.  Modulo s^d - sigma, s is a unit with
    s^(-1) = sigma*s^(d-1), so C is invertible, and with q = (n-1)//2 and
    p = n-1-q the same equation reads C^p e1 = s^(j-1) C^(-q) e2, where
    C^(-q) = (-s)^(-q) adj(C^q).  Entry by entry:

        g1 = f(p+1) + (-1)^q s^(j-q) f(q),
        g2 = f(p) - (-1)^q s^(j-1-q) f(q+1),

    and (g1, g2, s^d - sigma) = I(i, j), since each step is invertible.
    They are built on ints, each s-exponent folded into [0, d).  The
    reduced basis is {s^d - sigma, g1} for odd n, and {s^d - 1,
    -(-1)^q g2, g1 reduced by these two} for even n; (1, 1) has the one
    generator t.  It is certified at construction (``_certify``) instead
    of computed by Buchberger, and equals buchberger(build_ideal_I(i, j,
    field)), since a reduced basis is unique.
    """
    i, j = _oriented(i, j)
    mod = _modulus(field)
    if i == j:
        return GroebnerBasis([BiPoly.t(field)], field, (1, 1))
    n, d = i + j, i - j
    q = (n - 1) // 2
    p = n - 1 - q
    sign = -1 if q % 2 else 1
    g1 = _s_power_f(0, p + 1, d, mod)
    _sub_shifted(g1, _s_power_f(j - q, q, d, mod), -sign, 0, 0, mod)
    # -(-1)^q * g2: for even n its leading term is s^(d/2) t^(n/2-1) of
    # s^(j-1-q) f(q+1), with coefficient 1, since an even d flips no sign
    g2 = _s_power_f(j - 1 - q, q + 1, d, mod)
    _sub_shifted(g2, _s_power_f(0, p, d, mod), sign, 0, 0, mod)
    unit = {(d, 0): 1}
    _sub_shifted(unit, {(0, 0): 1}, (-1) ** d, 0, 0, mod)  # s^d - sigma
    # rest: the generator that is not a basis element
    if n % 2:
        nums, rest = [unit, g1], g2
    else:
        # g1's leading term t^(n/2) is divisible by neither divisor, so the
        # remainder keeps it and is monic
        nums, rest = [unit, g2, _divide(g1, [_divisor(unit), _divisor(g2)], mod)], g1
    divisors = _certify(nums, [rest], mod)
    return GroebnerBasis([_poly(g, field, mod) for g in nums], field, (i, j), divisors)


class QuotientElem(SparsePoly):
    """An element of L = A[s,t]/I: a normal form against ``ring``, its basis.

    A ``SparsePoly`` on (e_s, e_t) monomials whose coefficients are the
    kernel's numbers.  Over GF(p) they are ints in [0, p).  Over Q they
    are ints, with a ``Fraction`` only where one came in: a non-integral
    ``BiPoly`` coefficient, or a ``Fraction`` scalar, which stays a
    ``Fraction`` even when it is integral (it equals and hashes like its
    int).  Arithmetic on int-valued elements stays on ints.

    Its +, -, negation, ``**``, ``scale`` and hash are ``SparsePoly``'s,
    through the ``_mod`` and ``_scalar`` hooks, which it reads from its
    ring.  It equals only an element of the same ring with the same terms.
    A product with a zero or constant operand skips the product and the
    division; any other product is formed and reduced on kernel numbers by
    ``GroebnerBasis.multiply``.  ``bipoly`` (behind ``text``) is the
    element as a ``BiPoly`` over the field.

    ``QuotientElem(terms, ring)`` takes any coefficients the ring's scalars
    take and any monomials: it reduces them mod p and divides by the basis,
    like ``ring._element``.  Only ``_clean=False`` trusts terms to be a
    normal form on kernel numbers already.
    """

    __slots__ = ("ring",)

    def __init__(self, terms: dict, ring: GroebnerBasis, _clean=True):
        if _clean:
            terms = ring._element({m: ring._number(c) for m, c in terms.items()}).terms
        self.terms = terms
        self.field = ring.field
        self.ring = ring

    @property
    def _mod(self):
        return self.ring._mod

    def _scalar(self, c):
        return self.ring._number(c)

    def _new(self, terms):
        return QuotientElem(terms, self.ring, _clean=False)

    def _coerce(self, other):
        return self.ring.of(other)

    def __mul__(self, other):
        ring = self.ring
        if not isinstance(other, (QuotientElem, BiPoly)):
            c, other = ring._number(other), self
        else:
            other = ring.of(other)
            a, b = self.terms, other.terms
            if not a or not b:
                return ring.zero
            # a constant times a normal form is a normal form: no product, no division
            if len(b) == 1 and (0, 0) in b:
                c, other = b[0, 0], self
            elif len(a) == 1 and (0, 0) in a:
                c = a[0, 0]
            else:
                return ring.multiply(self, other)
        return other if c == 1 else other.scale(c)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not QuotientElem:
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) and self.terms == other.terms

    # defining __eq__ clears the inherited hash; equal elements have equal terms
    __hash__ = SparsePoly.__hash__

    def bipoly(self) -> BiPoly:
        """This element as a BiPoly over the field: its normal form."""
        return _poly(self.terms, self.field, self.ring._mod)

    def text(self) -> str:
        return self.bipoly().text()
