"""Words and noncommutative polynomials in x, y, with their normal forms.

Words are run-length tuples, and ``NCPoly`` is a ``poly.SparsePoly`` whose
monomials are words, multiplied by concatenation.

The relations x^i y + y x^j = 1 and y^2 = 0 (gcd(i, j) = 1) yield a
reduction system:

* ``y^2 -> 0`` always;
* ``y x -> P(x) + Q(x) y`` (for i > j this comes from the derived commuting
  rule for y past x; for i = j = 1 it is simply ``y x -> 1 - x y``);
* for i > j, the alternating x-power relation with N = (i+j-1)(i-j),
  ``x^N -> x^(N-(i-j)) - x^(N-2(i-j)) + ...``, which keeps x-runs inside
  the finite spanning set {x^a, x^a y : a < N}.

``reduce`` finds normal forms in one walk over the spanning words x^a and
x^a y: each word acts run by run on a sparse vector of them, starting
from the empty word.  A y sends x^a to x^a y and kills x^a y; an x-run
x^e shifts x^a and pushes x^a y past x^e in closed form, with at most
(i+j)/2 + 1 terms, by the push-through identities for y x^(jn) and
y x^(in) (x^(i+j) is central).  For i > j, x is a unit with
x^(i^2-j^2) = (-1)^(i+j), so exponents are folded after every run, and
the algebra is M_2(L) with dim L = N/2: the 2N spanning words with a < N
are a basis.  The walk's constants are plain ints, computed once per rule
set, and serve every field.  The heap-driven rewriting engine
``_rewrite`` applies the rules in one fixed order; it only audits
``reduce``.

Equality in the presented ring is *decided* through the faithful matrix
model over A[s,t]/I (``matrix_model(i, j, field).image``), never through
the rewrite system alone; the model shares no code with the walk.
``certify_normal_forms`` proves that normal forms are unique, so every
reduction order ends at the same one: for i > j by the matrix units and
a dimension count in the model, at (1, 1) by Bergman's diamond lemma,
whose one overlap y y x must resolve.  ``validate_system`` audits
soundness on a word corpus as a second, empirical route, and compares
``reduce`` with ``_rewrite``.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field as dc_field

from .errors import Inconsistency
from .fields import QQ
from .groebner import _oriented, structure_basis
from .mat2 import Mat2
from .model import witness_XY, x_power
from .poly import SparsePoly, _join_terms, _parse_terms, _term_text


class RewriteFuelExhausted(RuntimeError):
    """A reduction exceeded its step budget (possible nontermination)."""


# one shared tuple per short run, so that stored words hold pointers to
# these instead of a fresh pair per run
_RUNS = {(letter, e): (letter, e) for letter in "xy" for e in range(1, 65)}


class Word:
    """A word in x and y, stored as alternating run-length pairs."""

    __slots__ = ("runs",)

    def __init__(self, runs=()):
        merged: list[tuple[str, int]] = []
        for letter, e in runs:
            if letter not in ("x", "y"):
                raise ValueError(f"unknown letter {letter!r}")
            if type(e) is not int:
                raise TypeError(f"exponent {e!r} is not an int")
            if e < 0:
                raise ValueError("negative exponent in word")
            if e == 0:
                continue
            if merged and merged[-1][0] == letter:
                merged[-1] = (letter, merged[-1][1] + e)
            else:
                merged.append((letter, e))
        self.runs = tuple([_RUNS.get(run, run) for run in merged])

    @classmethod
    def one(cls):
        return cls(())

    @classmethod
    def gen(cls, letter: str, e: int = 1):
        return cls(((letter, e),))

    @classmethod
    def from_letters(cls, letters: str):
        return cls((ch, 1) for ch in letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.runs + other.runs)

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.runs)

    def key(self):
        """Sort key for the degree-lexicographic order with x < y.

        Read off the runs, never the letter string: among words of one
        degree, a longer leading x-run sorts lower and a longer leading
        y-run higher, so an x-run keys on -e and a y-run on e (runs
        alternate, so the signs also carry the letters).
        """
        return (self.degree, *[-e if l == "x" else e for l, e in self.runs])

    def rewrite_measure(self):
        """(y-count, per-y count of x's to its right, degree).

        Under the one reduction order (``_step``) every rewrite replaces a
        word by words that are strictly smaller in this lexicographic
        measure, so processing words in decreasing measure order terminates
        and visits each distinct word at most once.
        """
        ycount = 0
        xs_right = 0
        rvec_rev = []
        for letter, e in reversed(self.runs):
            if letter == "x":
                xs_right += e
            else:
                ycount += e
                rvec_rev.extend([xs_right] * e)
        return (ycount, tuple(reversed(rvec_rev)), self.degree)

    def is_one(self) -> bool:
        return not self.runs

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.runs == other.runs

    def __hash__(self):
        return hash(self.runs)

    def text(self) -> str:
        if not self.runs:
            return "1"
        return "*".join(
            letter if e == 1 else f"{letter}^{e}" for letter, e in self.runs
        )

    def __repr__(self):
        return self.text()


class NCPoly(SparsePoly):
    """Formal linear combination of words over a coefficient field."""

    __slots__ = ()

    _mono_mul = staticmethod(Word.__mul__)

    @classmethod
    def of_word(cls, w: Word, field, coeff=1):
        if isinstance(coeff, int):
            coeff = field.one if coeff == 1 else field.of(coeff)
        return cls({w: coeff} if coeff else {}, field, _clean=False)

    @classmethod
    def one(cls, field):
        return cls.of_word(Word.one(), field)

    @classmethod
    def x(cls, field, e: int = 1):
        return cls.of_word(Word.gen("x", e), field)

    @classmethod
    def y(cls, field, e: int = 1):
        return cls.of_word(Word.gen("y", e), field)

    def _coerce(self, other):
        if isinstance(other, NCPoly):
            return other
        if isinstance(other, Word):
            return NCPoly.of_word(other, self.field)
        return NCPoly.of_word(Word.one(), self.field, self.field.of(other))

    def lmul_word(self, w: Word):
        return self._new({w * u: c for u, c in self.terms.items()})

    def rmul_word(self, w: Word):
        return self._new({u * w: c for u, c in self.terms.items()})

    def text(self) -> str:
        pieces = []
        for w in sorted(self.terms, key=Word.key, reverse=True):
            mono = "" if w.is_one() else w.text()
            pieces.append(_term_text(self.field, self.terms[w], mono))
        return _join_terms(pieces)


def parse_word_expr(text: str, field=QQ) -> NCPoly:
    """Parse expressions like ``x^2*y + y*x - 1`` (order of factors matters)."""
    result = NCPoly.zero(field)
    for coeff, factors in _parse_terms(text, field, ("x", "y")):
        result = result + NCPoly.of_word(Word(factors), field, coeff)
    return result


@dataclass(frozen=True)
class RewriteSystem:
    """Reduction rules for the presentation with exponents (i, j), i >= j.

    ``yx_rhs`` and ``xpow`` hold field values.  For i > j, ``basis`` lists
    the spanning basis x^0..x^(N-1), then x^0 y..x^(N-1) y (index a is
    x^a, index N + a is x^a y); it is None at i = j = 1.  ``walk`` holds
    the plain-int constants of ``reduce``'s walk, which serve every field:
    (s, j^-1 mod s, j, d, M, N, flip, x^N's rule) with s = i + j,
    d = i - j, M = s d = i^2 - j^2 and N = (s-1) d; flip says that
    x^M = (-1)^s is -1, and x^N's rule holds (exponent, sign) pairs.  At
    (1, 1), M = N = 0: nothing folds.
    """

    i: int
    j: int
    field: object
    yx_rhs: NCPoly
    xpow: tuple | None  # (N, NCPoly replacement for x^N), None at i = j = 1
    basis: tuple | None = dc_field(default=None, compare=False, repr=False)
    walk: tuple | None = dc_field(default=None, compare=False, repr=False)


def build_rewrite_system(i: int, j: int, field=QQ) -> RewriteSystem:
    """Assemble the reduction rules for coprime (i, j).

    For i > j the y-past-x rule is ``reduce``'s push at e = 1: with s = i+j
    and n = j^-1 mod s (or n - s, when that is shorter), y x = (-1)^n
    x^(1+n(i-j)) y plus n alternating x-powers, folded onto the basis.  It
    is walked on ints, so the build does no field arithmetic.  At (1, 1)
    the rule is y x -> 1 - x y, the one the diamond lemma certifies.
    """
    i, j = _oriented(i, j)
    s, d = i + j, i - j
    N = (s - 1) * d
    # the alternating x-power relation x^N = x^(N-d) - x^(N-2d) + ... -+ 1
    xrule = tuple(((s - 1 - k) * d, (-1) ** (k + 1)) for k in range(1, s))
    walk = (s, pow(j, -1, s), j, d, s * d, N, s % 2 == 1, xrule)
    if i == j:  # necessarily (1, 1)
        rhs = NCPoly.one(field) - NCPoly.x(field) * NCPoly.y(field)
        rs = RewriteSystem(1, 1, field, rhs, None, walk=walk)
    else:
        basis = _spanning_words(N)
        xs, ys = _walk(((Word.from_letters("yx"), 1),), walk)
        yx = {basis[a]: c for a, c in xs.items()}
        yx.update((basis[N + a], c) for a, c in ys.items())
        yx_rhs = NCPoly({u: field.of(c) for u, c in yx.items()}, field)
        xpow = (N, NCPoly({basis[b]: field.of(c) for b, c in xrule}, field))
        rs = RewriteSystem(i, j, field, yx_rhs, xpow, basis, walk)
    _build_sanity_check(rs)
    return rs


def _spanning_words(N: int) -> tuple:
    """x^0..x^(N-1), then x^0 y..x^(N-1) y: for i > j, the words no rule rewrites."""
    return tuple(Word((("x", a), ("y", h))) for h in (0, 1) for a in range(N))


def _unit_words(hi: int, lo: int) -> dict:
    """y x^lo, y, x^hi y x^lo and x^hi y, keyed by the units e11..e22 they map to."""
    y, xh, xl = ("y", 1), ("x", hi), ("x", lo)
    words = ((y, xl), (y,), (xh, y, xl), (xh, y))
    return dict(zip(itertools.product((1, 2), repeat=2), map(Word, words)))


def _build_sanity_check(rs: RewriteSystem):
    """Both defining relations must reduce to 1 under the fresh rules.

    For i > j, also x^N's right-hand side times x^(i-j) must reduce to
    (-1)^(i+j).  Its exponents stay below M = i^2 - j^2, so no fold is
    involved, and it shows that x^M - (-1)^(i+j) lies in the ideal of the
    rules.  ``reduce`` folds with that identity, so once
    ``certify_normal_forms`` holds folding cannot change a normal form.
    """
    field = rs.field
    y = NCPoly.y(field)
    ok = all(
        reduce(NCPoly.x(field, a) * y + y * NCPoly.x(field, b), rs) == NCPoly.one(field)
        for a, b in ((rs.i, rs.j), (rs.j, rs.i))
    )
    if ok and rs.xpow is not None:
        sigma = NCPoly.one(field).scale((-1) ** (rs.i + rs.j))
        ok = reduce(rs.xpow[1] * NCPoly.x(field, rs.i - rs.j), rs) == sigma
    if not ok:
        raise Inconsistency(f"rule construction broken for (i, j) = ({rs.i}, {rs.j})")


REWRITE_FUEL = 500_000  # rewrite steps before _rewrite gives up


def _step(word: Word, rs: RewriteSystem) -> NCPoly | None:
    """One rewrite of word in the fixed order, or None if word is normal.

    The order: a y^2 anywhere (the word is zero), else the leftmost y-x
    adjacency, else the leftmost x-run with exponent >= N.
    """
    runs = word.runs
    if any(letter == "y" and e >= 2 for letter, e in runs):
        return NCPoly.zero(rs.field)
    for idx, (letter, _) in enumerate(runs[:-1]):
        if letter == "y":  # runs alternate, so an x-run follows
            left = Word(runs[:idx])
            right = Word((("x", runs[idx + 1][1] - 1),) + runs[idx + 2 :])
            return rs.yx_rhs.lmul_word(left).rmul_word(right)
    if rs.xpow is not None:
        N, xrhs = rs.xpow
        for idx, (letter, e) in enumerate(runs):
            if letter == "x" and e >= N:
                left = Word(runs[:idx] + (("x", e - N),))
                right = Word(runs[idx + 1 :])
                return xrhs.lmul_word(left).rmul_word(right)
    return None


def reduce(p: NCPoly, rs: RewriteSystem) -> NCPoly:
    """Normal form of p: the combination of spanning words equal to it.

    Each word is walked over the spanning words x^a and x^a y, run by run,
    starting from the empty word (``_walk``); a term whose word contains
    y^2 is dropped first.  An x-run costs at most (i+j)/2 + 1 shifts of
    the current vector, whatever its length.  Normal forms are unique
    (``certify_normal_forms``), so this equals what any terminating
    reduction order gives, ``_rewrite``'s included.
    """
    xs, ys = _walk(p.terms.items(), rs.walk)
    basis, N = rs.basis, rs.walk[5]
    terms = {}
    for h, vec in enumerate((xs, ys)):
        for a, v in vec.items():
            terms[basis[h * N + a] if basis else Word((("x", a), ("y", h)))] = v
    return NCPoly(terms, p.field, _clean=False)


def _walk(terms, walk) -> tuple:
    """The normal form of the sum of c * w over (w, c) in terms.

    Returns (xs, ys), the coefficients of x^a and of x^a y by exponent a.
    The coefficients are only added and negated, so ints serve as well as
    field values.  With the constants of ``RewriteSystem.walk``:

    * a y sends x^a to x^a y and kills x^a y;
    * an x-run x^e sends x^a to x^(a+e), and pushes x^a y past it.  With
      n = e j^-1 mod s, e - jn is a multiple of s and x^s is central, so
      the push-through identity for y x^(jn) gives y x^e = (-1)^n
      x^(e+nd) y + sum_{0<=k<n} (-1)^k x^(e-j+kd).  When n > s - n, the
      identity for y x^(i(s-n)) is shorter; it is the same formula with
      n - s in place of n, the sum running over n-s <= k < 0 with signs
      -(-1)^k.  At (1, 1), s = 2 and d = 0: an even run commutes with y,
      and an odd one sends x^a y to x^(a+e-1) - x^(a+e) y.
    * for i > j, x is a unit with x^M = (-1)^s, so after every run each
      exponent is folded into [0, M), and at the end each x^r with
      N <= r < M is expanded once by x^N's rule.
    """
    s, jinv, j, d, M, N, flip, xrule = walk
    xs_total: dict = {}
    ys_total: dict = {}
    for w, c in terms:
        runs = w.runs
        if any(letter == "y" and e > 1 for letter, e in runs):
            continue
        xs, ys = {0: c}, {}
        for letter, e in runs:
            if letter == "y":
                xs, ys = {}, xs
                continue
            new_xs: dict = {}
            if xs:
                _shift_into(new_xs, xs, ((e, 1),), M, flip)
            if ys:
                n = e * jinv % s
                if 2 * n > s:
                    n -= s
                lead = 1 if n >= 0 else -1
                ks = range(min(n, 0), max(n, 0))
                pushed = [(e - j + k * d, -lead if k & 1 else lead) for k in ks]
                _shift_into(new_xs, ys, pushed, M, flip)
                new_ys: dict = {}
                _shift_into(new_ys, ys, ((e + n * d, -1 if n & 1 else 1),), M, flip)
                ys = new_ys
            xs = new_xs
        if xs_total or ys_total:
            _shift_into(xs_total, xs, ((0, 1),), M, flip)
            _shift_into(ys_total, ys, ((0, 1),), M, flip)
        else:  # the first word's vectors serve as the totals
            xs_total, ys_total = xs, ys
    for vec in (xs_total, ys_total) if M else ():
        if vec and max(vec) >= N:
            high = {r - N: vec.pop(r) for r in [r for r in vec if r >= N]}
            _shift_into(vec, high, xrule, 0, flip)  # exponents stay below N
    return xs_total, ys_total


def _shift_into(out: dict, vec: dict, shifts, M: int, flip: bool):
    """out += the sum of sign * vec * x^shift over (shift, sign) in shifts.

    Exponents are folded into [0, M) if M > 0; vec's exponents then lie in
    [0, M), and x^M is -1 when flip, else 1.  A sum that cancels is
    deleted, so no stored coefficient is ever zero.
    """
    for shift, sign in shifts:
        if M:
            q, shift = divmod(shift, M)
            if flip and q & 1:
                sign = -sign
        for a, v in vec.items():
            a += shift
            if 0 < M <= a:
                a -= M
                if flip:
                    v = -v
            if sign < 0:
                v = -v
            u = out.get(a)
            if u is None:
                out[a] = v
            else:
                u += v
                if u:
                    out[a] = u
                else:
                    del out[a]


def _rewrite(p: NCPoly, rs: RewriteSystem) -> NCPoly:
    """Rewrite to normal form (no subword matches any rule).

    The audit route: ``validate_system`` compares it with ``reduce``, and
    ``certify_normal_forms`` resolves the (1, 1) overlap with it.  The
    whole combination is rewritten at once, largest word first, so
    coefficients of coinciding intermediate words merge (and cancel)
    immediately.  Every step of the one reduction order (``_step``)
    decreases the measure (y-count, inter-run x-exponent vector, degree)
    lexicographically, so rewriting always terminates.  Yet a word such
    as y x^n at (1, 1) takes n steps, so more than REWRITE_FUEL steps
    raise RewriteFuelExhausted.
    """
    field = p.field

    def neg_key(w):
        ycount, rvec, degree = w.rewrite_measure()
        return (-ycount, tuple(-v for v in rvec), -degree)

    counter = itertools.count()
    work = dict(p.terms)
    heap = [(neg_key(w), next(counter), w) for w in work]
    heapq.heapify(heap)
    normal: dict = {}
    steps = 0
    while heap:
        _, _, w = heapq.heappop(heap)
        c = work.pop(w, None)
        if c is None:
            continue  # stale heap entry
        repl = _step(w, rs)
        if repl is None:
            v = normal.get(w)
            v = c if v is None else v + c
            if v:
                normal[w] = v
            elif w in normal:
                del normal[w]
            continue
        steps += 1
        if steps > REWRITE_FUEL:
            raise RewriteFuelExhausted(f"no normal form within {REWRITE_FUEL} steps")
        for w2, c2 in repl.terms.items():
            v = work.get(w2)
            if v is None:
                work[w2] = c2 * c
                heapq.heappush(heap, (neg_key(w2), next(counter), w2))
            else:
                v = v + c2 * c
                if v:
                    work[w2] = v
                else:
                    del work[w2]
    return NCPoly(normal, field)


class MatrixModel:
    """Evaluation of words at the witness matrices over L = A[s,t]/I.

    ``ring`` is L, the structure basis of (i, j) (a ``GroebnerBasis``), and
    ``pair`` the witness pair over it.  The represented algebra is
    isomorphic to the full 2x2 matrix algebra over L, so equality of images
    decides equality in the presented ring.

    Y is the matrix unit e12, which is checked once at construction, so
    e12 M e12 = M_21 e12 for every M.  A word x^a0 y x^a1 y ... y x^ak with
    single y's therefore maps to c * col_1(X^a0) (x) row_2(X^ak), with
    c = (X^a1)_21 ... (X^a(k-1))_21 and a missing first or last x-run read
    as X^0 = I: at most k + 4 products in L instead of a matrix product
    per run.  A word containing y^2 maps to zero.  The model uses only X,
    Y and their powers X^e = s^m * C^u (``model.x_power``, no matrix
    product), never the rewrite rules.
    """

    def __init__(self, i: int, j: int, field=QQ):
        self.i = i
        self.j = j
        self.field = field
        self.ring = structure_basis(i, j, field)
        self.pair = witness_XY(i, j, field, gb=self.ring)
        if self.pair.Y != Mat2.e12(self.ring):
            raise Inconsistency(f"Y is not the matrix unit e12 for (i, j) = ({i}, {j})")
        self.zero_mat = Mat2.zero(self.ring)
        # witness_XY has checked X^lo = C and X^hi = s C^(-1), so X^(i+j) = s I
        # and X^(i^2 - j^2) = s^d I with d = |i - j|; once s^d = (-1)^d in L,
        # X^e is cached under e mod 2(i^2 - j^2).  At (1, 1) X has infinite
        # order and nothing is cached
        d = abs(i - j)
        if self.ring.s(d) != self.ring.of((-1) ** d):
            raise Inconsistency(f"s^{d} is not {(-1) ** d} in L for (i, j) = ({i}, {j})")
        self._cycle = 2 * d * (i + j) or None
        self._xpow: dict = {}

    def xpow(self, e: int) -> Mat2:
        if self._cycle is None:
            return x_power(self.ring, e)
        e %= self._cycle
        power = self._xpow.get(e)
        if power is None:
            power = self._xpow[e] = x_power(self.ring, e)
        return power

    def word_matrix(self, w: Word) -> Mat2:
        # the x-exponents around the y's, a missing run counting as 0
        xs = [0]
        for letter, e in w.runs:
            if letter == "x":
                xs[-1] = e
            elif e >= 2:
                return self.zero_mat
            else:
                xs.append(0)
        if len(xs) == 1:
            return self.xpow(xs[0])
        c = None
        for e in xs[1:-1]:
            entry = self.xpow(e).c
            c = entry if c is None else c * entry
            if not c:
                return self.zero_mat
        first, last = self.xpow(xs[0]), self.xpow(xs[-1])
        col = (first.a, first.c) if c is None else (c * first.a, c * first.c)
        return Mat2(
            self.ring,
            col[0] * last.c,
            col[0] * last.d,
            col[1] * last.c,
            col[1] * last.d,
        )

    def image(self, p) -> Mat2:
        if isinstance(p, Word):
            return self.word_matrix(p)
        one = self.field.one
        total = None
        for w, c in p.terms.items():
            m = self.word_matrix(w)
            if c != one:
                m = m.scale(c)
            total = m if total is None else total + m
        return self.zero_mat if total is None else total


_MODELS: dict = {}


def matrix_model(i: int, j: int, field=QQ) -> MatrixModel:
    """The model of the ring, built once: (i, j) and (j, i) present one ring."""
    key = (*_oriented(i, j), field)
    if key not in _MODELS:
        _MODELS[key] = MatrixModel(*key)
    return _MODELS[key]


def certify_normal_forms(rs: RewriteSystem) -> bool:
    """Exact proof that normal forms are unique.

    For i > j, by the matrix units of the model phi: x -> X, y -> Y over
    L = A[s,t]/I (``matrix_model``), with no linear algebra.  It checks
    that ``rs.basis`` is the 2N spanning words x^a, x^a y (a < N), which
    no rule rewrites, and that both rules' right sides are combinations
    of them; that 4 dim L = 2N, with dim L from the certified basis of L;
    that the three rules hold under phi; and that phi maps y x^lo, y,
    x^hi y x^lo, x^hi y to the units e11, e12, e21, e22, x^(i+j) to s*I
    and x^lo - x^hi to t*I.  The proof: the right sides are combinations
    of spanning words, so each rewrite in ``_step``'s order lowers
    ``Word.rewrite_measure``; every word equals a combination of spanning
    words modulo the ideal J of the rules.  J lies in the kernel of phi,
    so the images of the 2N spanning words span the image of phi.  It is
    a subalgebra holding each e_kl, s*I and t*I, hence all of M_2(L), of
    dimension 4 dim L = 2N.  So these images are independent, and no
    nonzero combination of spanning words lies in J: every terminating
    reduction order ends at the same normal form.  This is the paper's
    criterion (2x2 matrix units make a 2x2 matrix ring) in place of
    Bergman's diamond lemma.  It costs milliseconds, the model included
    (about 4 ms at (13, 8) over Q); selftest runs it on its rewriting
    pairs, and ``build_rewrite_system`` does not run it.

    At (1, 1), Bergman's diamond lemma itself (Bergman 1978).  Deglex with
    x < y is a semigroup order with the descending chain condition; it is
    compatible with y^2 -> 0 and with y x -> yx_rhs when every word of
    yx_rhs is smaller than y x.  The only overlap that is not trivially
    resolved is y y x: (y y) x gives 0 and y (y x) gives y * yx_rhs, so the
    ambiguity resolves if and only if y * yx_rhs reduces to 0.  It is
    reduced by the rules (``_rewrite``), not by the closed form in
    ``reduce``, because the lemma is what licenses that closed form.
    """
    field = rs.field
    if rs.basis is None:
        yx = Word.from_letters("yx").key()
        if any(w.key() >= yx for w in rs.yx_rhs.terms):
            return False
        return _rewrite(NCPoly.y(field) * rs.yx_rhs, rs).is_zero()
    N, xrhs = rs.xpow
    spanning = _spanning_words(N)
    if rs.basis != spanning or not {*rs.yx_rhs.terms, *xrhs.terms} <= set(spanning):
        return False
    model = matrix_model(rs.i, rs.j, field)
    ring, img = model.ring, model.image
    x, y = (lambda e: NCPoly.x(field, e)), NCPoly.y(field)
    rules = ((y * y, NCPoly.zero(field)), (y * x(1), rs.yx_rhs), (x(N), xrhs))
    units = _unit_words(rs.i, rs.j)  # keyed e11, e12, e21, e22: Mat2's entry order
    unit = lambda k: Mat2(ring, *[ring.one if u == k else ring.zero for u in units])
    return (
        4 * ring.dimension() == 2 * N
        and all(img(lhs) == img(rhs) for lhs, rhs in rules)
        and all(img(w) == unit(k) for k, w in units.items())
        and img(x(rs.i + rs.j)) == Mat2.scalar(ring, ring.s())
        and img(x(rs.j) - x(rs.i)) == Mat2.scalar(ring, ring.t())
    )


@dataclass
class ValidationReport:
    """Outcome of the empirical soundness audit of a rule set."""

    i: int
    j: int
    words_checked: int = 0
    soundness_failures: list = dc_field(default_factory=list)
    confluence_divergences: list = dc_field(default_factory=list)
    normal_form_escapes: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.soundness_failures
            or self.confluence_divergences
            or self.normal_form_escapes
        )

    def to_dict(self):
        return {
            "i": self.i,
            "j": self.j,
            "words_checked": self.words_checked,
            "soundness_failures": list(self.soundness_failures),
            "confluence_divergences": list(self.confluence_divergences),
            "normal_form_escapes": list(self.normal_form_escapes),
            "ok": self.ok,
        }


def _word_corpus(rng, n_random: int, max_len: int, exhaustive_len):
    if exhaustive_len is not None:
        for length in range(1, exhaustive_len + 1):
            for bits in range(2**length):
                letters = "".join(
                    "xy"[(bits >> k) & 1] for k in range(length)
                )
                yield Word.from_letters(letters)
        return
    for _ in range(n_random):
        length = rng.randint(1, max_len)
        yield Word.from_letters(
            "".join(rng.choice("xy") for _ in range(length))
        )


def validate_system(
    rs: RewriteSystem,
    n_random: int = 1000,
    max_len: int = 12,
    seed: int = 0,
    exhaustive_len: int | None = None,
) -> ValidationReport:
    """Audit the rules against the matrix model on a word corpus.

    For every corpus word: no rule rewrites a word of its normal form, and
    the image of the word equals the image of its normal form (soundness).
    The heap engine ``_rewrite`` must reach the same normal form as
    ``reduce``'s walk; the two routes share only the rules, and a mismatch
    is a confluence divergence.
    """
    model = matrix_model(rs.i, rs.j, rs.field)
    report = ValidationReport(i=rs.i, j=rs.j)
    rng = random.Random(seed)
    for w in _word_corpus(rng, n_random, max_len, exhaustive_len):
        report.words_checked += 1
        p = NCPoly.of_word(w, rs.field)
        nf = reduce(p, rs)
        if any(_step(u, rs) is not None for u in nf.terms):
            report.normal_form_escapes.append(w.text())
        if model.image(p) != model.image(nf):
            report.soundness_failures.append(w.text())
        if _rewrite(p, rs) != nf:
            report.confluence_divergences.append(w.text())
    return report


@dataclass
class IdentityReport:
    """Pass/fail per named ring identity, all decided in the matrix model."""

    i: int
    j: int
    entries: list = dc_field(default_factory=list)

    def record(self, name: str, ok: bool):
        self.entries.append((name, bool(ok)))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.entries)

    @property
    def failures(self) -> list:
        return [name for name, ok in self.entries if not ok]

    def to_dict(self):
        return {
            "i": self.i,
            "j": self.j,
            "checks": [{"name": n, "ok": ok} for n, ok in self.entries],
            "ok": self.ok,
        }


def check_identities(i: int, j: int, n_max: int = 6, field=QQ) -> IdentityReport:
    """Verify the derived relations of the presented ring in the matrix model.

    Covers: the y x^k y collapses; the swapped defining relation; the two
    families pushing y across x^(in) and x^(jn) for n <= n_max; the explicit
    inverse of x (i != j); the alternating x-power relation and the
    root-of-unity power; centrality of x^(i+j) and x^i - x^j; and the full
    set of seventeen matrix-unit relations.
    """
    hi, lo = _oriented(i, j)
    model = matrix_model(i, j, field)
    rep = IdentityReport(i=i, j=j)
    f = field
    one = NCPoly.one(f)
    x = lambda e=1: NCPoly.x(f, e) if e else one
    y = NCPoly.y(f)
    img = model.image

    rep.record("y*x^i*y = y", img(y * x(i) * y) == img(y))
    rep.record("y*x^j*y = y", img(y * x(j) * y) == img(y))
    rep.record("y*x^(i+j)*y = 0", img(y * x(i + j) * y) == img(NCPoly.zero(f)))
    rep.record(
        "y*x^(2i)*y = -y*x^(2j)*y", img(y * x(2 * i) * y) == img(-(y * x(2 * j) * y))
    )
    rep.record("x^i*y + y*x^j = 1", img(x(i) * y + y * x(j)) == img(one))
    rep.record("x^j*y + y*x^i = 1 (swap)", img(x(j) * y + y * x(i)) == img(one))

    for n in range(1, n_max + 1):
        lhs1 = y * x(i * n)
        rhs1 = (x(j * n) * y).scale((-1) ** n)
        for k in range(n):
            rhs1 = rhs1 + x((n - 1) * j + k * (i - j)).scale((-1) ** (n - 1 - k))
        rep.record(f"y*x^(i*{n}) push-through", img(lhs1) == img(rhs1))
        lhs2 = y * x(j * n)
        rhs2 = (x(i * n) * y).scale((-1) ** n)
        for k in range(n):
            rhs2 = rhs2 + x((n - 1) * j + k * (i - j)).scale((-1) ** k)
        rep.record(f"y*x^(j*{n}) push-through", img(lhs2) == img(rhs2))

    if hi > lo:
        inv_right = x(lo - 1) * y + x(hi - lo - 1) - x(hi - 1) * y * x(hi - lo)
        rep.record("x * (right inverse) = 1", img(x() * inv_right) == img(one))
        inv_left = x(hi - lo - 1) - x(hi - lo) * y * x(hi - 1) + y * x(lo - 1)
        rep.record("(left inverse) * x = 1", img(inv_left * x()) == img(one))
        N = (hi + lo - 1) * (hi - lo)
        alt = NCPoly.zero(f)
        for k in range(1, hi + lo):
            alt = alt + x((hi + lo - 1 - k) * (hi - lo)).scale((-1) ** (k + 1))
        rep.record("alternating x-power relation", img(x(N)) == img(alt))
    rep.record(
        "x^(i^2-j^2) = (-1)^(i+j)",
        img(x(hi * hi - lo * lo)) == img(one.scale((-1) ** (i + j))),
    )
    for name, z in (("x^(i+j)", x(i + j)), ("x^i - x^j", x(i) - x(j))):
        rep.record(f"[{name}, x] = 0", img(z * x() - x() * z) == img(NCPoly.zero(f)))
        rep.record(f"[{name}, y] = 0", img(z * y - y * z) == img(NCPoly.zero(f)))

    e = {k: NCPoly.of_word(w, f) for k, w in _unit_words(hi, lo).items()}
    rep.record("e11 + e22 = 1", img(e[(1, 1)] + e[(2, 2)]) == img(one))
    for h in (1, 2):
        for k in (1, 2):
            for l in (1, 2):
                for m in (1, 2):
                    want = e[(h, m)] if k == l else NCPoly.zero(f)
                    rep.record(
                        f"e{h}{k}*e{l}{m}",
                        img(e[(h, k)] * e[(l, m)]) == img(want),
                    )
    return rep
