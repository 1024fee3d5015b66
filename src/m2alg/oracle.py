"""Independent brute-force and root-search oracles with explicit witnesses.

These are the referees for the decision procedures: they certify or refute
membership by exhibiting (or exhausting the search space for) actual 2x2
matrices satisfying x^i y + y x^j = 1, y^2 = 0.

* ``oracle_enum_fp``: fixes y = E12 (every nonzero square-zero 2x2 matrix
  over a field is similar to it, so nothing is lost) and scans all p^4
  matrices x over F_p with incrementally built power rows, in a fixed scan
  order so the first witness is reproducible.  ``enum_sweep_fp`` amortizes
  one scan over many (i, j) pairs.
* ``oracle_roots_fp2``: decides via the root analysis of x^2 - ax + b over
  F_p and its quadratic extension.  The scan is plain int arithmetic and
  visits only the quadratics that can pass: for each a, the b's with
  b^(j-i) = 1, which are the g-th roots of unity for g = gcd(|j-i|, p-1),
  and the one b with a double root.  What depends on p alone (the
  nonresidue u with its inverse, 1/2, a table of smallest square roots and
  the roots of unity of each order g met) is built once and kept for the
  last prime scanned.  Split roots are tested in F_p with builtin ``pow``.
  Inert roots are int pairs in F_{p^2}, and only one of the two is tested,
  since its Frobenius conjugate gets the same verdict.  x is built from the
  root data.
* ``construct_witness_Q``: builds verified rational witnesses for members
  over Q; x, from the semantic root data, is an integer matrix.

All three find x as an int 4-tuple, and ``_e12_scale`` checks it on ints,
mod p or over Z, with the exact exponents: it returns the c with
x^i E12 + E12 x^j = c*I, and the witness is (x, E12/c).  The
``WitnessReport`` keeps that int x and c; its ``x`` and ``y`` are ``Mat2``
over GF(p) or Q, built only when read (by ``to_dict``, ``verify_pair`` or
a test), so ``Mat2`` is the report form, not the arithmetic.
``verify_pair`` is the independent ``Mat2`` check of a reported pair.

Parameters are refused before any scan or table is built: exponents below
1 by ``fields.require_exponents``, a p that is not prime (or p = 2 for the
roots scan, which needs an odd prime) by ``fields.require_prime``, and a p
whose search space reaches ``ENUM_SPACE_LIMIT``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import Inconsistency, UnsupportedParameters
from .fields import GF, QQ, require_exponents, require_prime, smallest_nonresidue
from .mat2 import Mat2
from .membership import decide_Q, decide_Q_semantic

ENUM_FP = "ENUM_FP"
ROOT_FP2 = "ROOT_FP2"
CONSTRUCT_Q = "CONSTRUCT_Q"

# the enumeration scans p^4 matrices, so this many and more (p >= 256) are
# refused: for a huge p merely setting up the scan exhausts memory.  The
# bound admits p = 251, whose full scan is about 4*10^9 matrices: `oracle
# 4 3` scans at about 2.5 us a matrix (2.3-2.8 us over three runs each at
# p = 31 and p = 53, Python 3.11, 2-core x86-64 host), so about 2.8 hours,
# and larger exponents cost more per matrix.  The roots scan covers p^2
# quadratics and is held to the same limit.
ENUM_SPACE_LIMIT = 2**32

@dataclass
class WitnessReport:
    """Search verdict plus the verified witness when one exists.

    ``witness`` is x as an int 4-tuple (a, b, c, d), row-major, over F_p
    when ``p`` is set and over Z otherwise, and ``scale`` is the c with
    x^i E12 + E12 x^j = c*I, both checked by ``_e12_scale``.  ``x`` and
    ``y`` = E12/c are built as ``Mat2`` over GF(p) or Q on each read.
    """

    found: bool
    method: str
    i: int
    j: int
    p: int | None = None
    witness: tuple | None = None
    scale: int | None = None
    verified: bool = False
    details: dict = dc_field(default_factory=dict)

    def _ring(self):
        return GF(self.p) if self.p else QQ

    @property
    def x(self) -> Mat2 | None:
        if self.witness is None:
            return None
        return Mat2.of_rows(self._ring(), (self.witness[:2], self.witness[2:]))

    @property
    def y(self) -> Mat2 | None:
        if self.witness is None:
            return None
        ring = self._ring()
        inv = pow(self.scale, -1, self.p) if self.p else Fraction(1, self.scale)
        return Mat2(ring, ring.zero, ring.of(inv), ring.zero, ring.zero)

    def to_dict(self):
        def mat(m):
            if m is None:
                return None
            return [[str(v) for v in row] for row in m.rows()]

        out = {
            "found": self.found,
            "method": self.method,
            "i": self.i,
            "j": self.j,
            "verified": self.verified,
            "x": mat(self.x),
            "y": mat(self.y),
        }
        if self.p is not None:
            out["p"] = self.p
        if self.details:
            out["details"] = dict(self.details)
        return out


def verify_pair(x: Mat2, y: Mat2, i: int, j: int) -> bool:
    """Exact check of the defining relations.

    Both powers are computed exactly by ``Mat2``'s ``**``: no folding of
    exponents by a period of x and no closed forms for the powers.  The
    oracles check their witnesses on ints (``_e12_scale``); this is the
    second route, on the reported matrices.
    """
    ident = Mat2.identity(x.ring)
    return (y * y).is_zero() and x**i * y + y * x**j == ident


# 2x2 matrices over F_p (or Z) as flat tuples (a, b, c, d), row-major


def _mul4(u, v, p):
    a, b, c, d = u
    e, f, g, h = v
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def _pow4(u, e, p):
    """u^e by a Cayley-Hamilton ladder: mod p, or over Z when p = 0.

    u^2 = tau*u - delta*I with tau = tr u and delta = det u, over any
    commutative ring, so u^e = alpha*u + beta*I, and (alpha, beta) is
    walked over the bits of e, most significant first:

        squaring:   (alpha, beta) -> (alpha^2*tau + 2*alpha*beta,
                                      beta^2 - alpha^2*delta)      5 products
        step by u:  (alpha, beta) -> (alpha*tau + beta, -alpha*delta)   2 products

    against 8 products for each matrix square or multiply.  The 4-tuple is
    built once at the end; e = 0 gives the identity.
    """
    if not e:
        return (1, 0, 0, 1)
    a, b, c, d = u
    tau, neg_delta = a + d, b * c - a * d
    alpha, beta = 1, 0
    for bit in bin(e)[3:]:
        aa, ab = alpha * alpha, alpha * beta
        alpha, beta = aa * tau + ab + ab, beta * beta + aa * neg_delta
        if bit == "1":
            alpha, beta = alpha * tau + beta, alpha * neg_delta
        if p:
            alpha %= p
            beta %= p
    if p:
        return ((alpha * a + beta) % p, alpha * b % p, alpha * c % p, (alpha * d + beta) % p)
    return (alpha * a + beta, alpha * b, alpha * c, alpha * d + beta)


def _e12_scale(x, i: int, j: int, mod: int) -> int:
    """The c != 0 with x^i E12 + E12 x^j = c*I, checked exactly on ints.

    x is a 2x2 int matrix as a 4-tuple, taken mod the prime ``mod``, or
    over Z when ``mod`` = 0.  The relation reads (x^i)_21 = (x^j)_21 = c
    and (x^i)_11 + (x^j)_22 = 0, so when this returns, (x, E12/c) is a
    witness: E12/c squares to zero and x^i y + y x^j = 1.  Both powers are
    taken with their exact exponents; no period of x is folded.  For a
    companion matrix [[0, -b], [1, a]], Cayley-Hamilton gives
    (x^n)_21 = f_n with f_0 = 0, f_1 = 1, f_(n+1) = a*f_n - b*f_(n-1), and
    the root conditions of the oracles make f_i = f_j != 0.  Raises
    Inconsistency when c = 0 or the relation fails.
    """
    xi = _pow4(x, i, mod)
    xj = xi if i == j else _pow4(x, j, mod)
    c = xi[2]
    trace = xi[0] + xj[3]
    if mod:
        trace %= mod
    if not c or xj[2] != c or trace:
        where = f"mod {mod}" if mod else "over Z"
        raise Inconsistency(
            f"x = {x} {where} pairs with no multiple of E12 at (i, j) = ({i}, {j})"
        )
    return c


def _report(method, i, j, p=None, x=None, **details) -> WitnessReport:
    """The verdict: not found, or the int witness x with its checked scale.

    x is an int 4-tuple over F_p when p is given, else over Z (a witness
    over Q); ``_e12_scale`` checks it before the report says verified.
    """
    if x is None:
        return WitnessReport(False, method, i, j, p=p, details=details)
    c = _e12_scale(x, i, j, p or 0)
    return WitnessReport(
        True, method, i, j, p=p, witness=x, scale=c, verified=True, details=details
    )


def enum_sweep_fp(p: int, pairs) -> dict:
    """One deterministic scan deciding many (i, j) pairs at once.

    Returns {(i, j): x-tuple or None}: the first x in scan order with
    x^i E12 + E12 x^j = I, or None if the full space is exhausted.  The
    relation test reads the cached power rows; the single-pair API checks
    its witness again with exact exponents before reporting it.
    A p with p^4 >= ENUM_SPACE_LIMIT is refused before anything is built.
    """
    require_prime(p)
    if p**4 >= ENUM_SPACE_LIMIT:
        raise UnsupportedParameters(f"p = {p} is too large to enumerate: p^4 >= 2^32")
    pairs = list(pairs)
    for i, j in pairs:
        require_exponents(i, j)
    emax = max((max(i, j) for (i, j) in pairs), default=0)
    result = {pair: None for pair in pairs}
    undecided = set(pairs)
    for x in itertools.product(range(p), repeat=4):
        if not undecided:
            break
        powers = [None, x]  # indexed by the exponent; exponents are >= 1
        cur = x
        for _ in range(emax - 1):
            cur = _mul4(cur, x, p)
            powers.append(cur)
        solved = []
        for pair in undecided:
            i, j = pair
            xi = powers[i]
            xj = powers[j]
            if xi[2] == 1 and xj[2] == 1 and (xi[0] + xj[3]) % p == 0:
                result[pair] = x
                solved.append(pair)
        undecided.difference_update(solved)
    return result


def _full_enum(p: int, i: int, j: int):
    """Exhaustive search over all x and all square-zero y (small p only)."""
    sq_zero = [
        y
        for y in itertools.product(range(p), repeat=4)
        if _mul4(y, y, p) == (0, 0, 0, 0)
    ]
    identity = (1 % p, 0, 0, 1 % p)
    for x in itertools.product(range(p), repeat=4):
        xi = _pow4(x, i, p)
        xj = _pow4(x, j, p)
        for y in sq_zero:
            lhs = tuple(
                (a + b) % p for a, b in zip(_mul4(xi, y, p), _mul4(y, xj, p))
            )
            if lhs == identity:
                return x, y
    return None


def oracle_enum_fp(p: int, i: int, j: int, full: bool = False) -> WitnessReport:
    """Brute-force membership over F_p with y fixed to E12.

    With ``full=True`` (supported for p <= 3) additionally enumerates every
    square-zero y and confirms that fixing y = E12 loses nothing.
    """
    require_prime(p)
    require_exponents(i, j)
    if full and p > 3:
        raise UnsupportedParameters("the full scan is supported for p <= 3 only")
    hit = enum_sweep_fp(p, [(i, j)])[(i, j)]
    details = {}
    if full:
        unrestricted = _full_enum(p, i, j)
        agrees = (unrestricted is not None) == (hit is not None)
        if not agrees:
            raise Inconsistency(
                f"restricting y to E12 changed the verdict at p={p}, (i,j)=({i},{j})"
            )
        details["full_agrees"] = True
    # a hit has (x^i)_21 = 1, so y = E12
    return _report(ENUM_FP, i, j, p=p, x=hit, **details)


def square_zero_conjugation_check(p: int) -> bool:
    """Every nonzero square-zero 2x2 over F_p is similar to E12 (exhaustive)."""
    e12 = (0, 1, 0, 0)
    nilpotents = [
        y
        for y in itertools.product(range(p), repeat=4)
        if y != (0, 0, 0, 0) and _mul4(y, y, p) == (0, 0, 0, 0)
    ]
    for y in nilpotents:
        ok = False
        for g in itertools.product(range(p), repeat=4):
            a, b, c, d = g
            det = (a * d - b * c) % p
            if det == 0:
                continue
            dinv = pow(det, -1, p)
            ginv = (d * dinv % p, -b * dinv % p, -c * dinv % p, a * dinv % p)
            if _mul4(_mul4(g, y, p), ginv, p) == e12:
                ok = True
                break
        if not ok:
            return False
    return True


# F_{p^2} = F_p(w) with w^2 = u as int pairs (a, b) = a + b*w


def _pow2(z, e, p, u):
    """z^e in F_{p^2} by square-and-multiply on int pairs."""
    a, b = z
    ra, rb = 1, 0
    while e:
        if e & 1:
            ra, rb = (ra * a + u * rb * b) % p, (ra * b + rb * a) % p
        a, b = (a * a + u * b * b) % p, 2 * a * b % p
        e >>= 1
    return ra, rb


def _sqrt_table(p):
    """{c: smallest r with r^2 = c} over the squares c of F_p."""
    table = {}
    for r in range(p):
        table.setdefault(r * r % p, r)
    return table


# one prime: the only caller that repeats a prime (the membership benchmark)
# scans its rows one prime at a time, and a table at p = 65521 holds 32761
# entries
@functools.lru_cache(maxsize=1)
def _prime_tables(p):
    """(u, 1/u, 1/2, square-root table, roots of unity) for an odd prime p.

    w^2 = u.  The last entry is {g: the b in F_p^* with b^g = 1, ascending},
    filled by ``oracle_roots_fp2`` as each g is met.  Callers only read the
    square-root table; the cache hands every caller the same one.
    """
    u = smallest_nonresidue(p)
    return u, pow(u, -1, p), pow(2, -1, p), _sqrt_table(p), {}


def oracle_roots_fp2(p: int, i: int, j: int) -> WitnessReport:
    """Membership over F_p via the roots of x^2 - ax + b in F_p or F_{p^2}.

    Scans (a, b) with a ascending and, for each a, b ascending.  A double
    root r must satisfy p | i+j, p not | i and r^(j-i) = -1 (with the
    degenerate r = 0 allowed only at i = j = 1); a separable pair (r, s)
    must satisfy (rs)^(j-i) = 1, r^(i+j) + (rs)^i = 0 and r^(j-i) != -1 in
    either orientation.  Since rs = b, only the admissible b's, those with
    b^(j-i) = 1, can give a separable witness, so for each a the scan visits
    those and the one b = a^2/4 with a double root, in ascending order; the
    skipped quadratics all fail, so the first hit is the same as in a scan
    of all (a, b).  The scan runs on plain ints, and square roots come from
    a table holding the smallest root of each square, built once per prime
    by ``_prime_tables``.  Either way only one root r0 is tested, since it
    passes iff the other root s0 does.  Split roots lie in F_p and are
    tested with builtin ``pow``: r0 = (a + root)/2 and s0 = b/r0, so if r0
    passes, s0^(i+j) = b^(i+j)/r0^(i+j) = -b^j = -b^i, as b^(j-i) = 1, and
    s0^(j-i) = r0^(i-j), which is -1 exactly when r0^(j-i) is; the same
    holds with r0 and s0 swapped.  Inert roots are pairs c0 + c1*w in
    F_{p^2}, with w^2 = u the smallest nonresidue: s0 = r0^p is the
    Frobenius conjugate of r0, and conjugation fixes F_p, so r0^(j-i) = -1
    iff s0^(j-i) = -1 and r0^(i+j) = -b^i iff s0^(i+j) = -b^i.  On success
    x is the companion matrix
    [[0, -b], [1, a]], which does not depend on the root, or
    [[r, 0], [1, r]] for a double root r, and y = E12 / (x^i)_21; the pair
    is checked on ints mod p with exact exponents, and becomes ``Mat2``
    over GF(p) only when the report is read.  A p with p^2 >=
    ENUM_SPACE_LIMIT is refused before any table is built or looked up.
    """
    require_prime(p, odd=True)
    if p * p >= ENUM_SPACE_LIMIT:
        raise UnsupportedParameters(f"p = {p} is too large for the roots scan: p^2 >= 2^32")
    require_exponents(i, j)
    u, u_inv, inv2, sqrt_table, roots_of_unity = _prime_tables(p)
    diff = abs(j - i)
    # rs = b for a separable quadratic, so (rs)^(j-i) = 1 tests b alone, and
    # rejects both orientations at once.  F_p^* is cyclic of order p - 1, so
    # b^(j-i) = 1 iff b^g = 1: b^i for each of those g b's
    g = math.gcd(diff, p - 1)
    if g not in roots_of_unity:
        roots_of_unity[g] = tuple(b for b in range(1, p) if pow(b, g, p) == 1)
    b_pow_i = {b: pow(b, i, p) for b in roots_of_unity[g]}
    for a in range(p):
        half = a * inv2 % p
        # the admissible b's and b = (a/2)^2, the one with a double root
        for b in sorted({*b_pow_i, half * half % p}):
            disc = (a * a - 4 * b) % p
            if disc == 0:
                r = half
                if (i, j) == (1, 1):
                    if r:
                        continue
                elif not r or (i + j) % p or i % p == 0 or pow(r, diff, p) != p - 1:
                    continue
                return _report(
                    ROOT_FP2, i, j, p=p, x=(r, 0, 1, r),
                    quadratic=(a, b), branch="double-root",
                )
            # separable quadratic with an admissible b (never 0, a zero root)
            b_i = b_pow_i[b]
            root = sqrt_table.get(disc)
            if root is not None:
                # split: both roots lie in F_p, and one decides both
                r0 = (a + root) * inv2 % p
                if pow(r0, diff, p) == p - 1 or (pow(r0, i + j, p) + b_i) % p:
                    continue
            else:
                # inert: the roots are Frobenius conjugates, and conjugation
                # fixes -1 and -b^i, so one root decides both
                c = sqrt_table[disc * u_inv % p] * inv2 % p
                r0 = (half, c)
                if _pow2(r0, diff, p, u) == (p - 1, 0):
                    continue
                ra, rb = _pow2(r0, i + j, p, u)
                if rb or (ra + b_i) % p:
                    continue
            return _report(
                ROOT_FP2, i, j, p=p, x=(0, -b % p, 1, a),
                quadratic=(a, b), branch="separable",
            )
    return _report(ROOT_FP2, i, j, p=p)


def construct_witness_Q(i: int, j: int) -> WitnessReport:
    """Explicit rational witnesses for members over Q.

    Non-members return not-found without searching (exhaustive search over
    Q is impossible; the classification is the certificate).  Members get
    a verified pair: x is the odd-odd involution, or a companion matrix
    built from the semantic procedure's integer root, and y = E12 / (x^i)_21.
    Every such x is an integer matrix, so the pair is checked exactly on
    ints over Z, and becomes ``Mat2`` over Q only when the report is read.
    Failure to build one when membership is asserted raises Inconsistency -
    the oracle is the referee, never silent.
    """
    if not decide_Q(i, j).verdict:  # refuses exponents below 1
        return _report(CONSTRUCT_Q, i, j)
    if i % 2 == 1 and j % 2 == 1:
        x, branch = (0, 1, 1, 0), "odd-odd"
    else:
        semantic = decide_Q_semantic(i, j)
        if not semantic.verdict:
            raise Inconsistency(
                f"congruence and semantic routes disagree at ({i}, {j})"
            )
        if i == j:
            rs = semantic.aux["root"] + 2  # r + s = rs = root + 2
            x, branch = (0, -rs, 1, rs), "diagonal"
        else:
            x, branch = (0, -1, 1, semantic.aux["root"]), "unit-product"
    return _report(CONSTRUCT_Q, i, j, x=x, branch=branch)
