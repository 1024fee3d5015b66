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
  b^(j-i) = 1 and the one b with a double root.  Square roots come from a
  per-call table of smallest roots.  Split roots are tested in F_p with
  builtin ``pow``.  Inert roots are int pairs in F_{p^2}, and only one of
  the two is tested, since its Frobenius conjugate gets the same verdict.
  x is built from the root data.
* ``construct_witness_Q``: builds verified rational witnesses for members
  over Q; x, from the semantic root data, is an integer matrix.

All three find x as an int 4-tuple, and ``_e12_scale`` checks it on ints,
mod p or over Z, with the exact exponents: it returns the c with
x^i E12 + E12 x^j = c*I, and the witness is (x, E12/c).  Only then are x
and y built as ``Mat2`` over GF(p) or Q, once, for the ``WitnessReport``;
``Mat2`` is the report form, not the arithmetic.  ``verify_pair`` is the
independent ``Mat2`` check of a reported pair.

Parameters are refused before any scan or table is built: exponents below
1 by ``fields.require_exponents``, a p that is not prime (or p = 2 for the
roots scan, which needs an odd prime) by ``fields.require_prime``, and a p
whose search space reaches ``ENUM_SPACE_LIMIT``.
"""

from __future__ import annotations

import itertools
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
    """Search verdict plus the verified witness when one exists."""

    found: bool
    method: str
    i: int
    j: int
    p: int | None = None
    x: Mat2 | None = None
    y: Mat2 | None = None
    verified: bool = False
    details: dict = dc_field(default_factory=dict)

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


def _mulz(u, v):
    """u * v over Z; ``_mul4`` stays free of a branch for this case."""
    a, b, c, d = u
    e, f, g, h = v
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _pow4(u, e, p):
    """u^e by square-and-multiply: mod p, or over Z when p = 0."""
    result = (1, 0, 0, 1)
    while e:
        if e & 1:
            result = _mul4(result, u, p) if p else _mulz(result, u)
        u = _mul4(u, u, p) if p else _mulz(u, u)
        e >>= 1
    return result


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
    """The verdict: not found, or the int witness x checked, then built as Mat2.

    x is an int 4-tuple over F_p when p is given, else over Z (a witness
    over Q); ``_e12_scale`` checks it before anything is built.
    """
    if x is None:
        return WitnessReport(False, method, i, j, p=p, details=details)
    c = _e12_scale(x, i, j, p or 0)
    ring, inv = (GF(p), pow(c, -1, p)) if p else (QQ, Fraction(1, c))
    return WitnessReport(
        True, method, i, j, p=p,
        x=Mat2.of_rows(ring, (x[:2], x[2:])),
        y=Mat2(ring, ring.zero, ring.of(inv), ring.zero, ring.zero),
        verified=True, details=details,
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
    identity = (1 % p, 0, 0, 1 % p)
    for x in itertools.product(range(p), repeat=4):
        if not undecided:
            break
        powers = [identity, x]
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
    a table holding the smallest root of each square.  Split roots lie in
    F_p and are tested with builtin ``pow``, r0 = (a + root)/2 before
    s0 = (a - root)/2.  Inert roots are pairs c0 + c1*w in F_{p^2}, with
    w^2 = u the smallest nonresidue, and only r0 is tested: s0 = r0^p is its
    Frobenius conjugate, and conjugation fixes F_p, so r0^(j-i) = -1 iff
    s0^(j-i) = -1 and r0^(i+j) = -b^i iff s0^(i+j) = -b^i.  On success x
    is the companion matrix [[0, -b], [1, a]], which does not depend on
    which root passed, or [[r, 0], [1, r]] for a double root r, and
    y = E12 / (x^i)_21; the pair is checked on ints mod p with exact
    exponents, and built as ``Mat2`` over GF(p) only for the report.  A p
    with p^2 >= ENUM_SPACE_LIMIT is refused before anything is built.
    """
    require_prime(p, odd=True)
    if p * p >= ENUM_SPACE_LIMIT:
        raise UnsupportedParameters(f"p = {p} is too large for the roots scan: p^2 >= 2^32")
    require_exponents(i, j)
    u = smallest_nonresidue(p)
    u_inv = pow(u, -1, p)
    inv2 = pow(2, -1, p)
    diff = abs(j - i)
    sqrt_table = _sqrt_table(p)
    # rs = b for a separable quadratic, so (rs)^(j-i) = 1 tests b alone, and
    # rejects both orientations at once: b^i for each b that passes
    b_pow_i = {b: pow(b, i, p) for b in range(1, p) if pow(b, diff, p) == 1}
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
                # split: both roots lie in F_p
                if not any(
                    pow(r, diff, p) != p - 1 and (pow(r, i + j, p) + b_i) % p == 0
                    for r in ((a + root) * inv2 % p, (a - root) * inv2 % p)
                ):
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
    ints over Z, and built as ``Mat2`` over Q only for the report.
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
