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
  F_p and its quadratic extension.  The scan is plain int arithmetic:
  F_{p^2} elements are int pairs, square roots come from a per-call table of
  smallest roots.  A witness is then rebuilt as ``Mat2`` over GF(p): x from
  the root data, and y = E12 / (x^i)_21 by ``_e12_witness``.
* ``construct_witness_Q``: builds verified rational witnesses for members
  over Q, x from the semantic root data and y again by ``_e12_witness``.

Every returned witness re-verifies the defining relations, with the exact
exponents and powers taken by ``mat_pow`` (the Cayley-Hamilton ladder of
``mat2``), before the report is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import Inconsistency, UnsupportedParameters
from .fields import GF, QQ, is_prime, smallest_nonresidue
from .mat2 import Mat2, mat_pow
from .membership import _require_ij, decide_Q, decide_Q_semantic

ENUM_FP = "ENUM_FP"
ROOT_FP2 = "ROOT_FP2"
CONSTRUCT_Q = "CONSTRUCT_Q"

# the enumeration scans p^4 matrices: from this many on (p >= 256) a scan
# could not finish, and for a huge p merely setting it up exhausts memory
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

    Both powers are computed exactly by mat_pow: no folding of exponents by
    a period of x and no closed forms for the powers.
    """
    ident = Mat2.identity(x.ring)
    return (y * y).is_zero() and mat_pow(x, i) * y + y * mat_pow(x, j) == ident


def _report(found, method, i, j, p=None, x=None, y=None, **details) -> WitnessReport:
    rep = WitnessReport(found, method, i, j, p=p, x=x, y=y, details=details)
    if found:
        if not verify_pair(x, y, i, j):
            raise Inconsistency(
                f"{method} produced a non-witness for (i, j) = ({i}, {j})"
            )
        rep.verified = True
    return rep


# 2x2 matrices over F_p as flat tuples (a, b, c, d), row-major


def _mul4(u, v, p):
    a, b, c, d = u
    e, f, g, h = v
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def _pow4(u, e, p):
    result = (1 % p, 0, 0, 1 % p)
    while e:
        if e & 1:
            result = _mul4(result, u, p)
        u = _mul4(u, u, p)
        e >>= 1
    return result


def _tuple_to_mat(t, p) -> Mat2:
    ring = GF(p)
    return Mat2.of_rows(ring, ((t[0], t[1]), (t[2], t[3])))


def enum_sweep_fp(p: int, pairs) -> dict:
    """One deterministic scan deciding many (i, j) pairs at once.

    Returns {(i, j): x-tuple or None}: the first x in scan order with
    x^i E12 + E12 x^j = I, or None if the full space is exhausted.  The
    relation test reads the cached power rows; witnesses are re-verified
    with exact exponents before being reported by the single-pair API.
    A p with p^4 >= ENUM_SPACE_LIMIT is refused before anything is built.
    """
    if not is_prime(p):
        raise UnsupportedParameters(f"{p} is not prime")
    if p**4 >= ENUM_SPACE_LIMIT:
        raise UnsupportedParameters(f"p = {p} is too large to enumerate: p^4 >= 2^32")
    pairs = list(pairs)
    for i, j in pairs:
        _require_ij(i, j)
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
    if full and p > 3:
        raise UnsupportedParameters("--full is supported for p <= 3 only")
    hit = enum_sweep_fp(p, [(i, j)])[(i, j)]  # checks p, i and j
    details = {}
    if full:
        unrestricted = _full_enum(p, i, j)
        agrees = (unrestricted is not None) == (hit is not None)
        if not agrees:
            raise Inconsistency(
                f"restricting y to E12 changed the verdict at p={p}, (i,j)=({i},{j})"
            )
        details["full_agrees"] = True
    if hit is None:
        return _report(False, ENUM_FP, i, j, p=p, **details)
    return _report(
        True, ENUM_FP, i, j, p=p, x=_tuple_to_mat(hit, p), y=Mat2.e12(GF(p)), **details
    )


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


def _e12_witness(x: Mat2, i: int, j: int) -> tuple[Mat2, Mat2]:
    """The pair (x, y) with y = E12 / (x^i)_21, or Inconsistency if that is 0.

    For y = c*E12 the relation x^i y + y x^j = 1 reads c*(x^i)_21 = 1,
    c*(x^j)_21 = 1 and (x^i)_11 + (x^j)_22 = 0, so once x is chosen c is
    forced; ``_report`` then checks the whole relation with exact exponents.
    For a companion matrix [[0, -b], [1, a]], Cayley-Hamilton gives
    (x^n)_21 = f_n with f_0 = 0, f_1 = 1, f_(n+1) = a*f_n - b*f_(n-1), and
    the root conditions of the oracles make f_i = f_j != 0.
    """
    ring = x.ring
    entry = mat_pow(x, i).c
    if not entry:
        raise Inconsistency(
            f"(x^{i})_21 = 0, so no multiple of E12 pairs with x = {x} "
            f"at (i, j) = ({i}, {j})"
        )
    return x, Mat2(ring, ring.zero, ring.one / entry, ring.zero, ring.zero)


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

    Scans all (a, b).  A double root r must satisfy p | i+j, p not | i and
    r^(j-i) = -1 (with the degenerate r = 0 allowed only at i = j = 1); a
    separable pair (r, s) must satisfy (rs)^(j-i) = 1,
    r^(i+j) + (rs)^i = 0 and r^(j-i) != -1 in either orientation.  The scan
    runs on plain ints: F_{p^2} elements are pairs a + b*w with w^2 = u the
    smallest nonresidue, and square roots come from a table holding the
    smallest root of each square.  On success x is the companion matrix
    [[0, -b], [1, a]], or [[r, 0], [1, r]] for a double root r, as ``Mat2``
    over GF(p); y = E12 / (x^i)_21, and the pair is verified with exact
    exponents.
    """
    if not is_prime(p) or p == 2:
        raise UnsupportedParameters("p must be an odd prime")
    _require_ij(i, j)
    fp = GF(p)
    u = smallest_nonresidue(p)
    u_inv = pow(u, -1, p)
    inv2 = pow(2, -1, p)
    diff = abs(j - i)
    sqrt_table = _sqrt_table(p)
    for a in range(p):
        for b in range(p):
            disc = (a * a - 4 * b) % p
            if disc == 0:
                r = a * inv2 % p
                if (i, j) == (1, 1):
                    if r:
                        continue
                elif not r or (i + j) % p or i % p == 0 or pow(r, diff, p) != p - 1:
                    continue
                x, y = _e12_witness(Mat2.of_rows(fp, ((r, 0), (1, r))), i, j)
                return _report(
                    True, ROOT_FP2, i, j, p=p, x=x, y=y,
                    quadratic=(a, b), branch="double-root",
                )
            # separable quadratic; skip a zero root.  rs = b, so the
            # (rs)^(j-i) test rejects both orientations at once.
            if b == 0 or pow(b, diff, p) != 1:
                continue
            root = sqrt_table.get(disc)
            if root is not None:
                r0 = ((a + root) * inv2 % p, 0)
                s0 = ((a - root) * inv2 % p, 0)
            else:
                c = sqrt_table[disc * u_inv % p] * inv2 % p
                r0 = (a * inv2 % p, c)
                s0 = (r0[0], -c % p)
            b_i = pow(b, i, p)
            for r in (r0, s0):
                if _pow2(r, diff, p, u) == (p - 1, 0):
                    continue
                ra, rb = _pow2(r, i + j, p, u)
                if rb or (ra + b_i) % p:
                    continue
                x, y = _e12_witness(Mat2.of_rows(fp, ((0, -b), (1, a))), i, j)
                return _report(
                    True, ROOT_FP2, i, j, p=p, x=x, y=y,
                    quadratic=(a, b), branch="separable",
                )
    return _report(False, ROOT_FP2, i, j, p=p)


def construct_witness_Q(i: int, j: int) -> WitnessReport:
    """Explicit rational witnesses for members over Q.

    Non-members return not-found without searching (exhaustive search over
    Q is impossible; the classification is the certificate).  Members get
    a verified pair: x is the odd-odd involution, or a companion matrix
    built from the semantic procedure's root, and y = E12 / (x^i)_21.
    Failure to build one when membership is asserted raises Inconsistency -
    the oracle is the referee, never silent.
    """
    _require_ij(i, j)
    if not decide_Q(i, j).verdict:
        return _report(False, CONSTRUCT_Q, i, j)
    if i % 2 == 1 and j % 2 == 1:
        x = Mat2.of_rows(QQ, ((0, 1), (1, 0)))
        branch = "odd-odd"
    else:
        semantic = decide_Q_semantic(i, j)
        if not semantic.verdict:
            raise Inconsistency(
                f"congruence and semantic routes disagree at ({i}, {j})"
            )
        if i == j:
            rs_val = QQ.of(semantic.aux["root"] + 2)  # r + s = rs = root + 2
            x = Mat2(QQ, QQ.zero, -rs_val, QQ.one, rs_val)
            branch = "diagonal"
        else:
            c = QQ.of(semantic.aux["root"])
            x = Mat2(QQ, QQ.zero, -QQ.one, QQ.one, c)
            branch = "unit-product"
    x, y = _e12_witness(x, i, j)
    return _report(True, CONSTRUCT_Q, i, j, x=x, y=y, branch=branch)
