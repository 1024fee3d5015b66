"""Decision procedures: when do 2x2 witness matrices exist over Q, Z_2, Z_p?

Each procedure answers whether the relations x^i y + y x^j = 1, y^2 = 0
admit 2x2 matrix solutions over the named base field, returning a
DecisionTrace that records which classification case fired.

Two deliberately independent routes exist for the rationals:
``decide_Q`` implements the congruence classification verbatim, while
``decide_Q_semantic`` re-derives the verdict from the rational-root
analysis of the trace polynomials, whose values at the candidate integer
roots it computes as exact ints by their recurrence.  They share no code,
so their agreement (enforced by the test suite) is genuine evidence.  Over
finite fields the referee is the brute-force oracle module.

Every procedure starts with the shared guards of ``fields``: exponents
below 1 are refused by ``require_exponents``, and a p that is not prime, or
p = 2 where the procedure needs an odd prime, by ``require_prime``; each
raises ``UnsupportedParameters`` before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .errors import UnsupportedParameters
from .fields import INF, is_odd_multiple, nu2, require_exponents, require_prime
from .sequences import trace_value

RULE_NONE = "NONE"
RULE_ODD_ODD = "ODD_ODD"
RULE_DIAG_MOD4 = "DIAG_MOD4"
RULE_MOD6_LIST = "MOD6_LIST"
RULE_Z2_MOD3 = "Z2_MOD3"
RULE_ZP_CASE = ["ZP_CASE_I", "ZP_CASE_II", "ZP_CASE_III", "ZP_CASE_IV", "ZP_CASE_V"]
RULE_MOD8_LIST = "MOD8_LIST"  # the diagonal congruences mod 8 at p = 3
RULE_COR_PARITY_GCD = "COR_PARITY_GCD"
RULE_COR_MOD2P_LIST = "COR_MOD2P_LIST"
RULE_COR_VAL_BOUND = "COR_VAL_BOUND"

_MOD6_MEMBERS = {(1, 2), (2, 1), (4, 5), (5, 4)}


def _nu_text(v):
    return "inf" if v == INF else int(v)


@dataclass(frozen=True)
class DecisionTrace:
    """Verdict plus the classification case that produced it."""

    verdict: bool
    fired_rule: str
    field: str  # "Q" | "F2" | "Fp"
    i: int
    j: int
    p: int | None = None
    aux: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.verdict != (self.fired_rule != RULE_NONE):
            raise ValueError("fired_rule must be NONE exactly when verdict is False")

    def to_dict(self):
        aux = {
            k: (_nu_text(v) if isinstance(v, float) else v)
            for k, v in sorted(self.aux.items())
        }
        out = {
            "verdict": self.verdict,
            "fired_rule": self.fired_rule,
            "field": self.field,
            "i": self.i,
            "j": self.j,
            "aux": aux,
        }
        if self.p is not None:
            out["p"] = self.p
        return out


def decide_Q(i: int, j: int) -> DecisionTrace:
    """Membership over the rationals, by the congruence classification.

    Members are exactly: i = j not divisible by 4; or i, j both odd; or
    (i, j) congruent to (1,2), (2,1), (4,5) or (5,4) mod 6.
    """
    require_exponents(i, j)
    mk = lambda v, rule: DecisionTrace(v, rule, "Q", i, j)
    if i % 2 == 1 and j % 2 == 1:
        return mk(True, RULE_ODD_ODD)
    if i == j:
        if i % 4 != 0:
            return mk(True, RULE_DIAG_MOD4)
        return mk(False, RULE_NONE)
    if (i % 6, j % 6) in _MOD6_MEMBERS:
        return mk(True, RULE_MOD6_LIST)
    return mk(False, RULE_NONE)


def decide_Q_semantic(i: int, j: int) -> DecisionTrace:
    """Membership over the rationals, re-derived from rational roots.

    Witnesses come from a matrix with rational characteristic polynomial
    x^2 - ax + b whose roots (r, s) satisfy r^i + s^j = 0 and its mirror.
    Either s = -r (possible exactly when both exponents are odd), or
    s = 1/r and c = r + 1/r is a rational root of the (i+j)-th trace
    polynomial shifted by 2, which confines c to {0, 1, -1, -2}; each
    candidate imposes a side condition coming from the order of r.  For
    i = j the same analysis runs through roots of the half-index trace
    polynomial evaluated at {a - 2 : a in {1, -1, 2, -2}}.  Every candidate
    is an int, so each trace value is the exact int given by the trace
    recurrence (``trace_value``); no polynomial is built.

    For i = j, even, only a = 2 can fire, and only it is evaluated: with
    n = i/2 and z + 1/z = a - 2, the trace value is z^n + z^-n, and
    a = 1 gives z^3 = 1, z != 1, so z^n + z^-n is -1 or 2, never 0;
    a = -1 and a = -2 give a real negative z, and z^n + z^-n = 0 would
    need z^(2n) = -1.
    The candidate a = 2 gives z^2 = -1, so the value is 0 exactly when n
    is odd.

    For i != j, not both odd, only c = 1 can fire, and only it is evaluated:
    c = 0 gives r^2 = -1, and r^(j-i) != -1 would force both exponents odd;
    c = -1 gives r^3 = 1, r != 1, so r^n + r^-n is -1 or 2, never -2;
    c = -2 gives r = -1 with i + j odd, so r^(j-i) = -1, which is excluded.
    The candidate c = 1 gives r^2 - r + 1 = 0, so r has order six
    (r^3 = -1); the side condition is that neither exponent is divisible
    by 3.  The order is recorded in aux for auditability.
    """
    require_exponents(i, j)
    mk = lambda v, rule, **aux: DecisionTrace(v, rule, "Q", i, j, aux=aux)
    both_odd = i % 2 == 1 and j % 2 == 1
    if both_odd:
        # s = -r with r = 1: x = [[0,1],[1,0]] works for any odd pair
        return mk(True, RULE_ODD_ODD)
    if i == j:
        # i even here; roots r, s with r^i + s^i = 0, r+s = rs = a rational,
        # and only a = 2 can fire
        n = i // 2
        if trace_value(n, 0) == 0:
            return mk(True, RULE_DIAG_MOD4, half_index=n, root=0)
        return mk(False, RULE_NONE)
    # i != j, not both odd: only s = 1/r remains, c = r + 1/r rational, and
    # only c = 1 can fire: r^2 - r + 1 = 0, r^3 = -1; need 3 dividing neither
    if i % 3 and j % 3 and trace_value(i + j, 1) + 2 == 0:
        return mk(True, RULE_MOD6_LIST, root=1, root_order=6, root_cube=-1)
    return mk(False, RULE_NONE)


def decide_Z2(i: int, j: int) -> DecisionTrace:
    """Membership over the two-element field: both odd, or (1,2)/(2,1) mod 3."""
    require_exponents(i, j)
    mk = lambda v, rule: DecisionTrace(v, rule, "F2", i, j, p=2)
    if i % 2 == 1 and j % 2 == 1:
        return mk(True, RULE_ODD_ODD)
    if (i % 3, j % 3) in ((1, 2), (2, 1)):
        return mk(True, RULE_Z2_MOD3)
    return mk(False, RULE_NONE)


def _zp_case_V(p: int, i: int, j: int) -> bool:
    """The deep-extension case, in the orientation (i, j).

    Wherever ``decide_Zp`` reaches it, min(nu2(j - i), nu2(p - 1)) in the
    bound equals min(nu2(j + i), nu2(p - 1)).  With a = nu2(j - i),
    b = nu2(j + i) and v = nu2(p - 1), shared by both orientations, the two
    differ only if a != b and min(a, b) < v, and then an earlier case fires
    (d and e as in ``decide_Zp``, with nu2(d) = min(a, v), nu2(e) = min(b, v)):
    a < b: case III, as nu2(d) = a < nu2(e), so d is no odd multiple of e;
    b < a < v: case III, as nu2(d) = a != b = nu2(e);
    b < a = v: case II;
    b < a, a > v: case I, as then b < v.
    """
    lhs = nu2(j - i * p)
    bound = nu2(p + 1) + min(nu2(j - i), nu2(p - 1))
    if not lhs < bound:
        return False
    g = math.gcd(abs(j - i * p), math.gcd((p + 1) * abs(j - i), p * p - 1))
    return not is_odd_multiple(j - i, g)


def decide_Zp(p: int, i: int, j: int) -> DecisionTrace:
    """Membership over Z_p for an odd prime p: the five valuation cases.

    Case (V) is evaluated in both orientations (they agree modulo (p+1)d,
    but the raw formulas are orientation-sensitive); the verdict is their
    disjunction, which restores the left-right symmetry of the ring.
    For i = j the conventions nu2(0) = INF and "0 is not an odd multiple"
    make cases (II)-(IV) vacuous and reduce (I) and (V) to the diagonal
    valuation criteria.
    """
    require_exponents(i, j)
    require_prime(p, odd=True)
    vd = nu2(j - i)
    vp1 = nu2(p - 1)
    vs = nu2(i + j)
    d = math.gcd(abs(j - i), p - 1)
    e = math.gcd(i + j, p - 1)
    aux = {
        "nu2_j_minus_i": vd,
        "nu2_p_minus_1": vp1,
        "nu2_i_plus_j": vs,
        "d": d,
        "e": e,
    }
    mk = lambda v, rule: DecisionTrace(v, rule, "Fp", i, j, p=p, aux=dict(aux))
    if vd > vp1 >= vs:
        return mk(True, RULE_ZP_CASE[0])
    if vd == vp1 != vs:
        return mk(True, RULE_ZP_CASE[1])
    if vd < vp1 and not is_odd_multiple(d, e):
        return mk(True, RULE_ZP_CASE[2])
    if vd < vp1 and (i + j) % p == 0 and i % p != 0:
        return mk(True, RULE_ZP_CASE[3])
    if _zp_case_V(p, i, j) or _zp_case_V(p, j, i):
        return mk(True, RULE_ZP_CASE[4])
    return mk(False, RULE_NONE)


def decide_ii_Zp(p: int, i: int) -> DecisionTrace:
    """Diagonal case over Z_p: member iff nu2(p^2 - 1) >= nu2(i) + 2.

    Splits into nu2(p-1) >= nu2(i)+1 (an instance of case (I)) or
    nu2(p+1) >= nu2(i)+1 (an instance of case (V)); the fired rule records
    which half holds.
    """
    require_exponents(i, i)
    require_prime(p, odd=True)
    vi = nu2(i)
    aux = {"nu2_i": vi, "nu2_p2_minus_1": nu2(p * p - 1)}
    mk = lambda v, rule: DecisionTrace(v, rule, "Fp", i, i, p=p, aux=dict(aux))
    if nu2(p - 1) >= vi + 1:
        return mk(True, RULE_ZP_CASE[0])
    if nu2(p + 1) >= vi + 1:
        return mk(True, RULE_ZP_CASE[4])
    return mk(False, RULE_NONE)


def decide_p3_congruences(i: int, j: int) -> DecisionTrace:
    """Membership over Z_3 by the explicit congruence list.

    Members: both odd; (1,2), (2,1), (4,5), (5,4) mod 6; or (2,2), (6,6)
    mod 8.
    """
    require_exponents(i, j)
    mk = lambda v, rule: DecisionTrace(v, rule, "Fp", i, j, p=3)
    if i % 2 == 1 and j % 2 == 1:
        return mk(True, RULE_ODD_ODD)
    if (i % 6, j % 6) in _MOD6_MEMBERS:
        return mk(True, RULE_MOD6_LIST)
    if (i % 8, j % 8) in ((2, 2), (6, 6)):
        return mk(True, RULE_MOD8_LIST)
    return mk(False, RULE_NONE)


def _neg1_mod4_exponent(p: int) -> int:
    """a with p = 2^a(2b+1) - 1; requires a >= 2 (p = 3 mod 4)."""
    a = nu2(p + 1)
    if a == INF or a < 2:
        raise UnsupportedParameters(f"{p} is not of the form 2^a(2b+1) - 1 with a >= 2")
    return int(a)


def decide_neg1_mod4(p: int, i: int, j: int) -> DecisionTrace:
    """Membership over Z_p for primes p = 2^a(2b+1) - 1 with a >= 2.

    This covers every prime congruent to 3 mod 4 (in particular the
    Mersenne primes).  Conditions: (1) both odd; (2) distinct parity and
    gcd(j-i, p-1) not an odd multiple of gcd(j+i, p-1); (3) the explicit
    mod-2p congruence family hitting multiples of p+1; (4) nu2(j - ip)
    bounded by a together with the odd-multiple exclusion, checked in both
    orientations.
    """
    require_exponents(i, j)
    require_prime(p)
    a = _neg1_mod4_exponent(p)
    mk = lambda v, rule: DecisionTrace(v, rule, "Fp", i, j, p=p, aux={"a": a})
    if i % 2 == 1 and j % 2 == 1:
        return mk(True, RULE_ODD_ODD)
    if (i - j) % 2 == 1 and not is_odd_multiple(
        math.gcd(abs(j - i), p - 1), math.gcd(j + i, p - 1)
    ):
        return mk(True, RULE_COR_PARITY_GCD)
    # the list {(l(p+1), (p+1)(p-l)+p) mod 2p : 0 < l < p}, in either order,
    # in closed form: l(p+1) is the even residue = l (mod p), and
    # (p+1)(p-l)+p the odd residue = -l (mod p)
    u, v = i % (2 * p), j % (2 * p)
    if (u - v) % 2 and (u + v) % p == 0 and (u if u % 2 == 0 else v) % p:
        return mk(True, RULE_COR_MOD2P_LIST)

    def cond4(u, v):
        if not nu2(v - u * p) <= a:
            return False
        g = math.gcd(abs(v - u * p), math.gcd((p + 1) * abs(v - u), p * p - 1))
        return not is_odd_multiple(v - u, g)

    if cond4(i, j) or cond4(j, i):
        return mk(True, RULE_COR_VAL_BOUND)
    return mk(False, RULE_NONE)


def decide_corollaries(p: int, i: int, j: int) -> DecisionTrace:
    """Dispatch to the specialized congruence forms (p = 3, or p = -1 mod 4)."""
    if p == 3:
        return decide_p3_congruences(i, j)
    return decide_neg1_mod4(p, i, j)


def decide(field_tag: str, i: int, j: int, p: int | None = None) -> DecisionTrace:
    """Uniform entry point used by the command-line interface."""
    tag = field_tag.lower()
    if tag == "q":
        return decide_Q(i, j)
    if tag == "f2":
        return decide_Z2(i, j)
    if tag == "fp":
        if p is None:
            raise UnsupportedParameters("the field fp needs a prime p")
        if p == 2:
            return decide_Z2(i, j)
        return decide_Zp(p, i, j)
    raise UnsupportedParameters(f"unknown field {field_tag!r}")
