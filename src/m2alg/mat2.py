"""Generic 2x2 matrices over a commutative coefficient ring.

The ring is any object exposing ``zero``, ``one`` and ``of(int)``; entries
are the ring's element type (Fraction, FpElem, BiPoly, quotient-ring
elements, ...).  Also provides an exact solver for the linear matrix
equation A*Y + Y*B = C over a field, and randomized checks of the two
classical polynomial identities every M_2(commutative ring) satisfies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field


class Mat2:
    """2x2 matrix [[a, b], [c, d]] over a commutative ring."""

    __slots__ = ("ring", "a", "b", "c", "d")

    def __init__(self, ring, a, b, c, d):
        self.ring = ring
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @classmethod
    def of_rows(cls, ring, rows):
        (a, b), (c, d) = rows
        return cls(ring, ring.of(a), ring.of(b), ring.of(c), ring.of(d))

    @classmethod
    def identity(cls, ring):
        return cls(ring, ring.one, ring.zero, ring.zero, ring.one)

    @classmethod
    def zero(cls, ring):
        return cls(ring, ring.zero, ring.zero, ring.zero, ring.zero)

    @classmethod
    def scalar(cls, ring, c):
        c = ring.of(c)
        return cls(ring, c, ring.zero, ring.zero, c)

    @classmethod
    def e12(cls, ring):
        return cls(ring, ring.zero, ring.one, ring.zero, ring.zero)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def __add__(self, other):
        return Mat2(
            self.ring,
            self.a + other.a,
            self.b + other.b,
            self.c + other.c,
            self.d + other.d,
        )

    def __sub__(self, other):
        return Mat2(
            self.ring,
            self.a - other.a,
            self.b - other.b,
            self.c - other.c,
            self.d - other.d,
        )

    def __neg__(self):
        return Mat2(self.ring, -self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.ring,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def scale(self, c):
        return Mat2(self.ring, c * self.a, c * self.b, c * self.c, c * self.d)

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def __pow__(self, e):
        return mat_pow(self, e)

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Mat2):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def is_zero(self):
        return self == Mat2.zero(self.ring)

    def __repr__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def mat_pow(m: Mat2, e: int) -> Mat2:
    """Exact matrix power by a Cayley-Hamilton ladder; e = 0 gives the identity.

    Every 2x2 matrix over a commutative ring satisfies m^2 = tau*m - delta*I
    with tau = tr m and delta = det m: expanding m^2 - tau*m + delta*I entry
    by entry gives polynomials in a, b, c, d with integer coefficients that
    vanish identically, so the identity holds in every ring whose entries
    commute, which is every ring Mat2 accepts.  Hence m^e = x*m + y*I, and
    the pair (x, y) is walked over the bits of e, most significant first:

        squaring:   (x, y) -> (x^2*tau + 2xy, y^2 - x^2*delta)   5 products
        step by m:  (x, y) -> (x*tau + y, -x*delta)              2 products

    The matrix is built once at the end (4 products), against 8 products
    for each full Mat2 square or multiply.
    """
    if e < 0:
        raise ValueError("negative exponent")
    ring = m.ring
    if e == 0:
        return Mat2.identity(ring)
    tau, neg_delta = m.trace(), -m.det()
    x, y = ring.one, ring.zero
    for bit in bin(e)[3:]:
        xx, xy = x * x, x * y
        x, y = xx * tau + xy + xy, y * y + xx * neg_delta
        if bit == "1":
            x, y = x * tau + y, x * neg_delta
    return Mat2(ring, x * m.a + y, x * m.b, x * m.c, x * m.d + y)


def _rref(rows, rhs, field):
    """Gauss-Jordan over a field.  Returns (particular | None, nullspace basis).

    rows is a list of m coefficient lists of length n, rhs the m right-hand
    sides.  The nullspace basis vectors are length-n lists.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(r) + [rhs[k]] for k, r in enumerate(rows)]
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, m):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = field.one / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][n]:
            return None, []
    free_cols = [c for c in range(n) if c not in pivots]
    particular = [field.zero] * n
    for k, col in enumerate(pivots):
        particular[col] = aug[k][n]
    basis = []
    for fc in free_cols:
        vec = [field.zero] * n
        vec[fc] = field.one
        for k, col in enumerate(pivots):
            vec[col] = -aug[k][fc]
        basis.append(vec)
    return particular, basis


@dataclass
class SylvesterSolution:
    """Affine description of {Y : A*Y + Y*B = C} over a field."""

    particular: Mat2 | None
    homogeneous: list = dc_field(default_factory=list)

    @property
    def dimension(self) -> int:
        return len(self.homogeneous)

    @property
    def empty(self) -> bool:
        return self.particular is None


def solve_sylvester(a: Mat2, b: Mat2, c: Mat2) -> SylvesterSolution:
    """Solve A*Y + Y*B = C exactly; the common ring must be a field.

    Flattens Y row-major into a 4x4 linear system.  The returned basis
    vectors each satisfy A*H + H*B = 0.
    """
    ring = a.ring
    A = a.rows()
    B = b.rows()
    C = c.rows()
    rows = []
    rhs = []
    # unknowns ordered y11, y12, y21, y22
    for r in range(2):
        for col in range(2):
            coeffs = [ring.zero] * 4
            for k in range(2):
                coeffs[2 * k + col] = coeffs[2 * k + col] + A[r][k]
                coeffs[2 * r + k] = coeffs[2 * r + k] + B[k][col]
            rows.append(coeffs)
            rhs.append(C[r][col])
    particular, basis = _rref(rows, rhs, ring)
    if particular is None:
        return SylvesterSolution(None, [])
    mk = lambda v: Mat2(ring, v[0], v[1], v[2], v[3])
    return SylvesterSolution(mk(particular), [mk(v) for v in basis])


def hall_identity_holds(x: Mat2, y: Mat2, z: Mat2) -> bool:
    """(xy - yx)^2 commutes with everything in M_2 over a commutative ring."""
    k = x * y - y * x
    k2 = k * k
    return k2 * z == z * k2


def standard_identity_s4(x1: Mat2, x2: Mat2, x3: Mat2, x4: Mat2) -> Mat2:
    """The alternating sum over all products of the four arguments."""
    mats = (x1, x2, x3, x4)
    total = Mat2.zero(x1.ring)
    for perm in itertools.permutations(range(4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j]
        )
        prod = mats[perm[0]] * mats[perm[1]] * mats[perm[2]] * mats[perm[3]]
        total = total + (prod if inversions % 2 == 0 else -prod)
    return total


@dataclass
class PiReport:
    samples: int
    hall_failures: int = 0
    s4_failures: int = 0
    sub_failures: int = 0

    @property
    def ok(self) -> bool:
        return self.hall_failures == self.s4_failures == self.sub_failures == 0


def pi_identity_check(ring, samples: int, rng) -> PiReport:
    """Randomized verification that M_2(ring) satisfies the two identities.

    The theorems guarantee both; this validates the matrix arithmetic.
    Neither identity sees a wrong off-diagonal difference (the Hall
    commutator keeps trace 0, so its square stays scalar, and S_4 only
    adds and negates), so each sample also checks (x - y) + y == x.
    """
    rand = lambda: Mat2(
        ring,
        ring.random_element(rng),
        ring.random_element(rng),
        ring.random_element(rng),
        ring.random_element(rng),
    )
    report = PiReport(samples=samples)
    for _ in range(samples):
        x, y, z = rand(), rand(), rand()
        if not hall_identity_holds(x, y, z):
            report.hall_failures += 1
        if (x - y) + y != x:
            report.sub_failures += 1
        if not standard_identity_s4(rand(), rand(), rand(), rand()).is_zero():
            report.s4_failures += 1
    return report
