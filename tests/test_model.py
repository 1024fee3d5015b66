"""The witness check's ladder in L[C] = L*C + L*I, against Mat2 powers."""

import importlib.util
import random
from pathlib import Path

import pytest

from m2alg import groebner, mat2, model
from m2alg.errors import Inconsistency
from m2alg.fields import GF, QQ
from m2alg.groebner import QuotientElem, structure_basis
from m2alg.mat2 import Mat2, mat_pow
from m2alg.model import _pair_powers, witness_XY, x_power
from m2alg.sequences import f_st

FIELDS = [QQ, GF(2), GF(3)]
LADDER_PAIRS = [(5, 4), (13, 8), (12, 7)]


def _in_L_of_C(ring, a, b):
    """a*C + b*I as a matrix, C = [[t, s], [1, 0]]."""
    return Mat2(ring, a * ring.t() + b, a * ring.s(), a, b)


def _random_element(ring, rng):
    # small int coefficients, so that powers over Q stay cheap
    terms = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3) for _ in range(4)}
    return QuotientElem(terms, ring)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("i,j", LADDER_PAIRS)
def test_pair_power_matches_mat_pow(i, j, field):
    ring = structure_basis(i, j, field)
    rng = random.Random(i * 100 + j)
    a, b = _random_element(ring, rng), _random_element(ring, rng)
    m = _in_L_of_C(ring, a, b)
    x = (a.terms, b.terms)
    for e in range(41):
        # one chain for e and a smaller exponent, as the witness check runs it
        for power, k in zip(_pair_powers(ring, x, e, e // 3), (e, e // 3)):
            alpha, beta = (ring.zero._new(c) for c in power)
            assert _in_L_of_C(ring, alpha, beta) == mat_pow(m, k), (e, k)


def _negated_b(pair_of, ring, e):
    a, b = pair_of(ring, e)
    return a, (-ring.zero._new(b)).terms


def _squared(pair_of, ring, e):
    return pair_of(ring, 2 * e)


@pytest.mark.parametrize(
    "wrong,fields",
    [(_negated_b, [QQ, GF(3)]), (_squared, FIELDS)],
    ids=["b-negated", "X-squared"],
)
@pytest.mark.parametrize("i,j", LADDER_PAIRS)
def test_witness_refuses_a_wrong_X(i, j, wrong, fields, monkeypatch):
    # -b = b over GF(2), so the negation is no mutation there
    pair_of = model._x_pair
    monkeypatch.setattr(model, "_x_pair", lambda ring, e: wrong(pair_of, ring, e))
    for field in fields:
        with pytest.raises(Inconsistency):
            witness_XY(i, j, field)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("i,j", LADDER_PAIRS)
def test_x_power_is_a_C_plus_b_I(i, j, field):
    # X is built from its verified pair, so the shifts that form a*t + b
    # and a*s are checked here, against ring multiplies
    ring = structure_basis(i, j, field)
    for e in range(3 * (i + j)):
        X = x_power(ring, e)
        assert X == _in_L_of_C(ring, X.c, X.d), e


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=lambda f: f.name)
@pytest.mark.parametrize("i,j", [(5, 3), (13, 8), (7, 4)])
def test_witness_refuses_wrong_powers_that_keep_the_relation(i, j, field, monkeypatch):
    # X^lo = C + s*I and X^hi = C*X^r = C - (t + s)*I: the relation
    # t + b_lo + b_hi = 0 still holds, so only the pair check can refuse them.
    # Here hi < 2*lo, and X^r = C^(-1)*(C - (t + s)*I), with
    # C^(-1) = s^(-1)*(C - t*I)
    lo, d = min(i, j), abs(i - j)
    chain = model._pair_powers

    def wrong_chain(ring, x, *exps):
        if exps[0] != lo:
            return chain(ring, x, *exps)
        s, t, one = ring.s(), ring.t(), ring.one
        s_inv = ring.s(d - 1) * (-1) ** d  # from s^d = (-1)^d
        x_r = (-(t + s) * s_inv, one + t * (t + s) * s_inv)
        return (one.terms, s.terms), tuple(c.terms for c in x_r)

    monkeypatch.setattr(model, "_pair_powers", wrong_chain)
    with pytest.raises(Inconsistency):
        witness_XY(i, j, field)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=lambda f: f.name)
@pytest.mark.parametrize("i,j", [(13, 8), (7, 2), (13, 1)])
def test_witness_refuses_a_wrong_X_lo_alone(i, j, field, monkeypatch):
    # X^lo = C + s*I while X^r, and so X^hi, is left as it is
    lo = min(i, j)
    chain = model._pair_powers

    def wrong_chain(ring, x, *exps):
        powers = chain(ring, x, *exps)
        if exps[0] != lo:
            return powers
        return ((ring.one.terms, ring.s().terms), *powers[1:])

    monkeypatch.setattr(model, "_pair_powers", wrong_chain)
    with pytest.raises(Inconsistency):
        witness_XY(i, j, field)


def _chain_products(*exps):
    """Pair products of one chain of squarings for exps: the squarings up to
    the largest exponent's top digit, and a product per further digit."""
    top = max(exps).bit_length()
    return max(top - 1, 0) + sum(max(bin(e).count("1") - 1, 0) for e in exps)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=lambda f: f.name)
@pytest.mark.parametrize("i,j", [(13, 8), (21, 20), (13, 1), (7, 2)])
def test_witness_makes_the_chains_pair_products(i, j, field, monkeypatch):
    # one chain gives X^lo and X^r; for q = 1, C * X^r is a shift, no
    # product; for q >= 2, C^q has its own chain and one product with X^r
    q, r = divmod(i, j)
    want = _chain_products(j, r)
    if q > 1:
        want += _chain_products(q) + (r > 0)
    ring = structure_basis(i, j, field)
    products = []
    pair_mul = model._pair_mul

    def counting(*args):
        products.append(1)
        return pair_mul(*args)

    monkeypatch.setattr(model, "_pair_mul", counting)
    witness_XY(i, j, field, gb=ring)
    assert len(products) == want, (len(products), want)


def _benchmark_structure_pairs():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.STRUCTURE_PAIRS


def test_witness_runs_no_matrix_product(monkeypatch):
    # the check works on coefficient pairs, never on Mat2 products or powers
    def refuse(*args):
        raise AssertionError("Mat2 product or power in witness_XY")

    monkeypatch.setattr(Mat2, "__mul__", refuse)
    monkeypatch.setattr(mat2, "mat_pow", refuse)
    assert not hasattr(model, "mat_pow")
    for field in (QQ, GF(3)):
        for i, j in _benchmark_structure_pairs():
            witness_XY(i, j, field)


NEAR_SIDE_PAIRS = [(5, 4), (7, 2), (9, 2), (12, 7), (13, 8)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("i,j", NEAR_SIDE_PAIRS)
def test_x_power_from_either_side_matches_mat_pow(i, j, field):
    ring = structure_basis(i, j, field)
    n, lo = i + j, min(i, j)
    X = x_power(ring, 1)
    sides = set()
    for e in range(3 * n):
        u = e * pow(lo, -1, n) % n
        if u:
            sides.add(n - u < u)  # True: read from C^n = s^lo * I
        assert x_power(ring, e) == mat_pow(X, e), e
    assert sides == {False, True}


def test_x_power_divides_nothing_deep(monkeypatch):
    # every f divided has t-degree at most n/2; the shifts a*t add one
    ring = structure_basis(401, 400)
    n = 801
    divide = groebner._divide
    degrees = []

    def recording(p, divisors, mod):
        degrees.append(max((et for _, et in p), default=-1))
        return divide(p, divisors, mod)

    monkeypatch.setattr(model, "_divide", recording)
    for e in range(n):
        x_power(ring, e)
    assert degrees and max(degrees) <= n // 2 + 1, max(degrees)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("i,j", [(2, 1), (3, 2), (5, 2), (7, 3)])
def test_f_at_negative_index(i, j, field):
    # s is a unit in L, and f(-k) = -(-s)^(-k) * f(k) continues the recursion
    ring = structure_basis(i, j, field)
    d, mod = i - j, ring._mod
    s, t = ring.s(), ring.t()
    s_inv = ring.s(d - 1) * (-1) ** d  # from s^d = (-1)^d
    assert s * s_inv == ring.one

    def f(n, e=0):
        return ring._element(groebner._s_power_f(e, n, d, mod))

    for n in range(-12, 13):
        assert f(n) == t * f(n - 1) + s * f(n - 2), n
    for k in range(13):
        f_k = ring.of(f_st(k, field))
        for e in (-2, 0, 3):
            s_e = s**e if e >= 0 else s_inv**-e
            assert f(-k, e) == -(s_e * (-s_inv) ** k * f_k), (k, e)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=lambda f: f.name)
@pytest.mark.parametrize("i,j", [(7, 2), (11, 3), (13, 4)])
def test_witness_refuses_a_wrong_power_of_C_in_X_hi(i, j, field, monkeypatch):
    # hi = q*lo + r with q = 3: X^lo = C holds, and C^q is patched to
    # C^(q+1), so the pair of X^hi is X^(hi+lo)'s
    lo = min(i, j)
    q = max(i, j) // lo
    chain = model._pair_powers
    patched = []

    def wrong_chain(ring, x, *exps):
        if x == (ring.one.terms, {}) and exps == (q,):
            patched.append(q)
            exps = (q + 1,)
        return chain(ring, x, *exps)

    monkeypatch.setattr(model, "_pair_powers", wrong_chain)
    with pytest.raises(Inconsistency):
        witness_XY(i, j, field)
    assert patched == [q]
