import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from m2alg import fields, mat2, oracle
from m2alg.errors import Inconsistency, UnsupportedParameters
from m2alg.fields import GF, GF2, QQ
from m2alg.mat2 import Mat2, mat_pow, solve_sylvester
from m2alg.membership import decide_Q, decide_Z2, decide_Zp
from m2alg.oracle import (
    _e12_scale,
    _pow2,
    _sqrt_table,
    construct_witness_Q,
    enum_sweep_fp,
    oracle_enum_fp,
    oracle_roots_fp2,
    square_zero_conjugation_check,
    verify_pair,
)


def test_enum_goldens():
    rep = oracle_enum_fp(2, 2, 1)
    assert rep.found and rep.verified
    assert rep.x.rows() == ((GF(2).zero, GF(2).one), (GF(2).one, GF(2).one))
    rep = oracle_enum_fp(3, 1, 1)
    assert rep.found and rep.verified
    # first witness in scan order is the singular matrix E21
    assert rep.x == Mat2.of_rows(GF(3), ((0, 0), (1, 0)))
    rep = oracle_enum_fp(3, 4, 4)
    assert not rep.found and rep.x is None


def test_enum_rejects(monkeypatch):
    with pytest.raises(UnsupportedParameters):
        oracle_enum_fp(4, 1, 1)
    with pytest.raises(UnsupportedParameters):
        oracle_enum_fp(3, 0, 1)

    def refuse(p, pairs):
        raise AssertionError("scanned before rejecting --full")

    # an unsupported --full is rejected before the p^4 scan starts
    monkeypatch.setattr(oracle, "enum_sweep_fp", refuse)
    with pytest.raises(UnsupportedParameters):
        oracle_enum_fp(5, 1, 1, full=True)


def test_enum_full_mode():
    for p in (2, 3):
        for i, j in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            rep = oracle_enum_fp(p, i, j, full=True)
            assert rep.details.get("full_agrees") is True


def test_enum_witness_verification_is_exact():
    rep = oracle_enum_fp(3, 12, 25)
    if rep.found:
        assert verify_pair(rep.x, rep.y, 12, 25)


def test_enum_sweep_matches_single_queries():
    pairs = [(i, j) for i in range(1, 9) for j in range(1, 9)]
    table = enum_sweep_fp(3, pairs)
    for i, j in pairs:
        single = oracle_enum_fp(3, i, j)
        assert single.found == (table[(i, j)] is not None), (i, j)


def test_enum_sweep_of_no_pairs_is_empty():
    assert enum_sweep_fp(3, []) == {}
    assert enum_sweep_fp(2, iter(())) == {}


def test_z2_agreement_small():
    pairs = [(i, j) for i in range(1, 13) for j in range(1, 13)]
    table = enum_sweep_fp(2, pairs)
    for i, j in pairs:
        assert decide_Z2(i, j).verdict == (table[(i, j)] is not None), (i, j)


def test_z2_2_4_is_member_by_enumeration():
    # frozen from the exhaustive scan: x = [[0,1],[1,1]] works since x^3 = 1
    rep = oracle_enum_fp(2, 2, 4)
    assert rep.found
    x = Mat2.of_rows(GF(2), ((0, 1), (1, 1)))
    y = Mat2.e12(GF(2))
    assert verify_pair(x, y, 2, 4)


def test_square_zero_conjugation_reduction():
    for p in (2, 3):
        assert square_zero_conjugation_check(p)


def test_roots_oracle_goldens():
    rep = oracle_roots_fp2(3, 2, 2)
    assert rep.found and rep.verified
    assert rep.details["quadratic"] == (1, 2)
    assert rep.details["branch"] == "separable"
    rep = oracle_roots_fp2(3, 1, 2)
    assert rep.found and rep.details["branch"] == "double-root"
    assert not oracle_roots_fp2(3, 4, 4).found


def test_roots_oracle_rejects():
    with pytest.raises(UnsupportedParameters):
        oracle_roots_fp2(2, 1, 1)
    with pytest.raises(UnsupportedParameters):
        oracle_roots_fp2(6, 1, 1)


def test_roots_oracle_refuses_a_prime_too_large_to_scan(monkeypatch):
    def refuse(p):
        raise AssertionError("built a square-root table")

    monkeypatch.setattr(oracle, "_sqrt_table", refuse)
    # p^2 >= 2^32: refused before anything is built
    for p in (65537, 10**9 + 7):
        with pytest.raises(UnsupportedParameters, match="too large"):
            oracle_roots_fp2(p, 2, 1)
    # the largest prime below 2^16 passes the size test and starts building
    with pytest.raises(AssertionError, match="square-root table"):
        oracle_roots_fp2(65521, 2, 1)


def _fp_sqrt(fp, c):
    """Smallest square root of c in F_p by brute scan, or None."""
    for r in fp.elements():
        if r * r == c:
            return r
    return None


def _roots_fp2_objects(p, i, j):
    """(found, quadratic, branch) of the root scan on FpElem/Fp2Elem objects.

    A second route for ``oracle_roots_fp2``'s int kernel: the same scan
    order and branches, with field arithmetic through the public types.
    """
    fp = GF(p)
    fp2 = GF2(p)
    half = fp.one / 2
    diff = abs(j - i)
    minus_one = -fp2.one
    for a in range(p):
        for b in range(p):
            disc = fp.of(a * a - 4 * b)
            if not disc:
                r = fp.of(a) * half
                if (i, j) == (1, 1):
                    if not r:
                        return True, (a, b), "double-root"
                    continue
                if not r or (i + j) % p != 0 or i % p == 0:
                    continue
                if r**diff == -fp.one:
                    return True, (a, b), "double-root"
                continue
            if b == 0:
                continue
            root = _fp_sqrt(fp, disc)
            if root is not None:
                r0 = fp2.of((a + root) * half)
                s0 = fp2.of((a - root) * half)
            else:
                c = _fp_sqrt(fp, disc / fp2.u)
                r0 = (fp2.of(a) + fp2.make(0, c.value)) * fp2.of(half)
                s0 = r0.conjugate()
            rs = fp2.of(b)
            for r in (r0, s0):
                if rs**diff != fp2.one:
                    break  # symmetric in the orientation
                if r**diff == minus_one:
                    continue
                if r ** (i + j) + rs**i != fp2.zero:
                    continue
                return True, (a, b), "separable"
    return False, None, None


def test_sqrt_table_holds_smallest_roots():
    for p in (3, 5, 7, 11, 13, 31):
        fp = GF(p)
        table = _sqrt_table(p)
        for c in range(p):
            root = _fp_sqrt(fp, fp.of(c))
            assert table.get(c) == (None if root is None else root.value), (p, c)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_roots_kernel_matches_object_route(p):
    for i in range(1, 13):
        for j in range(1, 13):
            rep = oracle_roots_fp2(p, i, j)
            got = (rep.found, rep.details.get("quadratic"), rep.details.get("branch"))
            assert got == _roots_fp2_objects(p, i, j), (p, i, j)


def test_roots_scan_builds_no_fp2_objects(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("oracle_roots_fp2 built an Fp2Elem")

    monkeypatch.setattr(fields.Fp2Elem, "__init__", refuse)
    found = [
        oracle_roots_fp2(p, i, j).found
        for p in (3, 5, 7)
        for i in range(1, 7)
        for j in range(1, 7)
    ]
    assert any(found) and not all(found)


def test_roots_oracle_reports_golden():
    reps = [
        oracle_roots_fp2(p, i, j).to_dict()
        for p in (3, 5, 7)
        for i in range(1, 9)
        for j in range(1, 9)
    ]
    text = "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in reps) + "\n]\n"
    golden = Path(__file__).parent / "goldens" / "roots_fp2_p3-7_ij8.json"
    assert text == golden.read_text()


# sha256 of the report lines on the benchmark's F_7 and F_13 grids and on
# four more primes, as a scan of every (a, b) writes them
ROOTS_GRIDS = ((7, 40), (13, 24), (11, 24), (17, 24), (19, 24), (23, 24))
ROOTS_GRIDS_SHA256 = "8836af7b8cb35af24a66f73971382b4cdef0bd9edea0c25add3316bd679371db"


def test_roots_reports_on_the_benchmark_grids_are_byte_stable():
    digest = hashlib.sha256()
    for p, top in ROOTS_GRIDS:
        for i in range(1, top + 1):
            for j in range(1, top + 1):
                line = json.dumps(oracle_roots_fp2(p, i, j).to_dict(), sort_keys=True)
                digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == ROOTS_GRIDS_SHA256


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_pow2_on_fp_is_builtin_pow(p):
    u = fields.smallest_nonresidue(p)
    for r in range(p):
        for e in range(51):
            assert _pow2((r, 0), e, p, u) == (pow(r, e, p), 0), (p, r, e)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_inert_conjugate_roots_get_one_verdict(p):
    """Both roots of an inert x^2 - ax + b pass the separable test, or neither."""
    u = fields.smallest_nonresidue(p)
    inv2 = pow(2, -1, p)
    squares = {r * r % p for r in range(p)}
    passed = 0
    for a in range(p):
        for b in range(1, p):
            disc = (a * a - 4 * b) % p
            if disc in squares:
                continue
            c = next(c for c in range(1, p) if c * c * u % p == disc)
            r0 = (a * inv2 % p, c * inv2 % p)
            s0 = (r0[0], -r0[1] % p)
            assert _pow2(r0, p, p, u) == s0  # the Frobenius conjugate
            for ra, rb in (r0, s0):
                sa, sb = _pow2((ra, rb), 2, p, u)
                assert ((sa - a * ra + b) % p, (sb - a * rb) % p) == (0, 0)
            for i in range(1, 13):
                for j in range(1, 13):
                    minus_b_i = (-pow(b, i, p) % p, 0)
                    verdicts = {
                        _pow2(r, abs(j - i), p, u) != (p - 1, 0)
                        and _pow2(r, i + j, p, u) == minus_b_i
                        for r in (r0, s0)
                    }
                    assert len(verdicts) == 1, (p, a, b, i, j)
                    passed += True in verdicts
    assert passed


def _inert_admissible_scanned(p, i, j, hit):
    """Inert x^2 - ax + b with b^(j-i) = 1, in scan order up to the hit, by brute force."""
    squares = {r * r % p for r in range(p)}
    count = 0
    for a in range(p):
        for b in range(p):
            if (a * a - 4 * b) % p not in squares and pow(b, abs(j - i), p) == 1:
                count += 1
            if (a, b) == hit:
                return count
    return count


@pytest.mark.parametrize("p,i,j", [(13, 12, 24), (13, 4, 16), (13, 24, 24), (7, 6, 12)])
def test_roots_scan_ladders_only_inert_roots_once_each(monkeypatch, p, i, j):
    """No F_{p^2} ladder for a split root, at most two per inert quadratic."""
    ladders = []
    real = oracle._pow2

    def counted(z, e, mod, u):
        ladders.append(z)
        return real(z, e, mod, u)

    monkeypatch.setattr(oracle, "_pow2", counted)
    rep = oracle_roots_fp2(p, i, j)
    monkeypatch.undo()
    assert ladders and all(z[1] for z in ladders), (p, i, j)
    inert = _inert_admissible_scanned(p, i, j, rep.details.get("quadratic"))
    assert len(ladders) <= 2 * inert, (p, i, j, len(ladders), inert)


def _sylvester_square_zero_y(x, i, j, p):
    """The first square-zero y in scan order on {y : x^i y + y x^j = 1}.

    A second route for the separable witnesses of ``oracle_roots_fp2``: the
    exact linear solve, then a scan of the free parameters over F_p.
    """
    ring = GF(p)
    sol = solve_sylvester(mat_pow(x, i), mat_pow(x, j), Mat2.identity(ring))
    assert not sol.empty
    for values in itertools.product(range(p), repeat=sol.dimension):
        y = sol.particular
        for v, h in zip(values, sol.homogeneous):
            y = y + h.scale(ring.of(v))
        if (y * y).is_zero():
            return y
    return None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_roots_separable_witness_matches_sylvester_route(p):
    separable = 0
    for i in range(1, 13):
        for j in range(1, 13):
            rep = oracle_roots_fp2(p, i, j)
            if rep.details.get("branch") != "separable":
                continue
            separable += 1
            assert rep.y == _sylvester_square_zero_y(rep.x, i, j, p), (p, i, j)
    assert separable


def test_witnesses_need_no_linear_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("_rref called")

    monkeypatch.setattr(mat2, "_rref", refuse)
    for p in (3, 5, 7):
        for i in range(1, 7):
            for j in range(1, 7):
                rep = oracle_roots_fp2(p, i, j)
                assert rep.found == decide_Zp(p, i, j).verdict, (p, i, j)
                assert rep.verified == rep.found
    for i in range(1, 13):
        for j in range(1, 13):
            rep = construct_witness_Q(i, j)
            assert rep.found == decide_Q(i, j).verdict, (i, j)
            assert rep.verified == rep.found


def test_q_witness_y_is_e12_over_power_entry():
    for i in range(1, 31):
        for j in range(1, 31):
            rep = construct_witness_Q(i, j)
            if not rep.found:
                continue
            xi = Mat2.identity(QQ)
            for _ in range(i):
                xi = xi * rep.x
            assert rep.y == Mat2.e12(QQ).scale(1 / xi.c), (i, j)


def test_cross_oracle_agreement_small():
    for p in (3, 5):
        pairs = [(i, j) for i in range(1, 11) for j in range(1, 11)]
        table = enum_sweep_fp(p, pairs)
        for i, j in pairs:
            assert oracle_roots_fp2(p, i, j).found == (
                table[(i, j)] is not None
            ), (p, i, j)


def test_cross_oracle_specific():
    assert (
        oracle_roots_fp2(5, 2, 4).found
        == oracle_enum_fp(5, 2, 4).found
    )


def test_construct_witness_q_odd_odd():
    rep = construct_witness_Q(3, 5)
    assert rep.found and rep.verified
    assert rep.x == Mat2.of_rows(QQ, ((0, 1), (1, 0)))
    assert rep.y == Mat2.e12(QQ)


def test_construct_witness_q_diagonal():
    rep = construct_witness_Q(2, 2)
    assert rep.found and rep.verified
    # characteristic polynomial x^2 - 2x + 2 from the semantic root 0
    assert rep.x.trace() == QQ.of(2)
    assert rep.x.det() == QQ.of(2)


def test_construct_witness_q_mod6():
    rep = construct_witness_Q(1, 2)
    assert rep.found and rep.verified
    # characteristic polynomial x^2 - x + 1 (sixth root of unity)
    assert rep.x.trace() == QQ.one
    assert rep.x.det() == QQ.one
    assert mat_pow(rep.x, 6) == Mat2.identity(QQ)


def test_construct_witness_q_nonmember():
    rep = construct_witness_Q(4, 3)
    assert not rep.found and rep.x is None


def test_construct_witness_q_members_sweep():
    for i in range(1, 13):
        for j in range(1, 13):
            rep = construct_witness_Q(i, j)
            assert rep.found == decide_Q(i, j).verdict, (i, j)
            if rep.found:
                assert rep.verified


def test_zp_agreement_spot():
    for p in (3, 5):
        pairs = [(i, j) for i in range(1, 15) for j in range(1, 15)]
        table = enum_sweep_fp(p, pairs)
        for i, j in pairs:
            assert decide_Zp(p, i, j).verdict == (table[(i, j)] is not None), (p, i, j)


def _all_witness_reports():
    """Every report of the three oracles on small grids."""
    for p in (3, 5, 7):
        for i in range(1, 13):
            for j in range(1, 13):
                yield oracle_roots_fp2(p, i, j)
    for p in (3, 5):
        for i in range(1, 9):
            for j in range(1, 9):
                yield oracle_enum_fp(p, i, j)
    for i in range(1, 31):
        for j in range(1, 31):
            yield construct_witness_Q(i, j)


def test_every_oracle_witness_passes_the_mat2_route():
    counts = {}
    for rep in _all_witness_reports():
        if not rep.found:
            continue
        assert rep.verified
        assert verify_pair(rep.x, rep.y, rep.i, rep.j), (rep.method, rep.p, rep.i, rep.j)
        counts[rep.method] = counts.get(rep.method, 0) + 1
    assert set(counts) == {oracle.ROOT_FP2, oracle.ENUM_FP, oracle.CONSTRUCT_Q}


def _mat2_scale(x, i, j, ring):
    """The Mat2 route to _e12_scale: c = (x^i)_21 if (x, E12/c) is a witness, else None.

    x^i E12 + E12 x^j = I forces the scale of E12, so c is the only candidate.
    """
    m = Mat2.of_rows(ring, (x[:2], x[2:]))
    c = mat_pow(m, i).c
    if not c or not verify_pair(m, Mat2.e12(ring).scale(1 / c), i, j):
        return None
    return c


def _checked_scale(x, i, j, mod):
    try:
        return _e12_scale(x, i, j, mod)
    except Inconsistency:
        return None


@pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 5), (4, 2)])
def test_e12_scale_matches_mat2_route_on_all_of_f3(i, j):
    hits = 0
    for x in itertools.product(range(3), repeat=4):
        c = _checked_scale(x, i, j, 3)
        ref = _mat2_scale(x, i, j, GF(3))
        assert (c is None) == (ref is None), (x, i, j)
        if c is not None:
            hits += 1
            assert GF(3).of(c) == ref, (x, i, j)
    assert bool(hits) == decide_Zp(3, i, j).verdict


def _witness_cases():
    """(x, mod, i, j, ring) for an F_7 separable witness, an F_5 double root and Z."""
    sep = next(
        r for i in range(1, 13) for j in range(1, 13) if i != j
        for r in [oracle_roots_fp2(7, i, j)] if r.details.get("branch") == "separable"
    )
    dbl = next(
        r for i in range(1, 13) for j in range(1, 13) if i != j
        for r in [oracle_roots_fp2(5, i, j)] if r.details.get("branch") == "double-root"
    )
    q = construct_witness_Q(1, 2)
    for rep, mod in ((sep, 7), (dbl, 5), (q, 0)):
        x = tuple(int(str(v)) for v in rep.x.entries())
        yield x, mod, rep.i, rep.j, GF(mod) if mod else QQ


def test_e12_scale_rejects_a_perturbed_x():
    for x, mod, i, j, ring in _witness_cases():
        assert ring.of(_e12_scale(x, i, j, mod)) == _mat2_scale(x, i, j, ring)
        rejected = 0
        for k in range(4):
            bent = list(x)
            bent[k] = (bent[k] + 1) % mod if mod else bent[k] + 1
            bent = tuple(bent)
            c = _checked_scale(bent, i, j, mod)
            assert (c is None) == (_mat2_scale(bent, i, j, ring) is None), (bent, mod, i, j)
            rejected += c is None
        assert rejected, (x, mod, i, j)
    with pytest.raises(Inconsistency):
        _e12_scale((1, 0, 0, 1), 2, 3, 0)  # c = (x^i)_21 = 0


def test_e12_scale_rejects_a_wrong_c(monkeypatch):
    real = oracle._pow4
    for x, mod, i, j, _ in _witness_cases():
        assert i != j
        # the entries the relation reads: (x^i)_11, (x^i)_21 = c, (x^j)_21, (x^j)_22
        for e, k in ((i, 0), (i, 2), (j, 2), (j, 3)):
            def bent(u, n, p, e=e, k=k):
                out = list(real(u, n, p))
                if n == e:
                    out[k] = (out[k] + 1) % p if p else out[k] + 1
                return tuple(out)

            monkeypatch.setattr(oracle, "_pow4", bent)
            with pytest.raises(Inconsistency):
                _e12_scale(x, i, j, mod)
        monkeypatch.setattr(oracle, "_pow4", real)
        assert _e12_scale(x, i, j, mod)


def test_oracle_scan_and_check_run_on_ints(monkeypatch):
    """No FpElem or Fraction + or * while the oracles scan and check."""
    def refuse(*args):
        raise AssertionError("field arithmetic in an oracle")

    # the classifications that construct_witness_Q consults, settled first
    q_pairs = [(i, j) for i in range(1, 31) for j in range(1, 31)]
    congruence = {ij: decide_Q(*ij) for ij in q_pairs}
    semantic = {ij: oracle.decide_Q_semantic(*ij) for ij in q_pairs}
    monkeypatch.setattr(oracle, "decide_Q", lambda i, j: congruence[i, j])
    monkeypatch.setattr(oracle, "decide_Q_semantic", lambda i, j: semantic[i, j])
    for cls in (fields.FpElem, Fraction):
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            monkeypatch.setattr(cls, name, refuse)
    reports = [oracle_roots_fp2(p, i, j) for p in (3, 5, 7) for i in range(1, 9) for j in range(1, 9)]
    reports += [oracle_enum_fp(3, i, j) for i in range(1, 7) for j in range(1, 7)]
    reports += [construct_witness_Q(i, j) for i, j in q_pairs]
    monkeypatch.undo()
    assert all(r.verified for r in reports if r.found)
    assert {r.method for r in reports if r.found} == {
        oracle.ROOT_FP2, oracle.ENUM_FP, oracle.CONSTRUCT_Q
    }
