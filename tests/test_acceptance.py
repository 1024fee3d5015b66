"""Acceptance criteria for the whole artifact, one test per criterion.

Each test prints a single ``[criterion N] name: PASS (t s)`` line (visible
with ``pytest -s``); every comparison is exact.  Stated time budgets are
asserted; unstated ones are only reported.
"""

import json
import math
import time

from m2alg.cli import main as cli_main
from m2alg.fields import GF, GF2, QQ, nu2
from m2alg.freealg import (
    build_rewrite_system,
    certify_normal_forms,
    check_identities,
    matrix_model,
    validate_system,
)
from m2alg.groebner import INFINITE, structure_basis
from m2alg.mat2 import Mat2, mat_pow
from m2alg.membership import (
    decide_Q,
    decide_Q_semantic,
    decide_Z2,
    decide_Zp,
    decide_ii_Zp,
    decide_neg1_mod4,
    decide_p3_congruences,
)
from m2alg.oracle import (
    construct_witness_Q,
    enum_sweep_fp,
    oracle_roots_fp2,
    square_zero_conjugation_check,
)
from m2alg.sequences import companion_matrix_st, companion_power, f_st, fbar, trace_poly


class criterion:
    """Times a criterion and prints its pass/fail line outside the capture."""

    def __init__(self, number, name, budget=None, capsys=None):
        self.number = number
        self.name = name
        self.budget = budget
        self.capsys = capsys

    def _emit(self, line):
        if self.capsys is not None:
            with self.capsys.disabled():
                print(line)
        else:
            print(line)

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        self._emit(f"[criterion {self.number}] {self.name}: {status} ({elapsed:.2f} s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget} s budget: {elapsed:.2f} s"
            )
        return False


def coprime_pairs(max_i, include_diag=True):
    pairs = [(1, 1)] if include_diag else []
    pairs += [
        (i, j)
        for i in range(2, max_i + 1)
        for j in range(1, i)
        if math.gcd(i, j) == 1
    ]
    return pairs


def run_cli_json(args, capsys):
    code = cli_main(args)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_golden_structure_fixtures(capsys):
    with criterion(1, "golden structure fixtures", budget=1.0, capsys=capsys):
        record = run_cli_json(["structure", "2", "1"], capsys)
        assert set(record["result"]["reduced_basis"]) == {"t - 1", "s + 1"}
        assert record["result"]["dimension"] == 1
        record = run_cli_json(["structure", "4", "3", "--field", "q"], capsys)
        assert set(record["result"]["reduced_basis"]) == {
            "t^3 - t^2 - 2*t + 1",
            "s + 1",
        }
        assert record["result"]["dimension"] == 3


def test_criterion_2_theorem_vs_oracle_zp(capsys):
    with criterion(2, "theorem vs oracle over Z_p", budget=120.0, capsys=capsys):
        for p, bound in ((3, 40), (5, 40), (7, 40), (11, 24), (13, 24)):
            pairs = [
                (i, j)
                for i in range(1, bound + 1)
                for j in range(1, bound + 1)
            ]
            found = enum_sweep_fp(p, pairs)
            for i, j in pairs:
                assert decide_Zp(p, i, j).verdict == (
                    found[(i, j)] is not None
                ), (p, i, j)


def test_criterion_3_theorem_vs_oracle_z2(capsys):
    with criterion(3, "theorem vs oracle over Z_2", budget=1.0, capsys=capsys):
        pairs = [(i, j) for i in range(1, 31) for j in range(1, 31)]
        found = enum_sweep_fp(2, pairs)
        for i, j in pairs:
            assert decide_Z2(i, j).verdict == (found[(i, j)] is not None), (i, j)


def test_criterion_4_corollary_consistency(capsys):
    with criterion(4, "corollary consistency", capsys=capsys):
        for i in range(1, 97):
            for j in range(1, 97):
                assert (
                    decide_Zp(3, i, j).verdict == decide_p3_congruences(i, j).verdict
                ), (i, j)
        for p in (7, 11, 31):
            for i in range(1, 61):
                for j in range(1, 61):
                    assert (
                        decide_Zp(p, i, j).verdict
                        == decide_neg1_mod4(p, i, j).verdict
                    ), (p, i, j)
            for i in range(1, 65):
                assert decide_Zp(p, i, i).verdict == decide_ii_Zp(p, i).verdict, (p, i)


def test_criterion_5_rational_criterion_two_routes(capsys):
    with criterion(5, "rational criterion, two independent routes", capsys=capsys):
        for i in range(1, 61):
            for j in range(1, 61):
                assert (
                    decide_Q(i, j).verdict == decide_Q_semantic(i, j).verdict
                ), (i, j)
        assert decide_Q(4, 3).verdict is False
        for i in range(1, 21):
            for j in range(1, 21):
                rep = construct_witness_Q(i, j)
                assert rep.found == decide_Q(i, j).verdict, (i, j)
                if rep.found:
                    assert rep.verified, (i, j)


def test_criterion_6_structure_theorem_suite(capsys):
    with criterion(6, "structure theorem verification suite", budget=30.0, capsys=capsys):
        from m2alg.freealg import NCPoly

        for field in (QQ, GF(3)):
            for i, j in coprime_pairs(8):
                gb = structure_basis(i, j, field)
                assert not gb.is_trivial(), (i, j, field)
                model = matrix_model(i, j, field)
                X, Y = model.pair.X, model.pair.Y
                ring = model.ring
                ident = Mat2.identity(ring)
                assert (Y * Y).is_zero()
                assert mat_pow(X, i) * Y + Y * mat_pow(X, j) == ident
                assert mat_pow(X, j) * Y + Y * mat_pow(X, i) == ident
                sign = ident if (i + j) % 2 == 0 else -ident
                assert mat_pow(X, i * i - j * j) == sign
                assert model.image(NCPoly.x(field, i + j)) == Mat2.scalar(ring, ring.s())
                assert model.image(
                    NCPoly.x(field, j) - NCPoly.x(field, i)
                ) == Mat2.scalar(ring, ring.t())
                rep = check_identities(i, j, n_max=1, field=field)
                unit_entries = [ok for name, ok in rep.entries if name.startswith("e")]
                assert len(unit_entries) == 17 and all(unit_entries), (i, j, field)
                dim = gb.dimension()
                if (i, j) == (1, 1):
                    assert dim is INFINITE
                else:
                    assert 2 * dim == (i + j - 1) * (i - j), (i, j, field)


# -- criterion 7 helpers: an independent integer-coefficient polynomial
#    oracle (plain lists, ascending exponents) ------------------------------


def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    while out and out[-1] == 0:
        out.pop()
    return out


def _padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    while out and out[-1] == 0:
        out.pop()
    return out


def _pneg(a):
    return [-v for v in a]


def _pshift(a, k):
    return ([0] * k + a) if a else []


def test_criterion_7_identity_suites(capsys):
    with criterion(7, "recursion identity suites", budget=10.0, capsys=capsys):
        # library f(n): monic of degree n-1 in t, constant-in-t term pattern
        for n in range(1, 201):
            p = f_st(n)
            assert p.deg_t() == n - 1
            assert p.terms.get((0, n - 1)) == QQ.one
            const = {m: c for m, c in p.terms.items() if m[1] == 0}
            if n % 2 == 0:
                assert const == {}, n
            else:
                assert const == {(n // 2, 0): QQ.one}, n
        assert f_st(7).text() == "t^6 + 5*s*t^4 + 6*s^2*t^2 + s^3"

        # independent oracle for the s -> -1 images, then the three
        # factorization identities checked by exact integer convolution
        fb = [[], [1]]
        for n in range(2, 402):
            fb.append(_padd(_pshift(fb[-1], 1), _pneg(fb[-2])))
        for n in range(0, 402):
            lib = fbar(n)
            assert [int(c) for c in lib.coeffs] == fb[n], n
        one = [1]
        for n in range(1, 201):
            assert fb[2 * n - 1] == _pmul(_padd(fb[n], fb[n - 1]), _padd(fb[n], _pneg(fb[n - 1])))
            assert _padd(fb[2 * n], _pneg(one)) == _pmul(
                _padd(fb[n + 1], _pneg(fb[n])), _padd(fb[n], fb[n - 1])
            )
            assert _padd(fb[2 * n], one) == _pmul(
                _padd(fb[n + 1], fb[n]), _padd(fb[n], _pneg(fb[n - 1]))
            )

        # trace family: z^n f_n(z + 1/z) = z^(2n) + 1 and the doubling rule
        tr = [[2], [0, 1]]
        for n in range(2, 202):
            tr.append(_padd(_pshift(tr[-1], 1), _pneg(tr[-2])))
        for n in range(0, 202):
            assert [int(c) for c in trace_poly(n).coeffs] == tr[n], n
        z2p1_pows = [[1]]
        for k in range(1, 101):
            z2p1_pows.append(_pmul(z2p1_pows[-1], [1, 0, 1]))
        for n in range(1, 101):
            acc = []
            for k, c in enumerate(tr[n]):
                if c:
                    acc = _padd(acc, _pshift([c * v for v in z2p1_pows[k]], n - k))
            want = [1] + [0] * (2 * n - 1) + [1]
            assert acc == want, n
            assert _padd(tr[2 * n], [2]) == _pmul(tr[n], tr[n]), n

        # companion closed form vs iterated multiplication, n <= 50
        c = companion_matrix_st()
        acc = c
        for n in range(1, 51):
            assert companion_power(n) == acc, n
            acc = acc * c


def test_criterion_8_field_lemma_suites(capsys):
    with criterion(8, "finite-field lemma suites", capsys=capsys):
        # cyclic subgroups of the units of F_{p^2}: g^m = -1 solvable in the
        # subgroup of order n iff nu2(m) + 1 <= nu2(n); exhaustive
        for p in (3, 5, 7, 11, 13):
            f = GF2(p)
            total = p * p - 1
            gen = f.generator()
            minus_one = -f.one
            for n in [d for d in range(1, total + 1) if total % d == 0]:
                g0 = gen ** (total // n)
                group = []
                z = f.one
                for _ in range(n):
                    group.append(z)
                    z = z * g0
                hit = [False] * (2 * n + 1)
                for g in group:
                    acc = f.one
                    for m in range(1, 2 * n + 1):
                        acc = acc * g
                        if acc == minus_one:
                            hit[m] = True
                for m in range(1, 2 * n + 1):
                    assert hit[m] == (nu2(m) + 1 <= nu2(n)), (p, n, m)

        # z + c/z in the base field iff z^(p-1) = 1 or z^(p+1) = c; exhaustive
        for p in (3, 5, 7):
            f = GF2(p)
            for cval in range(p):
                c = f.of(cval)
                for z in f.units():
                    lhs = (z + c / z).in_base_field()
                    rhs = z ** (p - 1) == f.one or z ** (p + 1) == c
                    assert lhs == rhs, (p, cval)

        # every nonzero square-zero 2x2 matrix is similar to E12; exhaustive
        for p in (2, 3, 5):
            assert square_zero_conjugation_check(p), p

        # the two oracles agree on found / not-found
        for p in (3, 5, 7):
            pairs = [(i, j) for i in range(1, 41) for j in range(1, 41)]
            found = enum_sweep_fp(p, pairs)
            for i, j in pairs:
                assert oracle_roots_fp2(p, i, j).found == (
                    found[(i, j)] is not None
                ), (p, i, j)


def test_criterion_9_rewriting_soundness(capsys):
    with criterion(9, "rewriting soundness", capsys=capsys):
        rep = validate_system(build_rewrite_system(1, 1), exhaustive_len=6)
        assert rep.ok, rep
        assert rep.words_checked == 2**7 - 2
        for i, j in coprime_pairs(5):
            rs = build_rewrite_system(i, j)
            rep = validate_system(rs, n_random=1000, max_len=12, seed=0)
            assert rep.words_checked >= 1000
            assert rep.soundness_failures == [], (i, j, rep.soundness_failures)
            assert rep.confluence_divergences == [], (i, j)
            assert rep.normal_form_escapes == [], (i, j)
            assert check_identities(i, j, n_max=6).ok, (i, j)
            assert certify_normal_forms(rs), (i, j)
