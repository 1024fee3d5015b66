import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m2alg.errors import UnsupportedParameters
from m2alg.fields import INF
from m2alg.membership import (
    DecisionTrace,
    decide,
    decide_Q,
    decide_Q_semantic,
    decide_Z2,
    decide_Zp,
    decide_corollaries,
    decide_ii_Zp,
    decide_neg1_mod4,
    decide_p3_congruences,
)
from m2alg.poly import BiPoly, UniPoly


def test_decide_q_goldens():
    assert decide_Q(4, 3).verdict is False
    assert decide_Q(5, 7).verdict is True
    assert decide_Q(4, 4).verdict is False
    assert decide_Q(2, 2).verdict is True
    assert decide_Q(1, 2).verdict is True
    assert decide_Q(4, 5).verdict is True
    assert decide_Q(2, 4).verdict is False
    assert decide_Q(3, 6).verdict is False


def test_decide_q_fired_rules():
    assert decide_Q(5, 7).fired_rule == "ODD_ODD"
    assert decide_Q(2, 2).fired_rule == "DIAG_MOD4"
    assert decide_Q(1, 2).fired_rule == "MOD6_LIST"
    assert decide_Q(4, 3).fired_rule == "NONE"


def test_trace_invariant():
    with pytest.raises(ValueError):
        DecisionTrace(True, "NONE", "Q", 1, 1)
    with pytest.raises(ValueError):
        DecisionTrace(False, "ODD_ODD", "Q", 1, 1)


def test_semantic_examples():
    t = decide_Q_semantic(2, 2)
    assert t.verdict and t.aux["root"] == 0
    t = decide_Q_semantic(1, 2)
    assert t.verdict and t.aux["root"] == 1 and t.aux["root_cube"] == -1
    t = decide_Q_semantic(1, 5)
    assert t.verdict and t.fired_rule == "ODD_ODD"
    assert decide_Q_semantic(4, 3).verdict is False
    assert decide_Q_semantic(6, 6).verdict and decide_Q_semantic(4, 4).verdict is False


def test_congruence_vs_semantic_agreement():
    for i in range(1, 61):
        for j in range(1, 61):
            assert decide_Q(i, j).verdict == decide_Q_semantic(i, j).verdict, (i, j)


def test_congruence_vs_semantic_agreement_to_120():
    for i in range(1, 121):
        for j in range(1, 121):
            congruence, semantic = decide_Q(i, j), decide_Q_semantic(i, j)
            assert (congruence.verdict, congruence.fired_rule) == (
                semantic.verdict,
                semantic.fired_rule,
            ), (i, j)


def test_semantic_route_does_no_fraction_arithmetic(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("Fraction arithmetic in decide_Q_semantic")

    for name in ("__add__", "__sub__", "__mul__"):
        monkeypatch.setattr(Fraction, name, refuse)
    traces = {(i, j): decide_Q_semantic(i, j) for i in range(1, 41) for j in range(1, 41)}
    monkeypatch.undo()
    assert all(t.verdict == decide_Q(i, j).verdict for (i, j), t in traces.items())
    assert all(type(v) is int for t in traces.values() for v in t.aux.values())


def test_semantic_route_builds_no_polynomial(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("polynomial built on the semantic route")

    monkeypatch.setattr(UniPoly, "__init__", refuse)
    monkeypatch.setattr(BiPoly, "__init__", refuse)
    assert decide_Q_semantic(600, 601).verdict is False


def test_decide_q_periodicity():
    # the verdict is a function of (i mod 12, j mod 12, diagonal residue)
    classes = {}
    for i in range(1, 121):
        for j in range(1, 121):
            key = (i % 12, j % 12, i == j, (i % 4) if i == j else None)
            verdict = decide_Q(i, j).verdict
            if key in classes:
                assert classes[key] == verdict, (i, j, key)
            else:
                classes[key] = verdict


def test_decide_z2_goldens():
    assert decide_Z2(2, 1).verdict is True
    assert decide_Z2(3, 3).verdict is True
    # (2, 4) = (2, 1) mod 3, so the mod-3 family fires; the enumeration
    # oracle over the two-element field confirms (see test_oracle)
    assert decide_Z2(2, 4).verdict is True
    assert decide_Z2(2, 2).verdict is False
    assert decide_Z2(4, 6).verdict is False


def test_decide_zp_goldens():
    assert decide_Zp(3, 2, 2).verdict is True
    assert decide_Zp(3, 4, 4).verdict is False
    assert decide_Zp(3, 1, 2).verdict is True
    assert decide_Zp(3, 1, 2).fired_rule == "ZP_CASE_IV"
    assert decide_Zp(5, 1, 3).verdict is True
    assert decide_Zp(7, 2, 4).verdict == decide_Zp(7, 4, 2).verdict


def test_decide_zp_aux_quantities():
    t = decide_Zp(5, 2, 6)
    assert t.aux["nu2_j_minus_i"] == 2
    assert t.aux["nu2_p_minus_1"] == 2
    assert t.aux["nu2_i_plus_j"] == 3
    assert t.aux["d"] == math.gcd(4, 4)
    assert t.aux["e"] == math.gcd(8, 4)
    diag = decide_Zp(5, 3, 3)
    assert diag.aux["nu2_j_minus_i"] == INF


def test_decide_zp_rejects():
    with pytest.raises(UnsupportedParameters):
        decide_Zp(2, 1, 1)
    with pytest.raises(UnsupportedParameters):
        decide_Zp(9, 1, 1)
    with pytest.raises(UnsupportedParameters):
        decide_Zp(5, 0, 1)


def test_decide_ii_goldens():
    assert decide_ii_Zp(3, 2).verdict is True
    assert decide_ii_Zp(3, 4).verdict is False
    assert decide_ii_Zp(7, 8).verdict is False
    assert decide_ii_Zp(5, 4).verdict is False  # nu2(24) = 3 < nu2(4) + 2
    assert decide_ii_Zp(5, 2).verdict is True  # nu2(24) = 3 >= nu2(2) + 2


def test_diagonal_matches_general():
    for p in (3, 5, 7, 11, 13):
        for i in range(1, 65):
            assert decide_ii_Zp(p, i).verdict == decide_Zp(p, i, i).verdict, (p, i)


def test_both_odd_always_member():
    for p in (3, 5, 7):
        for i in range(1, 30, 2):
            for j in range(1, 30, 2):
                assert decide_Zp(p, i, j).verdict, (p, i, j)
                assert decide_Z2(i, j).verdict
                assert decide_Q(i, j).verdict


@settings(max_examples=120)
@given(st.integers(1, 200), st.integers(1, 200), st.sampled_from([3, 5, 7, 11, 13]))
def test_symmetry(i, j, p):
    assert decide_Q(i, j).verdict == decide_Q(j, i).verdict
    assert decide_Z2(i, j).verdict == decide_Z2(j, i).verdict
    assert decide_Zp(p, i, j).verdict == decide_Zp(p, j, i).verdict
    assert decide_Q_semantic(i, j).verdict == decide_Q_semantic(j, i).verdict


def test_p3_congruence_list_goldens():
    assert decide_p3_congruences(1, 1).verdict is True
    assert decide_p3_congruences(4, 5).verdict is True
    assert decide_p3_congruences(2, 2).verdict is True
    assert decide_p3_congruences(6, 6).verdict is True
    assert decide_p3_congruences(2, 6).verdict is False


def test_p3_congruence_list_matches_general():
    for i in range(1, 97):
        for j in range(1, 97):
            assert (
                decide_p3_congruences(i, j).verdict == decide_Zp(3, i, j).verdict
            ), (i, j)


def test_neg1_mod4_form_goldens():
    # p = 7 is Mersenne; both odd fires condition (I)
    assert decide_neg1_mod4(7, 3, 5).verdict is True
    assert decide_neg1_mod4(7, 3, 5).fired_rule == "ODD_ODD"
    with pytest.raises(UnsupportedParameters):
        decide_neg1_mod4(5, 1, 1)  # 5 = 1 mod 4 is not of the stated form
    with pytest.raises(UnsupportedParameters):
        decide_neg1_mod4(9, 1, 1)


def test_neg1_mod4_matches_general():
    for p in (7, 11, 31):
        for i in range(1, 61):
            for j in range(1, 61):
                assert (
                    decide_neg1_mod4(p, i, j).verdict == decide_Zp(p, i, j).verdict
                ), (p, i, j)


def _listed_by_loop(p, i, j):
    """The mod-2p congruence list walked term by term, l = 1 .. p-1."""
    mod2p = (i % (2 * p), j % (2 * p))
    for ell in range(1, p):
        first = (ell * (p + 1)) % (2 * p)
        second = ((p + 1) * (p - ell) + p) % (2 * p)
        if mod2p in ((first, second), (second, first)):
            return True
    return False


def test_neg1_mod4_list_matches_loop():
    """The closed-form mod-2p list fires exactly where the walked list does.

    It can fire only when the odd-odd and parity-gcd rules did not; every
    residue pair mod 2p is tried, for each prime p = 3 mod 4 below 50.
    """
    fired = 0
    for p in (3, 7, 11, 19, 23, 31, 43, 47):
        for i in range(1, 2 * p + 1):
            for j in range(1, 2 * p + 1):
                rule = decide_neg1_mod4(p, i, j).fired_rule
                if rule in ("ODD_ODD", "COR_PARITY_GCD"):
                    continue
                listed = _listed_by_loop(p, i, j)
                assert (rule == "COR_MOD2P_LIST") == listed, (p, i, j)
                fired += listed
    assert fired > 100


def test_neg1_mod4_answers_fast_for_a_huge_prime():
    start = time.perf_counter()
    trace = decide_corollaries(10**18 + 3, 2, 4)
    assert time.perf_counter() - start < 1.0
    assert trace.aux == {"a": 2}


def test_decide_corollaries_dispatch():
    assert decide_corollaries(3, 2, 2).fired_rule == "MOD8_LIST"
    assert decide_corollaries(7, 3, 5).verdict is True


def test_decide_dispatcher():
    assert decide("q", 4, 3).verdict is False
    assert decide("f2", 2, 1).verdict is True
    assert decide("fp", 2, 2, p=3).verdict is True
    assert decide("fp", 2, 1, p=2).verdict is True  # routed to the F2 procedure
    with pytest.raises(UnsupportedParameters):
        decide("fp", 1, 1)
    with pytest.raises(UnsupportedParameters):
        decide("f4", 1, 1)


def test_trace_serialization():
    d = decide_Zp(3, 3, 3).to_dict()
    assert d["aux"]["nu2_j_minus_i"] == "inf"
    assert d["p"] == 3
    d = decide_Q(4, 3).to_dict()
    assert "p" not in d
    assert d["fired_rule"] == "NONE"
