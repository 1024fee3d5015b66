"""Exact computations for the algebras presented by x^i y + y x^j = 1, y^2 = 0.

The library covers the commutative quotient ring A[s,t]/I carrying the
2x2 matrix structure, explicit witness matrices, a decidable word problem
through the faithful matrix model, and complete membership classifications
over Q and the prime fields, each cross-checked against brute-force
oracles.

Names load on first use (PEP 562): ``import m2alg`` imports no submodule,
and the first ``m2alg.decide`` imports ``m2alg.membership`` and what it
needs, then keeps the value in this package.  The submodules themselves
(``m2alg.freealg`` and the rest) resolve the same way, and
``from m2alg import *`` loads every exported name.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", "Inconsistency UnsupportedParameters"),
        ("fields", "GF GF2 INF QQ is_odd_multiple nu2"),
        (
            "freealg",
            "NCPoly RewriteSystem Word build_rewrite_system certify_normal_forms"
            " check_identities matrix_model parse_word_expr reduce validate_system",
        ),
        (
            "groebner",
            "INFINITE GroebnerBasis Ideal QuotientElem buchberger build_ideal_I"
            " structure_basis",
        ),
        ("mat2", "Mat2 SylvesterSolution mat_pow pi_identity_check solve_sylvester"),
        (
            "membership",
            "DecisionTrace decide decide_Q decide_Q_semantic decide_Z2 decide_Zp"
            " decide_corollaries decide_ii_Zp",
        ),
        ("model", "WitnessPair witness_XY"),
        (
            "oracle",
            "WitnessReport construct_witness_Q enum_sweep_fp oracle_enum_fp"
            " oracle_roots_fp2",
        ),
        ("poly", "BiPoly UniPoly parse_bipoly parse_unipoly"),
        ("sequences", "companion_power f_st fbar trace_poly"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
