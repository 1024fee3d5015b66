"""Exact computations for the algebras presented by x^i y + y x^j = 1, y^2 = 0.

The library covers the commutative quotient ring A[s,t]/I carrying the
2x2 matrix structure, explicit witness matrices, a decidable word problem
through the faithful matrix model, and complete membership classifications
over Q and the prime fields, each cross-checked against brute-force
oracles.
"""

__version__ = "0.1.0"

from .errors import Inconsistency, UnsupportedParameters
from .fields import GF, GF2, INF, QQ, fp2_frobenius, is_odd_multiple, nu2
from .freealg import (
    NCPoly,
    RewriteSystem,
    Word,
    build_rewrite_system,
    certify_normal_forms,
    check_identities,
    matrix_model,
    parse_word_expr,
    reduce,
    validate_system,
    word_image,
)
from .groebner import (
    INFINITE,
    GroebnerBasis,
    Ideal,
    QuotientElem,
    buchberger,
    build_ideal_I,
    structure_basis,
)
from .mat2 import Mat2, SylvesterSolution, mat_pow, pi_identity_check, solve_sylvester
from .membership import (
    DecisionTrace,
    decide,
    decide_Q,
    decide_Q_semantic,
    decide_Z2,
    decide_Zp,
    decide_corollaries,
    decide_ii_Zp,
)
from .model import WitnessPair, witness_XY
from .oracle import (
    WitnessReport,
    construct_witness_Q,
    enum_sweep_fp,
    oracle_enum_fp,
    oracle_roots_fp2,
)
from .poly import BiPoly, UniPoly, parse_bipoly, parse_unipoly
from .sequences import companion_power, f_st, fbar, trace_poly
