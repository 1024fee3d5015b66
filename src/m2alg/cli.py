"""Command-line front end: batch queries with machine-readable JSON output.

Single queries print one pretty JSON record; ``table`` prints JSON lines
(one record per (i, j), streamable and diffable).  Identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 internal
inconsistency (a cross-check failed), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from . import __version__
from .errors import Inconsistency, UnsupportedParameters
from .fields import GF, QQ
from .groebner import INFINITE, build_ideal_I, buchberger, structure_basis
from .mat2 import pi_identity_check
from .membership import decide, decide_Q_semantic, decide_corollaries
from .model import witness_XY
from .oracle import construct_witness_Q, enum_sweep_fp, oracle_enum_fp
from .poly import BiPoly, _mono_text, parse_bipoly
from .sequences import f_st

# m2alg.freealg, the costliest module to import, is imported only where words
# are rewritten: by `verify`, `reduce` and selftest's rewriting check; and
# concurrent.futures only by `table` with more than one worker


SCHEMA_VERSION = 1

# selftest's sweep bounds, printed as its params.config; with these the run
# takes about 0.65 s (Python 3.11, 2-core x86-64 host), and deeper sweeps are
# the acceptance suite's
SELFTEST_BOUNDS = {
    "primes_enum": (3, 5),  # primes for the decide-vs-enumeration sweep
    "enum_max": 12,  # (i, j) bound for that sweep
    "z2_max": 16,  # (i, j) bound for the two-element-field sweep
    "q_max": 24,  # (i, j) bound for the two Q routes and the rational witnesses
    "structure_max_i": 6,  # coprime pairs bound for the structure sweep
    "rewrite_pairs": ((1, 1), (2, 1), (3, 2)),
    "rewrite_words": 150,  # random words per rewrite pair
    "rewrite_max_len": 10,
    "corollary_p3_max": 48,  # bound for the p = 3 congruence-list check
    "pi_samples": 50,  # random samples for the 2x2 identity checks
    "seed": 0,
}


def _record(command: str, params: dict, result) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "result": result,
    }


def _emit(record: dict, pretty=True):
    if pretty:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _verbose(args, text: str):
    if getattr(args, "verbose", False):
        print(text, file=sys.stderr)


def _field_of(parser, args):
    """The field --field names; GF refuses a --p that is not prime."""
    if args.field == "q":
        return QQ
    if args.field == "f2":
        return GF(2)
    if args.p is None:
        parser.error("--p is required with --field fp")
    return GF(args.p)


def cmd_decide(parser, args) -> int:
    _field_of(parser, args)  # refuses a missing or composite --p first
    trace = decide(args.field, args.i, args.j, p=args.p)
    params = {"field": args.field, "i": args.i, "j": args.j}
    if args.p is not None:
        params["p"] = args.p
    _emit(_record("decide", params, trace.to_dict()))
    _verbose(args, f"member: {trace.verdict} via {trace.fired_rule}")
    return 0


def cmd_structure(parser, args) -> int:
    field = _field_of(parser, args)
    ideal = build_ideal_I(args.i, args.j, field)
    gb = structure_basis(args.i, args.j, field)
    monomials = _quotient_basis_names(gb)
    dimension = monomials if monomials == "infinite" else len(monomials)
    result = {
        "generators": [g.text() for g in ideal.generators],
        "reduced_basis": [g.text() for g in gb.polys],
        "dimension": dimension,
        "standard_monomials": monomials,
        "trivial": gb.is_trivial(),
    }
    params = {"i": args.i, "j": args.j, "field": args.field, "p": args.p}
    _emit(_record("structure", params, result))
    _verbose(args, f"basis size {len(gb.polys)}, dimension {dimension}")
    return 0


def cmd_witness(parser, args) -> int:
    field = _field_of(parser, args)
    pair = witness_XY(args.i, args.j, field)
    monomials = _quotient_basis_names(pair.ring)
    result = {
        "X": [[str(v) for v in row] for row in pair.X.rows()],
        "Y": [[str(v) for v in row] for row in pair.Y.rows()],
        "relations_verified": True,
        "quotient_basis": monomials,
    }
    params = {"i": args.i, "j": args.j, "field": args.field, "p": args.p}
    _emit(_record("witness", params, result))
    dimension = monomials if monomials == "infinite" else len(monomials)
    _verbose(args, f"quotient dimension {dimension}")
    return 0


def _quotient_basis_names(gb):
    qb = gb.quotient_basis()
    return "infinite" if qb is INFINITE else [_mono_text(m) or "1" for m in qb]


def cmd_oracle(parser, args) -> int:
    report = oracle_enum_fp(args.p, args.i, args.j, full=args.full)
    params = {"p": args.p, "i": args.i, "j": args.j, "full": args.full}
    _emit(_record("oracle", params, report.to_dict()))
    _verbose(args, f"found: {report.found}")
    return 0


def cmd_verify(parser, args) -> int:
    if args.nmax < 0:
        parser.error("--nmax must be >= 0")
    from .freealg import check_identities

    report = check_identities(args.i, args.j, n_max=args.nmax)
    params = {"i": args.i, "j": args.j, "nmax": args.nmax}
    _emit(_record("verify", params, report.to_dict()))
    _verbose(args, f"{len(report.entries)} identities, ok={report.ok}")
    return 0 if report.ok else 1


def cmd_reduce(parser, args) -> int:
    from .freealg import build_rewrite_system, matrix_model, parse_word_expr
    from .freealg import reduce as nc_reduce

    rs = build_rewrite_system(args.i, args.j, QQ)
    try:
        expr = parse_word_expr(args.expr, QQ)
    except ValueError as exc:
        parser.error(f"bad expression: {exc}")
    nf = nc_reduce(expr, rs)
    model = matrix_model(args.i, args.j, QQ)
    sound = model.image(expr) == model.image(nf)
    if not sound:
        print("inconsistency: normal form differs from input in the model", file=sys.stderr)
        return 1
    result = {"input": expr.text(), "normal_form": nf.text(), "model_checked": True}
    _emit(_record("reduce", {"i": args.i, "j": args.j, "expr": args.expr}, result))
    _verbose(args, f"normal form: {len(nf.terms)} terms")
    return 0


def _table_chunk(task):
    """Rows for i in [i_lo, i_hi), all j in [1, jmax]: one task per `table`
    worker; selftest's membership checks read their "agrees" column."""
    kind, p, i_lo, i_hi, jmax, with_oracle = task
    pairs = [(i, j) for i in range(i_lo, i_hi) for j in range(1, jmax + 1)]
    found = enum_sweep_fp(p, pairs) if (with_oracle and kind == "fp") else None
    rows = []
    for i, j in pairs:
        trace = decide(kind, i, j, p=p)
        row = {
            "i": i,
            "j": j,
            "verdict": trace.verdict,
            "fired_rule": trace.fired_rule,
        }
        if with_oracle:
            if kind == "q":
                agrees = decide_Q_semantic(i, j).verdict == trace.verdict
                if trace.verdict:
                    agrees = agrees and construct_witness_Q(i, j).verified
            else:
                agrees = (found[(i, j)] is not None) == trace.verdict
            row["agrees"] = agrees
        rows.append(row)
    return rows


def cmd_table(parser, args) -> int:
    if args.max < 1:
        parser.error("--max must be >= 1")
    if args.threads < 0:
        parser.error("--threads must be >= 0")
    field = _field_of(parser, args)
    kind, p = ("q", None) if field is QQ else ("fp", field.p)
    cpus = os.cpu_count() or 1
    threads = min(args.threads or cpus, cpus, args.max)
    # one contiguous, nonempty i-chunk per worker (threads <= --max); the
    # ordered merge keeps the output byte-identical to a serial run
    bounds = [1 + (args.max * k) // threads for k in range(threads + 1)]
    tasks = [(kind, p, lo, hi, args.max, args.oracle) for lo, hi in zip(bounds, bounds[1:])]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_table_chunk, tasks))
    else:
        chunks = map(_table_chunk, tasks)
    rows = [row for chunk in chunks for row in chunk]
    disagreements = 0
    for row in rows:
        record = dict(row)
        record["schema_version"] = SCHEMA_VERSION
        _emit(record, pretty=False)
        if args.oracle and not row.get("agrees", True):
            disagreements += 1
    if disagreements:
        print(f"inconsistency: {disagreements} disagreement rows", file=sys.stderr)
        return 1
    _verbose(args, f"{len(rows)} records")
    return 0


def _selftest_checks():
    cfg = SELFTEST_BOUNDS
    rng = random.Random(cfg["seed"])

    def check_field_axioms():
        for fld in (QQ, GF(5), GF(7)):
            for _ in range(60):
                a, b, c = (fld.random_element(rng) for _ in range(3))
                if (a + b) * c != a * c + b * c or a * (b * c) != (a * b) * c:
                    return False
                if a != fld.zero and a * (fld.one / a) != fld.one:
                    return False
        return True

    def check_sequences():
        t = BiPoly.t(QQ)
        s = BiPoly.s(QQ)
        if f_st(7) != parse_bipoly("t^6 + 5*s*t^4 + 6*s^2*t^2 + s^3", QQ):
            return False
        return all(f_st(n) == t * f_st(n - 1) + s * f_st(n - 2) for n in range(2, 60))

    def check_structure():
        gb21 = structure_basis(2, 1, QQ)
        gb43 = structure_basis(4, 3, QQ)
        if [g.text() for g in gb21.polys] != ["s + 1", "t - 1"]:
            return False
        if [g.text() for g in gb43.polys] != ["s + 1", "t^3 - t^2 - 2*t + 1"]:
            return False
        for i in range(1, cfg["structure_max_i"] + 1):
            for j in range(1, i + 1):
                if math.gcd(i, j) != 1 or (i == j and i != 1):
                    continue
                for fld in (QQ, GF(3)):
                    gb = structure_basis(i, j, fld)
                    if gb.is_trivial() or gb != buchberger(build_ideal_I(i, j, fld)):
                        return False
                    if i > j and 2 * gb.dimension() != (i + j - 1) * (i - j):
                        return False
                    witness_XY(i, j, fld, gb=gb)
        return True

    def check_rewriting():
        from .freealg import (
            build_rewrite_system,
            certify_normal_forms,
            check_identities,
            validate_system,
        )

        for i, j in cfg["rewrite_pairs"]:
            rs = build_rewrite_system(i, j, QQ)
            rep = validate_system(
                rs,
                n_random=cfg["rewrite_words"],
                max_len=cfg["rewrite_max_len"],
                seed=cfg["seed"],
            )
            if not rep.ok:
                return False
            if not certify_normal_forms(rs):
                return False
            if not check_identities(i, j, n_max=4).ok:
                return False
        return True

    def table_agrees(kind, p, n):
        # the comparison `table --oracle` prints, over 1 <= i, j <= n
        return all(row["agrees"] for row in _table_chunk((kind, p, 1, n + 1, n, True)))

    def check_membership_fp():
        return all(table_agrees("fp", p, cfg["enum_max"]) for p in cfg["primes_enum"])

    def check_membership_z2():
        return table_agrees("fp", 2, cfg["z2_max"])

    def check_membership_q():
        return table_agrees("q", None, cfg["q_max"])

    def check_corollaries():
        for i in range(1, cfg["corollary_p3_max"] + 1):
            for j in range(1, cfg["corollary_p3_max"] + 1):
                if (
                    decide("fp", i, j, p=3).verdict
                    != decide_corollaries(3, i, j).verdict
                ):
                    return False
        return True

    def check_pi():
        return (
            pi_identity_check(GF(7), cfg["pi_samples"], rng).ok
            and pi_identity_check(QQ, cfg["pi_samples"], rng).ok
        )

    return [
        ("field-axioms", check_field_axioms),
        ("sequence-recursions", check_sequences),
        ("structure-bases", check_structure),
        ("rewriting", check_rewriting),
        ("membership-fp-vs-enumeration", check_membership_fp),
        ("membership-z2-vs-enumeration", check_membership_z2),
        ("membership-q-two-routes", check_membership_q),
        ("corollary-congruences-p3", check_corollaries),
        ("pi-identities", check_pi),
    ]


def cmd_selftest(parser, args) -> int:
    results = []
    ok_all = True
    for name, fn in _selftest_checks():
        try:
            ok = bool(fn())
        except Exception as exc:  # a crash is a failure, not a usage error
            ok = False
            print(f"[selftest] {name}: ERROR {exc}", file=sys.stderr)
        results.append({"name": name, "ok": ok})
        print(f"[selftest] {name}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
        ok_all = ok_all and ok
    _emit(
        _record(
            "selftest",
            {"config": SELFTEST_BOUNDS},
            {"checks": results, "ok": ok_all},
        )
    )
    _verbose(args, f"{len(results)} checks, ok={ok_all}")
    return 0 if ok_all else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m2alg",
        description=(
            "Structure and membership computations for the algebras presented "
            "by x^i y + y x^j = 1, y^2 = 0."
        ),
    )
    parser.add_argument("--version", action="version", version=f"m2alg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, field_default="q"):
        sp.add_argument("--field", choices=("q", "f2", "fp"), default=field_default)
        sp.add_argument("--p", type=int, default=None, help="prime for --field fp")
        sp.add_argument("--verbose", action="store_true")

    sp = sub.add_parser("decide", help="membership verdict with the fired rule")
    sp.add_argument("i", type=int)
    sp.add_argument("j", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_decide)

    sp = sub.add_parser("structure", help="structure ideal, reduced basis, quotient")
    sp.add_argument("i", type=int)
    sp.add_argument("j", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_structure)

    sp = sub.add_parser("witness", help="witness matrices over the quotient ring")
    sp.add_argument("i", type=int)
    sp.add_argument("j", type=int)
    common(sp)
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("oracle", help="brute-force search over F_p")
    sp.add_argument("i", type=int)
    sp.add_argument("j", type=int)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--full", action="store_true", help="also scan all square-zero y (p <= 3)")
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("verify", help="check the derived ring identities")
    sp.add_argument("i", type=int)
    sp.add_argument("j", type=int)
    sp.add_argument("--nmax", type=int, default=6)
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("reduce", help="normal form of a word expression")
    sp.add_argument("i", type=int)
    sp.add_argument("j", type=int)
    sp.add_argument("expr", type=str)
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("table", help="JSON-lines sweep over 1 <= i, j <= N")
    sp.add_argument("--max", type=int, required=True)
    sp.add_argument("--oracle", action="store_true", help="add oracle agreement column")
    sp.add_argument("--threads", type=int, default=0, help="worker pool size (0 = auto)")
    common(sp)
    sp.set_defaults(fn=cmd_table)

    sp = sub.add_parser("selftest", help="run the built-in property suites")
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "field", "fp") != "fp" and args.p is not None:
        parser.error(f"--p is used only with --field fp, not --field {args.field}")
    # exact output has no length limit, so lift the interpreter's limit on
    # str() of an int (4300 digits) while a command runs; the expression
    # parser bounds its literals itself (poly.MAX_LITERAL_DIGITS)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(parser, args)
    except UnsupportedParameters as exc:
        parser.error(str(exc))
    except Inconsistency as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: send the flush at exit to devnull, and
        # exit as a process killed by SIGPIPE would (128 + 13)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
