import argparse
import concurrent.futures
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from m2alg import cli, freealg, groebner, model, oracle
from m2alg.cli import main
from m2alg.errors import Inconsistency
from m2alg.fields import QQ
from m2alg.freealg import NCPoly
from m2alg.mat2 import Mat2, PiReport


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    return code, json.loads(out), err


def test_structure_golden_2_1(capsys):
    code, record, _ = run_json(["structure", "2", "1"], capsys)
    assert code == 0
    assert record["schema_version"] == 1
    result = record["result"]
    assert result["reduced_basis"] == ["s + 1", "t - 1"]
    assert result["dimension"] == 1
    assert result["standard_monomials"] == ["1"]
    assert result["trivial"] is False


def test_structure_golden_4_3(capsys):
    code, record, _ = run_json(["structure", "4", "3"], capsys)
    assert code == 0
    result = record["result"]
    assert result["reduced_basis"] == ["s + 1", "t^3 - t^2 - 2*t + 1"]
    assert result["dimension"] == 3
    assert result["standard_monomials"] == ["1", "t", "t^2"]


def test_structure_infinite(capsys):
    code, record, _ = run_json(["structure", "1", "1"], capsys)
    assert code == 0
    assert record["result"]["dimension"] == "infinite"
    assert record["result"]["reduced_basis"] == ["t"]


GOLDENS = Path(__file__).parent / "goldens"
M89 = str(2**89 - 1)  # a prime beyond the proven range of the primality test
P19 = "1000000000000000003"  # a prime whose p^4 matrices are far too many to scan


@pytest.mark.parametrize(
    "args,golden",
    [
        (["verify", "5", "4"], "verify_5_4.json"),
        (["reduce", "7", "3", "y*x^5*y*x^2*y + x^4*y*x"], "reduce_7_3.json"),
        (["structure", "13", "8"], "structure_13_8.json"),
        (["structure", "13", "8", "--field", "fp", "--p", "3"], "structure_13_8_fp3.json"),
        (["structure", "21", "20"], "structure_21_20.json"),
        (["witness", "7", "4", "--field", "fp", "--p", "5"], "witness_7_4_fp5.json"),
        # a rational coefficient goes through the Groebner normal form
        (["reduce", "2", "1", "1/2*x"], "reduce_2_1_half_x.json"),
        (
            ["reduce", "1", "1", "y*x^3*y*x^2 + x*y*x^5 - 2*y*x + 1/2*x^2*y*x^7*y*x"],
            "reduce_1_1.json",
        ),
        (["witness", "13", "8"], "witness_13_8.json"),
        # the longest power ladder of the structure benchmark: alpha + beta = 39
        (["witness", "21", "20"], "witness_21_20.json"),
        # three-element reduced bases (i - j even), over GF(2) and Q
        (["structure", "13", "11", "--field", "f2"], "structure_13_11_f2.json"),
        (["structure", "13", "7"], "structure_13_7.json"),
        # a pair far outside the structure benchmark's grid
        (["structure", "40", "13"], "structure_40_13.json"),
        # N = 828: the walk far outside the words benchmark
        (["reduce", "30", "7", "y*x^7*y*x^100*y"], "reduce_30_7.json"),
        # the Q table with the semantic route and the rational witnesses as referee
        (
            ["table", "--field", "q", "--max", "24", "--oracle", "--threads", "1"],
            "table_q_24_oracle.jsonl",
        ),
        # the generators print f(121) and f(120), over Q and with the
        # coefficients that vanish mod 2 dropped
        (["structure", "61", "60"], "structure_61_60.json"),
        (["structure", "61", "60", "--field", "f2"], "structure_61_60_f2.json"),
        # a normal form up to x^1621 and the identities at a pair with
        # i^2 - j^2 = 3311: the model's x-powers far outside the words grid
        (["reduce", "60", "17", "y*x^7*y*x^100*y"], "reduce_60_17.json"),
        (["verify", "60", "17"], "verify_60_17.json"),
        # words with y^2 are zero: mixed with nonzero words, and alone
        (
            ["reduce", "9", "8", "x^2*y^2*x + y*x*y^2 - 3*x*y*x + y*x^4*y"],
            "reduce_9_8_mixed.json",
        ),
        (["reduce", "9", "8", "y^2*x + x*y^3*x^5"], "reduce_9_8_zero.json"),
    ],
)
def test_output_bytes_golden(capsys, args, golden):
    code, out, err = run_cli(args, capsys)
    assert code == 0
    assert err == ""
    assert out == (GOLDENS / golden).read_text()


def test_reduce_big_pair_golden(capsys):
    # n = 401: the model's powers of X come from both sides of C^n = s^200 I
    code, out, err = run_cli(["reduce", "201", "200", "y*x*y*x^5*y"], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDENS / "reduce_201_200.json").read_text()


def test_reduce_401_400_golden(capsys):
    # n = 801: the model reads every power of X below N = 801 from its cache
    code, out, err = run_cli(["reduce", "401", "400", "y*x*y*x^5*y"], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDENS / "reduce_401_400.json").read_text()


def test_witness_big_pair_golden(capsys):
    # lo = 600: the witness check's chain of squarings runs to X^512
    code, out, err = run_cli(["witness", "601", "600"], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDENS / "witness_601_600.json").read_text()


@pytest.mark.parametrize(
    "p,message", [("4", "4 is not prime"), ("5", "the full scan is supported for p <= 3 only")]
)
def test_oracle_full_checks_the_prime_first(capsys, p, message):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "1", "1", "--p", p, "--full"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_big_pair_all_ok(capsys):
    # i^2 - j^2 = 39991: the model evaluates x-powers near 40,000
    code, out, err = run_cli(["verify", "200", "3"], capsys)
    assert code == 0 and err == ""
    record = json.loads(out)
    checks = record["result"]["checks"]
    assert record["result"]["ok"] is True
    assert checks and all(check["ok"] for check in checks)
    assert out == (GOLDENS / "verify_200_3.json").read_text()


# sha256 of the stdout of `structure` and then `witness` at each pair, over
# Q and then GF(3): both parities of i + j, and dense quotients with
# d = i - j up to 27 (cli_grid's --max 9 check stops at d = 8)
DENSE_L_PAIRS = ((13, 1), (13, 2), (23, 7), (40, 13), (61, 60))
DENSE_L_SHA256 = "f9f64d6c80e8f13bde3985477b5a265548dd4d9c9593a0ece2e914d2c4e0235a"


def test_dense_quotient_output_bytes(capsys):
    out = []
    for field in (["--field", "q"], ["--field", "fp", "--p", "3"]):
        for i, j in DENSE_L_PAIRS:
            for command in ("structure", "witness"):
                code, text, _ = run_cli([command, str(i), str(j), *field], capsys)
                assert code == 0
                out.append(text)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == DENSE_L_SHA256


# sha256 of the stdout of `table ... --oracle` over Q and over F_7: the rows
# carry the agreement of each verdict with its checked witness (Q) or sweep
ORACLE_TABLE_SHA256 = {
    ("--field", "q", "--max", "60"): "e43ad552d831ff12ef6340e04ae423e7feda6e224ed78046f832f0378725a5b7",
    ("--field", "fp", "--p", "7", "--max", "24"): (
        "2982028035410b9fcb8e4584246c357ed27eec2563c6a4debd51f3776dda7b65"
    ),
}


@pytest.mark.parametrize("table_args", sorted(ORACLE_TABLE_SHA256))
def test_oracle_table_output_bytes(capsys, table_args):
    code, out, err = run_cli(["table", *table_args, "--oracle", "--threads", "1"], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_TABLE_SHA256[table_args]


def test_decide_golden(capsys):
    code, record, _ = run_json(["decide", "4", "3", "--field", "q"], capsys)
    assert code == 0
    assert record["result"]["verdict"] is False
    code, record, _ = run_json(
        ["decide", "2", "2", "--field", "fp", "--p", "3"], capsys
    )
    assert code == 0
    assert record["result"]["verdict"] is True


def test_decide_f2(capsys):
    code, record, _ = run_json(["decide", "2", "1", "--field", "f2"], capsys)
    assert code == 0
    assert record["result"]["verdict"] is True


def test_reduce_command(capsys):
    code, record, _ = run_json(["reduce", "2", "1", "x^2*y + y*x"], capsys)
    assert code == 0
    assert record["result"]["normal_form"] == "1"
    assert record["result"]["model_checked"] is True


def test_witness_command(capsys):
    code, record, _ = run_json(["witness", "2", "1"], capsys)
    assert code == 0
    assert record["result"]["relations_verified"] is True
    assert record["result"]["X"] == [["1", "-1"], ["1", "0"]]


def test_oracle_command(capsys):
    code, record, _ = run_json(["oracle", "2", "1", "--p", "2"], capsys)
    assert code == 0
    assert record["result"]["found"] is True
    assert record["result"]["verified"] is True
    assert record["result"]["x"] == [["0", "1"], ["1", "1"]]


def test_oracle_full_mode(capsys):
    code, record, _ = run_json(["oracle", "2", "2", "--p", "3", "--full"], capsys)
    assert code == 0
    assert record["result"]["details"]["full_agrees"] is True


def test_verify_command(capsys):
    code, record, _ = run_json(["verify", "2", "1", "--nmax", "2"], capsys)
    assert code == 0
    assert record["result"]["ok"] is True


def test_table_with_oracle(capsys):
    code, out, err = run_cli(
        ["table", "--field", "fp", "--p", "3", "--max", "6", "--oracle", "--threads", "1"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 36
    rows = [json.loads(line) for line in lines]
    assert all(row["agrees"] for row in rows)
    assert rows[0]["i"] == 1 and rows[0]["j"] == 1


def test_table_field_q(capsys):
    code, out, _ = run_cli(["table", "--field", "q", "--max", "5", "--threads", "1"], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 25
    verdicts = {(r["i"], r["j"]): r["verdict"] for r in rows}
    assert verdicts[(4, 3)] is False
    assert verdicts[(1, 2)] is True


def test_table_deterministic(capsys):
    args = ["table", "--field", "fp", "--p", "3", "--max", "5", "--oracle", "--threads", "1"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_table_threads_matches_serial(capsys):
    serial = ["table", "--field", "fp", "--p", "3", "--max", "6", "--threads", "1"]
    parallel = ["table", "--field", "fp", "--p", "3", "--max", "6", "--threads", "2"]
    _, out1, _ = run_cli(serial, capsys)
    _, out2, _ = run_cli(parallel, capsys)
    assert out1 == out2


def test_usage_errors_exit_2(capsys):
    for args in (
        ["structure", "4", "2"],
        ["decide", "1", "1", "--field", "fp"],  # missing --p
        ["decide", "1", "1", "--field", "fp", "--p", "9"],
        ["oracle", "1", "1", "--p", "8"],
        ["reduce", "2", "1", "x^"],
        ["decide", "0", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2, args
        capsys.readouterr()


# a --p that no --field fp asks for is refused, not echoed and ignored
STRAY_P = {
    "decide-f2-stray-p": ["decide", "3", "2", "--field", "f2", "--p", "5"],
    "decide-q-stray-p": ["decide", "3", "2", "--field", "q", "--p", "7"],
    "structure-stray-p": ["structure", "3", "2", "--p", "3"],
    "witness-f2-stray-p": ["witness", "3", "2", "--field", "f2", "--p", "2"],
    "table-stray-p": ["table", "--max", "2", "--field", "q", "--p", "3"],
}


# selftest reads no config file: the files its former --config loader
# refused, and an absent one, all meet the parser's unknown-option error
FORMER_SELFTEST_CONFIGS = {
    "unknown-key": '{"no_such_key": 1}',
    "missing-file": None,
    "invalid-json": "{not json",
    "int-field-str": '{"enum_max": "3"}',
    "int-field-bool": '{"seed": true}',
    "primes-not-prime": '{"primes_enum": [3, 4]}',
    "pairs-not-pairs": '{"rewrite_pairs": [[2, 1, 1]]}',
    "not-an-object": "[]",
    "primes-too-large": '{"primes_enum": [3, %s]}' % M89,
    "primes-too-large-to-enumerate": '{"primes_enum": [257]}',
    "rewrite-max-len-zero": '{"rewrite_max_len": 0}',
    "rewrite-max-len-negative": '{"rewrite_max_len": -4}',
}


@pytest.mark.parametrize(
    "config_text,args,message",
    [
        (None, ["table", "--max", "-3"], "--max must be >= 1"),
        (None, ["table", "--max", "3", "--threads", "-1"], "--threads must be >= 0"),
        (None, ["verify", "3", "2", "--nmax", "-1"], "--nmax must be >= 0"),
        (None, ["reduce", "2", "1", "1/0*x"], "zero denominator"),
        (None, ["reduce", "2", "1", "x**2"], "empty factor"),
        (None, ["reduce", "2", "1", "*x"], "empty factor"),
        (None, ["reduce", "2", "1", "x*"], "empty factor"),
        (None, ["reduce", "2", "1", "x*+y"], "empty factor"),
        (None, ["decide", "3", "2", "--field", "fp", "--p", M89], "too large"),
        (None, ["structure", "3", "2", "--field", "fp", "--p", M89], "too large"),
        (None, ["oracle", "3", "2", "--p", M89], "too large"),
        (None, ["table", "--max", "2", "--field", "fp", "--p", M89], "too large"),
        (None, ["oracle", "3", "2", "--p", P19], "too large to enumerate"),
        (
            None,
            ["table", "--max", "2", "--field", "fp", "--p", P19, "--oracle"],
            "too large to enumerate",
        ),
    ]
    + [(None, args, "--p is used only with --field fp") for args in STRAY_P.values()]
    + [
        (text, ["selftest", "--config", "{cfg}"], "unrecognized arguments: --config")
        for text in FORMER_SELFTEST_CONFIGS.values()
    ],
    ids=[
        "table-max-negative",
        "table-threads-negative",
        "verify-nmax-negative",
        "reduce-zero-denominator",
        "reduce-double-star",
        "reduce-leading-star",
        "reduce-trailing-star",
        "reduce-star-before-sign",
        "decide-p-too-large",
        "structure-p-too-large",
        "oracle-p-too-large",
        "table-p-too-large",
        "oracle-p-too-large-to-enumerate",
        "table-oracle-p-too-large-to-enumerate",
        *STRAY_P,
        *FORMER_SELFTEST_CONFIGS,
    ],
)
def test_user_errors_exit_2(capsys, tmp_path, config_text, args, message):
    cfg = tmp_path / "cfg.json"
    if config_text is not None:
        cfg.write_text(config_text)
    with pytest.raises(SystemExit) as exc:
        main([a.format(cfg=cfg) for a in args])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


# every bad parameter of every command, with the guard's message: exponents
# below 1, a pair that is not coprime where the quotient is built, a --p that
# is not prime (or too large to test) and a missing --p
BAD_EXPONENTS = {"i-zero": ["0", "1"], "j-zero": ["2", "0"]}
NOT_COPRIME = {"4-2": ["4", "2"], "6-9": ["6", "9"]}
BAD_P = {
    "p1": ("1", "1 is not prime"),
    "p4": ("4", "4 is not prime"),
    "p9": ("9", "9 is not prime"),
    "m89": (M89, f"{M89} is too large"),
}
QUOTIENT_COMMANDS = ("structure", "witness", "verify", "reduce")


def _refusals():
    fields = {
        "decide": {
            "q": ["--field", "q"],
            "f2": ["--field", "f2"],
            "fp3": ["--field", "fp", "--p", "3"],
        },
        "oracle": {"p3": ["--p", "3"]},
    }
    cases = {}
    for command in ("decide", "oracle", *QUOTIENT_COMMANDS):
        tail = ["x"] if command == "reduce" else []
        for name, ij in BAD_EXPONENTS.items():
            for tag, field in fields.get(command, {"": []}).items():
                key = "-".join(filter(None, (command, name, tag)))
                cases[key] = ([command, *ij, *tail, *field], "exponents must be >= 1")
        if command in QUOTIENT_COMMANDS:
            for name, (i, j) in NOT_COPRIME.items():
                cases[f"{command}-{name}"] = ([command, i, j, *tail], f"gcd({i}, {j}) != 1")
    for command in ("decide", "structure", "witness", "oracle", "table"):
        head = ["table", "--max", "3"] if command == "table" else [command, "3", "2"]
        field = [] if command == "oracle" else ["--field", "fp"]
        for name, (p, message) in BAD_P.items():
            cases[f"{command}-{name}"] = ([*head, *field, "--p", p], message)
        missing = "required: --p" if command == "oracle" else "--p is required with --field fp"
        cases[f"{command}-no-p"] = ([*head, *field], missing)
    return cases


REFUSALS = _refusals()


@pytest.mark.parametrize("args,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_exit_2_before_any_work(capsys, monkeypatch, args, message):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the parameters were checked")

    # witness_XY and enum_sweep_fp hold guards of their own, so what they
    # start is refused: a structure basis, a power of X and the p^4 scan
    for module in (cli, groebner, model, freealg):
        monkeypatch.setattr(module, "structure_basis", refuse)
    for module in (model, freealg):
        monkeypatch.setattr(module, "x_coordinate", refuse)
    monkeypatch.setattr(oracle, "itertools", types.SimpleNamespace(product=refuse))
    monkeypatch.setattr(oracle, "oracle_roots_fp2", refuse)
    monkeypatch.setattr(cli, "enum_sweep_fp", refuse)
    monkeypatch.setattr(cli, "_table_chunk", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_table_threads_capped_by_cpu_count(capsys, monkeypatch):
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    args = ["table", "--field", "fp", "--p", "3", "--max", "6", "--oracle"]
    _, serial, _ = run_cli(args + ["--threads", "1"], capsys)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out, _ = run_cli(args + ["--threads", "1000"], capsys)
    assert code == 0
    assert asked == [2]
    assert out == serial


def test_reduce_long_x_run_at_1_1_needs_no_rewriting(capsys, monkeypatch):
    # the heap engine would need 510000 steps; the walk pushes the run once
    def refuse(p, rs):
        raise AssertionError("_rewrite called")

    monkeypatch.setattr(freealg, "_rewrite", refuse)
    code, record, err = run_json(["reduce", "1", "1", "y*x^510000"], capsys)
    assert code == 0
    assert err == ""
    assert record["result"]["normal_form"] == "x^510000*y"


@pytest.mark.parametrize(
    "expr,i,j,normal_form",
    [
        ("x^9999999999*y", 3, 2, "-x^3*y + x^2*y - x*y + y"),
        ("x^99999999999999999999999*y", 3, 2, "-x^3*y + x^2*y - x*y + y"),
        (
            "y*x^99999999999999999999999",
            1,
            1,
            "-x^99999999999999999999999*y + x^99999999999999999999998",
        ),
    ],
)
def test_reduce_huge_x_runs_print_without_expanding(capsys, expr, i, j, normal_form):
    # the text of a polynomial sorts its words by their runs, never by a
    # letter string of length e for each x^e
    code, record, err = run_json(["reduce", str(i), str(j), expr], capsys)
    assert code == 0
    assert err == ""
    assert record["result"]["normal_form"] == normal_form


def test_reduce_prints_a_coefficient_past_the_str_digit_limit(capsys):
    # the product has about 6000 digits; the interpreter's str() refuses
    # ints over 4300 digits, which once ended the run in exit 1
    sevens = "7" * 3000
    code, record, err = run_json(["reduce", "2", "1", f"{sevens}*{sevens}*x*y"], capsys)
    assert code == 0
    assert err == ""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(int(sevens) ** 2)
    finally:
        sys.set_int_max_str_digits(limit)
    assert record["result"]["normal_form"] == f"{want}*x*y"


def test_reduce_refuses_a_literal_past_the_digit_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "2", "1", "7" * 5000 + "*x*y"])
    assert exc.value.code == 2
    assert "more than 4300 digits" in capsys.readouterr().err


def test_decide_large_prime_answers_fast(capsys):
    # a 19-digit prime, decided by Miller-Rabin rather than trial division
    start = time.perf_counter()
    code, record, _ = run_json(
        ["decide", "--field", "fp", "--p", "1000000000000000003", "3", "2"], capsys
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert record["result"]["p"] == 1000000000000000003


@pytest.mark.parametrize(
    "args,target",
    [
        (["witness", "5", "4"], "witness_XY"),
        (["oracle", "3", "2", "--p", "3"], "oracle_enum_fp"),
    ],
)
def test_inconsistency_exits_1(capsys, monkeypatch, args, target):
    def fail(*a, **k):
        raise Inconsistency("synthetic cross-check failure")

    monkeypatch.setattr(cli, target, fail)
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert err == "inconsistency: synthetic cross-check failure\n"
    assert out == ""


def test_verbose_writes_to_stderr(capsys):
    code, out, err = run_cli(["decide", "4", "3", "--verbose"], capsys)
    assert code == 0
    assert "member" in err
    json.loads(out)  # stdout stays pure JSON


SELFTEST_CHECKS = [
    "field-axioms",
    "sequence-recursions",
    "structure-bases",
    "rewriting",
    "membership-fp-vs-enumeration",
    "membership-z2-vs-enumeration",
    "membership-q-two-routes",
    "corollary-congruences-p3",
    "pi-identities",
]


def test_selftest_smoke(capsys):
    code, record, err = run_json(["selftest"], capsys)
    assert code == 0
    assert record["result"]["ok"] is True
    assert [c["name"] for c in record["result"]["checks"]] == SELFTEST_CHECKS
    assert all(c["ok"] for c in record["result"]["checks"])
    assert record["params"]["config"] == json.loads(json.dumps(cli.SELFTEST_BOUNDS))
    assert err == "".join(f"[selftest] {name}: PASS\n" for name in SELFTEST_CHECKS)


def test_selftest_membership_checks_read_table_rows(capsys, monkeypatch):
    # the three membership checks are the comparison `table --oracle` prints
    monkeypatch.setattr(cli, "_table_chunk", lambda task: [{"i": 1, "j": 1, "agrees": False}])
    code, record, _ = run_json(["selftest"], capsys)
    assert code == 1
    failed = [c["name"] for c in record["result"]["checks"] if not c["ok"]]
    assert failed == [name for name in SELFTEST_CHECKS if name.startswith("membership-")]


class _NonDistributive(int):
    """An int whose products are one too large: (a + b)*c != a*c + b*c."""

    def __mul__(self, other):
        return int(self) * int(other) + 1

    __rmul__ = __mul__


class _NoInverse(int):
    """An int that 1 / a sends to 0, so a * (1 / a) != 1."""

    def __rtruediv__(self, other):
        return 0


def _fake_gf5(element_type):
    """Replace GF(5), which only the field-axioms check uses, by int elements."""
    real = cli.GF
    fake = types.SimpleNamespace(
        zero=0, one=1, random_element=lambda rng: element_type(rng.randint(1, 9))
    )
    return {"GF": lambda p: fake if p == 5 else real(p)}


def _remap(name, pairs):
    """cli.name, answering for each pair in pairs with the value of its image."""
    real = getattr(cli, name)
    return {name: lambda i, j, field: real(*pairs.get((i, j), (i, j)), field)}


def _selective(name, pick, value):
    """cli.name, answering value(args) where pick(args) holds."""
    real = getattr(cli, name)
    return {name: lambda *args: value(args) if pick(args) else real(*args)}


def _raise_inconsistency(*args, **kwargs):
    raise Inconsistency("synthetic cross-check failure")


# each entry breaks the library call of one selftest check, in `cli` or, for
# the rewriting check's late imports, in `freealg`
SELFTEST_BREAKS = {
    "field-distributivity": ("field-axioms", lambda: _fake_gf5(_NonDistributive)),
    "field-inverse": ("field-axioms", lambda: _fake_gf5(_NoInverse)),
    # twice f still satisfies f's recursion: only the f(7) literal tells
    "f7-literal": (
        "sequence-recursions",
        lambda: {"f_st": lambda n, real=cli.f_st: real(n).scale(2)},
    ),
    "f-recursion": (
        "sequence-recursions",
        lambda: {"f_st": lambda n, real=cli.f_st: real(n) + (1 if n == 30 else 0)},
    ),
    "basis-2-1": ("structure-bases", lambda: _remap("structure_basis", {(2, 1): (3, 2)})),
    "basis-4-3": ("structure-bases", lambda: _remap("structure_basis", {(4, 3): (5, 4)})),
    "basis-vs-buchberger": (
        "structure-bases",
        lambda: {"buchberger": lambda ideal: cli.structure_basis(5, 4, ideal.field)},
    ),
    "basis-dimension": (
        "structure-bases",
        lambda: {
            **_remap("structure_basis", {(3, 1): (3, 2)}),
            **_remap("build_ideal_I", {(3, 1): (3, 2)}),
        },
    ),
    "witness": ("structure-bases", lambda: {"witness_XY": _raise_inconsistency}),
    "validate-system": (
        "rewriting",
        lambda: {
            "freealg.validate_system": lambda rs, **kw: freealg.ValidationReport(
                rs.i, rs.j, soundness_failures=["y"]
            )
        },
    ),
    "certify-normal-forms": (
        "rewriting",
        lambda: {"freealg.certify_normal_forms": lambda rs: False},
    ),
    "check-identities": (
        "rewriting",
        lambda: {
            "freealg.check_identities": lambda i, j, n_max: freealg.IdentityReport(
                i, j, [("x^i*y + y*x^j = 1", False)]
            )
        },
    ),
    "enumeration-fp": (
        "membership-fp-vs-enumeration",
        lambda: _selective(
            "enum_sweep_fp", lambda args: args[0] != 2, lambda args: dict.fromkeys(args[1])
        ),
    ),
    "enumeration-f2": (
        "membership-z2-vs-enumeration",
        lambda: _selective(
            "enum_sweep_fp", lambda args: args[0] == 2, lambda args: dict.fromkeys(args[1])
        ),
    ),
    "q-semantic": (
        "membership-q-two-routes",
        lambda: {"decide_Q_semantic": lambda i, j: types.SimpleNamespace(verdict=False)},
    ),
    "q-witness": (
        "membership-q-two-routes",
        lambda: {"construct_witness_Q": lambda i, j: types.SimpleNamespace(verified=False)},
    ),
    # only the last pair of the sweep disagrees, so every j is visited
    "corollaries": (
        "corollary-congruences-p3",
        lambda: _selective(
            "decide_corollaries",
            lambda args: args[1:] == (1, cli.SELFTEST_BOUNDS["corollary_p3_max"]),
            lambda args: types.SimpleNamespace(
                verdict=not cli.decide("fp", *args[1:], p=3).verdict
            ),
        ),
    ),
    "pi-identities": (
        "pi-identities",
        lambda: {"pi_identity_check": lambda ring, samples, rng: PiReport(samples, 1, 0)},
    ),
}

# smaller sweeps than selftest's own, so that each broken run stays short
SMALL_SELFTEST_BOUNDS = dict(
    cli.SELFTEST_BOUNDS,
    primes_enum=(3,),
    enum_max=4,
    z2_max=4,
    q_max=6,
    structure_max_i=3,
    rewrite_words=10,
    corollary_p3_max=8,
    pi_samples=5,
)


def test_selftest_passes_with_small_bounds(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SELFTEST_BOUNDS", SMALL_SELFTEST_BOUNDS)
    code, record, err = run_json(["selftest"], capsys)
    assert code == 0 and record["result"]["ok"], err


@pytest.mark.parametrize("check,patches", SELFTEST_BREAKS.values(), ids=SELFTEST_BREAKS.keys())
def test_selftest_fails_exactly_the_broken_check(capsys, monkeypatch, check, patches):
    monkeypatch.setattr(cli, "SELFTEST_BOUNDS", SMALL_SELFTEST_BOUNDS)
    for name, value in patches().items():
        module, _, attr = name.rpartition(".")
        monkeypatch.setattr(freealg if module else cli, attr, value)
    code, record, err = run_json(["selftest"], capsys)
    assert code == 1
    assert [c["name"] for c in record["result"]["checks"] if not c["ok"]] == [check]
    assert [line for line in err.splitlines() if line.endswith(": FAIL")] == [
        f"[selftest] {check}: FAIL"
    ]


def _sub_adding_c(self, other):
    """Mat2.__sub__ with its (2,1) entry added instead of subtracted."""
    return Mat2(self.ring, self.a - other.a, self.b - other.b, self.c + other.c, self.d - other.d)


def test_selftest_sees_a_wrong_matrix_difference(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SELFTEST_BOUNDS", SMALL_SELFTEST_BOUNDS)
    monkeypatch.setattr(Mat2, "__sub__", _sub_adding_c)
    code, record, err = run_json(["selftest"], capsys)
    assert code == 1
    assert [c["name"] for c in record["result"]["checks"] if not c["ok"]] == ["pi-identities"]
    assert "[selftest] pi-identities: FAIL" in err.splitlines()


def test_verify_exits_1_when_an_identity_fails(capsys, monkeypatch):
    report = freealg.IdentityReport(2, 1, [("x^i*y + y*x^j = 1", False)])
    monkeypatch.setattr(freealg, "check_identities", lambda i, j, n_max: report)
    code, out, err = run_cli(["verify", "2", "1", "--verbose"], capsys)
    assert code == 1
    assert json.loads(out)["result"]["ok"] is False
    assert out.count('"schema_version"') == 1
    assert err == "1 identities, ok=False\n"


def test_table_exits_1_on_disagreement_rows(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enum_sweep_fp", lambda p, pairs: dict.fromkeys(pairs))
    args = ["table", "--field", "fp", "--p", "3", "--max", "3", "--oracle", "--threads", "1"]
    code, out, err = run_cli(args, capsys)
    rows = [json.loads(line) for line in out.splitlines()]
    members = sum(row["verdict"] for row in rows)
    assert code == 1 and len(rows) == 9 and members > 0
    assert [row["agrees"] for row in rows] == [not row["verdict"] for row in rows]
    assert err == f"inconsistency: {members} disagreement rows\n"


def test_reduce_exits_1_when_the_model_refutes_the_normal_form(capsys, monkeypatch):
    real, yx = freealg.reduce, freealg.parse_word_expr("y*x", QQ)

    def off_by_one(p, rs):  # only for the input: the rules' own check still passes
        return real(p, rs) + NCPoly.one(QQ) if p == yx else real(p, rs)

    monkeypatch.setattr(freealg, "reduce", off_by_one)
    code, out, err = run_cli(["reduce", "3", "2", "y*x"], capsys)
    assert code == 1 and out == ""
    assert err == "inconsistency: normal form differs from input in the model\n"


def test_readme_synopsis_matches_parser():
    # every --option in README's command-line block, per subcommand, is one
    # the parser defines, and every option the parser defines is shown
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    shown = {}
    for line in block.strip().splitlines():
        words = line.split("#", 1)[0].split()
        assert words[0] == "m2alg", line
        shown[words[1]] = set(re.findall(r"--[a-z]+", " ".join(words[2:])))
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    defined = {
        name: {o for a in sp._actions for o in a.option_strings if o.startswith("--")}
        - {"--help", "--verbose"}
        for name, sp in sub.choices.items()
    }
    assert shown == defined


def _module_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def _run_module(module, *args):
    return subprocess.run(
        [sys.executable, "-m", module, *args], capture_output=True, text=True, env=_module_env()
    )


def test_cli_entrypoint_subprocess():
    proc = _run_module("m2alg.cli", "decide", "4", "3")
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["result"]["verdict"] is False


def test_package_runs_as_module():
    package = _run_module("m2alg", "structure", "5", "4")
    assert package.returncode == 0
    assert package.stderr == ""
    assert package.stdout == _run_module("m2alg.cli", "structure", "5", "4").stdout
    rejected = _run_module("m2alg", "structure", "2", "2")
    assert rejected.returncode == 2
    assert rejected.stdout == ""


def test_closed_stdout_exits_141_quietly():
    # the reader takes one line of a table far longer than a pipe buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "m2alg", "table", "--field", "q", "--max", "200", "--threads", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_module_env(),
    )
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
    assert (first["i"], first["j"]) == (1, 1)


def test_table_matches_documented_example(capsys):
    # the 24x24 sweep over Z_3 with oracle column: 576 rows, all agreeing
    code, out, _ = run_cli(
        ["table", "--field", "fp", "--p", "3", "--max", "24", "--oracle", "--threads", "1"],
        capsys,
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 576
    assert all(row["agrees"] for row in rows)


def test_selftest_failure_exits_nonzero(capsys, monkeypatch):
    import m2alg.cli as cli_mod

    monkeypatch.setattr(
        cli_mod,
        "_selftest_checks",
        lambda: [("always-fails", lambda: False), ("raises", _boom)],
    )
    code = main(["selftest"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.err
    record = json.loads(captured.out)
    assert record["result"]["ok"] is False


def _boom():
    raise RuntimeError("synthetic failure")


# one small run of every subcommand
VERBOSE_RUNS = {
    "decide": ["decide", "4", "3"],
    "structure": ["structure", "4", "3"],
    "witness": ["witness", "4", "3"],
    "oracle": ["oracle", "2", "1", "--p", "2"],
    "verify": ["verify", "2", "1", "--nmax", "2"],
    "reduce": ["reduce", "2", "1", "x^2*y + y*x"],
    "table": ["table", "--max", "3", "--threads", "1"],
    "selftest": ["selftest"],
}


@pytest.mark.parametrize("command", sorted(VERBOSE_RUNS))
def test_verbose_adds_one_stderr_line(capsys, command):
    subparsers = cli.build_parser()._subparsers._group_actions[0]
    assert set(subparsers.choices) == set(VERBOSE_RUNS)
    args = VERBOSE_RUNS[command]
    code, out, err = run_cli(args, capsys)
    code_v, out_v, err_v = run_cli(args + ["--verbose"], capsys)
    assert code == code_v == 0
    assert out_v == out
    assert err_v.splitlines()[: len(err.splitlines())] == err.splitlines()
    assert len(err_v.splitlines()) == len(err.splitlines()) + 1
