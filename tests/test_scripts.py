"""Smoke tests for the command-line scripts under scripts/, run in-process."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [["--max", "6"], ["--max", "6", "--field", "fp", "--p", "3"]])
def test_quotient_dimensions(capsys, argv):
    assert load_script("quotient_dimensions").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("( 5, 4)     4") for line in lines)
    assert not any("BOUND VIOLATED" in line for line in lines)


def test_membership_atlas_oracle(capsys):
    argv = ["--max", "8", "--primes", "3", "5", "--oracle"]
    assert load_script("membership_atlas").main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("oracle agreement 100%") == 3  # Z_2, Z_3 and Z_5


# sha256 of `cli_grid.py --max 9 --fields q f2 fp3 fp5`: every coprime pair
# j < i <= 9 over four fields, up to the first `table` header, then the
# `table --oracle` and `oracle` part from that header on; a change to these
# bytes is a change of output
CLI_GRID_MAX9_SHA256 = "8a204f925e4f40faa7b41b11ce78661d56ab4d4b4cfb82d1cd717b9cdf6f0d28"
CLI_GRID_MAX9_ORACLE_SHA256 = "7b0bcb3abbaf2c6263999ea23193b01b6a036aa0c3fcbf0339158987ec36335f"


def test_cli_grid_bytes(capsys):
    argv = ["--max", "9", "--fields", "q", "f2", "fp3", "fp5"]
    assert load_script("cli_grid").main(argv) == 0
    out = capsys.readouterr().out
    head, sep, tail = out.partition("== m2alg table ")
    assert hashlib.sha256(head.encode()).hexdigest() == CLI_GRID_MAX9_SHA256
    assert hashlib.sha256((sep + tail).encode()).hexdigest() == CLI_GRID_MAX9_ORACLE_SHA256


def test_cli_grid(capsys):
    argv = ["--max", "5", "--fields", "q", "fp3", "fp5"]
    assert load_script("cli_grid").main(argv) == 0
    out = capsys.readouterr().out
    headers = [line for line in out.splitlines() if line.startswith("== ")]
    # 9 coprime pairs j < i <= 5, two commands, three fields, and one reduce
    # per pair under q; then a table per field and an oracle per pair and p
    assert len(headers) == 63 + 3 + 2 * 9
    assert "== m2alg reduce 5 4 'y*x^7*y*x^100*y + x^5*y*x^3 - 2*y*x'" in headers
    assert headers[0] == "== m2alg structure 2 1 --field q"
    assert headers[62] == "== m2alg witness 5 4 --field fp --p 5"
    assert headers[63] == "== m2alg table --field q --max 5 --oracle --threads 1"
    assert headers[-1] == "== m2alg oracle 5 4 --p 5"
    assert '"relations_verified": true' in out
    assert '"agrees":false' not in out and '"agrees":true' in out
    assert '"verified": true' in out
