"""The package namespace: what `m2alg` exports, and what each import loads."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import m2alg

# the public names of `m2alg`, by the submodule that defines each
EXPORTS = {
    "errors": {"Inconsistency", "UnsupportedParameters"},
    "fields": {"GF", "GF2", "INF", "QQ", "is_odd_multiple", "nu2"},
    "freealg": {
        "NCPoly",
        "RewriteSystem",
        "Word",
        "build_rewrite_system",
        "certify_normal_forms",
        "check_identities",
        "matrix_model",
        "parse_word_expr",
        "reduce",
        "validate_system",
    },
    "groebner": {
        "INFINITE",
        "GroebnerBasis",
        "Ideal",
        "QuotientElem",
        "buchberger",
        "build_ideal_I",
        "structure_basis",
    },
    "mat2": {"Mat2", "SylvesterSolution", "mat_pow", "pi_identity_check", "solve_sylvester"},
    "membership": {
        "DecisionTrace",
        "decide",
        "decide_Q",
        "decide_Q_semantic",
        "decide_Z2",
        "decide_Zp",
        "decide_corollaries",
        "decide_ii_Zp",
    },
    "model": {"WitnessPair", "witness_XY"},
    "oracle": {
        "WitnessReport",
        "construct_witness_Q",
        "enum_sweep_fp",
        "oracle_enum_fp",
        "oracle_roots_fp2",
    },
    "poly": {"BiPoly", "UniPoly", "parse_bipoly", "parse_unipoly"},
    "sequences": {"companion_power", "f_st", "fbar", "trace_poly"},
}
ALL_NAMES = {name for names in EXPORTS.values() for name in names}


def test_exports_resolve_to_their_submodule_objects():
    assert len(ALL_NAMES) == 53
    assert set(m2alg.__all__) == ALL_NAMES
    assert len(m2alg.__all__) == 53
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"m2alg.{module}")
        assert getattr(m2alg, module) is sub
        for name in names:
            assert getattr(m2alg, name) is getattr(sub, name), name


def test_dir_lists_every_export():
    exported = [
        name
        for name in dir(m2alg)
        if not name.startswith("_") and not isinstance(getattr(m2alg, name), types.ModuleType)
    ]
    assert exported == sorted(m2alg.__all__)


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from m2alg import *", namespace)
    assert set(namespace) - {"__builtins__"} == ALL_NAMES
    assert namespace["reduce"] is m2alg.freealg.reduce
    assert not hasattr(m2alg, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        m2alg.nope


def _loaded_after(code):
    """The m2alg and concurrent modules a fresh interpreter holds after running `code`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith(('m2alg', 'concurrent')))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("m2alg.") for name in json.loads(proc.stdout)}


@pytest.mark.parametrize(
    "code,loaded,absent",
    [
        ("import m2alg", {"m2alg"}, {*EXPORTS, "cli"}),
        (
            "import m2alg.groebner, m2alg.model",
            {"groebner", "model"},
            {"freealg", "oracle", "membership", "cli"},
        ),
        (
            "import m2alg.membership, m2alg.oracle",
            {"membership", "oracle"},
            {"freealg", "groebner", "model"},
        ),
        ("import m2alg\nm2alg.freealg.reduce", {"freealg"}, set()),
        ("import m2alg.cli", {"cli"}, {"freealg", "concurrent.futures"}),
        (
            "from m2alg import cli\nassert cli.main(['structure', '5', '4']) == 0",
            {"cli", "groebner"},
            {"freealg"},
        ),
        (
            "from m2alg import cli\nassert cli.main(['reduce', '2', '1', 'x']) == 0",
            {"freealg"},
            set(),
        ),
    ],
    ids=[
        "package",
        "groebner-model",
        "membership-oracle",
        "freealg-attribute",
        "cli-import",
        "cli-structure",
        "cli-reduce",
    ],
)
def test_imports_load_only_what_they_use(code, loaded, absent):
    modules = _loaded_after(code)
    assert loaded <= modules
    assert not absent & modules


def _refusal_messages(path):
    """(line, text) of each string in a raised UnsupportedParameters or ValueError."""
    for node in ast.walk(ast.parse(path.read_text())):
        call = node.exc if isinstance(node, ast.Raise) else None
        if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Name):
            continue
        if call.func.id not in ("UnsupportedParameters", "ValueError"):
            continue
        for part in ast.walk(call):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                yield node.lineno, part.value


def test_library_messages_name_no_cli_flag():
    # the library speaks of parameters, not of the options that carry them:
    # only cli.py knows that p arrives as --p
    src = Path(m2alg.__file__).resolve().parent
    flagged = [
        f"{path.name}:{line}: {text!r}"
        for path in sorted(src.glob("*.py"))
        if path.name != "cli.py"
        for line, text in _refusal_messages(path)
        if "--" in text
    ]
    assert not flagged
