"""The benchmark's own self-tests, run against the library as it stands.

``perfbench/selftest.py`` includes a traced ``words`` pass and the tracer's
install/uninstall, which reads ``__mul__`` from the class dicts of
``BiPoly`` and ``UniPoly``; a library change that breaks the traced
benchmark run fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
