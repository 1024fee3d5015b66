#!/usr/bin/env python3
"""Print the `structure`, `witness` and `reduce` CLI output over a grid of pairs.

For each field tag, each coprime pair j < i <= N and each of the two
commands `structure` and `witness`, prints a header line naming the command
line and then the command's stdout, in one deterministic stream.  Under
the ``q`` tag each pair also gets one `reduce` of REDUCE_EXPR.  Two
checkouts can then be compared byte for byte:

    PYTHONPATH=src python scripts/cli_grid.py --max 21 --fields q fp3 fp5 > grid.txt

Field tags: ``q`` for Q, ``f2`` for GF(2), ``fpP`` for GF(P) (``fp3``,
``fp5``, ...).  Exits 1 if any command exits non-zero.
"""

import argparse
import contextlib
import io
import math
import re
import shlex
import sys

from m2alg.cli import main as cli_main

# x-runs longer than i^2 - j^2 at small pairs, several y's, and terms whose
# normal forms share words
REDUCE_EXPR = "y*x^7*y*x^100*y + x^5*y*x^3 - 2*y*x"


def field_args(tag):
    """CLI field options for a tag: q, f2 or fpP."""
    if tag in ("q", "f2"):
        return ["--field", tag]
    m = re.fullmatch(r"fp(\d+)", tag)
    if not m:
        raise argparse.ArgumentTypeError(f"unknown field tag {tag!r}")
    return ["--field", "fp", "--p", m.group(1)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=21)
    ap.add_argument("--fields", type=field_args, nargs="+", default=[field_args("q")])
    args = ap.parse_args(argv)

    failures = 0
    for fargs in args.fields:
        for i in range(2, args.max + 1):
            for j in range(1, i):
                if math.gcd(i, j) != 1:
                    continue
                cmds = [[command, str(i), str(j), *fargs] for command in ("structure", "witness")]
                if fargs == field_args("q"):
                    cmds.append(["reduce", str(i), str(j), REDUCE_EXPR])
                for cmd in cmds:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli_main(cmd)
                    print("== m2alg " + shlex.join(cmd))
                    sys.stdout.write(out.getvalue())
                    if code:
                        print(f"== exit {code}")
                        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
