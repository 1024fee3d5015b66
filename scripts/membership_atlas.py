#!/usr/bin/env python3
"""Membership atlas: classify (i, j) grids over several base fields at once.

For each cell the verdict comes from the congruence/valuation procedures,
and (optionally) every finite-field verdict is re-checked against the
brute-force enumeration oracle.  The grids are the rows ``m2alg table``
prints, so a disagreement is a false in its ``--oracle`` column "agrees".
Output is a compact text atlas plus a summary of member densities, handy
for eyeballing the periodic structure.

    python scripts/membership_atlas.py --max 24 --primes 3 5 7 --oracle
"""

import argparse
import sys

from m2alg.cli import _table_chunk


def grid(kind, p, max_ij, oracle):
    """`table --oracle` rows over 1 <= i, j <= max_ij, i ascending, then j."""
    return _table_chunk((kind, p, 1, max_ij + 1, max_ij, oracle))


def atlas(title, rows, max_ij, checked=None):
    print(f"\n== {title} ==")
    members = sum(row["verdict"] for row in rows)
    for k in range(0, len(rows), max_ij):
        print("".join("#" if row["verdict"] else "." for row in rows[k : k + max_ij]))
    density = members / (max_ij * max_ij)
    extra = "" if checked is None else f", oracle agreement {checked}"
    print(f"members: {members}/{max_ij * max_ij} ({density:.1%}){extra}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=24)
    ap.add_argument("--primes", type=int, nargs="*", default=[3, 5, 7])
    ap.add_argument("--oracle", action="store_true", help="cross-check finite fields")
    args = ap.parse_args(argv)

    atlas("Q", grid("q", None, args.max, False), args.max)
    for p in [2] + args.primes:
        rows = grid("fp", p, args.max, args.oracle)
        agreement = None
        if args.oracle:
            bad = [(row["i"], row["j"]) for row in rows if not row["agrees"]]
            agreement = "100%" if not bad else f"DISAGREES at {bad[:5]}"
            if bad:
                print(f"!! disagreement over Z_{p}: {bad[:10]}", file=sys.stderr)
                return 1
        atlas(f"Z_{p}", rows, args.max, checked=agreement)
    return 0


if __name__ == "__main__":
    sys.exit(main())
