"""Selftest sweep bounds, overridable from a small JSON config file.

With the defaults below ``m2alg selftest`` takes about 1 s (Python 3.11,
2-core x86-64 host); CI setups that want deeper sweeps can point
``--config`` at a JSON object overriding any subset of the fields.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class SelftestConfig:
    primes_enum: tuple = (3, 5)  # primes for the decide-vs-enumeration sweep
    enum_max: int = 12  # (i, j) bound for that sweep
    z2_max: int = 16  # (i, j) bound for the two-element-field sweep
    q_max: int = 24  # (i, j) bound for congruence-vs-semantic over Q
    q_witness_max: int = 10  # (i, j) bound for constructed rational witnesses
    structure_max_i: int = 6  # coprime pairs bound for the structure sweep
    rewrite_pairs: tuple = ((1, 1), (2, 1), (3, 2))
    rewrite_words: int = 150  # random words per rewrite pair
    rewrite_max_len: int = 10
    corollary_p3_max: int = 48  # bound for the p = 3 congruence-list check
    pi_samples: int = 50  # random samples for the 2x2 identity checks
    seed: int = 0

    @classmethod
    def from_file(cls, path: str) -> "SelftestConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown selftest config keys: {sorted(unknown)}")
        for key in ("rewrite_pairs",):
            if key in raw:
                raw[key] = tuple(tuple(p) for p in raw[key])
        return cls(**raw)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["rewrite_pairs"] = [list(p) for p in self.rewrite_pairs]
        return out
