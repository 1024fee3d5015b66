"""Selftest sweep bounds, overridable from a small JSON config file.

With the defaults below ``m2alg selftest`` takes about 0.4 s (Python 3.11,
2-core x86-64 host); CI setups that want deeper sweeps can point
``--config`` at a JSON object overriding any subset of the fields.  Values
are checked on load: a wrong type, a prime too large to enumerate
(p^4 >= ``oracle.ENUM_SPACE_LIMIT``) or a ``rewrite_max_len`` below 1
raises ``ValueError``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .fields import is_prime
from .oracle import ENUM_SPACE_LIMIT


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
        if not isinstance(raw, dict):
            raise ValueError("selftest config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown selftest config keys: {sorted(unknown)}")
        for key, value in raw.items():
            if key == "primes_enum":
                if not isinstance(value, list) or not all(
                    _is_int(p) and is_prime(p) for p in value
                ):
                    raise ValueError(f"{key} must be a list of primes, got {value!r}")
                for p in value:
                    if p**4 >= ENUM_SPACE_LIMIT:
                        raise ValueError(f"{key}: p = {p} is too large to enumerate")
                raw[key] = tuple(value)
            elif key == "rewrite_pairs":
                if not isinstance(value, list) or not all(
                    isinstance(p, list) and len(p) == 2 and all(map(_is_int, p))
                    for p in value
                ):
                    raise ValueError(
                        f"{key} must be a list of two-int pairs, got {value!r}"
                    )
                raw[key] = tuple(tuple(p) for p in value)
            elif not _is_int(value):
                raise ValueError(f"{key} must be an int, got {value!r}")
            elif key == "rewrite_max_len" and value < 1:
                raise ValueError(f"{key} must be >= 1, got {value!r}")
        return cls(**raw)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["rewrite_pairs"] = [list(p) for p in self.rewrite_pairs]
        return out
