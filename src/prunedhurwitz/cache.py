"""Append-only persistent cache of computed Hurwitz values.

One JSON object per line:

    {"g": 0, "mu": [3, 2], "nu": [4, 1], "kind": "H",
     "num": "8", "den": "1", "conv": {"m0_pruned": false}}

Partitions are stored sorted descending (values depend only on the
multisets).  The genus and the parts must be JSON integers (not
booleans), ``num`` and ``den`` JSON integers or decimal-integer
strings.  Records made under the other m = 0 convention are ignored,
other keys of ``conv`` are not read (older records also carry the
cut-and-join stability reading), and malformed lines are skipped with a
warning and never trusted.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from typing import Mapping

from .combinatorics import is_int

CACHE_ENV_VAR = "PRUNEDHURWITZ_CACHE"

CacheKey = tuple[int, tuple[int, ...], tuple[int, ...], str]


def default_cache_path() -> str | None:
    return os.environ.get(CACHE_ENV_VAR)


def _warn(msg: str, *args: object) -> None:
    """Log a warning; ``logging`` is imported only when one is issued."""
    import logging

    logging.getLogger(__name__).warning(msg, *args)


def load_cache(path: str, conventions: Mapping[str, object]) -> dict[CacheKey, Fraction]:
    """Read every valid record made under the ``m0_pruned`` convention
    of ``conventions`` from ``path``."""
    out: dict[CacheKey, Fraction] = {}
    m0_pruned = conventions["m0_pruned"]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    key, value = _parse_record(rec)
                except (ValueError, KeyError, TypeError) as exc:
                    _warn("cache %s:%d skipped: %s", path, lineno, exc)
                    continue
                conv = rec.get("conv")
                if not isinstance(conv, dict) or conv.get("m0_pruned") != m0_pruned:
                    continue
                out[key] = value
    except FileNotFoundError:
        pass
    except OSError as exc:
        _warn("cache %s unreadable: %s", path, exc)
    return out


def _parse_integer(x: object, what: str) -> int:
    """A JSON integer or a decimal-integer string; floats, booleans and
    strings ``int()`` would also take (spaces, underscores) are refused."""
    if is_int(x):
        return x
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        return int(x)
    raise ValueError(f"bad {what} {x!r}")


def _parse_record(rec: dict) -> tuple[CacheKey, Fraction]:
    g = rec["g"]
    mu = tuple(rec["mu"])
    nu = tuple(rec["nu"])
    kind = rec["kind"]
    if not is_int(g) or g < 0:
        raise ValueError("bad genus")
    if kind not in ("H", "PH", "PHHAT"):
        raise ValueError(f"bad kind {kind!r}")
    if not mu or not nu or any(not is_int(x) or x < 1 for x in mu + nu):
        raise ValueError("bad partition")
    if sum(mu) != sum(nu):
        raise ValueError("degree mismatch")
    num = _parse_integer(rec["num"], "numerator")
    den = _parse_integer(rec["den"], "denominator")
    if den <= 0:
        raise ValueError("denominator must be positive")
    mu = tuple(sorted(mu, reverse=True))
    nu = tuple(sorted(nu, reverse=True))
    return (g, mu, nu, kind), Fraction(num, den)


def append_record(
    path: str,
    key: CacheKey,
    value: Fraction,
    conventions: Mapping[str, object],
) -> bool:
    """Append one record; on an unwritable path warn and report False."""
    g, mu, nu, kind = key
    rec = {
        "g": g,
        "mu": list(mu),
        "nu": list(nu),
        "kind": kind,
        "num": str(value.numerator),
        "den": str(value.denominator),
        "conv": {"m0_pruned": conventions["m0_pruned"]},
    }
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return True
    except OSError as exc:
        _warn("cache %s not writable (%s); continuing without persistence", path, exc)
        return False
