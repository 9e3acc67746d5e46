"""Append-only persistent cache of computed Hurwitz values.

One JSON object per line:

    {"g": 0, "mu": [3, 2], "nu": [4, 1], "kind": "H",
     "num": "8", "den": "1", "conv": {"m0_pruned": false},
     "version": 2, "evaluator": "characters"}

Partitions are stored sorted descending (values depend only on the
multisets).  The genus and the parts must be JSON integers (not
booleans), ``num`` and ``den`` JSON integers or decimal-integer
strings.  ``kind`` is ``H`` or ``PH``: the modified pruned value is a
closed form of PH (see :mod:`prunedhurwitz.hurwitz`) and is never
stored.  ``evaluator`` names what made the value (see
:func:`evaluator_of`).  A record of another schema ``version`` (records
without one are version 1), or whose evaluator is not the one that
makes its key now, is never trusted: it is skipped and its value is
recomputed; the warning about them counts only the stale records whose
key has no current record in the file.  Records made under the other
m = 0 convention are ignored, stale or not, other keys of ``conv`` are
not read (older records also carry the cut-and-join stability
reading), and malformed lines are skipped with a warning.  The
``PHHAT`` records older files hold are well-formed, and are skipped
without a warning, since nothing reads them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .combinatorics import is_int

CACHE_VERSION = 2

CacheKey = tuple[int, tuple[int, ...], tuple[int, ...], str]


def evaluator_of(key: CacheKey) -> str:
    """The evaluator that makes the value of ``key``: the characters for
    H and the coloured cycle-type engine for PH."""
    return "characters" if key[3] == "H" else "coloured"


def _warn(msg: str, *args: object) -> None:
    """Log a warning; ``logging`` is imported only when one is issued."""
    import logging

    logging.getLogger(__name__).warning(msg, *args)


def load_cache(path: str, conventions: Mapping[str, object]) -> dict[CacheKey, Fraction]:
    """Read every valid record of this schema version made under the
    ``m0_pruned`` convention of ``conventions`` from ``path``."""
    out: dict[CacheKey, Fraction] = {}
    m0_pruned = conventions["m0_pruned"]
    stale: list[CacheKey] = []
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
                if key[3] == "PHHAT":
                    continue  # nothing reads them: the modified value is a closed form of PH
                if rec.get("version") != CACHE_VERSION or rec.get("evaluator") != evaluator_of(key):
                    stale.append(key)
                    continue
                out[key] = value
    except FileNotFoundError:
        pass
    except OSError as exc:
        _warn("cache %s unreadable: %s", path, exc)
    # a stale record whose value was recomputed and appended is harmless
    unreplaced = sum(key not in out for key in stale)
    if unreplaced:
        _warn(
            "cache %s: %d records of another version or evaluator skipped; "
            "their values are recomputed", path, unreplaced,
        )
    return out


def _parse_integer(x: object, what: str) -> int:
    """A JSON integer or a decimal-integer string; floats, booleans and
    strings ``int()`` would also take (spaces, underscores) are refused."""
    if is_int(x):
        return x
    if isinstance(x, str):
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdigit():
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
    # JSON gives no int subclass but bool, which is no part
    if not mu or not nu or any(type(x) is not int or x < 1 for x in mu + nu):
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
        "version": CACHE_VERSION,
        "evaluator": evaluator_of(key),
    }
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return True
    except OSError as exc:
        _warn("cache %s not writable (%s); continuing without persistence", path, exc)
        return False
