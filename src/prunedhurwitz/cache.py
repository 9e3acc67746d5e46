"""Append-only persistent cache of computed Hurwitz values.

One JSON object per line:

    {"g": 0, "mu": [3, 2], "nu": [4, 1], "kind": "H",
     "num": "8", "den": "1", "version": 2, "evaluator": "characters"}

A record's key is made by :func:`prunedhurwitz.hurwitz._key`, as a
request's is, so a record is checked as a request is and a malformed
one is skipped with a warning.  ``kind`` is ``H`` or ``PH``: the
modified pruned value is a closed form of PH (see
:mod:`prunedhurwitz.hurwitz`) and is never stored; the ``PHHAT``
records older files hold are well-formed, and are skipped without a
warning, since nothing reads them.  Partitions are stored sorted
descending (values depend only on the multisets), and H, which is
symmetric in its profiles, once per unordered pair, the smaller
profile first; a record of the other orientation, which older files
hold, is read under the same key.  ``num`` and ``den`` are JSON
integers or decimal-integer strings; a decimal string may pass the
interpreter's int-to-str digit limit, which is lifted around its
conversions only.  ``evaluator`` names what made the value (see
:func:`evaluator_of`).  A record of another schema ``version`` (records
without one are version 1), or whose evaluator is not the one that
makes its key now, is never trusted: it is skipped and its value is
recomputed; the warning about them counts only the stale records whose
key has no current record in the file.  The engine answers every
request at m = 0 (genus 0, one part on each side) in closed form, so
no record at m = 0 is written, and those older files hold, of either
m = 0 convention, are skipped without a warning.  No stored value
depends on a convention: the ``conv`` field older records carry is
not read.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .combinatorics import is_int
from .hurwitz import Kind, _key

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


def load_cache(path: str, conventions: object = None) -> dict[CacheKey, Fraction]:
    """Read every valid record of this schema version from ``path``,
    but those at m = 0 and the modified pruned ones, which nothing
    reads."""
    # ``conventions`` is not read (no record depends on one); perfbench/run.py passes them
    out: dict[CacheKey, Fraction] = {}
    stale: list[CacheKey] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    kind, key, value = _parse_record(rec)
                except (ValueError, KeyError, TypeError) as exc:
                    _warn("cache %s:%d skipped: %s", path, lineno, exc)
                    continue
                g, mu, nu, _ = key
                if kind is Kind.MODIFIED_PRUNED or 2 * g - 2 + len(mu) + len(nu) == 0:
                    continue  # nothing reads them: both are closed forms
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


def _exact(convert, x):
    """``convert(x)`` with Python's int-to-str digit limit lifted, then
    restored: an exact value may pass its default of 4300 digits, and
    the limit is the process's, so a library caller keeps its own."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return convert(x)
    sys.set_int_max_str_digits(0)
    try:
        return convert(x)
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_integer(x: object, what: str) -> int:
    """A JSON integer or a decimal-integer string; floats, booleans and
    strings ``int()`` would also take (spaces, underscores) are refused."""
    if is_int(x):
        return x
    if isinstance(x, str):
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdigit():
            return _exact(int, x)
    raise ValueError(f"bad {what} {x!r}")


def _parse_record(rec: dict) -> tuple[Kind, CacheKey, Fraction]:
    kind = Kind(rec["kind"])
    key = _key(rec["g"], rec["mu"], rec["nu"], kind)
    num = _parse_integer(rec["num"], "numerator")
    den = _parse_integer(rec["den"], "denominator")
    if den <= 0:
        raise ValueError("denominator must be positive")
    return kind, key, Fraction(num, den)


def append_record(path: str, key: CacheKey, value: Fraction) -> bool:
    """Append one record; on a path it cannot write, warn and report
    False."""
    g, mu, nu, kind = key
    try:
        rec = {
            "g": g,
            "mu": list(mu),
            "nu": list(nu),
            "kind": kind,
            "num": _exact(str, value.numerator),
            "den": _exact(str, value.denominator),
            "version": CACHE_VERSION,
            "evaluator": evaluator_of(key),
        }
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return True
    except (OSError, ValueError) as exc:
        _warn("cache %s not writable (%s); continuing without persistence", path, exc)
        return False
