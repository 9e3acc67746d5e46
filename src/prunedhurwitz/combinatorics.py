"""Exact combinatorial primitives shared by the whole package.

Partitions are plain tuples of positive integers.  The order of the
parts is meaningful (parts are labelled by their position), but every
counting function defined here depends only on the underlying multiset.
All arithmetic is exact: Python ints and ``fractions.Fraction``.
:func:`check_request` is the one rule for a value request (g, mu, nu);
every entry to a value, the command line included, calls it.
:func:`exact` turns an exact integer into decimal text and back.
Every engine build compiles this module, so the walk over the faces a
part of mu may join lives in :mod:`prunedhurwitz.reconstruction`.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterator, Sequence

Partition = tuple[int, ...]


def is_int(x: object) -> bool:
    """An integer in the strict sense: ``bool`` is an ``int`` subclass,
    but True/False are not numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


def exact(convert, x):
    """``convert(x)`` for ``str`` of an int or ``int`` of a decimal
    string; past the interpreter's int-to-str digit limit, the process's
    and never changed, through :class:`decimal.Decimal`, which it does
    not bound."""
    try:
        return convert(x)
    except ValueError:
        from decimal import Decimal

        return convert(Decimal(x))


def check_partition(p: Sequence[int]) -> Partition:
    """Validate a non-empty sequence of ``int`` parts >= 1 (no floats,
    strings or booleans) and return it as a tuple."""
    parts = tuple(p)
    if not parts:
        raise ValueError("partition must be non-empty")
    for x in parts:
        # the exact-type test settles plain ints without a call
        if x.__class__ is not int and not is_int(x):
            raise ValueError(f"partition parts must be ints, got {parts}")
    if min(parts) < 1:
        raise ValueError(f"partition parts must be >= 1, got {parts}")
    return parts


def check_request(g: object, mu: Sequence[int], nu: Sequence[int]) -> tuple[Partition, Partition]:
    """The profiles of a request (g, mu, nu) as tuples, or a ValueError
    naming the first rule it breaks, in this order: the genus is a
    non-negative ``int`` (not a ``bool``), both profiles pass
    :func:`check_partition`, and their degrees are equal."""
    if g.__class__ is not int and not is_int(g):
        raise ValueError(f"genus must be an int, got {g!r}")
    if g < 0:
        raise ValueError("genus must be non-negative")
    mu, nu = check_partition(mu), check_partition(nu)
    if sum(mu) != sum(nu):
        raise ValueError(f"degree mismatch: |mu|={sum(mu)} but |nu|={sum(nu)}")
    return mu, nu


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n into parts of at most ``max_part`` (default
    n), each with its parts descending, the largest part first: (n)
    first and (1, ..., 1) last."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n >= 0 (by the parts allowed)."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def automorphism_factor(p: Sequence[int]) -> int:
    """Number of admissible labellings of the cycles of a permutation of
    cycle type ``p``: the product of m_k! over the multiplicities m_k."""
    out = 1
    for mult in Counter(p).values():
        out *= math.factorial(mult)
    return out


def centralizer_order(p: Sequence[int]) -> int:
    """Order of the centralizer in S_d of a permutation of cycle type
    ``p``: the product of k^{m_k} * m_k!."""
    out = 1
    for k, mult in Counter(p).items():
        out *= k**mult * math.factorial(mult)
    return out


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set (Bell triangle)."""
    if n < 0:
        raise ValueError("bell_number needs n >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _subset_sums(parts: Sequence[int]) -> set[int]:
    """The sums of the subsets of ``parts``, adding one part at a time."""
    sums = {0}
    for p in parts:
        sums |= {s + p for s in sums}
    return sums


def is_wall_point(mu: Sequence[int], nu: Sequence[int]) -> bool:
    """True iff some proper non-empty sub-balance holds between mu and
    nu: a point on a wall sum_I mu_i = sum_J nu_j of the polynomiality
    chambers.  Parts are positive, so the sums of the proper non-empty
    subsets are exactly the subset sums strictly between 0 and d."""
    d = sum(mu)
    if d != sum(nu):
        raise ValueError("wall detection needs a balanced point")
    return any(0 < s < d for s in _subset_sums(mu) & _subset_sums(nu))
