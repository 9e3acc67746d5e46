"""Exact combinatorial primitives shared by the whole package.

Partitions are plain tuples of positive integers.  The order of the
parts is meaningful (parts are labelled by their position), but every
counting function defined here depends only on the underlying multiset.
All arithmetic is exact: Python ints and ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from typing import Iterator, Sequence

Partition = tuple[int, ...]


def is_int(x: object) -> bool:
    """An integer in the strict sense: ``bool`` is an ``int`` subclass,
    but True/False are not numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


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


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient n!/(p_1! ... p_k!), extended by zero.

    Returns 0 when any part is negative or the parts do not sum to n.
    The zero extension keeps sums over formally decremented indices
    total: terms with a -1 entry simply vanish.
    """
    if n < 0:
        return 0
    total = 0
    for p in parts:
        if p < 0:
            return 0
        total += p
    if total != n:
        return 0
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


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


def falling_factorial(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1), the number of injections of k slots into n
    labels.  Zero when k exceeds n; k must be non-negative."""
    if k < 0:
        raise ValueError("falling_factorial needs k >= 0")
    if n < 0 or k > n:
        return 0
    return math.perm(n, k)


def _proper_subset_sums(parts: Sequence[int]) -> set[int]:
    sums = set()
    for r in range(1, len(parts)):
        for chosen in combinations(parts, r):
            sums.add(sum(chosen))
    return sums


def is_wall_point(mu: Sequence[int], nu: Sequence[int]) -> bool:
    """True iff some proper non-empty sub-balance holds between mu and
    nu: a point on a wall sum_I mu_i = sum_J nu_j of the polynomiality
    chambers."""
    if sum(mu) != sum(nu):
        raise ValueError("wall detection needs a balanced point")
    return bool(_proper_subset_sums(mu) & _proper_subset_sums(nu))
