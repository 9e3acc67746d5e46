"""Exact combinatorial primitives shared by the whole package.

Partitions are plain tuples of positive integers.  The order of the
parts is meaningful (parts are labelled by their position), but every
counting function defined here depends only on the underlying multiset.
All arithmetic is exact: Python ints and ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import product
from typing import Iterable, Iterator, Sequence

Partition = tuple[int, ...]


def check_partition(p: Sequence[int], allow_empty: bool = False) -> Partition:
    """Validate and normalise a partition given as any integer sequence."""
    parts = tuple(int(x) for x in p)
    if not parts and not allow_empty:
        raise ValueError("partition must be non-empty")
    if any(x < 1 for x in parts):
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


def part_multiplicities(p: Sequence[int]) -> Counter:
    return Counter(p)


def automorphism_factor(p: Sequence[int]) -> int:
    """Number of admissible labellings of the cycles of a permutation of
    cycle type ``p``: the product of m_k! over the multiplicities m_k."""
    out = 1
    for mult in part_multiplicities(p).values():
        out *= math.factorial(mult)
    return out


def centralizer_order(p: Sequence[int]) -> int:
    """Order of the centralizer in S_d of a permutation of cycle type
    ``p``: the product of k^{m_k} * m_k!."""
    out = 1
    for k, mult in part_multiplicities(p).items():
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


def bounded_tuples(nu: Sequence[int]) -> Iterator[Partition]:
    """All tuples t with 1 <= t_i <= nu_i, in lexicographic order."""
    if not nu:
        raise ValueError("bounded_tuples needs a non-empty bound tuple")
    return product(*(range(1, b + 1) for b in nu))


def ordered_set_partitions(ground: Iterable, block_count: int) -> Iterator[tuple[tuple, ...]]:
    """All ordered decompositions of ``ground`` into ``block_count``
    (possibly empty) disjoint blocks; exactly n^|ground| of them."""
    if block_count < 1:
        raise ValueError("need at least one block")
    elems = tuple(ground)
    for assignment in product(range(block_count), repeat=len(elems)):
        yield tuple(
            tuple(e for e, a in zip(elems, assignment) if a == i)
            for i in range(block_count)
        )


def compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``length`` non-negative integers summing to ``total``."""
    if length == 0:
        if total == 0:
            yield ()
        return
    if length == 1:
        if total >= 0:
            yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, length - 1):
            yield (head,) + tail


def subsets(items: Sequence) -> Iterator[tuple]:
    """All subsets of ``items`` as tuples, preserving the input order."""
    elems = tuple(items)
    for mask in range(1 << len(elems)):
        yield tuple(e for i, e in enumerate(elems) if mask >> i & 1)
