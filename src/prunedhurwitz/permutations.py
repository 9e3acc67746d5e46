"""Permutations of {0, ..., d-1} as image tuples.

``p[i]`` is the image of ``i``.  Products compose right to left:
``compose(a, b)`` sends x to a(b(x)), so a product written
sigma2 * tau_m * ... * tau_1 * sigma1 applies sigma1 first.
"""

from __future__ import annotations

from typing import Sequence

from .combinatorics import Partition

Permutation = tuple[int, ...]


def identity_permutation(d: int) -> Permutation:
    return tuple(range(d))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The product a*b, i.e. apply b first: x -> a(b(x))."""
    if len(a) != len(b):
        raise ValueError("degree mismatch")
    return tuple(a[b[x]] for x in range(len(b)))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def cycles(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles of p (fixed points included), each starting at its
    smallest element, ordered by that element."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Permutation) -> Partition:
    """Multiset of cycle lengths, sorted descending."""
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def canonical_permutation(mu: Sequence[int]) -> Permutation:
    """The permutation whose i-th cycle is the i-th consecutive block of
    {0, ..., d-1}: mu=(2,3) gives (0 1)(2 3 4)."""
    images = []
    start = 0
    for part in mu:
        block = list(range(start, start + part))
        images.extend(block[1:] + block[:1])
        start += part
    return tuple(images)


def transposition(d: int, a: int, b: int) -> Permutation:
    images = list(range(d))
    images[a], images[b] = b, a
    return tuple(images)

