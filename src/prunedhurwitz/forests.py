"""Rooted labelled forests counted by ordered out-degree sequence.

A rooted forest on vertices {0, ..., n-1} with root set S has each
non-root vertex pointing at a unique parent and every component
containing exactly one root.  ``deg(v)`` is the number of successors of
v under the orientation away from the roots; an n-tuple of non-negative
integers is a degree sequence of such a forest iff it sums to n - |S|.

The closed form for the number of forests with a prescribed ordered
degree sequence (delta_1, ..., delta_n) is

    sum_{i in S} multinomial(n - |S| - 1; delta_1, ..., delta_i - 1, ..., delta_n)

which the zero-extended multinomial makes total.  For a non-negative
sequence summing to n - |S| each term is
(n - |S| - 1)! delta_i / prod_j delta_j! (zero when delta_i = 0), so
the sum is the one product

    (n - |S| - 1)! * sum_{i in S} delta_i / prod_j delta_j!

which is what :func:`count_forests_with_degrees` computes; the test
suite keeps the sum of multinomials as its reference.  ``verify
forests`` and the benchmark's ``battery`` check the closed form against
:func:`enumerate_rooted_forests`, which generates the forests directly
by a depth-first walk over parent choices; the test suite's oracle
instead filters every parent map for acyclicity.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

DEFAULT_ENUMERATION_BOUND = 8


class RootedForest:
    """Parent representation: parent[v] is None exactly for roots; the
    out-degrees are stored beside it, as the enumeration counts them."""

    __slots__ = ("parent", "_degrees")

    def __init__(self, parent: tuple[int | None, ...], degrees: tuple[int, ...]) -> None:
        self.parent = parent
        self._degrees = degrees

    def out_degrees(self) -> tuple[int, ...]:
        return self._degrees


def count_forests_with_degrees(degrees: Sequence[int], roots: Iterable[int]) -> int:
    """Number of rooted forests on len(degrees) vertices with the given
    root set and ordered out-degree sequence.

    The n = |S| base case (no non-root vertices) is the unique empty
    forest, bypassing the closed form's negative exponent.
    """
    degrees = tuple(degrees)
    n = len(degrees)
    root_set = set(roots)
    if not root_set:
        raise ValueError("root set must be non-empty")
    if min(root_set) < 0 or max(root_set) >= n:
        raise ValueError("root indices out of range")
    s = len(root_set)
    if s == n:
        return 1 if all(d == 0 for d in degrees) else 0
    if min(degrees) < 0 or sum(degrees) != n - s:
        return 0
    rooted = sum(map(degrees.__getitem__, root_set))
    return math.factorial(n - s - 1) * rooted // math.prod(map(math.factorial, degrees))


def enumerate_rooted_forests(n: int, roots: Iterable[int]) -> Iterator[RootedForest]:
    """Every rooted forest on n vertices with the given root set, in
    lexicographic order of the parent tuple.  Refuses n above
    ``DEFAULT_ENUMERATION_BOUND``.

    The parents of the non-roots are assigned in increasing vertex order
    by an iterative depth-first walk, candidates in increasing order.
    Vertices not yet assigned act as roots, so the assigned part is
    always a forest and the parent chain from a candidate u ends; u is
    rejected as the parent of v when that chain reaches v.  A map is a
    forest iff no prefix closes a cycle, so exactly the forests are
    generated, and every partial assignment extends to one.  The walk
    counts the out-degrees as it assigns and withdraws parents.
    """
    if n > DEFAULT_ENUMERATION_BOUND:
        raise ValueError(f"n={n} exceeds enumeration bound {DEFAULT_ENUMERATION_BOUND}")
    root_set = sorted(set(roots))
    if not root_set:
        raise ValueError("root set must be non-empty")
    if any(r < 0 or r >= n for r in root_set):
        raise ValueError("root indices out of range")
    parent: list[int | None] = [None] * n
    deg = [0] * n
    non_roots = [v for v in range(n) if v not in root_set]
    k = len(non_roots)
    if k == 0:
        yield RootedForest(tuple(parent), tuple(deg))
        return
    # choice[i]: the candidate last tried as the parent of non_roots[i]
    choice = [-1] * k
    depth = 0
    while depth >= 0:
        v = non_roots[depth]
        u = choice[depth]
        if u >= 0:
            deg[u] -= 1
        parent[v] = None
        u += 1
        while u < n:
            w: int | None = u
            while w is not None and w != v:
                w = parent[w]
            if w is None:
                break
            u += 1
        if u == n:
            choice[depth] = -1
            depth -= 1
            continue
        choice[depth] = u
        parent[v] = u
        deg[u] += 1
        if depth + 1 == k:
            yield RootedForest(tuple(parent), tuple(deg))
        else:
            depth += 1
