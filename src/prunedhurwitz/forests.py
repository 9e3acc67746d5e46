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
instead filters every parent map for acyclicity.  The reconstruction's
forest form sums over the trees it generates on one root.  The walk
has no size cap: ``verify forests`` bounds its ``--max-n``.

The walk tests a candidate parent u of v for a cycle without walking
u's parent chain: it keeps the root of every vertex's tree, and u
closes a cycle exactly when that root is v.  The last two non-roots are
placed by two nested loops, whose candidates are found once per
placement of the other non-roots rather than tested once per forest.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence


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
    forest, bypassing the closed form's negative exponent.  ``roots`` is
    read once, so it may be any iterable.
    """
    degrees = tuple(degrees)
    n = len(degrees)
    root_set = set(roots)
    if not root_set:
        raise ValueError("root set must be non-empty")
    if min(root_set) < 0:
        raise ValueError("root indices out of range")
    # the rooted sum reads each root's degree, so it finds a root >= n
    try:
        rooted = sum(map(degrees.__getitem__, root_set))
    except IndexError:
        raise ValueError("root indices out of range") from None
    s = len(root_set)
    if s == n:
        return 0 if any(degrees) else 1
    if sum(degrees) != n - s or min(degrees) < 0:
        return 0
    return math.factorial(n - s - 1) * rooted // math.prod(map(math.factorial, degrees))


def enumerate_rooted_forests(n: int, roots: Iterable[int]) -> Iterator[RootedForest]:
    """Every rooted forest on n vertices with the given root set, in
    lexicographic order of the parent tuple, generated lazily.

    The parents of the non-roots are assigned in increasing vertex order
    by an iterative depth-first walk, candidates in increasing order.
    Vertices not yet assigned act as roots, so the assigned part is
    always a forest, and u may be the parent of v unless u lies in v's
    tree (u = v included): that edge alone would close a cycle.  A map is
    a forest iff no prefix closes a cycle, so exactly the forests are
    generated, and every partial assignment extends to one.

    Two cycle tests of a plain walk are skipped, as their answers are
    known.  No parent chain is walked: ``top[d][u]`` is the root of u's
    tree once the first d non-roots are placed, so u lies in v's tree
    exactly when top[d][u] == v, and placing v under u gives v's whole
    tree the root top[d][u].  And the candidates of the last non-root b
    are not tested again for each parent u of the one before it, a: b
    may go under any vertex outside its own tree, and that tree gains
    a's tree exactly when u lies in it.  So both candidate lists of b
    are found once per placement of the other non-roots, and a and b
    are placed by two nested loops.  The walk counts the out-degrees as
    it assigns and withdraws parents.
    """
    root_set = sorted(set(roots))
    if not root_set:
        raise ValueError("root set must be non-empty")
    if any(r < 0 or r >= n for r in root_set):
        raise ValueError("root indices out of range")
    parent: list[int | None] = [None] * n
    deg = [0] * n
    vertices = range(n)
    non_roots = [v for v in vertices if v not in root_set]
    if not non_roots:
        yield RootedForest(tuple(parent), tuple(deg))
        return
    if len(non_roots) == 1:
        # every other vertex is a root, so none lies in v's tree
        (v,) = non_roots
        for u in vertices:
            if u != v:
                parent[v] = u
                deg[u] += 1
                yield RootedForest(tuple(parent), tuple(deg))
                deg[u] -= 1
        return
    *upper, a, b = non_roots
    m = len(upper)
    top: list[list[int] | None] = [list(vertices)] + [None] * m
    # options[d]: the untried candidates of upper[d]
    options: list[Iterator[int] | None] = [None] * m
    if m:
        options[0] = iter([u for u in vertices if u != upper[0]])
    depth = 0
    while depth >= 0:
        if depth == m:
            # the upper non-roots are placed: a, then b, in nested loops
            t = top[m]
            outside_b = [x for x in vertices if t[x] != b]
            outside_ab = [x for x in outside_b if t[x] != a]
            for u in vertices:
                tu = t[u]
                if tu == a:
                    continue
                parent[a] = u
                deg[u] += 1
                for x in outside_ab if tu == b else outside_b:
                    parent[b] = x
                    deg[x] += 1
                    yield RootedForest(tuple(parent), tuple(deg))
                    deg[x] -= 1
                deg[u] -= 1
            parent[a] = parent[b] = None
            depth -= 1
            continue
        v = upper[depth]
        u = parent[v]
        if u is not None:
            deg[u] -= 1
        u = parent[v] = next(options[depth], None)
        if u is None:
            depth -= 1
            continue
        deg[u] += 1
        t = top[depth]
        tu = t[u]
        t = top[depth + 1] = [tu if y == v else y for y in t]
        depth += 1
        if depth < m:
            w = upper[depth]
            options[depth] = iter([x for x in vertices if t[x] != w])
