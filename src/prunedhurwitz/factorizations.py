"""Enumeration of transitive transposition factorizations.

The counting model: freeze sigma1 to the canonical permutation of mu and
count sequences (tau_1, ..., tau_m) of transpositions such that

    sigma2 := (tau_m ... tau_1 sigma1)^(-1)

has cycle type nu, the tuple generates a transitive subgroup of S_d,
and (optionally) the tuple is *pruned*: every cycle of sigma1 meets the
support of at least two of the transpositions.  Counts over all sigma1
of type mu follow by conjugation invariance; the Hurwitz-number
normalisation lives in :mod:`prunedhurwitz.hurwitz`.

The count is not taken leaf by leaf.  Whether a partial sequence can be
completed depends only on its search state (depth, running product,
touches per sigma1-cycle clamped at 2, and the partition of the
sigma1-cycles into joined components), so :func:`_search` counts the
completions of each state once and memoises them.  The work grows with
the number of distinct states, bounded by :func:`search_work_bound`,
instead of with the count itself.

The first transposition is tried once per orbit.  Any z commuting with
sigma1 maps a sequence (tau_i) to (z tau_i z^-1): the product is
conjugated by z, so its cycle type is kept; transitivity is kept; and
the touch counts are permuted along with the sigma1-cycles, so the
pruned condition is kept too.  Hence the sequences starting with tau
are as many as those starting with z tau z^-1, and the search counts
the completions of one representative per orbit of first
transpositions (:func:`_root_orbits`) and multiplies by the orbit size.
Deeper levels, the memo key and every leaf test are unchanged.

Pruned-ness conventions at the degenerate edge counts:

* m = 1: pruned iff sigma1 is a single cycle (the lone edge is a loop,
  so the single vertex has valency 2);
* m = 0: not pruned by default.  The edgeless graph is arguably
  leaf-free vacuously, so the opposite convention is available through
  the ``m0_pruned`` flag; every caller threads it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Sequence

from .combinatorics import Partition, automorphism_factor, bell_number, centralizer_order
from .permutations import (
    Permutation,
    all_transposition_pairs,
    canonical_permutation,
    cycle_index_map,
    cycles,
)


def _root_orbits(
    mu: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    swap_equal_cycles: bool,
) -> list[tuple[int, int, int]]:
    """One representative (a, b, orbit size) per orbit of ``pairs``
    under conjugation by a subgroup of the centralizer of the canonical
    permutation of mu.

    The subgroup is generated by the cycle rotations and, when
    ``swap_equal_cycles``, the swaps of equal-length cycles; conjugation
    sends (a b) to (z(a) z(b)).  The rotations move a pair inside one
    cycle to every pair of that cycle at the same cyclic distance, and a
    pair across two cycles to every pair across the same two; a swap
    carries a cycle onto any other of its length.  So an orbit is keyed
    by (cycle, distance) or by its two cycles, each cycle named by its
    length when equal cycles may be swapped and by its index otherwise.
    ``pairs`` (each a < b) must be a union of orbits.
    """
    cyc_of = cycle_index_map(mu)
    name = tuple(mu) if swap_equal_cycles else range(len(mu))
    representative: dict[tuple, tuple[int, int]] = {}
    size: Counter[tuple] = Counter()
    for a, b in pairs:
        ca, cb = cyc_of[a], cyc_of[b]
        if ca == cb:
            k = b - a  # canonical cycles are consecutive blocks
            key = (True, name[ca], min(k, mu[ca] - k))
        else:
            key = (False,) + tuple(sorted((name[ca], name[cb])))
        representative.setdefault(key, (a, b))
        size[key] += 1
    return [(a, b, size[key]) for key, (a, b) in representative.items()]


def _search(
    sigma1: Permutation,
    m: int,
    target: Partition,
    pairs: Sequence[tuple[int, int]],
    roots: Sequence[tuple[int, int, int]],
    track_touches: bool,
    cyc_of: Sequence[int],
    leaf_accepts: Callable[[list[int]], bool] | None = None,
) -> int:
    """Memoised count of qualifying transposition sequences.

    A search state after k transpositions is

    * the running product P = tau_k ... tau_1 sigma1;
    * in pruned mode, the touch vector of the sigma1-cycles clamped
      at 2 (a transposition inside one cycle touches it twice);
    * the partition of the sigma1-cycles into the components the
      transpositions have joined so far, each cycle labelled by the
      smallest cycle index of its component.

    Every leaf test reads only the state: the cycle type of P, the touch
    deficit, transitivity (a single component) and ``leaf_accepts``,
    which sees the product alone.  So the number of qualifying
    completions of a state is computed once per (depth, state) and
    memoised under one ``bytes`` key.  P is updated by O(1)
    left-multiplication (swap the two output values); the distance
    cutoff drops a branch whose cycle count can no longer reach
    l(target), and the parity cutoff, which is invariant along a
    sequence, is checked once.  The memo is released on return.

    At depth 0 the loop runs over ``roots`` instead of ``pairs``: one
    (a, b, orbit size) per orbit of the first transposition under a
    group of permutations commuting with sigma1 and preserving ``pairs``
    and ``leaf_accepts``, which maps qualifying sequences starting in
    one orbit element bijectively onto those starting in any other (see
    the module docstring), so each representative's count is multiplied
    by its orbit size.
    """
    d = len(sigma1)
    ltarget = len(target)
    ncycles_sigma1 = max(cyc_of) + 1
    ncyc0 = len(cycles(sigma1))
    if (ncyc0 - ltarget - m) % 2:
        return 0
    # one flat list packed into the memo key: P, clamped touches,
    # component labels, depth
    tbase = d
    cbase = d + ncycles_sigma1
    cend = cbase + ncycles_sigma1
    state = list(sigma1) + [0] * ncycles_sigma1 + list(range(ncycles_sigma1)) + [0]
    pack = bytes if d <= 256 and m < 256 else tuple
    pos = [0] * d
    for i, v in enumerate(sigma1):
        pos[v] = i
    memo: dict = {}

    def leaf(ncyc: int, short: int) -> int:
        if short or ncyc != ltarget:
            return 0
        if any(state[cbase:cend]):
            return 0  # not transitive: some cycle is outside component 0
        seen = [False] * d
        lengths = []
        for start in range(d):
            if seen[start]:
                continue
            n = 1
            seen[start] = True
            x = state[start]
            while x != start:
                seen[x] = True
                n += 1
                x = state[x]
            lengths.append(n)
        lengths.sort(reverse=True)
        if tuple(lengths) != target:
            return 0
        if leaf_accepts is not None and not leaf_accepts(state[:d]):
            return 0
        return 1

    unit_pairs = [(a, b, 1) for a, b in pairs]

    def completions(depth: int, ncyc: int, short: int) -> int:
        remaining = m - depth - 1
        total = 0
        for a, b, weight in unit_pairs if depth else roots:
            # left-multiplying by (a b): same cycle splits, two cycles merge
            y = state[a]
            while y != a and y != b:
                y = state[y]
            new_ncyc = ncyc + 1 if y == b else ncyc - 1
            if abs(new_ncyc - ltarget) > remaining:
                continue
            ca, cb = cyc_of[a], cyc_of[b]
            new_short = short
            if track_touches:
                ta, tb = state[tbase + ca], state[tbase + cb]
                if ca == cb:
                    new_short -= 2 - ta
                else:
                    new_short -= (ta < 2) + (tb < 2)
                if new_short > 2 * remaining:
                    continue
                if ca == cb:
                    state[tbase + ca] = 2
                else:
                    state[tbase + ca] = ta + (ta < 2)
                    state[tbase + cb] = tb + (tb < 2)
            la, lb = state[cbase + ca], state[cbase + cb]
            if la != lb:
                saved = state[cbase:cend]
                lo, hi = (la, lb) if la < lb else (lb, la)
                for i in range(cbase, cend):
                    if state[i] == hi:
                        state[i] = lo
            pa, pb = pos[a], pos[b]
            state[pa], state[pb] = b, a
            pos[a], pos[b] = pb, pa
            if remaining == 0:
                total += weight * leaf(new_ncyc, new_short)
            else:
                state[-1] = depth + 1
                key = pack(state)
                n = memo.get(key)
                if n is None:
                    n = memo[key] = completions(depth + 1, new_ncyc, new_short)
                total += weight * n
            state[pa], state[pb] = a, b
            pos[a], pos[b] = pa, pb
            if la != lb:
                state[cbase:cend] = saved
            if track_touches:
                state[tbase + ca], state[tbase + cb] = ta, tb
        return total

    try:
        return completions(0, ncyc0, 2 * ncycles_sigma1 if track_touches else 0)
    finally:
        memo.clear()


def _count_m0(
    mu: Partition,
    target: Partition,
    pruned: bool,
    m0_pruned: bool,
    leaf_accepts: Callable[[list[int]], bool] | None = None,
) -> int:
    """The empty-sequence case: sigma2 = sigma1^(-1)."""
    if tuple(sorted(mu, reverse=True)) != target:
        return 0
    if len(mu) != 1:  # orbits of <sigma1> alone are its cycles
        return 0
    if pruned and not m0_pruned:
        return 0
    if leaf_accepts is not None:
        sigma1 = canonical_permutation(mu)
        if not leaf_accepts(list(sigma1)):
            return 0
    return 1


def count_factorizations(
    g: int,
    mu: Sequence[int],
    nu: Sequence[int],
    pruned: bool = False,
    *,
    m0_pruned: bool = False,
) -> int:
    """Number of qualifying transposition sequences with sigma1 frozen.

    Returns 0 when m = 2g - 2 + l(mu) + l(nu) is negative.
    """
    mu = tuple(mu)
    nu = tuple(nu)
    d = sum(mu)
    if d < 1 or sum(nu) != d:
        raise ValueError("mu and nu must be partitions of the same d >= 1")
    m = 2 * g - 2 + len(mu) + len(nu)
    if m < 0:
        return 0
    target = tuple(sorted(nu, reverse=True))
    if m == 0:
        return _count_m0(mu, target, pruned, m0_pruned)
    if pruned and m == 1 and len(mu) != 1:
        return 0
    track_touches = pruned and m > 1
    if track_touches and 2 * len(mu) > 2 * m:
        return 0
    pairs = all_transposition_pairs(d)
    return _search(
        canonical_permutation(mu), m, target, pairs,
        _root_orbits(mu, pairs, swap_equal_cycles=True),
        track_touches, cycle_index_map(mu),
    )


def search_work_bound(g: int, mu: Sequence[int], nu: Sequence[int]) -> int:
    """Upper bound on the transpositions :func:`_search` tries.

    At depth k there are at most min(P^k, d! * 3^l(mu) * Bell(l(mu)))
    memoised states (sequences so far, against distinct products, clamped
    touch vectors and component partitions), and each tries the P =
    d(d-1)/2 transpositions.
    """
    d = sum(mu)
    m = 2 * g - 2 + len(mu) + len(nu)
    if m <= 0:
        return 1
    pairs = d * (d - 1) // 2
    states = math.factorial(d) * 3 ** len(mu) * bell_number(len(mu))
    return pairs * sum(min(pairs**k, states) for k in range(m))


def count_isomorphism_classes(
    g: int,
    mu: Sequence[int],
    nu: Sequence[int],
    pruned: bool = False,
    *,
    m0_pruned: bool = False,
) -> int:
    """Number of simultaneous-conjugation classes of qualifying tuples
    with labelled sigma1/sigma2 cycles, by Burnside's lemma over the
    centralizer of the canonical sigma1.

    Only centralizer elements fixing every sigma1-cycle setwise can fix
    a labelled tuple, so the sum runs over the cycle rotations; a fixed
    tuple additionally needs all transpositions invariant under z and
    every sigma2-cycle fixed setwise by z.  That leaf test depends on z,
    so the root orbits use only the rotations: they commute with z, so
    they preserve the z-invariant pairs and the test, whereas a swap of
    equal cycles need not.

    For l(mu) >= 2 only z = id contributes.  A rotation z moving cycle
    j has no fixed point on it, so a transposition fixed by z that
    touches cycle j is swapped by z and lies inside cycle j; no fixed
    sequence joins cycle j to another cycle, so none is transitive.
    """
    mu = tuple(mu)
    nu = tuple(nu)
    d = sum(mu)
    if d < 1 or sum(nu) != d:
        raise ValueError("mu and nu must be partitions of the same d >= 1")
    m = 2 * g - 2 + len(mu) + len(nu)
    if m < 0:
        return 0
    target = tuple(sorted(nu, reverse=True))
    if pruned and m == 1 and len(mu) != 1:
        return 0
    track_touches = pruned and m > 1
    sigma1 = canonical_permutation(mu)
    cyc_of = cycle_index_map(mu)
    pairs = all_transposition_pairs(d)

    if len(mu) == 1:  # the rotations of the d-cycle sigma1: x -> x + k mod d
        rotations = [tuple((x + k) % d for x in range(d)) for k in range(d)]
    else:
        rotations = [tuple(range(d))]
    total = 0
    for z in rotations:
        fixed_pairs = [(a, b) for a, b in pairs if {z[a], z[b]} == {a, b}]

        def sigma2_cycles_fixed(prod: list[int]) -> bool:
            # cycles of sigma2 = cycles of the product, as point sets
            cid = [-1] * d
            nxt = 0
            for start in range(d):
                if cid[start] >= 0:
                    continue
                cid[start] = nxt
                x = prod[start]
                while x != start:
                    cid[x] = nxt
                    x = prod[x]
                nxt += 1
            return all(cid[z[x]] == cid[x] for x in range(d))

        if m == 0:
            total += _count_m0(mu, target, pruned, m0_pruned, sigma2_cycles_fixed)
        else:
            total += _search(
                sigma1, m, target, fixed_pairs,
                _root_orbits(mu, fixed_pairs, swap_equal_cycles=False),
                track_touches, cyc_of, leaf_accepts=sigma2_cycles_fixed,
            )

    weighted = total * automorphism_factor(mu) * automorphism_factor(nu)
    order = centralizer_order(mu)
    if weighted % order:
        raise ArithmeticError("Burnside count is not an integer; bug")
    return weighted // order
