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

Isomorphism classes (:func:`count_isomorphism_classes`) need no search
of their own.  By Burnside's lemma over the cycle rotations they are N
itself, except for mu = (d): there every rotation fixes the empty
sequence at m = 0, and for even d the half-turn fixes the (d/2)^m words
of diameters when nu = (d); the proof is in that function's docstring.

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
from typing import Sequence

from .combinatorics import Partition, automorphism_factor, bell_number, centralizer_order
from .permutations import all_transposition_pairs, canonical_permutation, cycle_index_map


def _root_orbits(mu: Sequence[int]) -> list[tuple[int, int, int]]:
    """One representative (a, b, orbit size) per orbit of the
    transpositions under conjugation by the centralizer of the canonical
    permutation of mu.

    The centralizer is generated by the cycle rotations and the swaps of
    equal-length cycles; conjugation sends (a b) to (z(a) z(b)).  The
    rotations move a pair inside one cycle to every pair of that cycle
    at the same cyclic distance, and a pair across two cycles to every
    pair across the same two; a swap carries a cycle onto any other of
    its length.  So an orbit is keyed by (cycle length, distance) or by
    the lengths of its two cycles.
    """
    cyc_of = cycle_index_map(mu)
    representative: dict[tuple, tuple[int, int]] = {}
    size: Counter[tuple] = Counter()
    for a, b in all_transposition_pairs(len(cyc_of)):
        ca, cb = cyc_of[a], cyc_of[b]
        if ca == cb:
            k = b - a  # canonical cycles are consecutive blocks
            key = (True, mu[ca], min(k, mu[ca] - k))
        else:
            key = (False,) + tuple(sorted((mu[ca], mu[cb])))
        representative.setdefault(key, (a, b))
        size[key] += 1
    return [(a, b, size[key]) for key, (a, b) in representative.items()]


def _search(mu: Partition, m: int, target: Partition, track_touches: bool) -> int:
    """Memoised count of qualifying transposition sequences with sigma1
    the canonical permutation of mu.

    A search state after k transpositions is

    * the running product P = tau_k ... tau_1 sigma1;
    * in pruned mode, the touch vector of the sigma1-cycles clamped
      at 2 (a transposition inside one cycle touches it twice);
    * the partition of the sigma1-cycles into the components the
      transpositions have joined so far, each cycle labelled by the
      smallest cycle index of its component.

    Every leaf test reads only the state: the cycle type of P, the touch
    deficit and transitivity (a single component).  So the number of
    qualifying completions of a state is computed once per (depth,
    state) and memoised under one ``bytes`` key.  P is updated by O(1)
    left-multiplication (swap the two output values); the distance
    cutoff drops a branch whose cycle count can no longer reach
    l(target), and the parity cutoff, which is invariant along a
    sequence, is checked once.  The memo is released on return.

    At depth 0 the loop runs over :func:`_root_orbits` instead of all
    pairs: conjugation by the centralizer of sigma1 maps qualifying
    sequences starting in one orbit element bijectively onto those
    starting in any other (see the module docstring), so each
    representative's count is multiplied by its orbit size.
    """
    sigma1 = canonical_permutation(mu)
    cyc_of = cycle_index_map(mu)
    d = len(sigma1)
    ltarget = len(target)
    ncycles_sigma1 = len(mu)
    if (ncycles_sigma1 - ltarget - m) % 2:
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
        return int(tuple(lengths) == target)

    roots = _root_orbits(mu)
    unit_pairs = [(a, b, 1) for a, b in all_transposition_pairs(d)]

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
        return completions(0, ncycles_sigma1, 2 * ncycles_sigma1 if track_touches else 0)
    finally:
        memo.clear()


def _count_m0(mu: Partition, target: Partition, pruned: bool, m0_pruned: bool) -> int:
    """The empty-sequence case: sigma2 = sigma1^(-1)."""
    if tuple(sorted(mu, reverse=True)) != target:
        return 0
    if len(mu) != 1:  # orbits of <sigma1> alone are its cycles
        return 0
    if pruned and not m0_pruned:
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
    return _search(mu, m, target, track_touches)


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
    centralizer of the canonical sigma1, in closed form from the count
    N of :func:`count_factorizations`.

    Only centralizer elements fixing every sigma1-cycle setwise can fix
    a labelled tuple, so the sum runs over the cycle rotations z; a
    fixed tuple has every transposition invariant under z and every
    sigma2-cycle fixed setwise by z.  The identity fixes all N tuples.

    For l(mu) >= 2 only z = id contributes.  A rotation z moving cycle
    j has no fixed point on it, so a transposition fixed by z that
    touches cycle j is swapped by z and lies inside cycle j; no fixed
    sequence joins cycle j to another cycle, so none is transitive.

    For mu = (d), sigma1 is x -> x + 1 mod d and the rotations are
    x -> x + k.  At m = 0 every rotation fixes the empty sequence, so
    the sum is d * N.  For m >= 1, a rotation fixes a transposition
    {a, b} only when k = 0, or when k = h = d/2 and {a, b} = {a, a + h}
    is a diameter; so besides the identity only the half-turn of an
    even d contributes, through words of m diameters.  The diameters
    are disjoint, so they commute, and the product T of a word is the
    product of the set R of diameters used an odd number of times, with
    |R| = m (mod 2).  So P = T sigma1 sends x to x + 1, plus h when
    x + 1 lies on a diameter in R.  Modulo h, P is an h-cycle, and
    along any h consecutive steps each diameter is met once, so
    P^h(x) = x + h(1 + |R|).  Hence P is a d-cycle when |R| is even,
    and two h-cycles, swapped by the half-turn, when |R| is odd.  Such
    a word is transitive (sigma1 is one cycle) and pruned (each
    diameter touches that cycle twice).  With nu = (d), m = 2g is even
    and all h^m words qualify.  For any other nu none does: P must then
    be two h-cycles, and the half-turn swaps them instead of fixing
    each.
    """
    n = count_factorizations(g, mu, nu, pruned, m0_pruned=m0_pruned)
    d = sum(mu)
    m = 2 * g - 2 + len(mu) + len(nu)
    total = n
    if len(mu) == 1 and m == 0:
        total = d * n
    elif len(mu) == 1 and len(nu) == 1 and d % 2 == 0 and m > 0:
        total = n + (d // 2) ** m
    weighted = total * automorphism_factor(mu) * automorphism_factor(nu)
    order = centralizer_order(mu)
    if weighted % order:
        raise ArithmeticError("Burnside count is not an integer; bug")
    return weighted // order
