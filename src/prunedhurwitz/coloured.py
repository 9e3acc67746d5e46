"""The coloured cycle-type engine: one full search
(:func:`count_coloured`) and the move tables it reads and fills
(:class:`MoveTables`).  What it counts, the state, why it is exact and
the transitions are set out in the docstring of
:mod:`prunedhurwitz.factorizations`, with the bound on the work and the
leaf sum that makes a pruned count of these searches.  The engine is a
module of its own so that importing the package, or a command answered
from the value cache, compiles none of it.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import itemgetter

from .combinatorics import Partition


class MoveTables:
    """The engine's tables, kept across the searches they are handed
    to:

    * ``rotations``: word -> (its least rotation, its period);
    * ``renamings``: word multiset -> (the multiset with equal-size
      colours renamed in order of first appearance, the map taking the
      component labels along, or None);
    * ``moves``: word multiset -> its successor lists, cuts then joins;
    * ``prefinal``: target nu -> the cycle types one transposition
      takes to nu -> the lengths that move removes and adds
      (:func:`prefinal_types`);
    * ``finals``: target nu -> word multiset -> the last cuts, counted,
      and joins, by colour pair, that give the product the cycle type
      nu (none unless the multiset's length type is pre-final);
    * ``closers``: target nu -> word multiset -> its successor lists
      restricted to the successors whose length type is pre-final, the
      only ones that can finish one move later, generated from the word
      lengths.

    Sharing them is exact: an entry reads only a word or a word
    multiset, which fixes mu (colour c occurs mu_c times in it), and
    nu; never m or the components.  So a caller of many searches (a
    :class:`prunedhurwitz.hurwitz.HurwitzEngine`, a pruned count's
    cores) hands the same tables to each.  They only grow, and die with
    their holder.
    """

    __slots__ = ("rotations", "renamings", "moves", "prefinal", "finals", "closers")

    def __init__(self) -> None:
        self.rotations: dict[bytes, tuple[bytes, int]] = {}
        self.renamings: dict[tuple, tuple[tuple, object]] = {}
        self.moves: dict[tuple, tuple[list, list]] = {}
        self.prefinal: dict[Partition, dict[Partition, tuple[tuple, tuple]]] = {}
        self.finals: dict[Partition, dict[tuple, tuple[list, list]]] = {}
        self.closers: dict[Partition, dict[tuple, tuple[list, list]]] = {}


def _decreasing(lengths) -> Partition:
    return tuple(sorted(lengths, reverse=True))


def _least_rotation(w: bytes) -> tuple[bytes, int]:
    """The least rotation of w and its period, the first shift that
    gives w back (a loop: ``min`` over a generator was 5% slower)."""
    n = len(w)
    ww = w + w
    period = ww.find(w, 1)
    best = w
    for i in range(1, period):
        rot = ww[i:i + n]
        if rot < best:
            best = rot
    return best, period


def prefinal_types(target: Partition) -> dict[Partition, tuple[tuple, tuple]]:
    """The cycle types that one transposition takes to the type
    ``target``, each with the lengths that move removes and adds,
    sorted.  The move cuts a length c + b into c and b (from the type
    target - {c, b} + {c + b}) or joins a and c - a into c (from
    target - {c} + {a, c - a}).  The lengths a move removes are all
    distinct from the ones it adds, and a type before a cut has one
    cycle fewer than target while one before a join has one more, so a
    type fixes its move's lengths.  Types and target are sorted in
    decreasing order."""
    types: dict[Partition, tuple[tuple, tuple]] = {}
    for i, c in enumerate(target):
        rest = target[:i] + target[i + 1:]
        for a in range(1, c // 2 + 1):
            types[_decreasing(rest + (a, c - a))] = ((a, c - a), (c,))
        for j in range(i + 1, len(target)):
            b = target[j]  # b <= c
            before = target[:i] + target[i + 1:j] + target[j + 1:] + (c + b,)
            types[_decreasing(before)] = ((c + b,), (b, c))
    return types


def count_coloured(mu: Partition, m: int, target: Partition, tables: MoveTables) -> tuple[int, int]:
    """The number of transitive sequences of m >= 1 transpositions that
    give the product the cycle type ``target``, and the number of states
    reached, a successor one move before the end that cannot finish
    being neither made nor counted; mu has at most 256 parts (colours
    are bytes).  A layer maps each state (words, components) reached
    after k transpositions to the number of ways to reach it; only the
    current layer and the next are held, and the last moves are counted
    from the final one.  The search reads and fills ``tables``."""
    mu = _decreasing(mu)
    ncol = len(mu)
    ltarget = len(target)
    # equal-size colours are consecutive; first[c] is the least of them
    first = [mu.index(size) for size in mu]
    symmetric = len(set(mu)) < ncol
    rotations, renamings, moves = tables.rotations, tables.renamings, tables.moves
    prefinal = tables.prefinal.get(target)
    if prefinal is None:
        prefinal = tables.prefinal[target] = prefinal_types(target)
    finals = tables.finals.setdefault(target, {})
    closers = tables.closers.setdefault(target, {})

    def least(w: bytes) -> tuple[bytes, int]:
        """The least rotation of w and its period."""
        r = rotations.get(w)
        if r is None:
            r = rotations[w] = _least_rotation(w)
        return r

    def relabel(words: tuple) -> tuple[tuple, object]:
        """The words with equal-size colours renamed in order of first
        appearance, and the map taking a colour vector to the renamed
        colours (None when no colour is renamed)."""
        mapping = [-1] * ncol
        free = list(range(ncol))
        for w in words:
            for c in w:
                if mapping[c] < 0:
                    f = first[c]
                    mapping[c] = free[f]
                    free[f] += 1
        if mapping == list(range(ncol)):
            r = (words, None)
        else:
            table = bytes(mapping) + bytes(256 - ncol)
            renamed = tuple(sorted(least(w.translate(table))[0] for w in words))
            source = [0] * ncol
            for c, x in enumerate(mapping):
                source[x] = c
            r = (renamed, itemgetter(*source))
        renamings[words] = r
        return r

    def word_cuts(w: bytes, lengths) -> list:
        """The cuts of one word that split off a piece of each of
        ``lengths`` (each at most half of w), grouped by the two pieces:
        ((piece, piece), ways).  A cut is a start and a length over one
        period of w; the length n/2 takes fewer starts, since each of
        its pairs has two.  A cut merges no components, so its colours
        are not kept."""
        grouped: dict[tuple, int] = {}
        n = len(w)
        period = least(w)[1]
        ww = w + w
        for length in lengths:
            if 2 * length < n:
                starts, ways = period, n // period
            else:
                starts = math.gcd(period, length)
                ways = length // starts
            for s in range(starts):
                x, y = least(ww[s:s + length])[0], least(ww[s + length:s + n])[0]
                key = (x, y) if x < y else (y, x)
                grouped[key] = grouped.get(key, 0) + ways
        return list(grouped.items())

    def word_joins(u: bytes, v: bytes) -> list:
        """The joins of two cycles with words u and v, grouped:
        ((joined word, a, b), ways), over one period of each."""
        grouped: dict[tuple, int] = {}
        lu, pu = len(u), least(u)[1]
        lv, pv = len(v), least(v)[1]
        ways = (lu // pu) * (lv // pv)
        uu, vv = u + u, v + v
        for s in range(pu):
            head, a = uu[s:s + lu], u[s]
            for t in range(pv):
                b = v[t]
                key = (least(head + vv[t:t + lv])[0], min(a, b), max(a, b))
                grouped[key] = grouped.get(key, 0) + ways
        return list(grouped.items())

    def successors(words: tuple, types: dict | None = None) -> tuple[list, list]:
        """The moves out of a word multiset, grouped, cuts then joins:
        (successor words, ways) and ((successor words, colour a, colour
        b), ways), stored in ``moves``.  Given ``types``, the target's
        pre-final types, only the moves to a successor whose length type
        is among them, the only ones that can finish one move later,
        stored in ``closers``: the cut lengths and the pairs to join are
        chosen from the word lengths before any word is built."""
        cuts: dict[tuple, int] = {}
        joins: dict[tuple, int] = {}
        distinct = []  # (word, copies, index of the first copy)
        at = 0
        while at < len(words):
            end = at + 1
            while end < len(words) and words[end] == words[at]:
                end += 1
            distinct.append((words[at], end - at, at))
            at = end
        lengths = [len(w) for w in words]

        def kept(removed: list, added: list) -> bool:
            """Whether the move that takes the lengths removed to the
            lengths added gives a length type among types."""
            rest = lengths.copy()
            for x in removed:
                rest.remove(x)
            return _decreasing(rest + added) in types

        for w, k, at in distinct:
            n = len(w)
            pieces = range(1, n // 2 + 1)
            if types is not None:
                pieces = [x for x in pieces if kept([n], [x, n - x])]
            rest = words[:at] + words[at + 1:]
            for (x, y), ways in word_cuts(w, pieces):
                key = tuple(sorted(rest + (x, y)))
                cuts[key] = cuts.get(key, 0) + k * ways
        for i, (u, ku, au) in enumerate(distinct):
            for v, kv, av in distinct[i:]:
                if av == au:
                    pairs = ku * (ku - 1) // 2
                    rest = words[:au] + words[au + 2:]
                else:
                    pairs = ku * kv
                    rest = words[:au] + words[au + 1:av] + words[av + 1:]
                if not pairs:
                    continue
                if types is not None and not kept([len(u), len(v)], [len(u) + len(v)]):
                    continue
                for (joined, a, b), ways in word_joins(u, v):
                    key = (tuple(sorted(rest + (joined,))), a, b)
                    joins[key] = joins.get(key, 0) + pairs * ways
        r = (moves if types is None else closers)[words] = (list(cuts.items()), list(joins.items()))
        return r

    def finishing(words: tuple) -> tuple[int, list]:
        """The last moves out of a word multiset that give P the cycle
        type nu: the number of cuts, and the joins grouped by colour
        pair, ((a, b), ways).  Only word lengths and colours are read:
        the type of the lengths names the lengths the move removes and
        adds (:func:`prefinal_types`), and a type that is not pre-final
        has no last move."""
        removed, added = prefinal.get(_decreasing(map(len, words)), ((), ()))
        cuts = 0
        joins: dict[tuple, int] = {}
        if len(removed) == 1:
            n, split = removed[0], added[0]
            # a cut is a start and a length over the word, as in word_cuts
            cuts = sum(len(w) == n for w in words) * (n if 2 * split < n else split)
        elif removed:
            for i, u in enumerate(words):
                for v in words[i + 1:]:
                    if (min(len(u), len(v)), max(len(u), len(v))) != removed:
                        continue
                    for a, na in Counter(u).items():
                        for b, nb in Counter(v).items():
                            key = (a, b) if a < b else (b, a)
                            joins[key] = joins.get(key, 0) + na * nb
        r = finals[words] = (cuts, list(joins.items()))
        return r

    def last(words: tuple, comp: bytes) -> int:
        """The transpositions that complete a state in one move."""
        cuts, joins = finals.get(words) or finishing(words)
        if cuts:
            # a cut joins no components
            return 0 if any(comp) else cuts
        labels = set(comp)
        if len(labels) > 2:
            return 0
        if len(labels) == 1:
            return sum(ways for _, ways in joins)
        return sum(ways for (a, b), ways in joins if comp[a] != comp[b])

    root = tuple(bytes([c]) * size for c, size in enumerate(mu))
    layer = {(root, bytes(range(ncol))): 1}
    states = 1
    for remaining in range(m - 1, 0, -1):
        # one transposition from every state of the layer, with
        # ``remaining`` moves after it
        following: dict = {}
        for (words, comp), ways_in in layer.items():
            if remaining == 1:
                cuts, joins = closers.get(words) or successors(words, prefinal)
            else:
                cuts, joins = moves.get(words) or successors(words)
            reached = []  # (successor words, components, ways)
            if abs(len(words) + 1 - ltarget) <= remaining:
                reached += [(new_words, comp, ways) for new_words, ways in cuts]
            if abs(len(words) - 1 - ltarget) <= remaining:
                for (new_words, ca, cb), ways in joins:
                    new_comp = comp
                    if comp[ca] != comp[cb]:
                        lo, hi = sorted((comp[ca], comp[cb]))
                        new_comp = comp.replace(bytes((hi,)), bytes((lo,)))
                    reached.append((new_words, new_comp, ways))
            for new_words, new_comp, ways in reached:
                if symmetric:
                    new_words, renaming = renamings.get(new_words) or relabel(new_words)
                    if renaming is not None:
                        # component labels: the least colour of each component
                        seen: dict = {}
                        new_comp = bytes([
                            seen.setdefault(x, i) for i, x in enumerate(renaming(new_comp))
                        ])
                key = (new_words, new_comp)
                following[key] = following.get(key, 0) + ways_in * ways
        layer = following
        states += len(layer)
    return sum(ways_in * last(*state) for state, ways_in in layer.items()), states

