"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the library's enumeration code:
permutations are image tuples composed positionally, transitivity is a
BFS, the leaf condition is a vertex/edge incidence count.  Only the
convention for the canonical sigma1 is shared (the tests take their
partitions from ``prunedhurwitz.combinatorics``).  These are the
references the fast engine is checked against.

A permutation of {0, ..., d-1} is the tuple of its images: ``p[i]`` is
the image of ``i``.  Products compose right to left: ``apply_after(a,
b)`` sends x to a(b(x)), so a product written sigma2 * tau_m * ... *
tau_1 * sigma1 applies sigma1 first.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations as iter_permutations, product

from math import comb, factorial, prod

from prunedhurwitz.combinatorics import bell_number, partition_count, partitions


def multinomial(n, parts):
    """Multinomial coefficient n!/(p_1! ... p_k!), extended by zero.

    Returns 0 when any part is negative or the parts do not sum to n.
    The zero extension keeps sums over formally decremented indices
    total: terms with a -1 entry simply vanish.
    """
    if n < 0 or any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


def wall_by_subsets(mu, nu):
    """Whether some proper non-empty subset of mu and one of nu have the
    same sum, by listing every such subset of both."""
    def sums(parts):
        return {sum(c) for r in range(1, len(parts)) for c in combinations(parts, r)}

    return bool(sums(mu) & sums(nu))


def identity_permutation(d):
    return tuple(range(d))


def apply_after(a, b):
    """The product a*b, i.e. apply b first: x -> a(b(x))."""
    if len(a) != len(b):
        raise ValueError("degree mismatch")
    return tuple(a[b[x]] for x in range(len(b)))


def canonical_permutation(mu):
    """The permutation whose i-th cycle is the i-th consecutive block of
    {0, ..., d-1}: mu=(2,3) gives (0 1)(2 3 4)."""
    images = []
    start = 0
    for part in mu:
        block = list(range(start, start + part))
        images.extend(block[1:] + block[:1])
        start += part
    return tuple(images)


def perm_cycles(p):
    """Disjoint cycles of p (fixed points included), each starting at its
    smallest element, ordered by that element."""
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        x = p[s]
        while x != s:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(cyc))
    return out


def perm_type(p):
    """Multiset of cycle lengths, sorted descending."""
    return tuple(sorted((len(c) for c in perm_cycles(p)), reverse=True))


def perm_inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def transposition_images(d, a, b):
    images = list(range(d))
    images[a], images[b] = b, a
    return tuple(images)


def all_transpositions(d):
    return [transposition_images(d, a, b) for a in range(d) for b in range(a + 1, d)]


def prefinal_types(nu):
    """The cycle types that one transposition takes to the type nu: every
    transposition applied to the canonical permutation of each cycle
    type of S_d, keeping the types whose product has type nu."""
    target = tuple(sorted(nu, reverse=True))
    d = sum(target)
    taus = all_transpositions(d)
    return {
        kind for kind in partitions(d)
        if any(perm_type(apply_after(tau, canonical_permutation(kind))) == target for tau in taus)
    }


def least_rotation(w):
    """The least rotation of the word w and its period, by a walk over
    every rotation: the period is the first shift that gives w back."""
    n = len(w)
    ww = w + w
    best, period = w, n
    for i in range(1, n):
        rot = ww[i:i + n]
        if rot < best:
            best = rot
        elif rot == w and period == n:
            period = i
    return best, period


def successor_lists(words):
    """The coloured cycle types one transposition takes a word multiset
    to, counted: {(sorted least-rotation words, min colour, max
    colour): transpositions}.  Each word is realised as a cycle of
    consecutive points coloured by its letters, and every transposition
    (a b) is applied on the left."""
    colours = [c for w in words for c in w]
    images = []
    for w in words:
        start = len(images)
        images.extend(start + (i + 1) % len(w) for i in range(len(w)))
    d = len(images)
    grouped = Counter()
    for a in range(d):
        for b in range(a + 1, d):
            product = apply_after(transposition_images(d, a, b), tuple(images))
            cycle_words = []
            for cycle in perm_cycles(product):
                word = bytes(colours[x] for x in cycle)
                cycle_words.append(min(word[i:] + word[:i] for i in range(len(word))))
            ca, cb = sorted((colours[a], colours[b]))
            grouped[tuple(sorted(cycle_words)), ca, cb] += 1
    return dict(grouped)


def bfs_transitive(d, generators):
    if d == 0:
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for gen in generators:
            y = gen[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == d


def touches(tau, cycle_points):
    return sum(1 for x in cycle_points if tau[x] != x)


def pruned_by_touch_count(sigma1, taus, m0_pruned=False):
    """At least two transpositions meeting every sigma1-cycle; the m=1
    convention is a single cycle, m=0 follows the flag."""
    if len(taus) == 0:
        return m0_pruned
    cycs = perm_cycles(sigma1)
    if len(taus) == 1:
        return len(cycs) == 1
    for cyc in cycs:
        pts = set(cyc)
        meeting = sum(1 for t in taus if any(t[x] != x for x in pts))
        if meeting < 2:
            return False
    return True


def pruned_by_valency(sigma1, taus):
    """Graph reading: every vertex (sigma1-cycle) has valency >= 2,
    where an edge with both endpoints on the cycle (a loop) counts
    twice."""
    for cyc in perm_cycles(sigma1):
        pts = set(cyc)
        val = 0
        for t in taus:
            moved = [x for x in pts if t[x] != x]
            val += min(len(moved), 2)
        if val < 2:
            return False
    return True


def naive_tuple_counts(d, m, m0_pruned=False):
    """Enumerate ALL (sigma1, tau_1..tau_m) over S_d and bucket by
    (type sigma1, type product): values are [qualifying, qualifying and
    pruned] counts, where qualifying means transitive (the product-type
    condition is the bucket key)."""
    taus = all_transpositions(d)
    counts = {}
    for sigma1 in iter_permutations(range(d)):
        t1 = perm_type(sigma1)
        for seq in product(taus, repeat=m):
            prod = sigma1
            for t in seq:
                prod = apply_after(t, prod)
            if not bfs_transitive(d, (sigma1,) + seq):
                continue
            key = (t1, perm_type(prod))
            slot = counts.setdefault(key, [0, 0])
            slot[0] += 1
            if pruned_by_touch_count(sigma1, seq, m0_pruned):
                slot[1] += 1
    return counts


def fully_ramified_orbit_count(n, g, m0_pruned=False):
    """Isomorphism classes of pruned (n)|(n) tuples at genus g: the
    qualifying transposition sequences for the fixed n-cycle sigma1,
    taken modulo simultaneous conjugation by its centralizer <sigma1>,
    each orbit found by its least conjugate."""
    sigma1 = tuple(list(range(1, n)) + [0])
    m = 2 * g
    taus = all_transpositions(n)
    powers = [tuple(range(n))]
    for _ in range(n - 1):
        powers.append(apply_after(sigma1, powers[-1]))
    # (z, z^-1) for each z in <sigma1>; z^-1 = sigma1^(n-k) for z = sigma1^k
    conjugators = [(powers[k], powers[-k % n]) for k in range(n)]
    orbits = set()
    for seq in product(taus, repeat=m):
        prod = sigma1
        for t in seq:
            prod = apply_after(t, prod)
        if perm_type(prod) != (n,) or not bfs_transitive(n, (sigma1,) + seq):
            continue
        if not pruned_by_touch_count(sigma1, seq, m0_pruned):
            continue
        orbits.add(min(
            tuple(apply_after(apply_after(z, t), z_inv) for t in seq)
            for z, z_inv in conjugators
        ))
    return len(orbits)


# -- the permutation search: the oracle of the coloured cycle-type engine ----


def cycle_index_map(mu):
    """For the canonical permutation of mu, the cycle index of each point."""
    out = []
    for i, part in enumerate(mu):
        out.extend([i] * part)
    return tuple(out)


def all_transposition_pairs(d):
    """All transpositions of S_d as ordered pairs (a, b) with a < b."""
    return [(a, b) for a in range(d) for b in range(a + 1, d)]


def root_orbits(mu):
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

    Any z commuting with sigma1 maps a sequence (tau_i) to
    (z tau_i z^-1): the product is conjugated by z, so its cycle type
    is kept; transitivity is kept; and the touch counts are permuted
    along with the sigma1-cycles, so the pruned condition is kept too.
    So the sequences starting with tau are as many as those starting
    with z tau z^-1.
    """
    cyc_of = cycle_index_map(mu)
    representative = {}
    size = Counter()
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


def permutation_search(mu, m, target, track_touches):
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

    At depth 0 the loop runs over ``root_orbits`` instead of all
    pairs: conjugation by the centralizer of sigma1 maps qualifying
    sequences starting in one orbit element bijectively onto those
    starting in any other (see ``root_orbits``), so each
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
    memo = {}

    def leaf(ncyc, short):
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

    roots = root_orbits(mu)
    unit_pairs = [(a, b, 1) for a, b in all_transposition_pairs(d)]

    def completions(depth, ncyc, short):
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



def search_count(g, mu, nu, pruned=False, m0_pruned=False):
    """``count_factorizations`` by the memoised permutation search: the
    same edge cases (m < 0, m = 0, pruned m = 1), then
    ``permutation_search`` on the product permutation itself."""
    if sum(mu) < 1 or sum(nu) != sum(mu):
        raise ValueError("mu and nu must be partitions of the same d >= 1")
    m = 2 * g - 2 + len(mu) + len(nu)
    if m < 0:
        return 0
    target = tuple(sorted(nu, reverse=True))
    if m == 0:
        spans = len(mu) == 1 and tuple(sorted(mu, reverse=True)) == target
        return int(spans and (m0_pruned or not pruned))
    if pruned and m == 1 and len(mu) != 1:
        return 0
    track_touches = pruned and m > 1
    if track_touches and len(mu) > m:
        return 0
    return permutation_search(tuple(mu), m, target, track_touches)


@dataclass(frozen=True)
class FactorizationTuple:
    """A tuple (sigma1, tau_1...tau_m, sigma2) with product identity,
    each transposition given as a pair (a, b)."""

    sigma1: tuple
    transpositions: tuple
    sigma2: tuple

    @property
    def degree(self):
        return len(self.sigma1)

    def product_is_identity(self):
        d = self.degree
        prod = self.sigma1
        for a, b in self.transpositions:
            prod = apply_after(transposition_images(d, a, b), prod)
        return apply_after(self.sigma2, prod) == tuple(range(d))


def is_transitive(t):
    """True iff the sigma1-cycles and the transpositions connect all
    points."""
    taus = [transposition_images(t.degree, a, b) for a, b in t.transpositions]
    return bfs_transitive(t.degree, [t.sigma1] + taus)


def is_pruned(t, m0_pruned=False):
    """The pruned condition on a factorization tuple: for m > 1, every
    sigma1-cycle meets at least two of the transpositions."""
    taus = [transposition_images(t.degree, a, b) for a, b in t.transpositions]
    return pruned_by_touch_count(t.sigma1, taus, m0_pruned)


def iter_factorization_tuples(g, mu, nu, pruned=False, m0_pruned=False):
    """Naive enumeration with sigma1 canonical: filter the full Cartesian
    product of transposition sequences.  Small inputs only."""
    d = sum(mu)
    if sum(nu) != d or d < 1:
        raise ValueError("mu and nu must be partitions of the same d >= 1")
    m = 2 * g - 2 + len(mu) + len(nu)
    if m < 0:
        return
    sigma1 = canonical_permutation(mu)
    target = tuple(sorted(nu, reverse=True))
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    for seq in product(pairs, repeat=m):
        prod = sigma1
        for a, b in seq:
            prod = apply_after(transposition_images(d, a, b), prod)
        if perm_type(prod) != target:
            continue
        t = FactorizationTuple(sigma1, seq, perm_inverse(prod))
        if not is_transitive(t):
            continue
        if pruned and not is_pruned(t, m0_pruned=m0_pruned):
            continue
        yield t


def centralizer(sigma1, fix_cycles=False):
    """All permutations commuting with sigma1, found among all of S_d;
    with ``fix_cycles`` only those mapping each sigma1-cycle onto
    itself (the cycle rotations)."""
    d = len(sigma1)
    cycle_of = {x: i for i, cyc in enumerate(perm_cycles(sigma1)) for x in cyc}
    out = []
    for z in iter_permutations(range(d)):
        if apply_after(z, sigma1) != apply_after(sigma1, z):
            continue
        if fix_cycles and any(cycle_of[z[x]] != cycle_of[x] for x in range(d)):
            continue
        out.append(z)
    return out


def pair_orbits(pairs, group):
    """Orbits of the transpositions ``pairs`` (each a < b) under
    conjugation by the permutations in ``group``, as frozensets."""
    seen = set()
    out = []
    for a, b in pairs:
        if (a, b) in seen:
            continue
        orbit = frozenset(tuple(sorted((z[a], z[b]))) for z in group)
        seen |= orbit
        out.append(orbit)
    return out


def is_forest(parent):
    """True iff following parents from every vertex ends at a root
    (None) without revisiting a vertex."""
    n = len(parent)
    state = [0] * n  # 0 unknown, 1 in progress, 2 reaches a root
    for start in range(n):
        path = []
        v = start
        while v is not None and state[v] == 0:
            state[v] = 1
            path.append(v)
            v = parent[v]
        ok = v is None or state[v] == 2
        for u in path:
            state[u] = 2 if ok else 1
        if not ok:
            return False
    return True


def filtered_parent_maps(n, roots):
    """Parent tuples of the rooted forests on n vertices with the given
    root set: every map of the non-roots to other vertices, in
    lexicographic order, filtered for acyclicity."""
    root_set = set(roots)
    non_roots = [v for v in range(n) if v not in root_set]
    candidates = [[u for u in range(n) if u != v] for v in non_roots]
    for choice in product(*candidates):
        parent = [None] * n
        for v, p in zip(non_roots, choice):
            parent[v] = p
        if is_forest(parent):
            yield tuple(parent)


def forests_by_multinomials(degrees, roots):
    """The rooted forests on len(degrees) vertices with root set
    ``roots`` and these out-degrees, as the sum over the roots i of the
    zero-extended multinomial(n - |S| - 1; degrees with delta_i - 1)."""
    n, s = len(degrees), len(set(roots))
    if s == n:
        return 1 if all(d == 0 for d in degrees) else 0
    total = 0
    for i in set(roots):
        decremented = list(degrees)
        decremented[i] -= 1
        total += multinomial(n - s - 1, decremented)
    return total


def compositions(total, length):
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


def block_factor_by_degrees(root_count, weights):
    """The reconstruction's regrafting factor as the paper writes it: the
    sum over ordered out-degree sequences (the roots first, then the
    weighted vertices) of the forest count times prod weights_j^deg_j;
    1 for an empty block."""
    p = len(weights)
    if p == 0:
        return 1
    n = root_count + p
    roots = range(root_count)
    total = 0
    for delta in compositions(p, n):
        count = forests_by_multinomials(delta, roots)
        if count:
            w = 1
            for j, weight in enumerate(weights):
                w *= weight ** delta[root_count + j]
            total += count * w
    return total


def hurwitz_genus_zero(nu):
    """H(0, (1^d), nu) by Hurwitz's formula (Goulden and Jackson,
    "Transitive factorizations into transpositions and holomorphic
    mappings on the sphere", Proc. AMS 125, 1997):

        d!/prod_k k^(m_k) * (d + l - 2)! * d^(l - 3) * prod_i nu_i^nu_i/(nu_i - 1)!,

    with l = l(nu) and m_k the number of parts of nu of size k, in exact
    fractions.  It reads no character and no permutation."""
    from fractions import Fraction
    from math import factorial, prod

    d, l = sum(nu), len(nu)
    return (
        Fraction(factorial(d), prod(k ** m_k for k, m_k in Counter(nu).items()))
        * factorial(d + l - 2) * Fraction(d) ** (l - 3)
        * prod(Fraction(part ** part, factorial(part - 1)) for part in nu)
    )


def _series_product(a, b, order):
    """Product of two power series (coefficient lists), truncated."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        if x:
            for j, y in enumerate(b[:order + 1 - i]):
                out[i + j] += x * y
    return out


def one_part_double_hurwitz(g, d, nu):
    """H_g((d), nu) by the one-part formula of Goulden, Jackson and Vakil
    (arXiv:math/0309440):

        r! d^(r-1) [t^(2g)] prod_i S(nu_i t) / S(t),
        S(t) = sinh(t/2) / (t/2),  r = 2g - 1 + l(nu),

    in exact fractions.  S is even, so the series run in u = t^2:
    S(a t) = sum_k a^(2k) u^k / (4^k (2k+1)!).  It reads no permutation
    at all."""
    from fractions import Fraction
    from math import factorial

    def s_series(a):
        return [Fraction(a ** (2 * k), 4 ** k * factorial(2 * k + 1)) for k in range(g + 1)]

    inverse = [Fraction(1)]  # 1 / S(t), from S * inverse = 1
    base = s_series(1)
    for k in range(1, g + 1):
        inverse.append(-sum(base[j] * inverse[k - j] for j in range(1, k + 1)))
    series = inverse
    for part in nu:
        series = _series_product(series, s_series(part), g)
    r = 2 * g - 1 + len(nu)
    return factorial(r) * Fraction(d) ** (r - 1) * series[g]


def trivalent_trees(n):
    """Every tree with n >= 3 labelled leaves 0..n-1 whose inner
    vertices n, n+1, ..., 2n-3 are trivalent, as its list of edges:
    (2n - 5)!! of them, each grown from the star on leaves 0, 1, 2 by
    subdividing one edge per further leaf and hanging the leaf there."""
    trees = [[(0, n), (1, n), (2, n)]]
    for leaf in range(3, n):
        inner = n + leaf - 2
        trees = [
            edges[:i] + edges[i + 1:] + [(a, inner), (inner, b), (leaf, inner)]
            for edges in trees
            for i, (a, b) in enumerate(edges)
        ]
    return trees


def genus_zero_tree_sum(mu, nu):
    """H(0, mu, nu) for l(mu) + l(nu) >= 3 as a sum over trees, the
    genus-0 monodromy graphs of Cavalieri, Johnson and Markwig,
    "Tropical Hurwitz numbers", J. Algebraic Combin. 32 (2010).

    The leaves are the labelled parts, mu_i with weight +mu_i and nu_j
    with -nu_j.  The flow on an inner edge is the weight on one side of
    it.  A tree with a zero flow gives nothing; any other gives
    e(T) * prod |flow|, where e(T) counts the orderings of the inner
    vertices in which every inner edge's flow runs from the earlier
    vertex to the later one.  It reads no character and no permutation."""
    weights = list(mu) + [-x for x in nu]
    n = len(weights)
    inner = range(n, 2 * n - 2)
    total = 0
    for edges in trivalent_trees(n):
        adjacent = {v: [] for v in range(2 * n - 2)}
        for a, b in edges:
            adjacent[a].append(b)
            adjacent[b].append(a)

        def side(a, b):
            """The weight of the leaves on a's side of the edge (a, b)."""
            seen, stack = {a, b}, [a]
            weight = 0
            while stack:
                v = stack.pop()
                weight += weights[v] if v < n else 0
                fresh = [w for w in adjacent[v] if w not in seen]
                seen.update(fresh)
                stack.extend(fresh)
            return weight

        flows = {(a, b): side(a, b) for a, b in edges if a >= n and b >= n}
        if 0 in flows.values():
            continue
        runs = [(a, b) if flow > 0 else (b, a) for (a, b), flow in flows.items()]
        orderings = sum(
            all(order.index(a) < order.index(b) for a, b in runs)
            for order in iter_permutations(inner)
        )
        total += orderings * prod(abs(flow) for flow in flows.values())
    return total


def disconnected_by_shapes(table, mu, nu, top):
    """[D(mu, nu, m) for m = 0, ..., top], each D(mu, nu, m) the sum
    over lambda of chi^lambda(mu) chi^lambda(nu) cont(lambda)^m, one
    shape at a time, with the characters of ``table`` (a
    ``CharacterTable``) and cont(lambda) summed over the boxes: the
    per-shape sum the content-value weights replace."""
    a, b = table.column(mu), table.column(nu)
    terms = [
        (chi * b[shape], sum(j - i for i, row in enumerate(shape) for j in range(row)))
        for shape, chi in a.items()
        if shape in b
    ]
    return [sum(w * c**m for w, c in terms) for m in range(top + 1)]


def _minus(parts, removed):
    """The multiset ``parts`` less ``removed``, sorted descending."""
    rest = Counter(parts)
    rest.subtract(removed)
    return tuple(sorted(rest.elements(), reverse=True))


def classical_cut_and_join(g, mu, nu, double):
    """H(g, mu, nu) with m >= 1 from the values ``double`` (a function
    of g and partitions sorted descending) at one transposition fewer:
    the classical cut-and-join (Goulden and Jackson, "Transitive
    factorizations into transpositions and holomorphic mappings on the
    sphere", Proc. AMS 125, 1997; Goulden, Jackson and Vakil, Adv. Math.
    198, 2005).

    With sigma1 fixed, a transitive sequence tau_1, ..., tau_m whose
    product has type nu is counted by N = H prod(mu) / A(nu), A(nu) the
    product of the factorials of nu's multiplicities.  Before the last
    transposition the product has a type rho, and tau_m

    * joins two cycles a, b of rho in one orbit: genus g - 1,
      rho = nu - {a + b} + {a, b}, in m_a m_b a b ways (C(m_a, 2) a^2
      when a = b), m_k the multiplicities of rho;
    * cuts a cycle c = a + b of rho: genus g, rho = nu - {a, b} + {c},
      in m_c c ways (m_c c/2 when a = b);
    * joins a cycle a of rho_A and a cycle b of rho_B, the products on
      the two orbits A and B of sigma1 and tau_1, ..., tau_(m-1), with A
      holding sigma1's first cycle: genera g_A + g_B = g, the labelled
      cycles of sigma1 split between A and B, C(m - 1, m_A)
      interleavings, in m_a(rho_A) m_b(rho_B) a b ways.

    It reads ``double`` only, and no character itself."""
    from fractions import Fraction

    def aut(parts):
        return prod(factorial(k) for k in Counter(parts).values())

    counts = {}

    def count(g, mu, nu):
        key = (g, mu, nu)
        if key not in counts:
            counts[key] = 0 if g < 0 else double(g, mu, nu) * prod(mu) / aut(nu)
        return counts[key]

    m = 2 * g - 2 + len(mu) + len(nu)
    if m < 1:
        raise ValueError("the cut-and-join removes a transposition: m >= 1")
    total = Fraction(0)
    # (degree of A, rho_A, rho_B, ways) for every join of the two orbits
    joins = []
    for c in set(nu):
        rest = _minus(nu, [c])
        for a in range(1, c // 2 + 1):
            rho = tuple(sorted(rest + (a, c - a), reverse=True))
            n_a, n_b = rho.count(a), rho.count(c - a)
            ways = n_a * (n_a - 1) // 2 * a * a if 2 * a == c else n_a * n_b * a * (c - a)
            total += count(g - 1, mu, rho) * ways
        for rest_a in {sub for r in range(len(rest) + 1) for sub in combinations(rest, r)}:
            for a in range(1, c):
                rho_a = tuple(sorted(rest_a + (a,), reverse=True))
                rho_b = tuple(sorted(_minus(rest, rest_a) + (c - a,), reverse=True))
                ways = rho_a.count(a) * rho_b.count(c - a) * a * (c - a)
                joins.append((sum(rho_a), rho_a, rho_b, ways))
    for a, b in set(combinations(nu, 2)):
        rho = tuple(sorted(_minus(nu, [a, b]) + (a + b,), reverse=True))
        total += count(g, mu, rho) * rho.count(a + b) * (a if a == b else a + b)
    for size in range(len(mu) - 1):
        for chosen in combinations(range(1, len(mu)), size):
            mu_a = (mu[0],) + tuple(mu[i] for i in chosen)
            mu_b = tuple(part for i, part in enumerate(mu) if i and i not in chosen)
            for d_a, rho_a, rho_b, ways in joins:
                if d_a != sum(mu_a):
                    continue
                for g_a in range(g + 1):
                    m_a = 2 * g_a - 2 + len(mu_a) + len(rho_a)
                    total += (
                        comb(m - 1, m_a) * ways
                        * count(g_a, mu_a, rho_a) * count(g - g_a, mu_b, rho_b)
                    )
    return total * aut(nu) / prod(mu)


# -- the identity evaluators by generate-and-filter ----------------------------


def bounded_tuples(nu):
    """All tuples t with 1 <= t_i <= nu_i, in lexicographic order."""
    if not nu:
        raise ValueError("bounded_tuples needs a non-empty bound tuple")
    return product(*(range(1, b + 1) for b in nu))


def ordered_set_partitions(ground, block_count):
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


def index_subsets(count):
    """The subsets of range(count) as tuples, in the order of their bit
    masks."""
    for mask in range(1 << count):
        yield tuple(x for x in range(count) if mask >> x & 1)


def reconstruct_by_filtering(g, mu, nu, phat, block_factor):
    """The reconstruction sum over every nu~ <= nu, every core subset and
    all n^|removed| block maps, keeping a block map only when each block
    weighs exactly nu_i - nu~_i."""
    from fractions import Fraction

    mu, nu = tuple(mu), tuple(nu)
    n = len(nu)
    m = 2 * g - 2 + len(mu) + n
    indices = tuple(range(len(mu)))
    total = Fraction(0)
    for nut in bounded_tuples(nu):
        deficits = tuple(nu_i - nut_i for nu_i, nut_i in zip(nu, nut))
        for core in index_subsets(len(mu)):
            if sum(mu[i] for i in core) != sum(nut):
                continue
            core_value = phat(g, tuple(mu[i] for i in core), nut)
            if core_value == 0:
                continue
            removed = tuple(i for i in indices if i not in core)
            inner = 0
            for blocks in ordered_set_partitions(removed, n):
                if any(
                    sum(mu[i] for i in block) != deficit
                    for block, deficit in zip(blocks, deficits)
                ):
                    continue
                head = 2 * g - 2 + len(core) + n
                coeff = multinomial(m, (head, *(len(b) for b in blocks)))
                for block in blocks:
                    for perm_count in range(2, len(block) + 1):
                        coeff *= perm_count  # l(mu_{I_i})! label assignments
                for nut_i, block in zip(nut, blocks):
                    coeff *= block_factor(nut_i, [mu[i] for i in block])
                inner += coeff
            total += core_value * inner
    return total


def leaf_block_factor(r, weights):
    """The leaf sum's block factor: (-r)^p for p leaves on a face of
    reduced perimeter r."""
    return (-r) ** len(weights)


def leaf_sum(full):
    """The pruned value as the inclusion-exclusion over the leaves of
    the values ``full`` (a function of g, mu, nu): the reconstruction
    sum by filtering with the block factor (-nu~_i)^p in place of the
    forest count, and 0 at l(mu) = 2, m = 1, where the one transposition
    joins two leaves.  At m = 0 it is ``full`` itself."""
    from fractions import Fraction

    def pruned(g, mu, nu):
        if len(mu) == 2 and 2 * g + len(nu) == 1:
            return Fraction(0)
        return reconstruct_by_filtering(g, mu, nu, full, leaf_block_factor)

    return pruned


def degenerate(g, mu, nu):
    """Whether an oracle argument has a negative genus, an empty profile
    or unequal degrees: no Hurwitz number is defined there."""
    return g < 0 or not mu or not nu or sum(mu) != sum(nu)


def zero_extended(oracle):
    """``oracle`` extended by zero to the degenerate arguments that a
    generate-and-filter sum produces.  The library's evaluators never
    ask for these, and the engine raises ``ValueError`` on them."""
    from fractions import Fraction

    def extended(g, mu, nu):
        return Fraction(0) if degenerate(g, mu, nu) else oracle(g, mu, nu)

    return extended


def strict(oracle):
    """``oracle`` that fails the test on a degenerate argument, for
    checking that an evaluator never asks for one."""

    def checked(g, mu, nu):
        if degenerate(g, mu, nu):
            raise AssertionError(f"degenerate oracle argument {(g, mu, nu)}")
        return oracle(g, mu, nu)

    return checked


def attachment(mu, removed, m):
    """The ways to re-attach a labelled path through the p removed
    vertices: (p + 1)! * (m - 1)!/(m - p - 1)! * prod(mu_removed), and 0
    when p > m - 1 (more path labels than the m - 1 other edges)."""
    p = len(removed)
    if p > m - 1:
        return 0
    count = factorial(p + 1) * factorial(m - 1) // factorial(m - p - 1)
    for x in removed:
        count *= mu[x]
    return count


def stability_excluded(reading, genus, inherited_faces):
    """The plain split sum's stability rule: "literal" excludes a half
    with (genus, inherited faces) = (0, 2), "facecount" one with (0, 1)."""
    excluded = {"literal": (0, 2), "facecount": (0, 1)}[reading]
    return (genus, inherited_faces) == excluded


def split_data(mu, nu, m, i):
    """The split shapes at face i: ordered bipartitions of the other
    faces, then every assignment of the vertices to part1, part2 or the
    removed path (base-3 numbering), filtered for non-empty parts, a
    budget of at least two and a path that fits."""
    vertex_splits = []
    for assignment in range(3 ** len(mu)):
        part1, part2, removed = [], [], []
        a = assignment
        for x in range(len(mu)):
            a, r = divmod(a, 3)
            (part1 if r == 0 else part2 if r == 1 else removed).append(x)
        if not part1 or not part2:
            continue
        budget = nu[i] - sum(mu[x] for x in removed)
        if budget < 2:
            continue
        attach = attachment(mu, removed, m)
        if attach == 0:
            continue
        vertex_splits.append((tuple(part1), tuple(part2), tuple(removed), budget, attach))
    rest = tuple(j for j in range(len(nu)) if j != i)
    for j_mask in range(1 << len(rest)):
        faces1 = tuple(rest[t] for t in range(len(rest)) if j_mask >> t & 1)
        faces2 = tuple(rest[t] for t in range(len(rest)) if not j_mask >> t & 1)
        for part1, part2, removed, budget, attach in vertex_splits:
            yield part1, part2, removed, faces1, faces2, budget, attach


def split_weight(g1, g2):
    """The weight of a split visited with g1 <= g2: a genus tie is
    visited in both orders, so it weighs a half."""
    from fractions import Fraction

    return Fraction(1) if g1 < g2 else Fraction(1, 2)


def cut_and_join_terms_by_filtering(g, mu, nu, phat, stability_reading, variant, ph):
    """The cut-and-join term stream, each face (or face pair) filtering
    every core subset and every split from ``split_data``."""
    from fractions import Fraction
    from itertools import combinations
    from math import comb

    from prunedhurwitz.cutjoin import GENUS_DROP, JOIN, SPLIT, RecursionTerm

    mu, nu = tuple(mu), tuple(nu)
    m = 2 * g - 2 + len(mu) + len(nu)
    cores = [core for core in index_subsets(len(mu)) if core]

    def removed_of(core):
        return tuple(x for x in range(len(mu)) if x not in core)

    if g > 0:
        for i in range(len(nu)):
            other_faces = tuple(nu[j] for j in range(len(nu)) if j != i)
            for core in cores:
                removed = removed_of(core)
                budget = nu[i] - sum(mu[x] for x in removed)
                attach = attachment(mu, removed, m)
                if budget < 2 or attach == 0:
                    continue
                for alpha in range(1, budget):
                    beta = budget - alpha
                    value = phat(g - 1, tuple(mu[x] for x in core), other_faces + (alpha, beta))
                    if value:
                        yield RecursionTerm(
                            GENUS_DROP,
                            {"i": i, "core": core, "alpha": alpha, "beta": beta},
                            value * Fraction(alpha * beta * attach, 2),
                        )
    oracle = phat if variant == "plain" else ph
    for i in range(len(nu)):
        for part1, part2, removed, faces1, faces2, budget, attach in split_data(mu, nu, m, i):
            for g1 in range(g + 1):
                g2 = g - g1
                if g1 > g2:
                    continue
                params = {}
                factor = attach
                if variant == "plain":
                    if (stability_excluded(stability_reading, g1, len(faces1))
                            or stability_excluded(stability_reading, g2, len(faces2))):
                        continue
                else:
                    # a genus-0 half with one face is a tree; pruned, it is
                    # a bare vertex, which would be a leaf at the end of the
                    # removed edge, so it gives no term under either m = 0
                    # convention
                    if (g1 == 0 and not faces1) or (g2 == 0 and not faces2):
                        continue
                    cycle1 = g1 == 0 and len(faces1) == 1
                    cycle2 = g2 == 0 and len(faces2) == 1
                    if cycle1 != cycle2:
                        continue
                    m1 = 2 * g1 - 2 + len(part1) + len(faces1) + 1
                    m2 = 2 * g2 - 2 + len(part2) + len(faces2) + 1
                    if m1 < 0 or m2 < 0 or m1 + m2 != m - 1 - len(removed):
                        continue
                    params["sign"] = -1 if cycle1 else 1
                    factor *= params["sign"] * comb(m - 1 - len(removed), m1)
                for alpha in range(1, budget):
                    beta = budget - alpha
                    v1 = oracle(g1, tuple(mu[x] for x in part1),
                                tuple(nu[f] for f in faces1) + (alpha,))
                    if v1 == 0:
                        continue
                    v2 = oracle(g2, tuple(mu[x] for x in part2),
                                tuple(nu[f] for f in faces2) + (beta,))
                    if v2 == 0:
                        continue
                    yield RecursionTerm(
                        SPLIT,
                        {
                            "i": i, "genera": (g1, g2),
                            "cores": (part1, part2), "faces": (faces1, faces2),
                            "alpha": alpha, "beta": beta, **params,
                        },
                        v1 * v2 * split_weight(g1, g2) * (alpha * beta * factor),
                    )
    for i, j in combinations(range(len(nu)), 2):
        other_faces = tuple(nu[t] for t in range(len(nu)) if t not in (i, j))
        for core in cores:
            removed = removed_of(core)
            alpha = nu[i] + nu[j] - sum(mu[x] for x in removed)
            attach = attachment(mu, removed, m)
            if alpha < 1 or attach == 0:
                continue
            value = phat(g, tuple(mu[x] for x in core), other_faces + (alpha,))
            if value:
                yield RecursionTerm(
                    JOIN,
                    {"i": i, "j": j, "core": core, "alpha": alpha},
                    value * (alpha * attach),
                )


def literal_search_work_bound(g, mu, nu):
    """The bound of ``search_work_bound`` as its docstring writes it:
    P * sum over k < m of min(P^k, C(mu) * 3^l * Bell(l)), every power
    built in full."""
    d = sum(mu)
    m = 2 * g - 2 + len(mu) + len(nu)
    if m <= 0:
        return 0
    pairs = d * (d - 1) // 2
    types = min(factorial(d), partition_count(d) * multinomial(d, mu))
    states = types * 3 ** len(mu) * bell_number(len(mu))
    return pairs * sum(min(pairs**k, states) for k in range(m))


# -- polynomial interpolation ---------------------------------------------------


def lagrange_fit(values):
    """Coefficients (ascending powers of t, trailing zeros dropped) of
    the polynomial through (t, values[t-1]), t = 1..n, by Lagrange's
    formula multiplied out: sum_i values[i-1] prod_{j != i} (t - j)/(i - j)."""
    from fractions import Fraction

    n = len(values)
    coeffs = [Fraction(0)] * n
    for i, value in enumerate(values, start=1):
        basis, scale = [Fraction(1)], Fraction(value)
        for j in range(1, n + 1):
            if j != i:
                basis = [below - j * c for below, c in zip([0] + basis, basis + [0])]
                scale /= i - j
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def least_reproducing_degree(values):
    """The least D <= n - 2 whose Lagrange fit on the first D + 1
    samples reproduces every sample; None when there is none."""
    def at(coeffs, t):
        return sum(c * t ** k for k, c in enumerate(coeffs))

    for degree in range(len(values) - 1):
        coeffs = lagrange_fit(values[:degree + 1])
        if all(at(coeffs, t) == value for t, value in enumerate(values, start=1)):
            return degree
    return None
