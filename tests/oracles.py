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
from itertools import permutations as iter_permutations, product

from math import factorial

from prunedhurwitz.combinatorics import bell_number, multinomial, partition_count


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


def all_permutations_of_type(d, mu):
    target = tuple(sorted(mu, reverse=True))
    for images in iter_permutations(range(d)):
        if perm_type(images) == target:
            yield images


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


def split_data(mu, nu, m, i):
    """The split shapes at face i: ordered bipartitions of the other
    faces, then every assignment of the vertices to part1, part2 or the
    removed path (base-3 numbering), filtered for non-empty parts, a
    budget of at least two and a path that fits."""
    from prunedhurwitz.cutjoin import _attachment

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
        attach = _attachment(mu, removed, m)
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

    from prunedhurwitz.cutjoin import (
        GENUS_DROP, JOIN, SPLIT, RecursionTerm,
        _attachment, _stability_excluded,
    )

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
                attach = _attachment(mu, removed, m)
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
                    if (_stability_excluded(stability_reading, g1, len(faces1))
                            or _stability_excluded(stability_reading, g2, len(faces2))):
                        continue
                else:
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
            attach = _attachment(mu, removed, m)
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
        return 1
    pairs = d * (d - 1) // 2
    types = min(factorial(d), partition_count(d) * multinomial(d, mu))
    states = types * 3 ** len(mu) * bell_number(len(mu))
    return pairs * sum(min(pairs**k, states) for k in range(m))
