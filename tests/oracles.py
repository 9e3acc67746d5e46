"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the library's enumeration code:
permutations are composed positionally, transitivity is a BFS, the
leaf condition is a vertex/edge incidence count.  These are the
references the fast engine is checked against.
"""

from itertools import permutations as iter_permutations, product


def apply_after(a, b):
    """x -> a(b(x))."""
    return tuple(a[b[x]] for x in range(len(b)))


def perm_cycles(p):
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
    return tuple(sorted((len(c) for c in perm_cycles(p)), reverse=True))


def all_permutations_of_type(d, mu):
    target = tuple(sorted(mu, reverse=True))
    for images in iter_permutations(range(d)):
        if perm_type(images) == target:
            yield images


def all_transpositions(d):
    out = []
    for a in range(d):
        for b in range(a + 1, d):
            images = list(range(d))
            images[a], images[b] = b, a
            out.append(tuple(images))
    return out


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


def partitions(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


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
