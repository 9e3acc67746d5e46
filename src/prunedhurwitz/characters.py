"""Double Hurwitz numbers from the characters of the symmetric group.

This evaluator shares no code with the enumeration
(:mod:`prunedhurwitz.factorizations`), which is its test oracle.

Frobenius' formula (Lando and Zvonkin, *Graphs on Surfaces and Their
Applications*, 2004, App. A) counts the tuples of the product
sigma2 tau_m ... tau_1 sigma1 = id over all of S_d, transitive or not.
The central character of a transposition on the irreducible V_lambda
is the content sum cont(lambda), the sum of j - i over the boxes (i, j)
of lambda (Okounkov, "Toda equations for Hurwitz numbers", Math. Res.
Lett. 7, 2000).  With the cycles of sigma1 and sigma2 labelled and the
count divided by d!, the z_mu and z_nu of the formula meet the
labellings, and what remains is

    D(mu, nu, m) / (prod mu * prod nu),
    D(mu, nu, m) = sum over lambda of chi^lambda(mu) chi^lambda(nu) cont(lambda)^m
                 = sum over the content values c of w_c c^m,
with w_c the sum of chi^lambda(mu) chi^lambda(nu) over cont(lambda) = c;
a column pair is summed over its shapes once, each m over O(d^2) values c.

A tuple falls apart into its orbits.  Each orbit holds a block of the
labelled parts of mu and nu with equal sums, its own points and its own
subsequence of the transpositions; the points and the interleavings
are chosen in d!/(d_1! ... d_k!) and m!/(m_1! ... m_k!) ways, and the
d! and d_i! are the normalisation.  So the disconnected count is the
sum over the set partitions of the labelled parts into balanced blocks
of the product of the blocks' connected counts, the m transpositions
shared out by multinomials (the exponential formula; Goulden, Jackson
and Vakil, "Towards the geometry of double Hurwitz numbers", Adv. Math.
198, 2005).  Summing first over the block B that holds mu's first part,

    H(mu, nu, m) = D(mu, nu, m) / P(mu, nu)
                   - sum over proper balanced B, k of
                     C(m, k) H(B, k) D(rest, m - k) / P(rest),

with P the product of the parts.  Blocks with the same parts give the
same term, so the sum runs over the sub-multisets of the parts, each
weighted by the number of labelled blocks that give it: the product
over the part sizes s of C(n_s, j_s), with n_s parts of size s and j_s
of them in the block.  P is multiplicative over the blocks, so the
recursion runs on the integers C = H * P and divides once at the end.
A block B needs k >= l(B) - 2 transpositions to be connected (its
genus is not negative), with k of the parity of l(B).

chi^lambda(mu) comes from the Murnaghan-Nakayama rule: with
mu = (r, mu'), chi^lambda(mu) is the sum over the rim hooks of length r
whose addition to some lambda' gives lambda of (-1)^(rows - 1) times
chi^lambda'(mu').  A column is built upwards from the empty partition
by adding rim hooks on beta-sets, so it holds only the lambda where the
character is not zero: for few long parts that is far fewer than p(d).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import comb, prod

from .combinatorics import Partition


def _add_rim_hooks(shape: Partition, r: int):
    """(lambda, sign) for every lambda obtained by adding a rim hook of
    length r to ``shape``, sign = (-1)^(rows of the hook - 1).

    On the beta-set b_i = lambda_i + n - 1 - i, with n = l(shape) + r
    rows so that a hook has room to start new ones, adding a hook is
    moving a bead from b_i to the empty b_i + r; the beads it passes
    are the hook's rows below its first.
    """
    parts = list(shape) + [0] * r
    n = len(parts)
    beta = [part + n - 1 - i for i, part in enumerate(parts)]
    beads = set(beta)
    for i, b in enumerate(beta):
        if b + r in beads:
            continue
        j = i
        while j and beta[j - 1] < b + r:
            j -= 1
        # rows j..i-1 move down one and gain a box; row j takes the bead
        new = parts[:j] + [parts[i] + r - (i - j)] + [p + 1 for p in parts[j:i]] + parts[i + 1:]
        while new[-1] == 0:
            new.pop()
        yield tuple(new), -1 if (i - j) % 2 else 1


def _sub_multisets(parts: Partition) -> list[tuple[Partition, Partition, int]]:
    """(chosen, others, weight) for every sub-multiset of ``parts``,
    sorted descending, with ``weight`` the number of subsets of the
    labelled parts that give it (see the module).  Both tuples are
    sorted descending; the sub-multiset of all the parts comes last."""
    subs: list[tuple[Partition, Partition, int]] = [((), (), 1)]
    # the runs of equal parts from the smallest size up, so prepending
    # keeps both tuples sorted
    for _, run in groupby(reversed(parts)):
        run = tuple(run)
        subs = [
            (run[:j] + chosen, run[j:] + others, weight * comb(len(run), j))
            for j in range(len(run) + 1)
            for chosen, others, weight in subs
        ]
    return subs


def content_sum(shape: Partition) -> int:
    """cont(lambda): the sum of j - i over the boxes (i, j) of lambda."""
    return sum(part * (part - 1) // 2 - i * part for i, part in enumerate(shape))


class CharacterTable:
    """The characters and connected counts one evaluator has computed.

    * ``columns``: mu (sorted descending) -> {lambda: chi^lambda(mu)},
      the non-zero characters only;
    * ``sums``: (mu, nu) with mu <= nu -> [(c, w_c)] over the w_c != 0;
    * ``connected``: (mu, nu, m) -> H * prod mu * prod nu, an integer.

    The tables only grow; they die with their holder.
    """

    __slots__ = ("columns", "sums", "connected")

    def __init__(self) -> None:
        self.columns: dict[Partition, dict[Partition, int]] = {(): {(): 1}}
        self.sums: dict[tuple[Partition, Partition], list[tuple[int, int]]] = {}
        self.connected: dict[tuple[Partition, Partition, int], int] = {}

    def double_hurwitz(self, g: int, mu: Partition, nu: Partition) -> Fraction:
        """H(g, mu, nu) for partitions sorted descending of one degree."""
        m = 2 * g - 2 + len(mu) + len(nu)
        return Fraction(self._connected(mu, nu, m), prod(mu) * prod(nu))

    def column(self, mu: Partition) -> dict[Partition, int]:
        """{lambda: chi^lambda(mu)} over the lambda with a non-zero
        character, for mu sorted descending."""
        col = self.columns.get(mu)
        if col is None:
            col = {}
            for below, chi in self.column(mu[1:]).items():
                for shape, sign in _add_rim_hooks(below, mu[0]):
                    col[shape] = col.get(shape, 0) + sign * chi
            col = self.columns[mu] = {shape: chi for shape, chi in col.items() if chi}
        return col

    def _disconnected(self, mu: Partition, nu: Partition, m: int) -> int:
        """D(mu, nu, m) = sum over the content values c of w_c c^m."""
        key = (mu, nu) if mu <= nu else (nu, mu)
        weights = self.sums.get(key)
        if weights is None:
            a, b = self.column(mu), self.column(nu)
            by_content: dict[int, int] = {}
            for shape in a.keys() & b.keys():
                c = content_sum(shape)
                by_content[c] = by_content.get(c, 0) + a[shape] * b[shape]
            weights = self.sums[key] = [(c, w) for c, w in by_content.items() if w]
        total = 0
        for c, w in weights:
            total += w * c**m
        return total

    def _connected(self, mu: Partition, nu: Partition, m: int) -> int:
        key = (mu, nu, m)
        value = self.connected.get(key)
        if value is not None:
            return value
        value = self._disconnected(mu, nu, m)
        if len(mu) > 1 and len(nu) > 1:
            by_sum: dict[int, list[tuple[Partition, Partition, int]]] = {}
            for sub in _sub_multisets(nu):
                by_sum.setdefault(sum(sub[0]), []).append(sub)
            # every proper block holding mu[0] leaves out some of mu
            for chosen, rest_mu, weight_mu in _sub_multisets(mu[1:])[:-1]:
                block_mu = (mu[0],) + chosen
                for block_nu, rest_nu, weight_nu in by_sum.get(sum(block_mu), ()):
                    size = len(block_mu) + len(block_nu)
                    for k in range(size - 2, m + 1, 2):
                        value -= (
                            weight_mu * weight_nu * comb(m, k)
                            * self._connected(block_mu, block_nu, k)
                            * self._disconnected(rest_mu, rest_nu, m - k)
                        )
        self.connected[key] = value
        return value
