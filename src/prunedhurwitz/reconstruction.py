"""Reconstruction of double Hurwitz numbers from pruned ones.

The double Hurwitz number is a weighted sum, over the possible pruned
cores, of modified pruned numbers of smaller type: choose reduced face
perimeters nu~ (1 <= nu~_i <= nu_i), the surviving vertex subset I with
|mu_I| = |nu~|, distribute the removed vertices over the faces
(I_1 ... I_n with |mu_{I_i}| = nu_i - nu~_i), distribute the edge
labels (one multinomial and a factorial per face), and regraft the
removed vertices in every tree-like way.

The sum (:func:`face_sum`, for any oracle and block factor) visits
only the configurations that contribute.  Each part of mu goes in turn
to the core or to a face i, and to face i only while the weight removed
from it stays below nu_i; nu~_i = nu_i - (removed weight) then follows,
and the core is non-empty, as |mu_I| = |nu~| >= l(nu).  Assignments
that agree on the parts placed so far are merged with their
multiplicities, so repeated parts cost one configuration each.  The
oracle is queried once per distinct (core parts, nu~) pair, and each
block factor once per (nu~_i, removed parts) pair of a call.
``tests/oracles.py`` keeps the sum over every nu~ <= nu, every core and
all n^p block maps, filtered by weight, as the reference.  With the
block factor (-nu~_i)^p_i and H as the oracle it is the leaf sum, its
inverse, which gives PH (:func:`prunedhurwitz.coloured.count_pruned`).

The regrafting count per face sums prod mu_v^(val(v) - 1) over the
removed vertices v of every rooted forest on the nu~_i root slots and
the removed vertices of I_i.  It is evaluated two independent ways:

* by the forest polynomial (``reconstruct_double_hurwitz``): by the
  forest form of Cayley's formula it is r * (r + sum w)^(p - 1) for r
  roots and p vertices of weights w, here nu~_i * nu_i^(p_i - 1);
* by explicit enumeration (``reconstruct_via_forests``) of the rooted
  trees on one root of weight r = nu~_i and the p removed vertices,
  each weighted r^outdeg(root) * prod w_v^outdeg(v).  Merging the r
  root slots into one root maps the forests onto these trees, a
  vertex under the merged root choosing one of its r slots, so the sum
  is the same; it takes (p + 1)^(p - 1) trees, with p + 1 <= l(mu),
  in place of r * (r + p)^(p - 1) forests.

``tests/oracles.py`` keeps the paper's sum over out-degree sequences
of closed forest counts as the reference of both.

Both take the modified pruned oracle as an argument so tests can swap
in stubs.  Validity note: the underlying pruning construction requires
at least two faces; for a single face at genus zero iterated leaf
removal ends at a bare vertex and the identity genuinely fails (for
example both conventions miss H = 1/2 at genus 0 with mu = nu = (2)),
so callers are expected to stay on l(nu) >= 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm, prod
from typing import Callable, Sequence

from .combinatorics import check_request

PhatOracle = Callable[[int, tuple[int, ...], tuple[int, ...]], Fraction]


def _cayley_block_factor(root_count: int, weights: Sequence[int]) -> int:
    """The sum over the rooted forests on the roots and the weighted
    vertices of prod weights_j^outdeg(j): r * (r + sum w)^(p - 1), and
    1 for an empty block."""
    if not weights:
        return 1
    return root_count * (root_count + sum(weights)) ** (len(weights) - 1)


def _forest_block_factor(root_count: int, weights: Sequence[int]) -> int:
    """Same quantity by brute-force enumeration of the rooted trees on
    one root of weight root_count (vertex 0) and the weighted vertices,
    weighting each vertex v by its weight^outdeg(v); 1 for an empty
    block."""
    if not weights:
        return 1
    # imported here so that the leaf sum, which loads this module,
    # compiles no forest code
    from .forests import enumerate_rooted_forests

    return sum(
        prod(map(pow, (root_count, *weights), tree.out_degrees()))
        for tree in enumerate_rooted_forests(len(weights) + 1, [0])
    )


def face_sum(
    g: int,
    mu: Sequence[int],
    nu: Sequence[int],
    oracle: PhatOracle,
    block_factor: Callable[[int, Sequence[int]], int],
) -> Fraction:
    """The sum, over the ways to give each part of mu to the core or to
    a face that keeps a perimeter nu~_i >= 1, of m!/(m - p)! *
    prod_i block_factor(nu~_i, block_i) * oracle(g, core, nu~), with p
    the number of parts given to faces."""
    mu, nu = check_request(g, mu, nu)
    m = 2 * g - 2 + len(mu) + len(nu)
    # (core parts, parts removed per face) -> index assignments giving it
    states = {((), ((),) * len(nu)): 1}
    for part in mu:
        grown: dict = {}
        for (core, blocks), count in states.items():
            key = (core + (part,), blocks)
            grown[key] = grown.get(key, 0) + count
            for i, block in enumerate(blocks):
                if sum(block) + part < nu[i]:
                    key = (core, blocks[:i] + (block + (part,),) + blocks[i + 1:])
                    grown[key] = grown.get(key, 0) + count
        states = grown
    factors: dict[tuple, int] = {}
    # (core parts, nu~) -> sum over its block assignments of the
    # product of the block factors
    inner: dict[tuple, int] = {}
    for (core, blocks), count in states.items():
        nut = tuple(face - sum(block) for face, block in zip(nu, blocks))
        term = count
        for key in zip(nut, blocks):
            factor = factors.get(key)
            if factor is None:
                factor = factors[key] = block_factor(*key)
            term *= factor
        inner[core, nut] = inner.get((core, nut), 0) + term
    total = 0
    for (core, nut), blocks_sum in inner.items():
        core_value = oracle(g, core, nut)
        if core_value:
            # the multinomial of the edge labels over the core and the
            # blocks, times l(mu_{I_i})! per block, is m!/(m - p)!
            total += core_value * (perm(m, len(mu) - len(core)) * blocks_sum)
    return Fraction(total)


def reconstruct_double_hurwitz(
    g: int, mu: Sequence[int], nu: Sequence[int], phat: PhatOracle
) -> Fraction:
    """Evaluate the reconstruction sum with the forest polynomial."""
    return face_sum(g, mu, nu, phat, _cayley_block_factor)


def reconstruct_via_forests(
    g: int, mu: Sequence[int], nu: Sequence[int], phat: PhatOracle
) -> Fraction:
    """Evaluate the reconstruction sum by enumerating rooted forests."""
    return face_sum(g, mu, nu, phat, _forest_block_factor)
