"""Cut-and-join recursion for pruned double Hurwitz numbers.

Removing the highest-labelled edge from a pruned graph of type
(g, mu, nu) with l(nu) >= 3 and re-pruning leaves one of three shapes,
and re-attaching a labelled path of removed vertices inverts the move:

* genus drop: the edge was a handle; the core has genus g - 1 and two
  new faces of perimeters alpha + beta = nu_i - |mu_removed|;
* split: the edge joined two components with genera g1 + g2 = g,
  inherited face sets J1, J2 and one new face each (alpha, beta);
* join: the edge separated faces i < j, leaving one new face of
  perimeter alpha = nu_i + nu_j - |mu_removed|.

Each reconstruction attaches a path of p = #removed vertices, carrying
the count

    (p + 1)! * (m-1)!/(m-p-1)! * prod(mu_removed)

for the path labels and per-vertex gluings, times alpha (and beta)
boundary positions for the path ends, times a half in the genus-drop
case for the two orientations of the path.

One split enumeration, two weightings.  ``variant="plain"`` is the
recursion in its customary closed form: the join term uses the full
attachment count (which also produces, from every split whose halves
are both bare cycles, the same graph twice -- once from either cycle --
and from every one-cycle split once), the split sum is restricted by a
stability rule meant to compensate, and split halves are weighted by
the modified (unweighted) pruned count.  Exhaustive verification shows
the plain form overcounts: see ``verify_recursion``.

``variant="corrected"`` is the accounting that matches enumeration
exactly on every tested instance:

* split configurations whose halves are both cycles enter with weight
  -1 (cancelling the join term's double production), one-cycle splits
  with weight 0 (the join term already covers them), all others +1;
* a split with a tree half (genus 0 and no inherited face) gives no
  term: the tree prunes to a bare vertex, which would be a leaf at the
  end of the removed edge.  The half's pruned value is not asked for,
  as at m = 0 it is whatever the engine's convention sets;
* each half is weighted by its automorphism-weighted pruned count
  (this differs from the unweighted count only for fully ramified
  halves, whose cyclic symmetry identifies attachment positions);
* the non-path edge labels are distributed between the halves, a
  binomial(m - 1 - p; m1) factor absent from the plain form.

A cycle half means genus 0 with two faces in total, i.e. an inherited
face count of 1.  The plain split sum's stability clause has two
readings, an argument of ``verify_recursion`` and not an engine
convention (no Hurwitz value depends on it): "facecount" excludes
exactly the cycle halves, "literal" excludes (genus, inherited faces)
= (0, 2) instead.

The split family is one loop for both variants, which choose only the
oracle (``phat`` or ``ph``), the halves skipped (the stability rule,
or the tree halves and one-cycle splits) and the integer factor of a
term.  It visits split configurations with g1 <= g2; on a genus tie
each unordered configuration is visited in both orders, so it enters
with weight 1/2.

The cores of the genus-drop and join families and the vertex splits
of the split family are built once per call, each with its path
attachment, keeping only removed vertices that weigh at most what the
largest faces allow.  Each face or face pair then filters the cores by
its own budget.  A split half's new face takes what the half's vertices
weigh beyond its inherited faces, alpha = |mu1| - |nu1| and
beta = |mu2| - |nu2|, so a split configuration gives at most one term.
The terms come in the order of the per-face enumeration over every
subset, every base-3 vertex assignment and every perimeter, which
``tests/oracles.py`` keeps as the reference.

The evaluator refuses a negative genus, as every value entry does, and
never asks its oracles for a degenerate value (a negative genus, an
empty profile or unequal degrees), on which the engine's values raise.
Configurations that would need one contribute zero and are not
enumerated: a core or split half without vertices, a split half whose
new face would have no perimeter (alpha or beta < 1), and every genus
drop at g = 0.  It is verification machinery, not a computation path
for PH: base cases at l(nu) < 3 are not defined.  ``cut_and_join_terms``
checks its arguments and returns an iterator of the terms;
``verify_recursion`` sums them and compares the sum with PH.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import comb, factorial, perm
from typing import Callable, Iterator, NamedTuple, Sequence

from .combinatorics import check_request
from .hurwitz import HurwitzEngine

PhatOracle = Callable[[int, tuple[int, ...], tuple[int, ...]], Fraction]

GENUS_DROP = "GENUS_DROP"
SPLIT = "SPLIT"
JOIN = "JOIN"

VARIANTS = ("plain", "corrected")
STABILITY_READINGS = ("literal", "facecount")


class RecursionTerm(NamedTuple):
    case: str
    params: dict
    value: Fraction


class RecursionReport(NamedTuple):
    genus: int
    mu: tuple[int, ...]
    nu: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction
    per_case_totals: dict[str, Fraction]
    stability_reading: str
    variant: str
    terms: list[RecursionTerm]

    @property
    def match(self) -> bool:
        return self.lhs == self.rhs


def _stability_excluded(reading: str, g_t: int, inherited_faces: int) -> bool:
    """Whether a split half is excluded by the stability rule."""
    if reading == "facecount":
        return g_t == 0 and inherited_faces == 1
    return (g_t, inherited_faces) == (0, 2)


def _attachment(mu: tuple, removed: Sequence[int], m: int) -> int:
    """(p + 1)! * (m-1)!/(m-p-1)! * prod(mu_removed) for a path through
    the p removed vertices; 0 when the path needs more than m - 1 labels."""
    attach = perm(m - 1, len(removed)) * factorial(len(removed) + 1)
    for x in removed:
        attach *= mu[x]
    return attach


def _vertex_assignments(mu: tuple, groups: int, spare: int, cap: int) -> list[tuple]:
    """Every map of the vertex indices to ``groups`` groups in which the
    vertices of group ``spare`` weigh at most ``cap``, as one index
    tuple per group.  The maps come in the order of their base-``groups``
    numbers sum(group(x) * groups**x): the vertices are placed from the
    last to the first, each level extending the maps of the previous
    one in order."""
    level = [(((),) * groups, 0)]
    for x in reversed(range(len(mu))):
        grown = []
        for parts, weight in level:
            for r in range(groups):
                w = weight + mu[x] if r == spare else weight
                if w <= cap:
                    grown.append((parts[:r] + ((x,) + parts[r],) + parts[r + 1:], w))
        level = grown
    return [(*parts, weight) for parts, weight in level]


def _cores(mu: tuple, m: int, cap: int) -> list[tuple]:
    """(core, weights of the core, removed weight, attachment) for every
    non-empty core whose removed vertices weigh at most ``cap`` and fit
    on a path, in the order of the bit masks sum(2**x for x in core)."""
    cores = []
    for removed, core, weight in _vertex_assignments(mu, 2, 0, cap):
        attach = _attachment(mu, removed, m)
        if core and attach:
            cores.append((core, tuple(mu[x] for x in core), weight, attach))
    return cores


def _vertex_splits(mu: tuple, m: int, cap: int) -> list[tuple]:
    """(attachment, part1, part2, removed, mu1, mu2, |mu1|, |mu2|), with
    mu1 and mu2 the weights of the two parts, for every split into two
    non-empty parts whose removed vertices weigh at most ``cap`` and fit
    on a path.  The order is that of the base-3 numbers
    sum(r_x * 3**x), r_x = 0, 1, 2 for part1, part2 and removed."""
    splits = []
    for part1, part2, removed, _ in _vertex_assignments(mu, 3, 2, cap):
        if not part1 or not part2:
            continue
        attach = _attachment(mu, removed, m)
        if attach:
            mu1 = tuple(mu[x] for x in part1)
            mu2 = tuple(mu[x] for x in part2)
            splits.append((attach, part1, part2, removed, mu1, mu2, sum(mu1), sum(mu2)))
    return splits


def _genus_drop_terms(
    g: int, nu: tuple, phat: PhatOracle, cores: list[tuple]
) -> Iterator[RecursionTerm]:
    if g == 0:
        return  # every core would have genus -1
    for i in range(len(nu)):
        other_faces = nu[:i] + nu[i + 1:]
        for core, mu_core, weight, attach in cores:
            budget = nu[i] - weight
            if budget < 2:
                continue
            for alpha in range(1, budget):
                beta = budget - alpha
                value = phat(g - 1, mu_core, other_faces + (alpha, beta))
                if value == 0:
                    continue
                yield RecursionTerm(
                    GENUS_DROP,
                    {"i": i, "core": core, "alpha": alpha, "beta": beta},
                    value * Fraction(alpha * beta * attach, 2),
                )


def _join_terms(
    g: int, nu: tuple, phat: PhatOracle, cores: list[tuple]
) -> Iterator[RecursionTerm]:
    for i, j in combinations(range(len(nu)), 2):
        other_faces = tuple(nu[t] for t in range(len(nu)) if t not in (i, j))
        for core, mu_core, weight, attach in cores:
            alpha = nu[i] + nu[j] - weight
            if alpha < 1:
                continue
            value = phat(g, mu_core, other_faces + (alpha,))
            if value == 0:
                continue
            yield RecursionTerm(
                JOIN,
                {"i": i, "j": j, "core": core, "alpha": alpha},
                value * (alpha * attach),
            )


def _split_terms(
    g: int,
    nu: tuple,
    m: int,
    oracle: PhatOracle,
    splits: list[tuple],
    variant: str,
    stability_reading: str,
) -> Iterator[RecursionTerm]:
    """The split family, for each face i over the ordered bipartitions
    of the other faces and the vertex splits that leave both new faces
    a perimeter of at least one.  The variant chooses the halves it
    skips and the integer factor of a term."""
    for i in range(len(nu)):
        rest = tuple(j for j in range(len(nu)) if j != i)
        for j_mask in range(1 << len(rest)):
            faces1 = tuple(rest[t] for t in range(len(rest)) if j_mask >> t & 1)
            faces2 = tuple(rest[t] for t in range(len(rest)) if not j_mask >> t & 1)
            nu1 = tuple(nu[f] for f in faces1)
            nu2 = tuple(nu[f] for f in faces2)
            size1, size2 = sum(nu1), sum(nu2)
            for attach, part1, part2, removed, mu1, mu2, weight1, weight2 in splits:
                alpha = weight1 - size1
                beta = weight2 - size2
                if alpha < 1 or beta < 1:
                    continue
                for g1 in range(g // 2 + 1):
                    g2 = g - g1
                    if variant == "plain":
                        if (_stability_excluded(stability_reading, g1, len(faces1))
                                or _stability_excluded(stability_reading, g2, len(faces2))):
                            continue
                        signed = {}
                        factor = attach
                    else:
                        if (g1 == 0 and not faces1) or (g2 == 0 and not faces2):
                            continue  # a tree half: no term
                        cycle1 = g1 == 0 and len(faces1) == 1
                        if cycle1 != (g2 == 0 and len(faces2) == 1):
                            continue  # one-cycle splits: covered by the join term
                        # the m - 1 - p labels off the path, m1 of them on half 1
                        m1 = 2 * g1 - 1 + len(part1) + len(faces1)
                        sign = -1 if cycle1 else 1
                        signed = {"sign": sign}
                        factor = sign * attach * comb(m - 1 - len(removed), m1)
                    v1 = oracle(g1, mu1, nu1 + (alpha,))
                    if v1 == 0:
                        continue
                    v2 = oracle(g2, mu2, nu2 + (beta,))
                    if v2 == 0:
                        continue
                    yield RecursionTerm(
                        SPLIT,
                        {
                            "i": i, "genera": (g1, g2),
                            "cores": (part1, part2), "faces": (faces1, faces2),
                            "alpha": alpha, "beta": beta, **signed,
                        },
                        Fraction(
                            v1.numerator * v2.numerator * alpha * beta * factor,
                            v1.denominator * v2.denominator * (2 if g1 == g2 else 1),
                        ),
                    )


def cut_and_join_terms(
    g: int,
    mu: Sequence[int],
    nu: Sequence[int],
    phat: PhatOracle,
    stability_reading: str = "literal",
    variant: str = "plain",
    ph: PhatOracle | None = None,
) -> Iterator[RecursionTerm]:
    """Every non-zero term of the recursion right-hand side, as an
    iterator; the arguments are checked by this call, before any term.

    ``phat`` supplies modified pruned values.  The corrected variant
    also needs ``ph`` (automorphism-weighted pruned values) for the
    split halves and raises ``ValueError`` without it.  Only the plain
    variant reads ``stability_reading``.
    """
    mu, nu = check_request(g, mu, nu)
    if len(nu) < 3:
        raise ValueError("the recursion needs l(nu) >= 3")
    m = 2 * g - 2 + len(mu) + len(nu)  # at least 2, as l(nu) >= 3
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if stability_reading not in STABILITY_READINGS:
        raise ValueError(
            f"unknown stability reading {stability_reading!r}; choose from {STABILITY_READINGS}"
        )
    if variant == "corrected" and ph is None:
        raise ValueError("the corrected variant needs the pruned oracle ph")
    # a genus drop leaves a face budget >= 2 and a join a perimeter >= 1:
    # the removed vertices of a core weigh at most the two largest faces
    # less one, and those of a split at most the largest face less two
    top = sorted(nu, reverse=True)
    cores = _cores(mu, m, top[0] + top[1] - 1)
    splits = _vertex_splits(mu, m, top[0] - 2)
    oracle = phat if variant == "plain" else ph
    # generators: no oracle is asked for anything before the first term
    return chain(
        _genus_drop_terms(g, nu, phat, cores),
        _split_terms(g, nu, m, oracle, splits, variant, stability_reading),
        _join_terms(g, nu, phat, cores),
    )


def verify_recursion(
    g: int,
    mu: Sequence[int],
    nu: Sequence[int],
    engine: HurwitzEngine | None = None,
    stability_reading: str = "literal",
    variant: str = "plain",
) -> RecursionReport:
    """Compare the recursion right-hand side with direct enumeration.

    Never asserts; the report carries both sides, per-case totals and
    every term for mismatch forensics.
    """
    engine = engine or HurwitzEngine()
    # checks every argument before the engine is asked for anything
    rhs_terms = cut_and_join_terms(g, mu, nu, engine.phat, stability_reading, variant, engine.ph)
    lhs = engine.pruned(g, mu, nu)
    totals = {GENUS_DROP: Fraction(0), SPLIT: Fraction(0), JOIN: Fraction(0)}
    terms = []
    for term in rhs_terms:
        totals[term.case] += term.value
        terms.append(term)
    return RecursionReport(
        genus=g,
        mu=tuple(mu),
        nu=tuple(nu),
        lhs=lhs,
        rhs=sum(totals.values(), Fraction(0)),
        per_case_totals=totals,
        stability_reading=stability_reading,
        variant=variant,
        terms=terms,
    )
