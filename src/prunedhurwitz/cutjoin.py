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

Two evaluators are provided.  ``variant="plain"`` is the recursion in
its customary closed form: the join term uses the full attachment
count (which also produces, from every split whose halves are both
bare cycles, the same graph twice -- once from either cycle -- and
from every one-cycle split once), the split sum is restricted by a
stability rule meant to compensate, and split halves are weighted by
the modified (unweighted) pruned count.  Exhaustive verification shows
the plain form overcounts: see ``verify_recursion``.

``variant="corrected"`` is the accounting that matches enumeration
exactly on every tested instance:

* split configurations whose halves are both cycles enter with weight
  -1 (cancelling the join term's double production), one-cycle splits
  with weight 0 (the join term already covers them), all others +1;
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

Both evaluators visit split configurations with g1 <= g2; on a genus
tie each unordered configuration is visited in both orders, so it
enters with weight 1/2.

The evaluator is total for g >= 0.  Configurations whose oracle
arguments are degenerate contribute zero and are not enumerated: a core
or split half without vertices, and every genus drop at g = 0.  It is
verification machinery, not a computation path for PH: base cases at
l(nu) < 3 are not defined.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Callable, Iterator, NamedTuple, Sequence

from .combinatorics import falling_factorial, subsets
from .hurwitz import HurwitzEngine

PhatOracle = Callable[[int, tuple[int, ...], tuple[int, ...]], Fraction]

GENUS_DROP = "GENUS_DROP"
SPLIT = "SPLIT"
JOIN = "JOIN"

VARIANTS = ("plain", "corrected")
STABILITY_READINGS = ("literal", "facecount")


def _split_weight(g1: int, g2: int) -> Fraction:
    return Fraction(1) if g1 < g2 else Fraction(1, 2)


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


def _check_arguments(g: int, mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    d = sum(mu)
    if d < 1 or sum(nu) != d:
        raise ValueError("mu and nu must be partitions of the same d >= 1")
    if len(nu) < 3:
        raise ValueError("the recursion needs l(nu) >= 3")
    m = 2 * g - 2 + len(mu) + len(nu)
    if m <= 0:
        raise ValueError("the recursion needs 2g - 2 + l(mu) + l(nu) > 0")
    return m


def _attachment(mu: tuple, removed: Sequence[int], m: int) -> int:
    """(p + 1)! * (m-1)!/(m-p-1)! * prod(mu_removed) for a path through
    the p removed vertices; 0 when the path needs more than m - 1 labels."""
    attach = falling_factorial(m - 1, len(removed)) * factorial(len(removed) + 1)
    for x in removed:
        attach *= mu[x]
    return attach


def _genus_drop_terms(
    g: int, mu: tuple, nu: tuple, m: int, phat: PhatOracle
) -> Iterator[RecursionTerm]:
    if g == 0:
        return  # every core would have genus -1
    indices = tuple(range(len(mu)))
    for i in range(len(nu)):
        other_faces = tuple(nu[j] for j in range(len(nu)) if j != i)
        for core in subsets(indices):
            if not core:
                continue
            removed = tuple(x for x in indices if x not in core)
            budget = nu[i] - sum(mu[x] for x in removed)
            if budget < 2:
                continue
            attach = _attachment(mu, removed, m)
            if attach == 0:
                continue
            mu_core = tuple(mu[x] for x in core)
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
    g: int, mu: tuple, nu: tuple, m: int, phat: PhatOracle
) -> Iterator[RecursionTerm]:
    indices = tuple(range(len(mu)))
    for i, j in combinations(range(len(nu)), 2):
        other_faces = tuple(nu[t] for t in range(len(nu)) if t not in (i, j))
        for core in subsets(indices):
            if not core:
                continue
            removed = tuple(x for x in indices if x not in core)
            alpha = nu[i] + nu[j] - sum(mu[x] for x in removed)
            if alpha < 1:
                continue
            attach = _attachment(mu, removed, m)
            if attach == 0:
                continue
            value = phat(g, tuple(mu[x] for x in core), other_faces + (alpha,))
            if value == 0:
                continue
            yield RecursionTerm(
                JOIN,
                {"i": i, "j": j, "core": core, "alpha": alpha},
                value * (alpha * attach),
            )


def _split_data(mu: tuple, nu: tuple, m: int, i: int):
    """Shared enumeration of split shapes: ordered face bipartitions of
    the other faces, ordered disjoint non-empty vertex subsets, path
    data.  The vertex assignments do not depend on the faces and are
    built once."""
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


def _split_terms_plain(
    g: int,
    mu: tuple,
    nu: tuple,
    m: int,
    phat: PhatOracle,
    stability_reading: str,
) -> Iterator[RecursionTerm]:
    for i in range(len(nu)):
        for part1, part2, removed, faces1, faces2, budget, attach in _split_data(mu, nu, m, i):
            for g1 in range(g + 1):
                g2 = g - g1
                if g1 > g2:
                    continue
                if _stability_excluded(stability_reading, g1, len(faces1)):
                    continue
                if _stability_excluded(stability_reading, g2, len(faces2)):
                    continue
                weight = _split_weight(g1, g2)
                for alpha in range(1, budget):
                    beta = budget - alpha
                    v1 = phat(g1, tuple(mu[x] for x in part1),
                              tuple(nu[f] for f in faces1) + (alpha,))
                    if v1 == 0:
                        continue
                    v2 = phat(g2, tuple(mu[x] for x in part2),
                              tuple(nu[f] for f in faces2) + (beta,))
                    if v2 == 0:
                        continue
                    yield RecursionTerm(
                        SPLIT,
                        {
                            "i": i, "genera": (g1, g2),
                            "cores": (part1, part2), "faces": (faces1, faces2),
                            "alpha": alpha, "beta": beta,
                        },
                        v1 * v2 * weight * (alpha * beta * attach),
                    )


def _split_terms_corrected(
    g: int,
    mu: tuple,
    nu: tuple,
    m: int,
    ph: PhatOracle,
) -> Iterator[RecursionTerm]:
    for i in range(len(nu)):
        for part1, part2, removed, faces1, faces2, budget, attach in _split_data(mu, nu, m, i):
            p = len(removed)
            for g1 in range(g + 1):
                g2 = g - g1
                if g1 > g2:
                    continue
                cycle1 = g1 == 0 and len(faces1) == 1
                cycle2 = g2 == 0 and len(faces2) == 1
                if cycle1 != cycle2:
                    continue  # one-cycle splits: covered by the join term
                sign = -1 if cycle1 else 1
                m1 = 2 * g1 - 2 + len(part1) + len(faces1) + 1
                m2 = 2 * g2 - 2 + len(part2) + len(faces2) + 1
                if m1 < 0 or m2 < 0 or m1 + m2 != m - 1 - p:
                    continue
                interleave = comb(m - 1 - p, m1)
                weight = _split_weight(g1, g2)
                for alpha in range(1, budget):
                    beta = budget - alpha
                    v1 = ph(g1, tuple(mu[x] for x in part1),
                            tuple(nu[f] for f in faces1) + (alpha,))
                    if v1 == 0:
                        continue
                    v2 = ph(g2, tuple(mu[x] for x in part2),
                            tuple(nu[f] for f in faces2) + (beta,))
                    if v2 == 0:
                        continue
                    yield RecursionTerm(
                        SPLIT,
                        {
                            "i": i, "genera": (g1, g2),
                            "cores": (part1, part2), "faces": (faces1, faces2),
                            "alpha": alpha, "beta": beta, "sign": sign,
                        },
                        v1 * v2 * weight * (sign * alpha * beta * attach * interleave),
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
    """Yield every non-zero term of the recursion right-hand side.

    ``phat`` supplies modified pruned values.  The corrected variant
    also needs ``ph`` (automorphism-weighted pruned values) for the
    split halves and raises ``ValueError`` without it.  Only the plain
    variant reads ``stability_reading``.
    """
    mu = tuple(mu)
    nu = tuple(nu)
    m = _check_arguments(g, mu, nu)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if stability_reading not in STABILITY_READINGS:
        raise ValueError(
            f"unknown stability reading {stability_reading!r}; choose from {STABILITY_READINGS}"
        )
    if variant == "corrected" and ph is None:
        raise ValueError("the corrected variant needs the pruned oracle ph")
    yield from _genus_drop_terms(g, mu, nu, m, phat)
    if variant == "plain":
        yield from _split_terms_plain(g, mu, nu, m, phat, stability_reading)
    else:
        yield from _split_terms_corrected(g, mu, nu, m, ph)
    yield from _join_terms(g, mu, nu, m, phat)


def cut_and_join_rhs(
    g: int,
    mu: Sequence[int],
    nu: Sequence[int],
    phat: PhatOracle,
    stability_reading: str = "literal",
    variant: str = "plain",
    ph: PhatOracle | None = None,
) -> Fraction:
    """Total of the recursion right-hand side."""
    return sum(
        (t.value for t in cut_and_join_terms(
            g, mu, nu, phat, stability_reading, variant, ph)),
        Fraction(0),
    )


def verify_recursion(
    g: int,
    mu: Sequence[int],
    nu: Sequence[int],
    engine: HurwitzEngine | None = None,
    stability_reading: str = "literal",
    variant: str = "plain",
    keep_terms: bool = False,
) -> RecursionReport:
    """Compare the recursion right-hand side with direct enumeration.

    Never asserts; the report carries both sides, per-case totals and
    (optionally) every term for mismatch forensics.
    """
    engine = engine or HurwitzEngine()
    lhs = engine.pruned(g, mu, nu)
    totals = {GENUS_DROP: Fraction(0), SPLIT: Fraction(0), JOIN: Fraction(0)}
    terms = []
    for term in cut_and_join_terms(
        g, mu, nu, engine.phat, stability_reading, variant, engine.ph
    ):
        totals[term.case] += term.value
        if keep_terms:
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
