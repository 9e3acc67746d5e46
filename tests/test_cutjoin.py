from fractions import Fraction
from itertools import permutations

import pytest

from prunedhurwitz.combinatorics import partitions
from prunedhurwitz.cutjoin import (
    GENUS_DROP,
    JOIN,
    SPLIT,
    cut_and_join_terms,
    verify_recursion,
)
from prunedhurwitz.hurwitz import Conventions, HurwitzEngine

from oracles import (
    cut_and_join_terms_by_filtering,
    split_data,
    split_weight,
    strict,
    zero_extended,
)

ENGINE = HurwitzEngine()


def rhs(*args, **kwargs):
    """The recursion's right-hand side: the sum of its terms."""
    return sum((t.value for t in cut_and_join_terms(*args, **kwargs)), Fraction(0))


def battery(max_d=4, max_g=1, max_m=5):
    for d in range(1, max_d + 1):
        for g in range(max_g + 1):
            for mu in partitions(d):
                for nu in partitions(d):
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if len(nu) >= 3 and 0 < m <= max_m:
                        yield g, mu, nu


def test_matching_examples_plain():
    # instances where the plain statement already agrees with enumeration
    for g, mu, nu in [
        (0, (1, 1, 1), (1, 1, 1)),
        (0, (3,), (1, 1, 1)),
        (0, (2, 1), (1, 1, 1)),
        (1, (2, 1), (1, 1, 1)),
    ]:
        report = verify_recursion(g, mu, nu, ENGINE)
        assert report.match, (g, mu, nu, report.lhs, report.rhs)
    assert ENGINE.pruned(0, (3,), (1, 1, 1)) == 6


def test_per_case_totals_sum_to_rhs():
    report = verify_recursion(0, (2, 2), (2, 1, 1), ENGINE)
    assert sum(report.per_case_totals.values()) == report.rhs
    assert sum((t.value for t in report.terms), Fraction(0)) == report.rhs
    assert set(report.per_case_totals) == {GENUS_DROP, SPLIT, JOIN}


def test_known_discrepancy_of_the_plain_statement():
    # the plain closed form double-produces splits into two bare cycles
    # through the join term; frozen witness values:
    lhs = ENGINE.pruned(0, (2, 2), (2, 1, 1))
    assert lhs == 48
    literal = rhs(0, (2, 2), (2, 1, 1), ENGINE.phat, "literal")
    facecount = rhs(0, (2, 2), (2, 1, 1), ENGINE.phat, "facecount")
    corrected = rhs(
        0, (2, 2), (2, 1, 1), ENGINE.phat, variant="corrected", ph=ENGINE.ph)
    assert literal == 54
    assert facecount == 52
    assert corrected == 48


def test_corrected_variant_matches_enumeration():
    for g, mu, nu in battery(max_d=4):
        report = verify_recursion(g, mu, nu, ENGINE, variant="corrected")
        assert report.match, (g, mu, nu, report.lhs, report.rhs)


def test_corrected_variant_beyond_genus_one():
    for g, mu, nu in [(2, (3,), (1, 1, 1)), (2, (2, 1), (1, 1, 1))]:
        report = verify_recursion(g, mu, nu, ENGINE, variant="corrected")
        assert report.match, (g, mu, nu, report.lhs, report.rhs)


def test_corrected_variant_matches_under_the_m0_pruned_convention():
    # a genus-0 split half with no inherited face is a tree, which gives
    # no term; asking the engine for it read the convention's m = 0
    # value, so g0 (3,1)|(2,1,1) had rhs 42 against lhs 36
    engine = HurwitzEngine(Conventions(m0_pruned=True))
    instances = list(battery(max_d=5, max_g=1, max_m=8))  # every m at d <= 5
    assert len(instances) == 79
    for g, mu, nu in instances:
        report = verify_recursion(g, mu, nu, engine, variant="corrected")
        assert report.match, (g, mu, nu, report.lhs, report.rhs)
    assert engine.pruned(0, (3, 1), (2, 1, 1)) == 36


def test_stability_readings_differ_only_in_split_terms():
    g, mu, nu = 0, (2, 2), (2, 1, 1)
    lit = verify_recursion(g, mu, nu, ENGINE, stability_reading="literal")
    face = verify_recursion(g, mu, nu, ENGINE, stability_reading="facecount")
    assert lit.per_case_totals[JOIN] == face.per_case_totals[JOIN]
    assert lit.per_case_totals[GENUS_DROP] == face.per_case_totals[GENUS_DROP]
    assert lit.per_case_totals[SPLIT] != face.per_case_totals[SPLIT]


def test_split_half_rule_counts_unordered_configurations_once():
    # redundant full-range enumeration over both genus orders, divided
    # by two, equals the evaluator's tied-half rule (no fixed points at
    # l(nu) >= 3, so no diagonal correction is needed)
    phat = zero_extended(ENGINE.phat)
    for g, mu, nu in [(0, (2, 2), (2, 1, 1)), (1, (3, 2), (3, 1, 1))]:
        m = 2 * g - 2 + len(mu) + len(nu)
        evaluator = Fraction(0)
        full_range = Fraction(0)
        for i in range(len(nu)):
            for part1, part2, removed, faces1, faces2, budget, attach in split_data(mu, nu, m, i):
                for g1 in range(g + 1):
                    g2 = g - g1
                    for alpha in range(1, budget):
                        beta = budget - alpha
                        v1 = phat(g1, tuple(mu[x] for x in part1),
                                  tuple(nu[f] for f in faces1) + (alpha,))
                        v2 = phat(g2, tuple(mu[x] for x in part2),
                                  tuple(nu[f] for f in faces2) + (beta,))
                        term = v1 * v2 * alpha * beta * attach
                        full_range += term
                        if g1 <= g2:
                            evaluator += term * split_weight(g1, g2)
        assert evaluator == full_range / 2


def test_negative_genus_terms_vanish():
    # at genus 0 every genus-drop term queries genus -1 and contributes 0
    terms = list(cut_and_join_terms(0, (3,), (1, 1, 1), ENGINE.phat))
    assert all(t.case != GENUS_DROP for t in terms)


def test_preconditions():
    with pytest.raises(ValueError):
        rhs(0, (2,), (1, 1), ENGINE.phat)
    with pytest.raises(ValueError):
        rhs(0, (2,), (2,), ENGINE.phat)
    with pytest.raises(ValueError):
        rhs(0, (2, 2), (2, 1, 1), ENGINE.phat, stability_reading="bogus")
    with pytest.raises(ValueError):
        rhs(0, (2, 2), (2, 1, 1), ENGINE.phat, variant="bogus")
    # the corrected split halves need the weighted count: the modified
    # one in their place would give 10,416
    with pytest.raises(ValueError):
        rhs(1, (3, 2), (3, 1, 1), ENGINE.phat, variant="corrected")
    assert rhs(
        1, (3, 2), (3, 1, 1), ENGINE.phat, variant="corrected", ph=ENGINE.ph
    ) == ENGINE.pruned(1, (3, 2), (3, 1, 1)) == 10380


@pytest.mark.parametrize("option", [{"variant": "bogus"}, {"stability_reading": "bogus"}],
                         ids=["variant", "stability-reading"])
def test_refusals_come_before_any_evaluation(option):
    # the terms are generators, but the arguments are checked by the call
    # itself, and verify_recursion makes it before it asks for the
    # left-hand side
    engine = HurwitzEngine()
    with pytest.raises(ValueError, match="unknown"):
        verify_recursion(1, (3, 3), (2, 2, 2), engine, **option)
    assert not engine._values
    with pytest.raises(ValueError, match="unknown"):
        cut_and_join_terms(1, (3, 3), (2, 2, 2), engine.phat, **option)
    assert not engine._values


def test_corrected_variant_at_degree_six():
    for g, mu, nu in [(0, (3, 3), (2, 2, 2)), (0, (2, 2, 2), (2, 2, 2))]:
        report = verify_recursion(g, mu, nu, ENGINE, variant="corrected")
        assert report.match, (g, mu, nu, report.lhs, report.rhs)


def test_corrected_variant_wider_shapes():
    # four faces, degree seven, and genus two at degree four; the genus
    # two cases pin the tied split weight 1/2, where weighting tied
    # configurations by their size signatures gives rhs 69,868 on the
    # first (lhs 69,888) and 791,756 on the second (lhs 791,616)
    for g, mu, nu in [
        (0, (4, 3), (3, 2, 1, 1)),
        (0, (2, 2, 2), (3, 2, 1)),
        (2, (2, 2), (2, 1, 1)),
        (2, (2, 1, 1), (2, 1, 1)),
    ]:
        report = verify_recursion(g, mu, nu, ENGINE, variant="corrected")
        assert report.match, (g, mu, nu, report.lhs, report.rhs)
    assert ENGINE.pruned(2, (2, 2), (2, 1, 1)) == 69888
    assert ENGINE.pruned(2, (2, 1, 1), (2, 1, 1)) == 791616


def generic_oracle(g, mu, nu):
    # non-zero on every balanced argument, so every configuration yields
    # a term; zero off balanced degrees, as every Hurwitz oracle is
    if sum(mu) != sum(nu):
        return Fraction(0)
    return Fraction(1 + 3 * g + sum((k + 2) * x for k, x in enumerate(mu)), len(nu) + sum(nu))


# the genus-2 shapes bring in genus-1 halves and the g1 = g2 = 1 tie
GENUS_TWO = [(2, mu, nu) for d in (3, 4) for mu in partitions(d)
             for nu in partitions(d) if len(nu) >= 3]


def test_term_streams_equal_the_filtered_enumeration():
    # case, params (in order) and value of every term, in order, for
    # both variants and both readings, against the per-face filter
    runs = [("plain", "literal"), ("plain", "facecount"), ("corrected", "literal")]
    for g, mu, nu in [*battery(max_d=5, max_g=1), *GENUS_TWO]:
        for mu_order in sorted(set(permutations(mu))):
            for variant, reading in runs:
                for phat, ph in [(generic_oracle, generic_oracle), (ENGINE.phat, ENGINE.ph)]:
                    got = [
                        (t.case, list(t.params.items()), t.value)
                        for t in cut_and_join_terms(g, mu_order, nu, phat, reading, variant, ph)
                    ]
                    want = [
                        (t.case, list(t.params.items()), t.value)
                        for t in cut_and_join_terms_by_filtering(
                            g, mu_order, nu, zero_extended(phat), reading, variant,
                            zero_extended(ph))
                    ]
                    assert got == want, (g, mu_order, nu, variant, reading)


def test_oracle_is_never_asked_for_a_degenerate_value():
    # each split half's new face is fixed by its degree balance, so no
    # configuration asks for an unbalanced, empty or negative-genus value
    oracle = strict(generic_oracle)
    for g, mu, nu in [*battery(max_d=5, max_g=1), *GENUS_TWO]:
        for variant in ("plain", "corrected"):
            for reading in ("literal", "facecount"):
                for _ in cut_and_join_terms(g, mu, nu, oracle, reading, variant, oracle):
                    pass
