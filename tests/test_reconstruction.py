import functools
import gc
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from prunedhurwitz.characters import CharacterTable
from prunedhurwitz.combinatorics import partitions
from prunedhurwitz.hurwitz import HurwitzEngine
from prunedhurwitz.cutjoin import cut_and_join_terms, verify_recursion
from prunedhurwitz.factorizations import classes_from_value
from prunedhurwitz.reconstruction import (
    _cayley_block_factor,
    _forest_block_factor,
    face_sum,
    reconstruct_double_hurwitz,
    reconstruct_via_forests,
)

from oracles import (
    block_factor_by_degrees,
    bounded_tuples,
    index_subsets,
    leaf_block_factor,
    leaf_sum,
    reconstruct_by_filtering,
    strict,
)

ENGINE = HurwitzEngine()


def test_chamber_point_reconstructs():
    assert reconstruct_double_hurwitz(0, (2, 3), (1, 4), ENGINE.phat) == 8
    assert reconstruct_via_forests(0, (2, 3), (1, 4), ENGINE.phat) == 8


def test_identity_term_is_the_core_value():
    # with an oracle that only answers on the full core, the whole sum
    # collapses to the single summand with nu~ = nu and I = everything
    def stub(g, mu, nu):
        if mu == (2, 3) and tuple(sorted(nu)) == (1, 4):
            return Fraction(7)
        return Fraction(0)

    assert reconstruct_double_hurwitz(0, (2, 3), (1, 4), stub) == 7
    assert reconstruct_via_forests(0, (2, 3), (1, 4), stub) == 7


def test_two_face_examples():
    assert reconstruct_via_forests(0, (1, 1), (1, 1), ENGINE.phat) == 2
    assert reconstruct_double_hurwitz(0, (2,), (1, 1), ENGINE.phat) == 1


def check_identity(g, mu, nu):
    direct = ENGINE.double(g, mu, nu)
    by_polynomial = reconstruct_double_hurwitz(g, mu, nu, ENGINE.phat)
    by_forests = reconstruct_via_forests(g, mu, nu, ENGINE.phat)
    assert direct == by_polynomial == by_forests, (g, mu, nu, direct, by_polynomial, by_forests)


def test_reconstruction_battery_small():
    for d in range(1, 5):
        for g in (0, 1):
            for mu in partitions(d):
                for nu in partitions(d):
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if len(nu) < 2 or m < 0 or m > 5:
                        continue
                    check_identity(g, mu, nu)


def test_single_face_family_is_outside_the_identity():
    # iterated leaf removal of a one-face genus-0 graph ends at a bare
    # vertex, so the identity genuinely fails there; document the gap
    # rather than assert a wrong equality
    assert ENGINE.double(0, (1, 1), (2,)) == 1
    assert reconstruct_double_hurwitz(0, (1, 1), (2,), ENGINE.phat) == 0
    assert ENGINE.double(1, (2,), (2,)) == Fraction(1, 2)
    assert reconstruct_double_hurwitz(1, (2,), (2,), ENGINE.phat) == 1


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        reconstruct_double_hurwitz(0, (2,), (1, 1, 1), ENGINE.phat)


def test_block_factor_forms_agree_with_generating_function():
    # the per-face regrafting factor three ways: the forest polynomial
    # r * (r + sum(weights))^(p-1), the paper's sum over out-degree
    # sequences, and the enumeration of trees on one root of weight r
    for roots in range(1, 5):
        for p in range(5):
            for weights in product(range(1, 4), repeat=p):
                closed = _cayley_block_factor(roots, weights)
                assert closed == block_factor_by_degrees(roots, weights), (roots, weights)
                assert closed == _forest_block_factor(roots, weights), (roots, weights)


def test_block_factor_forms_agree_past_eight_vertices():
    # r + p reaches 17: the enumeration walks trees on the p + 1 <= 6
    # vertices of the merged root and the block, however many roots
    for roots in range(1, 13):
        for weights in [(1,), (2, 5), (3, 1, 4), (5, 5, 5), (1, 1, 1, 1), (2, 7, 1, 8, 2)]:
            closed = _cayley_block_factor(roots, weights)
            assert closed == _forest_block_factor(roots, weights), (roots, weights)
            assert closed == block_factor_by_degrees(roots, weights), (roots, weights)


class CoefficientOracle:
    """A stub oracle whose values make every coefficient of the sum
    readable: its value at (g, core, nu~) is (g + 1) * B**k, k the index
    of (core, nu~) among the pairs the sum may query and B above any
    coefficient, so two sums are equal iff every coefficient is.  A
    query outside those pairs raises ``KeyError``."""

    BASE = 10**40

    def __init__(self, mu, nu):
        pairs = {
            (tuple(mu[i] for i in core), nut)
            for core in index_subsets(len(mu))
            for nut in bounded_tuples(nu)
        }
        self.index = {pair: k for k, pair in enumerate(sorted(pairs))}

    def __call__(self, g, core, nut):
        return Fraction((g + 1) * self.BASE ** self.index[core, nut])


def test_assignment_enumeration_equals_the_filtered_sum():
    # the two forms of the main theorem, and the face sum with the leaf
    # sum's block factor, which gives the pruned counts
    forms = [
        (reconstruct_double_hurwitz, _cayley_block_factor),
        (reconstruct_via_forests, _forest_block_factor),
        (functools.partial(face_sum, block_factor=leaf_block_factor), leaf_block_factor),
    ]
    for d in range(1, 7):
        for nu in partitions(d):
            if len(nu) < 2:
                continue
            for mu in partitions(d):
                for mu_order in sorted(set(permutations(mu))):
                    oracle = CoefficientOracle(mu_order, nu)
                    for g in range(3):
                        for form, factor in forms:
                            got = form(g, mu_order, nu, oracle)
                            want = reconstruct_by_filtering(g, mu_order, nu, oracle, factor)
                            assert got == want, (g, mu_order, nu, factor.__name__)


def test_oracle_calls_at_most_one_per_core_and_reduced_faces():
    # the generate-and-filter sum queried 711 (core, nu~) pairs here; the
    # assignment enumeration queries each distinct pair with a block
    # assignment once
    calls = []

    def constant(g, mu, nu):
        calls.append((mu, nu))
        return Fraction(1)

    for form in (reconstruct_double_hurwitz, reconstruct_via_forests):
        calls.clear()
        assert form(0, (1,) * 8, (3, 3, 2), constant) == 272773225
        assert len(calls) == len(set(calls)) == 18


def test_oracle_is_never_asked_for_a_degenerate_value():
    # every core is non-empty and balanced against its reduced faces;
    # the cut-and-join battery shapes (d <= 5, g <= 1, l(nu) >= 3) and
    # its genus-2 shapes
    oracle = strict(lambda g, mu, nu: Fraction(1 + g, len(mu) + len(nu)))
    shapes = [
        (g, mu, nu)
        for d in range(1, 6) for g in range(3) for mu in partitions(d) for nu in partitions(d)
        if len(nu) >= 3 and (0 < 2 * g - 2 + len(mu) + len(nu) <= 5 if g < 2 else d in (3, 4))
    ]
    assert len(shapes) == 58
    for g, mu, nu in shapes:
        reconstruct_double_hurwitz(g, mu, nu, oracle)
        reconstruct_via_forests(g, mu, nu, oracle)


def test_evaluators_leave_no_cycle_garbage():
    engine = HurwitzEngine()
    runs = [
        lambda: reconstruct_double_hurwitz(0, (2, 2, 1), (3, 2), engine.phat),
        lambda: reconstruct_via_forests(0, (2, 2, 1), (3, 2), engine.phat),
        lambda: verify_recursion(1, (2, 2), (2, 1, 1), engine, variant="corrected"),
    ]
    for run in runs:
        run()  # fill the engine's memo first
    gc.collect()
    gc.disable()
    try:
        for run in runs:
            run()
            assert gc.collect() == 0
    finally:
        gc.enable()


def random_values(seed):
    """Random rationals, one per (g, mu, nu) up to the order of parts."""
    rng = random.Random(seed)
    values = {}

    def value(g, mu, nu):
        key = g, tuple(sorted(mu)), tuple(sorted(nu))
        if key not in values:
            values[key] = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        return values[key]

    return value


def small_types(min_nu_parts):
    return [
        (g, mu, nu)
        for g in range(2) for d in range(2, 7) for mu in partitions(d) for nu in partitions(d)
        if len(nu) >= min_nu_parts
    ]


def test_the_reconstruction_inverts_the_leaf_sum():
    # for any values f in place of H, the main theorem rebuilds f from
    # the modified PH that the leaf sum makes of f: it is the inverse of
    # the leaf sum, whatever f is.  So with PH from the leaf sum of the
    # enumeration's full counts, verify main-theorem checks the
    # characters against those counts, and the pruned-ness is tied to
    # its definition by the permutation search and the pinned counts
    # of test_factorizations
    full = random_values(36)
    pruned = leaf_sum(full)

    def phat(g, mu, nu):
        return classes_from_value(g, mu, nu, pruned(g, mu, nu))

    types = small_types(2)
    assert len(types) == 360
    for g, mu, nu in types:
        assert reconstruct_double_hurwitz(g, mu, nu, phat) == full(g, mu, nu), (g, mu, nu)


def test_the_corrected_cut_and_join_is_not_formal():
    # unlike the main theorem, the corrected cut-and-join does not hold
    # for the leaf sum of any values: on random ones it fails at every
    # instance, so verify cut-and-join checks the values themselves
    pruned = functools.cache(leaf_sum(random_values(36)))
    types = small_types(3)
    assert len(types) == 236
    for g, mu, nu in types:
        rhs = sum(term.value for term in cut_and_join_terms(g, mu, nu, pruned, variant="corrected"))
        assert rhs != pruned(g, mu, nu), (g, mu, nu)


def test_the_leaf_sum_of_h_is_ph():
    # the leaf sum of the characters' H against the engine's PH, which
    # sums the enumeration's full counts: every g <= 1, d <= 6, m >= 1
    pruned = functools.cache(leaf_sum(ENGINE.double))
    for g in range(2):
        for d in range(1, 7):
            for mu in partitions(d):
                for nu in partitions(d):
                    if 2 * g - 2 + len(mu) + len(nu) >= 1:
                        assert pruned(g, mu, nu) == ENGINE.pruned(g, mu, nu), (g, mu, nu)


def test_the_leaf_sum_of_the_characters_at_scale():
    # face_sum with the leaf factor over the characters' H, past the
    # enumeration's reach: each value was found by two methods, the
    # leaf sum and the main theorem solved for its top term
    table = CharacterTable()

    def double(g, mu, nu):
        return table.double_hurwitz(
            g, tuple(sorted(mu, reverse=True)), tuple(sorted(nu, reverse=True))
        )

    assert face_sum(2, (6, 6, 6), (9, 9), double, leaf_block_factor) == 336_236_588_352
    assert face_sum(1, (12, 12), (9, 8, 7), double, leaf_block_factor) == 106_583_040
