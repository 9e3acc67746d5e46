"""The characters' H against the enumeration, closed forms and pins."""

import math
import time
from fractions import Fraction

import pytest

from prunedhurwitz.characters import CharacterTable
from prunedhurwitz.combinatorics import centralizer_order, partition_count, partitions
from prunedhurwitz.factorizations import MoveTables, count_factorizations
from prunedhurwitz.hurwitz import HurwitzEngine, value_from_count

from oracles import (
    classical_cut_and_join,
    disconnected_by_shapes,
    genus_zero_tree_sum,
    hurwitz_genus_zero,
    trivalent_trees,
)


def hook_length_dimension(shape):
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for below in shape[i + 1:] if below > j)
            hooks *= arm + leg + 1
    return math.factorial(sum(shape)) // hooks


def test_characters_are_orthogonal_and_give_the_dimensions():
    table = CharacterTable()
    for d in range(1, 9):
        shapes = list(partitions(d))
        ones = table.column((1,) * d)
        assert ones == {shape: hook_length_dimension(shape) for shape in shapes}
        for mu in shapes:
            for nu in shapes:
                a, b = table.column(mu), table.column(nu)
                inner = sum(chi * b.get(shape, 0) for shape, chi in a.items())
                assert inner == (centralizer_order(mu) if mu == nu else 0), (mu, nu)


def test_content_value_sums_equal_the_per_shape_sums():
    # D(mu, nu, m) = sum of w_c c^m over the content values, against the
    # sum over the shapes: every column pair with d <= 10 and every
    # 0 <= m <= 2d, 68,170 sums, on two tables filled in opposite orders
    # and orientations; each keeps one entry per unordered pair
    pairs = [(mu, nu) for d in range(1, 11) for mu in partitions(d) for nu in partitions(d)]
    reference, forward, backward = CharacterTable(), CharacterTable(), CharacterTable()
    expected = {
        (mu, nu, m): value
        for mu, nu in pairs
        for m, value in enumerate(disconnected_by_shapes(reference, mu, nu, 2 * sum(mu)))
    }
    assert len(expected) == 68170
    for mu, nu, m in expected:
        assert forward._disconnected(mu, nu, m) == expected[mu, nu, m], (mu, nu, m)
    for mu, nu, m in reversed(expected):
        assert backward._disconnected(nu, mu, m) == expected[mu, nu, m], (mu, nu, m)
    unordered = sum(math.comb(partition_count(d) + 1, 2) for d in range(1, 11))
    assert len(forward.sums) == len(backward.sums) == unordered


def test_characters_give_the_cover_z_to_the_d():
    # the engine answers genus 0, (d)|(d) in closed form and no longer
    # asks the characters there: they still give its value, 1/d
    table = CharacterTable()
    for d in range(1, 13):
        assert table.double_hurwitz(0, (d,), (d,)) == Fraction(1, d), d


def test_characters_equal_the_enumeration():
    # every g <= 2, d <= 7 and m <= 7: 836 cases
    table = CharacterTable()
    tables = MoveTables()
    cases = 0
    for d in range(1, 8):
        shapes = list(partitions(d))
        for g in range(3):
            for mu in shapes:
                for nu in shapes:
                    if 2 * g - 2 + len(mu) + len(nu) > 7:
                        continue
                    n = count_factorizations(g, mu, nu, False, tables=tables)
                    assert table.double_hurwitz(g, mu, nu) == value_from_count(n, mu, nu), (g, mu, nu)
                    cases += 1
    assert cases == 836


def test_the_characters_are_symmetric_in_the_two_profiles():
    # H(g, mu, nu) = H(g, nu, mu), the premise of the engine's one H key
    # per unordered pair: every g <= 3, d <= 8 and mu < nu, 1,704 pairs
    table = CharacterTable()
    pairs = 0
    for d in range(1, 9):
        shapes = list(partitions(d))
        for g in range(4):
            for mu in shapes:
                for nu in shapes:
                    if mu < nu:
                        assert table.double_hurwitz(g, mu, nu) == table.double_hurwitz(g, nu, mu)
                        pairs += 1
    assert pairs == 1704


def test_the_classical_cut_and_join_holds_for_the_characters():
    # H from the characters on both sides of the cut-and-join of the
    # last transposition: every g <= 2, 2 <= d <= 7 and m >= 1, 1,293
    # cases, on one table
    table = CharacterTable()
    cases = 0
    for d in range(2, 8):
        shapes = list(partitions(d))
        for g in range(3):
            for mu in shapes:
                for nu in shapes:
                    if 2 * g - 2 + len(mu) + len(nu) >= 1:
                        rebuilt = classical_cut_and_join(g, mu, nu, table.double_hurwitz)
                        assert rebuilt == table.double_hurwitz(g, mu, nu), (g, mu, nu)
                        cases += 1
    assert cases == 1293


@pytest.mark.parametrize(
    "g, mu, nu", [(3, (10, 10, 10), (12, 9, 9)), (1, (3,) * 8, (4,) * 6)]
)
def test_the_classical_cut_and_join_holds_past_the_enumeration(g, mu, nu):
    # d = 30 and d = 24, with a fresh table each
    table = CharacterTable()
    rebuilt = classical_cut_and_join(g, mu, nu, table.double_hurwitz)
    assert rebuilt == table.double_hurwitz(g, mu, nu)


def test_pinned_values_beyond_the_enumeration():
    engine = HurwitzEngine()
    assert engine.double(1, (15, 15), (12, 18)) == 4_941_000
    assert engine.double(0, (3, 3, 3, 3), (4, 4, 2, 2)) == 27_371_520
    assert engine.double(1, (6, 9), (3, 12)) == 223_776
    assert engine.tuple_count(1, (15, 15), (12, 18), pruned=False) == 1_111_725_000


def test_genus_zero_chamber_form_up_to_degree_forty():
    # H0(a, b | c, e) = 2 max(c, e) inside the chamber c < a, b < e
    points = [
        ((6, 4), (7, 3)), ((5, 5), (9, 1)), ((7, 3), (8, 2)),
        ((11, 9), (14, 6)), ((12, 8), (19, 1)), ((10, 10), (17, 3)),
        ((17, 13), (25, 5)), ((16, 14), (20, 10)), ((15, 15), (29, 1)),
        ((21, 19), (30, 10)), ((23, 17), (39, 1)), ((20, 20), (24, 16)),
    ]
    start = time.perf_counter()
    for mu, nu in points:
        assert min(nu) < min(mu) and max(mu) < max(nu)
        assert HurwitzEngine().double(0, mu, nu) == 2 * max(nu), (mu, nu)
    assert time.perf_counter() - start < 3.0


def test_hurwitz_genus_zero_formula_up_to_degree_ten():
    # every nu with d <= 10: 138 cases
    engine = HurwitzEngine()
    cases = 0
    for d in range(1, 11):
        for nu in partitions(d):
            assert engine.double(0, (1,) * d, nu) == hurwitz_genus_zero(nu), nu
            cases += 1
    assert cases == 138


def test_hurwitz_genus_zero_formula_with_many_equal_parts():
    # the blocks of equal parts are summed once per sub-multiset: over
    # labelled subsets (1^16)|(2^8) took seconds
    start = time.perf_counter()
    for d, value in [
        (12, 1108358535110767253913600000),
        (16, 6312858643783999809455019313374167040000000),
        (24, 1982126635447442218712296539513990224921594509990430983190299331788800000000000),
    ]:
        nu = (2,) * (d // 2)
        assert HurwitzEngine().double(0, (1,) * d, nu) == hurwitz_genus_zero(nu) == value
    assert time.perf_counter() - start < 2.0


def test_genus_zero_tree_sum_equals_the_characters():
    # every profile with d <= 9 and 3 <= l(mu) + l(nu) <= 6: 589 cases
    assert [len(trivalent_trees(n)) for n in range(3, 7)] == [1, 3, 15, 105]
    engine = HurwitzEngine()
    cases = 0
    for d in range(1, 10):
        shapes = list(partitions(d))
        for mu in shapes:
            for nu in shapes:
                if 3 <= len(mu) + len(nu) <= 6:
                    assert genus_zero_tree_sum(mu, nu) == engine.double(0, mu, nu), (mu, nu)
                    cases += 1
    assert cases == 589
