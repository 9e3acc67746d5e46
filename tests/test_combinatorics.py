import math
import sys

import pytest

from prunedhurwitz.combinatorics import (
    automorphism_factor,
    bell_number,
    centralizer_order,
    exact,
    partitions,
)

from oracles import (
    apply_after,
    bounded_tuples,
    compositions,
    index_subsets,
    multinomial,
    ordered_set_partitions,
    perm_type,
)


def test_multinomial_examples():
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(1, (0, 1, 0)) == 1
    assert multinomial(2, (3, -1)) == 0
    assert multinomial(2, (1, 0)) == 0  # parts must sum to n
    assert multinomial(0, ()) == 1
    assert multinomial(-1, (0,)) == 0


def test_multinomial_factorial_identity():
    # multinomial(n, parts) * prod(parts!) == n! whenever valid
    for n in range(7):
        for k in range(1, 4):
            for parts in compositions(n, k):
                lhs = multinomial(n, parts)
                for p in parts:
                    lhs *= math.factorial(p)
                assert lhs == math.factorial(n)


def test_automorphism_factor():
    assert automorphism_factor((2, 3)) == 1
    assert automorphism_factor((1, 1)) == 2
    assert automorphism_factor((2, 2, 2, 1)) == 6


def test_centralizer_order_small():
    assert centralizer_order((3,)) == 3
    assert centralizer_order((1, 1)) == 2


def test_centralizer_order_matches_brute_force():
    # (2,2): permutations of S_4 commuting with (01)(23)
    fixed = (1, 0, 3, 2)
    from itertools import permutations

    commuting = sum(
        1
        for p in permutations(range(4))
        if apply_after(p, fixed) == apply_after(fixed, p)
    )
    assert commuting == 8 == centralizer_order((2, 2))


def test_centralizer_counts_class_size():
    # |S_d| / |Z| = number of permutations of the given type
    from itertools import permutations

    for mu in [(2,), (1, 1), (3,), (2, 1), (2, 2), (3, 1)]:
        d = sum(mu)
        target = tuple(sorted(mu, reverse=True))
        size = sum(1 for p in permutations(range(d)) if perm_type(p) == target)
        assert size == math.factorial(d) // centralizer_order(mu)


def test_bounded_tuples():
    assert list(bounded_tuples((1, 2))) == [(1, 1), (1, 2)]
    assert list(bounded_tuples((1,))) == [(1,)]
    assert len(list(bounded_tuples((2, 2)))) == 4
    got = list(bounded_tuples((3, 2, 2)))
    assert got == sorted(got)
    assert len(got) == 12


def test_ordered_set_partitions():
    assert list(ordered_set_partitions((1,), 2)) == [((1,), ()), ((), (1,))]
    assert list(ordered_set_partitions((), 3)) == [((), (), ())]
    four = list(ordered_set_partitions((1, 2), 2))
    assert len(four) == 4
    for ground_size in range(4):
        ground = tuple(range(ground_size))
        for n in range(1, 4):
            blocks_list = list(ordered_set_partitions(ground, n))
            assert len(blocks_list) == n**ground_size
            assert len(set(blocks_list)) == len(blocks_list)
            for blocks in blocks_list:
                merged = sorted(x for b in blocks for x in b)
                assert merged == list(ground)


def test_partitions():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert [len(list(partitions(n))) for n in range(13)] == counts
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(1, 13):
        seen = list(partitions(n))
        assert len(set(seen)) == len(seen)
        assert all(sum(p) == n and list(p) == sorted(p, reverse=True) for p in seen)


def test_compositions():
    for total in range(6):
        for length in range(1, 4):
            out = list(compositions(total, length))
            assert len(out) == math.comb(total + length - 1, length - 1)
            assert all(sum(c) == total and len(c) == length for c in out)
            assert len(set(out)) == len(out)


def test_subsets():
    assert list(index_subsets(2)) == [(), (0,), (1,), (0, 1)]
    assert len(list(index_subsets(5))) == 32


def test_fraction_arithmetic_is_exact_and_reduced():
    # cross-check Fraction against independent integer cross-multiplication
    from fractions import Fraction
    from math import gcd

    values = [(a, b) for a in range(-6, 7) for b in range(1, 7)]
    for a, b in values[::7]:
        for c, d in values[::5]:
            s = Fraction(a, b) + Fraction(c, d)
            assert s.numerator * b * d == (a * d + c * b) * s.denominator
            p = Fraction(a, b) * Fraction(c, d)
            assert p.numerator * b * d == a * c * p.denominator
            assert gcd(abs(s.numerator), s.denominator) == 1
            assert s.denominator > 0


def test_exact_converts_past_the_int_to_str_digit_limit():
    # 16,902 digits both ways under the least limit the interpreter
    # accepts, which is the caller's before and after
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for n in (7**20_000 + 1, -(10**5000), 0, 4300):
            text = exact(str, n)
            assert exact(int, text) == n
            assert sys.get_int_max_str_digits() == 640
        assert len(exact(str, 7**20_000)) == 16_902
        assert exact(str, -(10**5000)) == "-1" + "0" * 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_bell_numbers():
    assert [bell_number(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    # against the set partitions of a 5-element set, counted directly
    blocks = {
        frozenset(frozenset(b) for b in parts if b)
        for k in range(1, 6)
        for parts in ordered_set_partitions(range(5), k)
    }
    assert len(blocks) == bell_number(5)
