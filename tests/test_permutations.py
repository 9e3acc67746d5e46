import pytest

from oracles import (
    all_transposition_pairs,
    apply_after,
    canonical_permutation,
    cycle_index_map,
    identity_permutation,
    perm_cycles,
    perm_inverse,
    perm_type,
    transposition_images,
)


def test_compose_basics():
    ident = identity_permutation(3)
    t12 = transposition_images(3, 0, 1)
    assert apply_after(ident, t12) == t12
    assert apply_after(t12, t12) == ident


def test_compose_applies_right_factor_first():
    # evaluate a(b(x)) at every point
    a = transposition_images(3, 0, 1)
    b = transposition_images(3, 1, 2)
    got = apply_after(a, b)
    assert got == tuple(a[b[x]] for x in range(3))
    # 0 -> 1 -> 2 -> 0, a single 3-cycle
    assert got == (1, 2, 0)
    assert perm_type(got) == (3,)


def test_cycle_type():
    assert perm_type(identity_permutation(3)) == (1, 1, 1)
    assert perm_type((1, 2, 0)) == (3,)
    assert perm_type((1, 0, 3, 4, 2)) == (3, 2)


def test_canonical_permutation():
    assert canonical_permutation((2,)) == (1, 0)
    assert canonical_permutation((1, 1)) == (0, 1)
    # (2,3) -> (0 1)(2 3 4)
    p = canonical_permutation((2, 3))
    assert p == (1, 0, 3, 4, 2)
    assert perm_type(p) == (3, 2)
    assert [len(c) for c in perm_cycles(p)] == [2, 3]


def test_cycle_index_map():
    assert cycle_index_map((2, 3)) == (0, 0, 1, 1, 1)


def test_inverse_roundtrip():
    for p in [(1, 0, 3, 4, 2), (2, 0, 1), (0,), (3, 2, 1, 0)]:
        assert apply_after(p, perm_inverse(p)) == identity_permutation(len(p))
        assert apply_after(perm_inverse(p), p) == identity_permutation(len(p))


def test_all_transposition_pairs():
    assert all_transposition_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(all_transposition_pairs(6)) == 15


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        apply_after((0, 1), (0, 1, 2))
