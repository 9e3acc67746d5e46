import json
from fractions import Fraction

import pytest

from prunedhurwitz import hurwitz
from prunedhurwitz.hurwitz import Conventions, HurwitzEngine, HurwitzQuery, Kind

from oracles import partitions

ENGINE = HurwitzEngine()


def F(a, b=1):
    return Fraction(a, b)


def test_chamber_example_values():
    # the genus-0 two-by-two chamber c < a,b < d: H = 2d, PH = 2c
    assert ENGINE.double(0, (2, 3), (1, 4)) == 8
    assert ENGINE.pruned(0, (2, 3), (1, 4)) == 2
    for a, b, c, d in [(2, 4, 1, 5), (3, 4, 2, 5), (4, 5, 3, 6)]:
        assert ENGINE.double(0, (a, b), (c, d)) == 2 * d
        assert ENGINE.pruned(0, (a, b), (c, d)) == 2 * c


def test_small_exact_values():
    assert ENGINE.double(0, (1,), (1,)) == 1
    assert ENGINE.double(0, (2,), (2,)) == F(1, 2)
    assert ENGINE.double(0, (1, 1), (2,)) == 1
    assert ENGINE.pruned(0, (2,), (1, 1)) == 1
    assert ENGINE.pruned(0, (1, 1), (2,)) == 0
    assert ENGINE.pruned(1, (2,), (2,)) == F(1, 2)
    assert ENGINE.modified_pruned(1, (2,), (2,)) == 1
    assert ENGINE.modified_pruned(0, (2,), (1, 1)) == 1
    assert ENGINE.modified_pruned(0, (1, 1), (2,)) == 0


def test_pruned_vanishes_on_single_face_at_genus_zero():
    for d in range(1, 6):
        for mu in partitions(d):
            assert ENGINE.pruned(0, mu, (d,)) == 0


def test_pruned_is_not_symmetric():
    assert ENGINE.pruned(0, (2,), (1, 1)) == 1
    assert ENGINE.pruned(0, (1, 1), (2,)) == 0


def test_double_is_symmetric():
    for d in range(1, 5):
        for g in (0, 1):
            for mu in partitions(d):
                for nu in partitions(d):
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if m < 0 or m > 4:
                        continue
                    assert ENGINE.double(g, mu, nu) == ENGINE.double(g, nu, mu)


def test_multiset_invariance():
    assert ENGINE.double(0, (3, 2), (4, 1)) == ENGINE.double(0, (2, 3), (1, 4))
    assert ENGINE.pruned(0, (3, 2), (4, 1)) == ENGINE.pruned(0, (2, 3), (1, 4))
    assert ENGINE.modified_pruned(1, (1, 2), (2, 1)) == ENGINE.modified_pruned(1, (2, 1), (1, 2))


def test_edgeless_covers():
    # m = 0: the unique degree-d cover with both profiles a single part
    for d in (1, 2, 3, 4):
        assert ENGINE.double(0, (d,), (d,)) == Fraction(1, d)
        # not pruned under the default edgeless convention
        assert ENGINE.pruned(0, (d,), (d,)) == 0
        assert ENGINE.modified_pruned(0, (d,), (d,)) == 0


def test_pruned_bounded_by_full():
    for d in range(1, 5):
        for g in (0, 1):
            for mu in partitions(d):
                for nu in partitions(d):
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if m < 0 or m > 4:
                        continue
                    assert ENGINE.pruned(g, mu, nu) <= ENGINE.double(g, mu, nu)


def test_modified_equals_pruned_unless_fully_ramified():
    for d in range(1, 5):
        for g in (0, 1):
            for mu in partitions(d):
                for nu in partitions(d):
                    if len(mu) == 1 and len(nu) == 1:
                        continue
                    m = 2 * g - 2 + len(mu) + len(nu)
                    if m < 0 or m > 4:
                        continue
                    assert ENGINE.modified_pruned(g, mu, nu) == ENGINE.pruned(g, mu, nu)


def test_fully_ramified_family():
    # on (g,(d),(d)) the class count dominates the weighted count and
    # the gap is a multiple of 1/d
    for d in range(1, 5):
        for g in range(3):
            ph = ENGINE.pruned(g, (d,), (d,))
            phat = ENGINE.modified_pruned(g, (d,), (d,))
            assert phat >= ph
            gap = phat - ph
            assert (gap * d).denominator == 1


def test_phat_zero_extension():
    assert ENGINE.phat(-1, (2,), (2,)) == 0
    assert ENGINE.phat(0, (), (1,)) == 0
    assert ENGINE.phat(0, (2,), (1,)) == 0
    assert ENGINE.ph(-1, (2,), (2,)) == 0


def test_m0_convention_flag():
    flagged = HurwitzEngine(Conventions(m0_pruned=True))
    assert ENGINE.pruned(0, (2,), (2,)) == 0
    assert flagged.pruned(0, (2,), (2,)) == Fraction(1, 2)
    assert flagged.modified_pruned(0, (2,), (2,)) == 1
    # the convention only touches m = 0 queries
    assert flagged.pruned(0, (2,), (1, 1)) == ENGINE.pruned(0, (2,), (1, 1))


def test_query_validation():
    with pytest.raises(ValueError):
        HurwitzQuery(0, (2,), (1, 1, 1), Kind.FULL)
    with pytest.raises(ValueError):
        HurwitzQuery(-1, (2,), (2,), Kind.FULL)
    with pytest.raises(ValueError):
        ENGINE.double(0, (2, 0), (1, 1))


def test_persistent_cache_roundtrip(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    first = HurwitzEngine(cache_path=str(path))
    value = first.double(0, (2, 3), (1, 4))
    assert value == 8
    assert path.exists()
    # a fresh engine answers from the file, sorted-key lookup included,
    # and recovers the tuple count from the cached value
    second = HurwitzEngine(cache_path=str(path))

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated a cached value")

    monkeypatch.setattr(hurwitz, "count_factorizations", no_enumeration)
    assert second.double(0, (3, 2), (4, 1)) == 8
    assert second.tuple_count(0, (3, 2), (4, 1), pruned=False) == 48


def test_cache_skips_malformed_and_foreign_records(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    conv = Conventions().as_dict()
    rows = [
        "not json at all",
        json.dumps({"g": 0, "mu": [2], "nu": [2], "kind": "H", "num": "1", "den": "0", "conv": conv}),
        json.dumps({"g": 0, "mu": [2], "nu": [2], "kind": "WRONG", "num": "1", "den": "2", "conv": conv}),
        json.dumps({"g": 0, "mu": [2], "nu": [1, 1], "kind": "H", "num": "77", "den": "1",
                    "conv": {"m0_pruned": True, "stability_reading": "literal"}}),
        json.dumps({"g": 0, "mu": [2], "nu": [2], "kind": "H", "num": "1", "den": "2", "conv": conv}),
    ]
    path.write_text("\n".join(rows) + "\n")
    import logging

    with caplog.at_level(logging.WARNING):
        engine = HurwitzEngine(cache_path=str(path))
    assert engine.double(0, (2,), (2,)) == Fraction(1, 2)
    # the den=0 and non-json rows warned; the foreign-convention row is
    # silently ignored and must not leak its bogus value
    assert len(caplog.records) >= 2
    assert engine.double(0, (2,), (1, 1)) == 1


def test_cache_unwritable_path_warns_but_computes(tmp_path, caplog):
    import logging

    bad = tmp_path / "missing-dir" / "cache.jsonl"
    with caplog.at_level(logging.WARNING):
        engine = HurwitzEngine(cache_path=str(bad))
        assert engine.double(0, (2,), (1, 1)) == 1
    assert any("not writable" in r.message for r in caplog.records)


def test_tuple_count_inverts_the_value():
    engine = HurwitzEngine()
    assert engine.tuple_count(1, (4, 4), (3, 5), pruned=True) == 100352
    assert engine.pruned(1, (4, 4), (3, 5)) == 6272
    # a value that no integer count normalises to is refused
    engine._values[(0, (2,), (1, 1), "H")] = Fraction(1, 3)
    with pytest.raises(ArithmeticError):
        engine.tuple_count(0, (2,), (1, 1), pruned=False)
