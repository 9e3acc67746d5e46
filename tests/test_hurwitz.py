import json
import sys
import time
from fractions import Fraction

import pytest

from prunedhurwitz import characters, hurwitz
from prunedhurwitz.cache import CACHE_VERSION, evaluator_of
from prunedhurwitz.combinatorics import partitions
from prunedhurwitz.factorizations import classes_from_value
from prunedhurwitz.hurwitz import Conventions, HurwitzEngine, Kind

from oracles import fully_ramified_orbit_count, search_count

ENGINE = HurwitzEngine()


def F(a, b=1):
    return Fraction(a, b)


def current(rec: dict) -> dict:
    """``rec`` with the schema version and the evaluator the engine
    writes now, so that its other fields decide whether it loads."""
    key = (rec["g"], tuple(rec["mu"]), tuple(rec["nu"]), rec["kind"])
    return {**rec, "version": CACHE_VERSION, "evaluator": evaluator_of(key)}


def no_evaluation(*args, **kwargs):
    raise AssertionError("evaluated a cached value")


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


def test_multiset_invariance():
    # each ordering by a fresh engine: one engine would read the first
    # ordering's memo entry, since the key sorts the parts
    for g, mu, nu, other_mu, other_nu in [
        (0, (3, 2), (4, 1), (2, 3), (1, 4)),
        (1, (1, 2), (2, 1), (2, 1), (1, 2)),
        (1, (1, 2, 3), (3, 3), (3, 1, 2), (3, 3)),
    ]:
        for kind in Kind:
            assert HurwitzEngine().value(g, mu, nu, kind) == \
                HurwitzEngine().value(g, other_mu, other_nu, kind), (g, mu, nu, kind)


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
    # the closed form the modified value is read off leaves PH unchanged
    # off mu = nu = (d), whatever the value: the plain and the corrected
    # cut-and-join statements read the same genus-drop and join cores
    for d in range(1, 9):
        for g in range(4):
            for mu in partitions(d):
                for nu in partitions(d):
                    if len(mu) == 1 and len(nu) == 1:
                        continue
                    for x in (Fraction(0), Fraction(1), Fraction(7, 3)):
                        assert classes_from_value(g, mu, nu, x) == x, (g, mu, nu, x)


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


def test_modified_pruned_keeps_the_pruned_value():
    # the fully ramified modified value is read off PH, with the
    # half-turn term of even d: the pruned value it stores equals a
    # fresh engine's (at m = 0 nothing is stored)
    for d in range(1, 7):
        for g in (1, 2):
            engine = HurwitzEngine()
            engine.modified_pruned(g, (d,), (d,))
            kept = engine._values[(g, (d,), (d,), "PH")]
            assert kept == HurwitzEngine().pruned(g, (d,), (d,)), (d, g)


def test_phat_and_ph_raise_on_degenerate_arguments():
    # the evaluators never ask for these; the zero extension the
    # generate-and-filter references need lives in tests/oracles.py
    for oracle in (ENGINE.phat, ENGINE.pruned):
        for g, mu, nu in [(-1, (2,), (2,)), (0, (), (1,)), (0, (2,), ()), (0, (2,), (1,))]:
            with pytest.raises(ValueError):
                oracle(g, mu, nu)
    assert ENGINE.phat(1, (3, 3), (4, 2)) == ENGINE.modified_pruned(1, (3, 3), (4, 2))


def test_m0_convention_flag():
    flagged = HurwitzEngine(Conventions(m0_pruned=True))
    assert ENGINE.pruned(0, (2,), (2,)) == 0
    assert flagged.pruned(0, (2,), (2,)) == Fraction(1, 2)
    assert flagged.modified_pruned(0, (2,), (2,)) == 1
    # the convention only touches m = 0 queries
    assert flagged.pruned(0, (2,), (1, 1)) == ENGINE.pruned(0, (2,), (1, 1))


def test_m0_values_equal_the_naive_oracle():
    # genus 0, (d)|(d), answered in closed form, under both conventions:
    # H and PH against the permutation search's count of the empty
    # sequence, the modified PH against the orbits counted one by one
    for m0_pruned in (False, True):
        engine = HurwitzEngine(Conventions(m0_pruned=m0_pruned))
        for d in range(1, 7):
            full, pruned = (search_count(0, (d,), (d,), mode, m0_pruned) for mode in (False, True))
            assert engine.double(0, (d,), (d,)) == F(full, d) == F(1, d)
            assert engine.pruned(0, (d,), (d,)) == F(pruned, d), (d, m0_pruned)
            assert engine.modified_pruned(0, (d,), (d,)) == \
                fully_ramified_orbit_count(d, 0, m0_pruned), (d, m0_pruned)


def test_m0_values_reach_no_evaluator(monkeypatch):
    # the characters once built d hook shapes of up to d rows for 1/d
    monkeypatch.setattr(characters.CharacterTable, "double_hurwitz", no_evaluation)
    monkeypatch.setattr(hurwitz, "count_factorizations", no_evaluation)
    start = time.perf_counter()
    assert HurwitzEngine().double(0, (100000,), (100000,)) == F(1, 100000)
    assert time.perf_counter() - start < 1


def test_no_m0_value_is_stored(tmp_path):
    path = tmp_path / "cache.jsonl"
    for m0_pruned in (False, True):
        engine = HurwitzEngine(Conventions(m0_pruned=m0_pruned), cache_path=str(path))
        for d in range(1, 6):
            for kind in Kind:
                engine.value(0, (d,), (d,), kind)
            assert engine.tuple_count(0, (d,), (d,), pruned=True) == int(m0_pruned)
        assert not engine._values
    assert not path.exists()


def test_older_m0_records_are_skipped_silently(tmp_path, caplog, monkeypatch):
    # older writers stored H and PH at m = 0, PH keyed on the convention;
    # none of them is read, whatever its value, and there is nothing to
    # warn of, while the other records load with or without a conv field
    path = tmp_path / "cache.jsonl"
    rows = [
        current({"g": 0, "mu": [3], "nu": [3], "kind": kind, "num": "7", "den": "1",
                 "conv": {"m0_pruned": m0_pruned}})
        for kind in ("H", "PH") for m0_pruned in (False, True)
    ]
    rows += [
        current({"g": 0, "mu": [2, 3], "nu": [1, 4], "kind": "H", "num": "8", "den": "1",
                 "conv": {"m0_pruned": True}}),
        current({"g": 1, "mu": [3], "nu": [2, 1], "kind": "PH", "num": "9", "den": "1"}),
        # of another version at m = 0: not even counted as stale
        {"g": 0, "mu": [4], "nu": [4], "kind": "PH", "num": "5", "den": "1"},
    ]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in rows))
    import logging

    monkeypatch.setattr(characters.CharacterTable, "double_hurwitz", no_evaluation)
    monkeypatch.setattr(hurwitz, "count_factorizations", no_evaluation)
    for m0_pruned in (False, True):
        with caplog.at_level(logging.WARNING):
            engine = HurwitzEngine(Conventions(m0_pruned=m0_pruned), cache_path=str(path))
        assert not caplog.records
        assert engine._values == {(0, (3, 2), (4, 1), "H"): 8, (1, (3,), (2, 1), "PH"): 9}
        assert engine.double(0, (3,), (3,)) == F(1, 3)
        assert engine.pruned(0, (3,), (3,)) == F(int(m0_pruned), 3)
    assert len(path.read_text().splitlines()) == len(rows)


def test_the_m0_convention_changes_only_ph_at_m0():
    # why no stored value depends on the convention, the engine answering
    # m = 0 in closed form: over g <= 2, d <= 5 and the three kinds (792
    # values) the two conventions differ at genus 0, (d)|(d) only, and not in H
    engines = [HurwitzEngine(Conventions(m0_pruned=m0_pruned)) for m0_pruned in (False, True)]
    keys = [
        (g, mu, nu, kind)
        for d in range(1, 6)
        for mu in partitions(d)
        for nu in partitions(d)
        for g in range(3)
        for kind in Kind
    ]
    assert len(keys) == 792
    differ = {key for key in keys if len({engine.value(*key) for engine in engines}) == 2}
    assert differ == {
        (0, (d,), (d,), kind) for d in range(1, 6) for kind in (Kind.PRUNED, Kind.MODIFIED_PRUNED)
    }


def test_query_validation(tmp_path):
    with pytest.raises(ValueError):
        ENGINE.value(0, (2,), (1, 1, 1), Kind.FULL)
    with pytest.raises(ValueError):
        ENGINE.value(-1, (2,), (2,), Kind.FULL)
    with pytest.raises(ValueError):
        ENGINE.double(0, (2, 0), (1, 1))
    # the genus and every part must be an int that is not a bool: int()
    # would read (2.7, 1) as (2, 1) and "21" as (2, 1), and a float or
    # boolean genus would be written to the cache file, whose parser
    # refuses it
    path = tmp_path / "cache.jsonl"
    engine = HurwitzEngine(cache_path=str(path))
    for g, mu, nu in [
        (0, (2.7, 1), (2, 1)),
        (0, "21", "3"),
        (0, (2, 1), (True, 2)),
        (1.5, (3,), (3,)),
        (True, (2,), (2,)),
        ("0", (2,), (2,)),
    ]:
        for kind in Kind:
            with pytest.raises(ValueError):
                engine.value(g, mu, nu, kind)
    assert not path.exists()


def test_a_kind_that_is_not_a_kind_is_refused(tmp_path):
    # a tag is not a Kind: "H" must not be read as some other flavour
    path = tmp_path / "cache.jsonl"
    engine = HurwitzEngine(cache_path=str(path))
    for kind in ["H", "PH", "PHHAT", None, 0]:
        with pytest.raises(ValueError, match="Kind"):
            engine.value(0, (2, 3), (1, 4), kind)
    assert not path.exists()
    assert engine.value(0, (2, 3), (1, 4), Kind.FULL) == 8


def test_persistent_cache_roundtrip(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    first = HurwitzEngine(cache_path=str(path))
    value = first.double(0, (2, 3), (1, 4))
    assert value == 8
    assert path.exists()
    # a fresh engine answers from the file, sorted-key lookup included,
    # and recovers the tuple count from the cached value
    second = HurwitzEngine(cache_path=str(path))
    monkeypatch.setattr(characters.CharacterTable, "double_hurwitz", no_evaluation)
    assert second.double(0, (3, 2), (4, 1)) == 8
    assert second.tuple_count(0, (3, 2), (4, 1), pruned=False) == 48


def test_h_is_evaluated_and_stored_once_per_unordered_pair(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    calls = []
    original = characters.CharacterTable.double_hurwitz

    def counted(table, g, mu, nu):
        calls.append((g, mu, nu))
        return original(table, g, mu, nu)

    monkeypatch.setattr(characters.CharacterTable, "double_hurwitz", counted)
    engine = HurwitzEngine(cache_path=str(path))
    assert engine.double(0, (2, 3), (1, 4)) == engine.double(0, (1, 4), (2, 3)) == 8
    assert len(calls) == 1
    (record,) = [json.loads(line) for line in path.read_text().splitlines()]
    # the smaller profile first
    assert (record["mu"], record["nu"]) == ([3, 2], [4, 1])
    # the tuple count still divides by the requested orientation's
    # normalisation: 48 sequences for sigma1 of type (3, 2), 32 for (4, 1)
    assert engine.tuple_count(0, (2, 3), (1, 4), pruned=False) == 48
    assert engine.tuple_count(0, (1, 4), (2, 3), pruned=False) == 32


def test_a_record_of_the_other_orientation_answers(tmp_path, monkeypatch):
    # files made before H was keyed on the unordered pair may hold only
    # the orientation that was asked for
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(current(
        {"g": 0, "mu": [4, 1], "nu": [3, 2], "kind": "H", "num": "8", "den": "1",
         "conv": Conventions().as_dict()}
    )) + "\n")
    monkeypatch.setattr(characters.CharacterTable, "double_hurwitz", no_evaluation)
    engine = HurwitzEngine(cache_path=str(path))
    assert engine.double(0, (1, 4), (2, 3)) == engine.double(0, (2, 3), (1, 4)) == 8
    assert len(path.read_text().splitlines()) == 1


def test_cache_is_shared_across_stability_readings(tmp_path, monkeypatch):
    # a record whose conventions also carry the cut-and-join stability
    # reading, as older writers added, answers without enumeration, under
    # either m = 0 convention: no stored value depends on one
    path = tmp_path / "cache.jsonl"
    conv = {"m0_pruned": True, "stability_reading": "facecount"}
    path.write_text("".join(json.dumps(current(rec)) + "\n" for rec in [
        {"g": 1, "mu": [3], "nu": [2, 1], "kind": "PH", "num": "9", "den": "1", "conv": conv},
        {"g": 1, "mu": [3], "nu": [3], "kind": "PH", "num": "2", "den": "1", "conv": conv},
    ]))
    monkeypatch.setattr(hurwitz, "count_factorizations", no_evaluation)
    for conventions in (Conventions(), Conventions(m0_pruned=True)):
        engine = HurwitzEngine(conventions, cache_path=str(path))
        assert engine.pruned(1, (3,), (2, 1)) == 9 and engine.pruned(1, (3,), (3,)) == 2


def test_a_value_the_m0_convention_does_not_change_is_stored_once(tmp_path, monkeypatch):
    # H and PH at m >= 1, computed under one convention, answer under the
    # other from the file, and no second record is written
    path = tmp_path / "cache.jsonl"
    first = HurwitzEngine(cache_path=str(path))
    values = first.double(0, (2, 3), (1, 4)), first.pruned(0, (2, 3), (1, 4))
    monkeypatch.setattr(characters.CharacterTable, "double_hurwitz", no_evaluation)
    monkeypatch.setattr(hurwitz, "count_factorizations", no_evaluation)
    other = HurwitzEngine(Conventions(m0_pruned=True), cache_path=str(path))
    assert (other.double(0, (3, 2), (4, 1)), other.pruned(0, (3, 2), (4, 1))) == values
    assert len(path.read_text().splitlines()) == 2


def test_cache_skips_malformed_and_foreign_records(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    conv = Conventions().as_dict()
    rows = [
        "not json at all",
        json.dumps(current({"g": 1, "mu": [2], "nu": [2], "kind": "H", "num": "1", "den": "0",
                            "conv": conv})),
        json.dumps({"g": 0, "mu": [2], "nu": [2], "kind": "WRONG", "num": "1", "den": "2",
                    "conv": conv, "version": CACHE_VERSION, "evaluator": "characters"}),
        json.dumps(current({"g": 0, "mu": [2], "nu": [2], "kind": "PH", "num": "77", "den": "1",
                            "conv": {"m0_pruned": True, "stability_reading": "literal"}})),
        json.dumps(current({"g": 1, "mu": [2], "nu": [2], "kind": "H", "num": "1", "den": "2",
                            "conv": conv})),
    ]
    path.write_text("\n".join(rows) + "\n")
    import logging

    with caplog.at_level(logging.WARNING):
        engine = HurwitzEngine(cache_path=str(path))
    assert engine._values == {(1, (2,), (2,), "H"): Fraction(1, 2)}
    # the den=0 and non-json rows warned; the PH row at m = 0, which an
    # older writer made under the other convention, is silently ignored
    # and must not leak its bogus value
    assert len(caplog.records) >= 2
    assert engine.pruned(0, (2,), (2,)) == 0


def test_cache_rejects_booleans_floats_and_loose_strings(tmp_path, caplog):
    # JSON true equals 1 and 8.9 truncates to 8 under int(); neither may
    # stand in for a genus, a part or a numerator
    path = tmp_path / "cache.jsonl"
    conv = Conventions().as_dict()
    bogus = [
        {"g": True, "mu": [2], "nu": [1, 1], "kind": "PH", "num": "5", "den": "1"},
        {"g": 0, "mu": [True, 1], "nu": [2], "kind": "H", "num": "5", "den": "1"},
        {"g": 0, "mu": [2, 1], "nu": [3], "kind": "H", "num": 8.9, "den": "1"},
        {"g": 0, "mu": [2], "nu": [1, 1], "kind": "H", "num": "7", "den": True},
        {"g": 0, "mu": [3], "nu": [2, 1], "kind": "H", "num": " 7", "den": "1"},
        {"g": 0, "mu": [2, 2], "nu": [3, 1], "kind": "H", "num": "1_0", "den": "1"},
        {"g": 0, "mu": [4], "nu": [3, 1], "kind": "H", "num": "--7", "den": "1"},
        {"g": 0, "mu": [4], "nu": [2, 2], "kind": "H", "num": "\u0663", "den": "1"},
    ]
    path.write_text("".join(json.dumps(current({**rec, "conv": conv})) + "\n" for rec in bogus))
    import logging

    with caplog.at_level(logging.WARNING):
        engine = HurwitzEngine(cache_path=str(path))
    assert [r.args[1] for r in caplog.records] == list(range(1, len(bogus) + 1))
    assert not engine._values
    fresh = HurwitzEngine()
    assert engine.pruned(1, (2,), (2,)) == fresh.pruned(1, (2,), (2,)) == F(1, 2)
    assert engine.double(0, (1, 1), (2,)) == fresh.double(0, (1, 1), (2,))
    assert engine.double(0, (2, 1), (3,)) == fresh.double(0, (2, 1), (3,))
    assert engine.double(0, (2,), (1, 1)) == fresh.double(0, (2,), (1, 1))
    assert engine.double(0, (3,), (2, 1)) == fresh.double(0, (3,), (2, 1))
    assert engine.double(0, (2, 2), (3, 1)) == fresh.double(0, (2, 2), (3, 1))
    # integers written as JSON numbers still load
    path.write_text(json.dumps(current(
        {"g": 1, "mu": [2], "nu": [2], "kind": "H", "num": 3, "den": 4, "conv": conv})) + "\n")
    assert HurwitzEngine(cache_path=str(path)).double(1, (2,), (2,)) == F(3, 4)


def test_records_name_their_evaluator(tmp_path):
    path = tmp_path / "cache.jsonl"
    engine = HurwitzEngine(cache_path=str(path))
    engine.double(0, (2, 3), (1, 4))
    engine.pruned(1, (3,), (2, 1))
    engine.modified_pruned(1, (4,), (4,))
    written = {
        (rec["kind"], len(rec["mu"]), len(rec["nu"])): (rec["version"], rec["evaluator"])
        for rec in map(json.loads, path.read_text().splitlines())
    }
    # the modified value of (4)|(4) is read off its PH record
    assert written == {
        ("H", 2, 2): (CACHE_VERSION, "characters"),
        ("PH", 1, 2): (CACHE_VERSION, "coloured"),
        ("PH", 1, 1): (CACHE_VERSION, "coloured"),
    }


def test_modified_pruned_shares_the_pruned_record(tmp_path, monkeypatch):
    # the modified value is a closed form of PH: it is read off PH's
    # key, so one record serves both, one-part profiles included
    path = tmp_path / "cache.jsonl"
    engine = HurwitzEngine(cache_path=str(path))

    def written():
        return [(rec["kind"], rec["evaluator"])
                for rec in map(json.loads, path.read_text().splitlines())]

    assert engine.phat(1, (3, 3), (4, 2)) == 1512
    assert written() == [("PH", "coloured")]
    # even d: the half-turn's fixed words make the two values differ
    assert engine.modified_pruned(2, (8,), (8,)) == 24896
    # odd d: they are equal
    assert engine.modified_pruned(2, (7,), (7,)) == 9604
    assert written() == [("PH", "coloured")] * 3
    warm = HurwitzEngine(cache_path=str(path))
    monkeypatch.setattr(hurwitz, "count_factorizations", no_evaluation)
    monkeypatch.setattr(hurwitz, "count_isomorphism_classes", no_evaluation)
    assert warm.phat(1, (3, 3), (4, 2)) == warm.pruned(1, (3, 3), (4, 2)) == 1512
    assert warm.modified_pruned(2, (8,), (8,)) == 24896
    assert warm.pruned(2, (8,), (8,)) == 24864
    assert warm.modified_pruned(2, (7,), (7,)) == warm.pruned(2, (7,), (7,)) == 9604
    assert len(written()) == 3


def test_older_modified_pruned_records_are_skipped_silently(tmp_path, caplog):
    # a PHHAT record parses, so it is not malformed, but nothing reads
    # it: even a wrong value in it, with the current version and the
    # evaluator older files named, is neither warned of nor used
    path = tmp_path / "cache.jsonl"
    rec = {"g": 2, "mu": [8], "nu": [8], "kind": "PHHAT", "num": "7", "den": "1",
           "conv": Conventions().as_dict(), "version": CACHE_VERSION,
           "evaluator": "burnside"}
    path.write_text(json.dumps(rec) + "\n")
    import logging

    with caplog.at_level(logging.WARNING):
        engine = HurwitzEngine(cache_path=str(path))
    assert not caplog.records
    assert not engine._values
    assert engine.modified_pruned(2, (8,), (8,)) == 24896


def test_records_of_the_parent_format_are_recomputed(tmp_path, caplog):
    # records without a schema version (the format before the evaluator
    # was named), or naming another evaluator, are never trusted: even a
    # wrong H in them is recomputed, and the right one appended
    path = tmp_path / "cache.jsonl"
    conv = Conventions().as_dict()
    rows = [
        {"g": 0, "mu": [2], "nu": [1, 1], "kind": "H", "num": "77", "den": "1", "conv": conv},
        {**current({"g": 0, "mu": [3], "nu": [2, 1], "kind": "H", "num": "78", "den": "1",
                    "conv": conv}), "evaluator": "coloured"},
        {**current({"g": 1, "mu": [2], "nu": [2], "kind": "PH", "num": "79", "den": "1",
                    "conv": conv}), "version": 1},
    ]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in rows))
    import logging

    with caplog.at_level(logging.WARNING):
        engine = HurwitzEngine(cache_path=str(path))
    assert not engine._values
    assert [r.args[1] for r in caplog.records] == [3]
    assert engine.double(0, (2,), (1, 1)) == 1
    assert engine.double(0, (3,), (2, 1)) == 1
    assert engine.pruned(1, (2,), (2,)) == F(1, 2)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        reloaded = HurwitzEngine(cache_path=str(path))._values
    # an H key holds the smaller profile first
    assert reloaded == {
        (0, (1, 1), (2,), "H"): 1,
        (0, (2, 1), (3,), "H"): 1,
        (1, (2,), (2,), "PH"): F(1, 2),
    }
    # every stale record now has a current one after it: nothing to warn of
    assert not caplog.records
    # a stale record whose key has no current record is still counted
    with path.open("a") as fh:
        fh.write(json.dumps({**rows[0], "mu": [1, 1]}) + "\n")
    with caplog.at_level(logging.WARNING):
        HurwitzEngine(cache_path=str(path))
    assert [r.args[1] for r in caplog.records] == [1]


def test_cache_unwritable_path_warns_but_computes(tmp_path, caplog):
    import logging

    bad = tmp_path / "missing-dir" / "cache.jsonl"
    with caplog.at_level(logging.WARNING):
        engine = HurwitzEngine(cache_path=str(bad))
        assert engine.double(0, (2,), (1, 1)) == 1
    assert any("not writable" in r.message for r in caplog.records)


def test_cache_value_past_the_int_to_str_digit_limit_is_written_and_read(
    tmp_path, caplog, monkeypatch
):
    # the record's decimal numerator is over the interpreter's default
    # limit: once warned about, recomputed and never persisted, it is
    # written and read back, and the caller's limit is kept
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    import logging

    limit = sys.get_int_max_str_digits()
    default = sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(default)
    try:
        path = tmp_path / "cache.jsonl"
        with caplog.at_level(logging.WARNING):
            value = HurwitzEngine(cache_path=str(path)).double(1400, (10,), (10,))
            assert sys.get_int_max_str_digits() == default
            monkeypatch.setattr(characters.CharacterTable, "double_hurwitz", None)
            assert HurwitzEngine(cache_path=str(path)).double(1400, (10,), (10,)) == value
            assert sys.get_int_max_str_digits() == default
    finally:
        sys.set_int_max_str_digits(limit)
    monkeypatch.undo()
    assert value == HurwitzEngine().double(1400, (10,), (10,))
    assert value.numerator > 10 ** 4300
    assert caplog.records == [] and len(path.read_text().splitlines()) == 1


def test_tuple_count_inverts_the_value():
    engine = HurwitzEngine()
    assert engine.tuple_count(1, (4, 4), (3, 5), pruned=True) == 100352
    assert engine.pruned(1, (4, 4), (3, 5)) == 6272
    # a value that no integer count normalises to is refused
    engine._values[(0, (1, 1), (2,), "H")] = Fraction(1, 3)
    with pytest.raises(ArithmeticError):
        engine.tuple_count(0, (2,), (1, 1), pruned=False)
