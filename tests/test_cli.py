import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prunedhurwitz import forests, hurwitz
from prunedhurwitz.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    rows = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, rows, out.err


def test_compute_full(capsys):
    code, rows, _ = run_cli(
        capsys, "compute", "--genus", "0", "--mu", "2,3", "--nu", "1,4",
        "--kind", "full", "--omit-timing",
    )
    assert code == 0
    (row,) = rows
    assert row["value"] == {"num": "8", "den": "1"}
    assert row["kind"] == "H"
    assert row["m"] == 2
    assert row["tuple_count"] == "48"
    assert row["wall"] is False
    assert "elapsed_seconds" not in row


def test_compute_pruned_and_modified(capsys):
    code, rows, _ = run_cli(
        capsys, "compute", "--genus", "0", "--mu", "2", "--nu", "1,1",
        "--kind", "pruned", "--omit-timing",
    )
    assert code == 0 and rows[0]["value"] == {"num": "1", "den": "1"}
    code, rows, _ = run_cli(
        capsys, "compute", "--genus", "1", "--mu", "2", "--nu", "2",
        "--kind", "modified-pruned", "--omit-timing",
    )
    assert code == 0 and rows[0]["value"] == {"num": "1", "den": "1"}
    code, rows, _ = run_cli(
        capsys, "compute", "--genus", "0", "--mu", "2", "--nu", "2",
        "--kind", "full", "--omit-timing",
    )
    assert code == 0 and rows[0]["value"] == {"num": "1", "den": "2"}


def test_conventions_carry_only_the_m0_convention(capsys):
    code, rows, _ = run_cli(
        capsys, "compute", "--genus", "0", "--mu", "2", "--nu", "1,1",
        "--kind", "pruned", "--omit-timing",
    )
    assert code == 0 and rows[0]["conventions"] == {"m0_pruned": False}
    # the stability reading is a verify option only
    for argv in (
        ["compute", "--genus", "0", "--mu", "2", "--nu", "1,1", "--stability-reading", "facecount"],
        ["fit", "--mu", "2,3", "--nu", "1,4", "--stability-reading", "facecount"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--genus", "0", "--mu", "nonsense", "--nu", "2"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "compute", "--genus", "0", "--mu", "3", "--nu", "2")
    assert code == 2 and "degree mismatch" in err


def test_budget_refusal_exit_3(capsys):
    code, rows, err = run_cli(
        capsys, "compute", "--genus", "2", "--mu", "5,5", "--nu", "5,5",
        "--budget", "1000",
    )
    assert code == 3 and not rows and "budget" in err
    # --force overrides (choose something actually tractable)
    code, rows, _ = run_cli(
        capsys, "compute", "--genus", "0", "--mu", "2,1", "--nu", "1,1,1",
        "--budget", "1", "--force", "--omit-timing",
    )
    assert code == 0 and rows[0]["value"] == {"num": "24", "den": "1"}


def test_search_deeper_than_python_recurses_is_refused_exit_3():
    # within the budget, but m = 1000 is deeper than the search recurses:
    # one stderr line and exit 3, --force or not, and no traceback
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PRUNEDHURWITZ_CACHE", None)
    argv = [sys.executable, "-m", "prunedhurwitz", "compute", "--genus", "500",
            "--mu", "3", "--nu", "3", "--kind", "pruned", "--omit-timing"]
    for extra in ([], ["--force"]):
        run = subprocess.run(argv + extra, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 3 and run.stdout == ""
        assert run.stderr.splitlines() == [
            "refusing: the search over m = 1000 transpositions recurses deeper than Python allows"
        ]


def test_verify_budget_refusal_exit_3(capsys):
    # every battery instance is checked before any report line
    code, rows, err = run_cli(capsys, "verify", "main-theorem", "--max-d", "3", "--budget", "10")
    assert code == 3 and not rows and "budget" in err
    code, rows, _ = run_cli(
        capsys, "verify", "main-theorem", "--max-d", "3", "--budget", "10",
        "--force", "--omit-timing",
    )
    assert code == 0 and rows[-1]["all_match"] is True
    # the poly base points are within 1000, the points scaled by 3 are not
    code, rows, err = run_cli(capsys, "verify", "poly", "--t-max", "3", "--budget", "1000")
    assert code == 3 and not rows and "budget" in err
    # the default budget refuses a main-theorem battery up to d = 9
    code, rows, err = run_cli(capsys, "verify", "main-theorem", "--max-d", "9")
    assert code == 3 and not rows and "budget" in err


def test_wall_refusal_exit_4(capsys):
    code, rows, err = run_cli(capsys, "fit", "--mu", "2,3", "--nu", "2,3")
    assert code == 4 and not rows and "wall" in err
    code, rows, _ = run_cli(
        capsys, "fit", "--mu", "2,3", "--nu", "2,3", "--allow-wall",
        "--t-max", "2", "--omit-timing",
    )
    assert code == 0 and rows[0]["wall"] is True


def test_fit_report(capsys):
    code, rows, _ = run_cli(
        capsys, "fit", "--mu", "2,3", "--nu", "1,4", "--kind", "pruned",
        "--omit-timing",
    )
    assert code == 0
    (row,) = rows
    assert row["degree"] == 1 and row["bound"] == 1 and row["bound_met"] is True
    assert row["coefficients"] == [{"num": "0", "den": "1"}, {"num": "2", "den": "1"}]


def test_verify_forests(capsys):
    code, rows, _ = run_cli(capsys, "verify", "forests", "--max-n", "4", "--omit-timing")
    assert code == 0
    assert rows[-1]["all_match"] is True
    assert all(r["match"] for r in rows if r.get("type") == "forests")


def test_verify_forests_refuses_max_n_above_the_bound(capsys, monkeypatch):
    # refused before any enumeration or report line, not after
    # enumerating every n up to the bound
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated forests")

    monkeypatch.setattr(forests, "enumerate_rooted_forests", no_enumeration)
    code, rows, err = run_cli(capsys, "verify", "forests", "--max-n", "9")
    assert code == 2 and not rows
    assert err.count("\n") == 1 and "--max-n 9" in err


@pytest.mark.parametrize("argv", [
    ("cut-and-join", "--max-d", "2"),  # the recursion needs l(nu) >= 3
    ("main-theorem", "--max-d", "0"),
    ("main-theorem", "--max-g", "-1"),
    ("main-theorem", "--max-m", "-1"),
    ("cut-and-join", "--max-g", "-1"),
    ("cut-and-join", "--max-m", "-1"),
    ("forests", "--max-n", "0"),
])
def test_empty_battery_is_a_usage_error(capsys, monkeypatch, argv):
    # refused before any evaluation, instead of reporting all_match:
    # true having checked nothing
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated")

    monkeypatch.setattr(hurwitz.HurwitzEngine, "value", no_evaluation)
    monkeypatch.setattr(forests, "enumerate_rooted_forests", no_evaluation)
    code, rows, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and not rows
    assert err.count("\n") == 1, err


def test_verify_poly(capsys):
    code, rows, _ = run_cli(capsys, "verify", "poly", "--t-max", "3", "--omit-timing")
    assert code == 0
    assert rows[-1]["all_match"] is True


def test_verify_main_theorem_small(capsys):
    code, rows, _ = run_cli(capsys, "verify", "main-theorem", "--max-d", "3", "--omit-timing")
    assert code == 0
    assert rows[-1]["all_match"] is True
    assert any(r.get("type") == "main-theorem" for r in rows)


def test_verify_cut_and_join_reports_mismatch_with_breakdown(capsys):
    # d = 4 reaches the first two-cycle split family, where the plain
    # statement overcounts; the run must flag it and emit the term
    # breakdown of the first failing instance, exiting 1
    code, rows, _ = run_cli(
        capsys, "verify", "cut-and-join", "--max-d", "4", "--omit-timing",
    )
    assert code == 1
    assert rows[-1]["all_match"] is False
    assert any(not r["match"] for r in rows if r.get("type") == "cut-and-join")
    assert any(r.get("type") == "cut-and-join-term" for r in rows)


def test_verify_cut_and_join_corrected_passes(capsys):
    code, rows, _ = run_cli(
        capsys, "verify", "cut-and-join", "--max-d", "4",
        "--variant", "corrected", "--omit-timing",
    )
    assert code == 0
    assert rows[-1]["all_match"] is True


def test_cache_file_roundtrip(tmp_path, capsys):
    cache = tmp_path / "values.jsonl"
    for _ in range(2):
        code, rows, _ = run_cli(
            capsys, "compute", "--genus", "0", "--mu", "2,3", "--nu", "1,4",
            "--kind", "full", "--cache", str(cache), "--omit-timing",
        )
        assert code == 0 and rows[0]["value"] == {"num": "8", "den": "1"}
    lines = [json.loads(l) for l in cache.read_text().splitlines()]
    assert any(rec["kind"] == "H" and rec["num"] == "8" for rec in lines)


def test_cache_env_var_default(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env-cache.jsonl"
    monkeypatch.setenv("PRUNEDHURWITZ_CACHE", str(cache))
    code, rows, _ = run_cli(
        capsys, "compute", "--genus", "0", "--mu", "2", "--nu", "1,1",
        "--kind", "pruned", "--omit-timing",
    )
    assert code == 0
    assert cache.exists()


def test_negative_genus_rejected(capsys):
    code = main(["compute", "--genus", "-1", "--mu", "2", "--nu", "2"])
    assert code == 2
    assert "genus" in capsys.readouterr().err


def test_fit_needs_two_samples(capsys):
    code = main(["fit", "--mu", "2,3", "--nu", "1,4", "--t-max", "1"])
    assert code == 2
    assert "t-max" in capsys.readouterr().err


def test_warm_cache_output_is_byte_identical(tmp_path, capsys):
    cache = tmp_path / "warm.jsonl"
    argv = ["compute", "--genus", "0", "--mu", "3,2", "--nu", "2,2,1",
            "--kind", "pruned", "--cache", str(cache), "--omit-timing"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main(argv) == 0          # answered from the cache file now
    warm = capsys.readouterr().out
    assert cold == warm


def test_warm_compute_does_not_enumerate(tmp_path, capsys, monkeypatch):
    # the tuple count of a modified pruned value comes from the cached PH
    cache = tmp_path / "warm.jsonl"
    argv = ["compute", "--genus", "1", "--mu", "3", "--nu", "3",
            "--kind", "modified-pruned", "--cache", str(cache), "--omit-timing"]
    assert main(argv) == 0
    cold = capsys.readouterr().out

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated a cached value")

    monkeypatch.setattr(hurwitz, "count_factorizations", no_enumeration)
    monkeypatch.setattr(hurwitz, "count_isomorphism_classes", no_enumeration)
    assert main(argv) == 0
    assert capsys.readouterr().out == cold


def test_cache_warnings_are_bare_lines_on_stderr(tmp_path):
    # the CLI configures no logging: the warnings reach stderr through
    # logging's last-resort handler, one bare message line each
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PRUNEDHURWITZ_CACHE", None)
    argv = [sys.executable, "-m", "prunedhurwitz", "compute", "--genus", "0",
            "--mu", "2,3", "--nu", "1,4", "--omit-timing"]
    clean = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert clean.returncode == 0 and clean.stderr == ""
    cache = tmp_path / "bad.jsonl"
    cache.write_text(
        '{"g": true, "mu": [2], "nu": [2], "kind": "H", "num": "1", "den": "2", '
        '"conv": {"m0_pruned": false}}\n'
        "not json\n"
    )
    run = subprocess.run(argv + ["--cache", str(cache)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0
    assert run.stdout == clean.stdout
    assert run.stderr.splitlines() == [
        f"cache {cache}:1 skipped: bad genus",
        f"cache {cache}:2 skipped: Expecting value: line 1 column 1 (char 0)",
    ]


def test_modified_pruned_compute_enumerates_once(capsys, monkeypatch, tmp_path):
    # a one-part type: the modified value and the reported tuple count
    # are both read off the one PH the enumeration gives
    from prunedhurwitz import factorizations

    calls = []
    original = factorizations.count_factorizations

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(factorizations, "count_factorizations", counted)
    monkeypatch.setattr(hurwitz, "count_factorizations", counted)
    code, rows, _ = run_cli(
        capsys, "compute", "--genus", "2", "--mu", "7", "--nu", "7",
        "--kind", "modified-pruned", "--omit-timing", "--cache", str(tmp_path / "c.jsonl"),
    )
    assert code == 0 and len(calls) == 1
    (row,) = rows
    assert (row["value"], row["tuple_count"]) == ({"num": "9604", "den": "1"}, "67228")


def write_cache(cache, *computes):
    for argv in computes:
        assert main([*argv, "--cache", str(cache), "--omit-timing", "--force"]) == 0


def test_cache_check_recomputes_an_even_sample(tmp_path, capsys):
    cache = tmp_path / "values.jsonl"
    write_cache(
        cache,
        ["compute", "--genus", "1", "--mu", "3,3", "--nu", "4,2"],
        ["compute", "--genus", "1", "--mu", "4,4", "--nu", "3,5", "--kind", "pruned"],
        ["compute", "--genus", "2", "--mu", "6", "--nu", "6", "--kind", "modified-pruned"],
    )
    capsys.readouterr()
    stored = [json.loads(line) for line in cache.read_text().splitlines()]
    # the modified pruned value is stored as its PH record
    assert [(rec["kind"], rec["mu"]) for rec in stored] == [
        ("H", [3, 3]), ("PH", [4, 4]), ("PH", [6])]
    code, rows, _ = run_cli(capsys, "cache", "check", "--sample", "10",
                            "--cache", str(cache), "--omit-timing")
    assert code == 0
    assert rows[-1] == {"command": "cache", "action": "check", "records": 3,
                        "checked": 3, "all_match": True}
    assert [(row["kind"], row["recomputed_by"], row["match"]) for row in rows[:-1]] == [
        ("H", "enumeration", True), ("PH", "engine", True), ("PH", "engine", True),
    ]
    # a sample of two takes the first and the second record
    code, rows, _ = run_cli(capsys, "cache", "check", "--sample", "2",
                            "--cache", str(cache), "--omit-timing")
    assert code == 0 and [row["mu"] for row in rows[:-1]] == [[3, 3], [4, 4]]


def test_cache_check_fails_on_a_corrupted_h_record(tmp_path, capsys):
    cache = tmp_path / "values.jsonl"
    write_cache(
        cache,
        ["compute", "--genus", "0", "--mu", "3,3,2", "--nu", "4,2,2"],
        ["compute", "--genus", "0", "--mu", "3,2", "--nu", "4,1", "--kind", "pruned"],
    )
    capsys.readouterr()
    lines = cache.read_text().splitlines()
    record = json.loads(lines[0])
    assert (record["kind"], record["num"]) == ("H", "4032")
    lines[0] = json.dumps({**record, "num": "4033"}, sort_keys=True)
    cache.write_text("\n".join(lines) + "\n")
    code, rows, _ = run_cli(capsys, "cache", "check", "--cache", str(cache), "--omit-timing")
    assert code == 1
    assert rows[-1]["all_match"] is False
    bad = [row for row in rows[:-1] if not row["match"]]
    assert [(row["kind"], row["stored"]["num"], row["recomputed"]["num"]) for row in bad] == [
        ("H", "4033", "4032"),
    ]


def test_cache_check_refusals(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PRUNEDHURWITZ_CACHE", raising=False)
    assert main(["cache", "check"]) == 2
    assert "--cache" in capsys.readouterr().err
    cache = tmp_path / "values.jsonl"
    assert main(["cache", "check", "--sample", "0", "--cache", str(cache)]) == 2
    # the enumeration of this H is over the default budget
    write_cache(cache, ["compute", "--genus", "1", "--mu", "6,9", "--nu", "3,12"])
    capsys.readouterr()
    assert main(["cache", "check", "--cache", str(cache), "--omit-timing"]) == 3
    code, rows, _ = run_cli(capsys, "cache", "check", "--cache", str(cache),
                            "--omit-timing", "--force")
    assert code == 0 and rows[0]["recomputed"]["num"] == "223776"


@pytest.mark.parametrize("content", [None, "", "other convention"],
                         ids=["missing", "empty", "other-convention"])
def test_cache_check_with_no_loadable_record_is_a_usage_error(
    tmp_path, capsys, monkeypatch, content
):
    # a missing file, an empty one, or one holding only records of the
    # other m = 0 convention: refused before any evaluation, instead of
    # reporting all_match: true having checked nothing
    from prunedhurwitz import factorizations

    cache = tmp_path / "values.jsonl"
    if content == "other convention":
        write_cache(cache, ["compute", "--genus", "0", "--mu", "2,2", "--nu", "3,1",
                            "--m0-pruned-convention"])
        assert cache.read_text()
    elif content is not None:
        cache.write_text(content)
    capsys.readouterr()

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated")

    monkeypatch.setattr(hurwitz.HurwitzEngine, "value", no_evaluation)
    monkeypatch.setattr(factorizations, "count_factorizations", no_evaluation)
    code, rows, err = run_cli(capsys, "cache", "check", "--cache", str(cache), "--omit-timing")
    assert code == 2 and not rows
    assert err.count("\n") == 1, err
