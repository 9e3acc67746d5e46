import json

import pytest

from prunedhurwitz import hurwitz
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
