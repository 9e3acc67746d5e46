import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prunedhurwitz import characters, forests, hurwitz
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
        # fit never reads a value at m = 0, the one the m = 0 convention changes
        ["fit", "--mu", "2,3", "--nu", "1,4", "--m0-pruned-convention"],
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


@pytest.mark.parametrize("text", ["4,,4", "4,", ",4", "4, ,4", ""])
def test_empty_partition_part_exit_2(capsys, text):
    # an empty part is a usage error, not a part dropped in silence
    # (--mu 4,,4 once computed the value of (4,4))
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--genus", "0", "--mu", text, "--nu", "8", "--omit-timing"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert [line for line in out.err.splitlines() if "error:" in line] == [
        f"prunedhurwitz compute: error: argument --mu: empty part in partition: {text!r}"
    ]


def test_budget_refusal_exit_3(capsys):
    code, rows, err = run_cli(
        capsys, "compute", "--genus", "2", "--mu", "5,5", "--nu", "5,5",
        "--budget", "1000",
    )
    assert code == 3 and not rows and "budget" in err
    # a zero budget is valid and refuses every enumeration
    code, rows, err = run_cli(
        capsys, "compute", "--genus", "0", "--mu", "3", "--nu", "3", "--budget", "0",
    )
    assert code == 3 and not rows and "exceeds budget 0" in err
    # --force overrides (choose something actually tractable)
    code, rows, _ = run_cli(
        capsys, "compute", "--genus", "0", "--mu", "2,1", "--nu", "1,1,1",
        "--budget", "1", "--force", "--omit-timing",
    )
    assert code == 0 and rows[0]["value"] == {"num": "24", "den": "1"}


@pytest.mark.parametrize("argv", [
    ["compute", "--genus", "0", "--mu", "3", "--nu", "3"],
    ["verify", "main-theorem", "--max-d", "3"],
    ["fit", "--mu", "2,3", "--nu", "1,4"],
    ["cache", "check"],
])
@pytest.mark.parametrize("budget", ["-1", "-50000000"])
def test_negative_budget_exit_2(capsys, argv, budget):
    # a usage error, as a bad partition is; it was once read as a budget
    # every search exceeds (exit 3)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", budget, "--omit-timing"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    # each verify battery is a parser of its own, named in the error line
    prog = " ".join(argv[:2]) if argv[0] == "verify" else argv[0]
    assert [line for line in out.err.splitlines() if "error:" in line] == [
        f"prunedhurwitz {prog}: error: argument --budget: budget must be >= 0: {budget!r}"
    ]


VALUE_OPTIONS = {"--cache", "--budget", "--force"}
M0 = "--m0-pruned-convention"
BOUNDS = {"--max-d", "--max-g", "--max-m"}
# the cut-and-join options only --variant plain reads
PLAIN_ONLY = {"--stability-reading", M0}
BATTERY_OPTIONS = {
    "main-theorem": BOUNDS | VALUE_OPTIONS | {"--omit-timing"},
    "cut-and-join": BOUNDS | VALUE_OPTIONS | PLAIN_ONLY | {"--omit-timing", "--variant"},
    "forests": {"--max-n", "--omit-timing"},
    "poly": {"--t-max", *VALUE_OPTIONS, "--omit-timing"},
}
# the (battery, option) pairs the batteries shared and did not read
INERT = [
    (battery, option)
    for battery, taken in BATTERY_OPTIONS.items()
    for option in sorted(set().union(*BATTERY_OPTIONS.values()) - taken)
]
# an argument for each option that takes one
OPTION_VALUE = {
    "--max-d": "3", "--max-g": "1", "--max-m": "3", "--max-n": "3", "--t-max": "3",
    "--variant": "corrected", "--stability-reading": "facecount",
    "--cache": "/nonexistent/x.jsonl", "--budget": "5",
}


def subparsers_of(parser):
    (action,) = [a for a in parser._actions if hasattr(a, "add_parser")]
    return action.choices


def test_each_command_takes_only_the_options_it_reads():
    from prunedhurwitz.cli import build_parser

    def flags(parser):
        return {flag for action in parser._actions for flag in action.option_strings} - {
            "-h", "--help"}

    commands = subparsers_of(build_parser())
    batteries = subparsers_of(commands["verify"])
    assert {name: flags(p) for name, p in batteries.items()} == BATTERY_OPTIONS
    # of the 48 (battery, option) pairs the batteries once shared
    assert sum(map(len, BATTERY_OPTIONS.values())) == 24 and len(INERT) == 24
    # the other commands keep all the value options and --omit-timing, and
    # the m = 0 convention where a value at m = 0 can be read: cache check
    # reads none, since no value at m = 0 is stored
    assert flags(commands["compute"]) == {"--genus", "--mu", "--nu", "--kind", "--omit-timing",
                                          *VALUE_OPTIONS, M0}
    assert flags(commands["fit"]) == {"--genus", "--mu", "--nu", "--kind", "--t-max",
                                      "--allow-wall", "--omit-timing", *VALUE_OPTIONS}
    assert flags(commands["cache"]) == {"--sample", "--omit-timing", *VALUE_OPTIONS}


@pytest.mark.parametrize("argv,reads_m0", [
    (["verify", "main-theorem", "--max-d", "6"], False),
    (["verify", "cut-and-join", "--max-d", "5", "--variant", "corrected"], False),
    (["verify", "poly"], False),
    (["fit", "--mu", "2,3", "--nu", "1,4"], False),
    # the plain variant's split halves include genus 0, (d)|(d)
    (["verify", "cut-and-join", "--max-d", "5"], True),
])
def test_only_the_commands_taking_the_m0_convention_ask_for_an_m0_value(
    capsys, monkeypatch, argv, reads_m0
):
    # the convention changes no value at m >= 1, so a command that never
    # asks for m = 0 has no use for the flag
    asked = set()
    value = hurwitz.HurwitzEngine.value

    def recording(self, g, mu, nu, kind):
        asked.add(2 * g - 2 + len(mu) + len(nu))
        return value(self, g, mu, nu, kind)

    monkeypatch.setattr(hurwitz.HurwitzEngine, "value", recording)
    assert main([*argv, "--omit-timing"]) in (0, 1)
    capsys.readouterr()
    assert asked and (0 in asked) is reads_m0


@pytest.mark.parametrize("battery,option", INERT)
def test_an_option_the_battery_does_not_read_is_a_usage_error(
    capsys, monkeypatch, battery, option
):
    # accepted and ignored in silence once: refused by the parser now,
    # before any evaluation
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated")

    monkeypatch.setattr(hurwitz.HurwitzEngine, "value", no_evaluation)
    monkeypatch.setattr(forests, "enumerate_rooted_forests", no_evaluation)
    extra = [OPTION_VALUE[option]] if option in OPTION_VALUE else []
    with pytest.raises(SystemExit) as exc:
        main(["verify", battery, option, *extra, "--omit-timing"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert [line for line in out.err.splitlines() if "error:" in line] == [
        "prunedhurwitz: error: unrecognized arguments: " + " ".join([option, *extra])
    ]


@pytest.mark.parametrize("given", [
    [M0], ["--stability-reading", "literal"], ["--stability-reading", "facecount"],
    ["--stability-reading", "facecount", M0],
])
def test_the_corrected_variant_refuses_the_options_only_plain_reads(capsys, monkeypatch, given):
    # accepted once, and the output was the same with and without them
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated")

    monkeypatch.setattr(hurwitz.HurwitzEngine, "value", no_evaluation)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "cut-and-join", "--variant", "corrected", *given, "--omit-timing"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    unread = " or ".join(flag for flag in (M0, "--stability-reading") if flag in given)
    assert [line for line in out.err.splitlines() if "error:" in line] == [
        f"prunedhurwitz: error: --variant corrected does not read {unread}"
    ]


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
        "--t-max", "3", "--omit-timing",
    )
    assert code == 0 and rows[0]["wall"] is True
    assert rows[0]["degree"] == 1 and rows[0]["bound_met"] is True
    # a wall point needs the same window as any other: two samples
    # cannot show a degree, so --t-max 2 is a usage error
    code, rows, err = run_cli(
        capsys, "fit", "--mu", "2,3", "--nu", "2,3", "--allow-wall",
        "--t-max", "2", "--omit-timing",
    )
    assert code == 2 and not rows and "--t-max >= 3" in err


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


def test_poly_and_fit_judge_a_base_point_alike(capsys):
    from prunedhurwitz.batteries import INTERIOR_BASE_POINTS

    code, rows, _ = run_cli(capsys, "verify", "poly", "--t-max", "4", "--omit-timing")
    assert code == 0
    polys = {(tuple(r["mu"]), tuple(r["nu"])): r for r in rows if r.get("type") == "poly"}
    assert list(polys) == INTERIOR_BASE_POINTS
    judgement = ("samples", "degree", "bound")
    for (mu, nu), poly in polys.items():
        code, (fit,), _ = run_cli(
            capsys, "fit", "--mu", ",".join(map(str, mu)), "--nu", ",".join(map(str, nu)),
            "--kind", "pruned", "--t-max", "4", "--omit-timing",
        )
        assert code == 0 and fit["bound_met"] is poly["match"] is True
        assert [fit[k] for k in judgement] == [poly[k] for k in judgement]


@pytest.mark.parametrize("argv,code", [
    (["main-theorem", "--max-d", "4", "--max-g", "2"], 0),
    # the plain variant's term breakdown is reported, and is no instance
    (["cut-and-join", "--max-d", "4"], 1),
])
def test_the_budget_sees_the_instances_the_battery_reports(capsys, monkeypatch, argv, code):
    from prunedhurwitz import batteries

    seen = []

    def recording(args, g, mu, nu):
        seen.append((g, list(mu), list(nu)))
        return False

    monkeypatch.setattr(batteries, "_over_budget", recording)
    exit_code, rows, _ = run_cli(capsys, "verify", *argv, "--omit-timing")
    assert exit_code == code
    reported = [(r["genus"], r["mu"], r["nu"]) for r in rows if r.get("type") == argv[0]]
    assert reported and seen == reported


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


def test_a_value_past_the_int_to_str_digit_limit(tmp_path, capsys, monkeypatch, caplog):
    # once refused with exit 3 by Python's 4300-digit limit on str(int)
    cache = tmp_path / "values.jsonl"
    argv = ["compute", "--genus", "1400", "--mu", "10", "--nu", "10", "--force",
            "--cache", str(cache), "--omit-timing"]
    code, rows, _ = run_cli(capsys, *argv)
    assert code == 0 and len(rows[0]["value"]["num"]) == 4628
    # the record is written and read back, the second run evaluating nothing
    assert len(cache.read_text().splitlines()) == 1

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated")

    monkeypatch.setattr(characters.CharacterTable, "double_hurwitz", no_evaluation)
    assert run_cli(capsys, *argv) == (code, rows, "")
    if not hasattr(sys, "set_int_max_str_digits"):
        return
    # a library caller under the default limit reads the record as one
    # value, not as a malformed line, and keeps its limit
    limit = sys.get_int_max_str_digits()
    default = sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(default)
    try:
        with caplog.at_level("WARNING"):
            value = hurwitz.HurwitzEngine(cache_path=str(cache)).double(1400, (10,), (10,))
        assert caplog.records == []
        assert sys.get_int_max_str_digits() == default
        sys.set_int_max_str_digits(0)  # the numerator's decimal passes the default limit
        assert rows[0]["value"] == {"num": str(value.numerator), "den": str(value.denominator)}
    finally:
        sys.set_int_max_str_digits(limit)


def test_main_leaves_the_int_to_str_digit_limit_as_it_found_it(capsys):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        # a value past 4300 digits, a usage error and --version (both
        # leave main by SystemExit), and a refusal
        code, rows, _ = run_cli(capsys, "compute", "--genus", "1400", "--mu", "10",
                                "--nu", "10", "--force", "--omit-timing")
        assert code == 0 and len(rows[0]["value"]["num"]) == 4628
        assert sys.get_int_max_str_digits() == 5000
        for argv in [["compute", "--genus", "0"], ["--version"]]:
            with pytest.raises(SystemExit):
                main(argv)
            assert sys.get_int_max_str_digits() == 5000
        assert main(["compute", "--genus", "6", "--mu", "6,6,6,6", "--nu", "8,8,8"]) == 3
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_an_unwritable_cache_path_warns_once(tmp_path, capsys, caplog):
    # the engine stops appending after the first refused record, and the
    # report is the one a run without a cache gives
    argv = ["verify", "main-theorem", "--max-d", "4", "--omit-timing"]
    plain = run_cli(capsys, *argv)
    with caplog.at_level("WARNING"):
        cached = run_cli(capsys, *argv, "--cache", str(tmp_path / "missing" / "x.jsonl"))
    assert cached[:2] == plain[:2] and plain[0] == 0
    assert len(plain[1]) > 2
    assert [r.getMessage().split(" (")[0] for r in caplog.records] == [
        f"cache {tmp_path / 'missing' / 'x.jsonl'} not writable"
    ]


def test_negative_genus_rejected(capsys):
    code = main(["compute", "--genus", "-1", "--mu", "2", "--nu", "2"])
    assert code == 2
    assert "genus" in capsys.readouterr().err


def test_fit_needs_two_samples(capsys, monkeypatch):
    # the window must be able to show the degree bound, which takes
    # bound + 2 samples, and m = 0 has no bound to show: refused before
    # any value, not reported as a point that fails its bound
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated")

    monkeypatch.setattr(hurwitz.HurwitzEngine, "value", no_evaluation)
    for argv, need in [
        (["--mu", "2,3", "--nu", "1,4", "--t-max", "1"], 3),
        (["--mu", "2,3", "--nu", "1,4", "--t-max", "2"], 3),
        (["--genus", "1", "--mu", "2", "--nu", "2", "--t-max", "3"], 5),
        (["--genus", "1", "--mu", "2", "--nu", "2"], 5),  # the default --t-max 4
        # a wall point needs the same window
        (["--mu", "2,3", "--nu", "2,3", "--allow-wall", "--t-max", "2"], 3),
    ]:
        code, rows, err = run_cli(capsys, "fit", *argv)
        assert code == 2 and not rows
        assert err == f"fitting this base point needs --t-max >= {need}\n"
    code, rows, err = run_cli(capsys, "fit", "--mu", "3", "--nu", "3")
    assert code == 2 and not rows
    assert err == "polynomiality says nothing at m = 0 (genus 0, one part on each side)\n"


def test_verify_poly_needs_three_samples(capsys, monkeypatch):
    # two samples cannot show the second difference of a degree-1
    # sequence vanish: refused before any value, not reported as a
    # mismatch at every base point
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated")

    monkeypatch.setattr(hurwitz.HurwitzEngine, "value", no_evaluation)
    for t_max in ("1", "2"):
        code, rows, err = run_cli(capsys, "verify", "poly", "--t-max", t_max)
        assert code == 2 and not rows
        assert err == "the poly battery needs --t-max >= 3\n"


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
        f"cache {cache}:1 skipped: genus must be an int, got True",
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


def test_cache_check_enumerates_h_in_its_cheaper_orientation(tmp_path, capsys):
    # H(0, (4), (1,1,1,1)) is stored as (1,1,1,1)|(4), whose search bound
    # is 258; freezing sigma1 of type (4) instead bounds it by 132
    cache = tmp_path / "values.jsonl"
    write_cache(cache, ["compute", "--genus", "0", "--mu", "4", "--nu", "1,1,1,1"])
    capsys.readouterr()
    assert json.loads(cache.read_text())["mu"] == [1, 1, 1, 1]
    code, rows, _ = run_cli(capsys, "cache", "check", "--cache", str(cache),
                            "--budget", "200", "--omit-timing")
    assert code == 0
    assert [(row["mu"], row["nu"], row["match"]) for row in rows[:-1]] == [
        ([1, 1, 1, 1], [4], True),
    ]
    assert main(["cache", "check", "--cache", str(cache), "--budget", "131"]) == 3


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
    # a missing file, an empty one, or one holding only the records at
    # m = 0 an older writer made under each convention, which no engine
    # loads: refused before any evaluation, instead of reporting
    # all_match: true having checked nothing
    from prunedhurwitz import factorizations

    cache = tmp_path / "values.jsonl"
    if content == "other convention":
        write_cache(cache, ["compute", "--genus", "0", "--mu", "4", "--nu", "4",
                            "--kind", "pruned", "--m0-pruned-convention"])
        assert not cache.exists()
        cache.write_text("".join(
            json.dumps({"g": 0, "mu": [4], "nu": [4], "kind": kind, "num": num, "den": "4",
                        "conv": {"m0_pruned": m0_pruned}, "version": 2, "evaluator": evaluator})
            + "\n"
            for kind, num, m0_pruned, evaluator in [("H", "1", False, "characters"),
                                                   ("PH", "1", True, "coloured"),
                                                   ("PH", "0", False, "coloured")]
        ))
    elif content is not None:
        cache.write_text(content)
    capsys.readouterr()

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated")

    monkeypatch.setattr(hurwitz.HurwitzEngine, "value", no_evaluation)
    monkeypatch.setattr(factorizations, "count_factorizations", no_evaluation)
    code, rows, err = run_cli(capsys, "cache", "check", "--cache", str(cache), "--omit-timing")
    assert code == 2 and not rows
    assert err == f"cache {cache} holds no record to check\n"


def test_cache_check_refuses_the_m0_convention(tmp_path, capsys):
    # no stored value depends on the convention: passing it is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["cache", "check", "--cache", str(tmp_path / "x.jsonl"), "--m0-pruned-convention"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --m0-pruned-convention" in capsys.readouterr().err
