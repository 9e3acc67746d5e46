#!/usr/bin/env python3
"""Self-test of the benchmark; exits 1 on the first failed check.

    python3 perfbench/selftest.py

Checks that:

* BENCHMARK.json names exactly the metrics the runner produces;
* one deliberately wrong expected value makes a run fail (exit code 1,
  ``correct`` false, the job named), while the same run with the right
  value passes;
* two seeds give the identical exact battery results;
* in a directory holding only BENCHMARK.json and perfbench/, the run
  exits non-zero without printing a result.

Takes about a minute.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run

run.load_package()
import spans  # noqa: E402
import workloads  # noqa: E402

# the two cheapest ladder rows
CHEAP_ROWS = [row for row in workloads.LADDER_ROWS
              if row[1:3] in (((3, 3), (2, 4)), ((4, 3), (2, 2, 2, 1)))]


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def run_in_process(*argv: str) -> tuple[int, dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    report, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return code, report["report"], result


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({m["name"] for m in spec["per_layer"]} == set(spans.LAYER_METRICS),
          "per_layer metrics in BENCHMARK.json match spans.LAYER_METRICS")
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
          "workloads in BENCHMARK.json match the runner")

    workloads.LADDER_ROWS[:] = CHEAP_ROWS
    code, report, result = run_in_process(
        "--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0")
    check(code == 0 and result["correct"] and result["failed"] == 0,
          "the cheap ladder rows pass with their pinned values")
    check(set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]},
          "an untraced run prints every end-to-end metric")

    g, mu, nu, kind, value = CHEAP_ROWS[0]
    CHEAP_ROWS[0] = (g, mu, nu, kind, value + 1)
    workloads.LADDER_ROWS[:] = CHEAP_ROWS
    code, report, result = run_in_process(
        "--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0")
    wrong = {f["job"] for f in report["failures"] if "job" in f}
    check(code == 1 and not result["correct"] and result["failed"] >= 1
          and wrong == {f"{kind.value}:g{g}:{','.join(map(str, mu))}|{','.join(map(str, nu))}"},
          f"a wrong expected value ({value + 1} for {value}) fails the run and names the job")

    digests = []
    for seed in (1, 2):
        code, report, result = run_in_process(
            "--workload", "battery", "--seed", str(seed), "--seconds", "1", "--trace", "0")
        check(code == 0 and result["correct"], f"battery passes with seed {seed}")
        digests.append(report["results_digest"])
    check(digests[0] == digests[1] == workloads.BATTERY_DIGEST,
          "two seeds give the identical, pinned battery results")

    run.WORK_DIR.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.WORK_DIR)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(run.WORK_DIR)
    check(proc.returncode != 0 and not proc.stdout,
          f"without the program the run exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    main()
