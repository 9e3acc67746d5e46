#!/usr/bin/env python3
"""Benchmark of prunedhurwitz: one closed-loop client, one process.

    python3 perfbench/run.py --workload ladder|battery|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``
there and the CLI is run from it as a subprocess.  The seed only
shuffles the order of the jobs.  Passes over the workload's job list
repeat until S seconds have passed (at least two); every job's exact
result is checked, and a job over its time cap is recorded as "timeout"
and counted as failed.  Times are scaled to a reference machine speed
(see speed.py); the report line also gives them as the clock read them.

With ``--trace 0`` the last line of stdout holds the end-to-end
metrics, measured untraced.  With ``--trace 1`` untraced and traced
passes alternate, and the last line holds the per-layer metrics of the
traced passes and the tracing overhead; the spans are written to
``.perfbench-out/`` in the checkout.  The line before the last is a
report with the machine, the failures and the sample counts.  The exit
code is 0 when every job was correct, 1 when one was not, and 2 when
the checkout or the arguments are unusable (nothing is printed then).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import NullTracer, Tracer, layer_metrics
from speed import JobTimeout, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("ladder", "battery", "cli")
JOB_CAP_S = 60.0
# Jobs still to run when this much time has passed are recorded as
# timeouts, so that a run always ends well within three minutes.
RUN_DEADLINE_S = 150.0
SETUP_REPEATS = 9
CACHE_LOAD_REPEATS = 5

# The set-up every run of the program pays: import the package and build
# an engine, in a fresh interpreter, calibrated either side.
SETUP_CODE = """\
import time
from speed import Speed
speed = Speed()
speed.calibrate()
speed.calibrate()
start = time.perf_counter()
from prunedhurwitz import HurwitzEngine
HurwitzEngine()
end = time.perf_counter()
speed.calibrate()
print(repr(speed.scaled(start, end)), repr(end - start))
"""


@dataclass
class Sample:
    job: str
    group: str
    start: float
    end: float
    status: str  # "ok", "wrong", "error" or "timeout"
    detail: str | None = None
    result: object = None
    seconds: float = 0.0  # at the reference speed


@dataclass
class Pass:
    kind: str  # "cold" or "warm"
    traced: bool
    samples: list[Sample] = field(default_factory=list)
    spans: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """The pass's time at the reference speed: the sum of its jobs'."""
        return sum(s.seconds for s in self.samples)

    @property
    def raw_wall_s(self) -> float:
        return sum(s.end - s.start for s in self.samples)


@dataclass
class Context:
    engine: object
    tracer: object


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "PRUNEDHURWITZ_CACHE")}
        self.env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
        self.speed = Speed()

    def cap(self) -> float:
        return min(JOB_CAP_S, RUN_DEADLINE_S - (time.perf_counter() - self.started))

    def setup_seconds(self) -> list[tuple[float, float]]:
        """(at the reference speed, as the clock read it) for each repeat."""
        out = []
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE], env=self.env, cwd=ROOT,
                capture_output=True, text=True, timeout=JOB_CAP_S, check=True,
            )
            scaled, raw = map(float, proc.stdout.split())
            out.append((scaled, raw))
        return out

    # -- in-process passes --------------------------------------------------

    def run_job(self, job, ctx) -> Sample:
        cap = self.cap()
        start = time.perf_counter()
        if cap <= 0:
            return Sample(job.id, job.group, start, start, "timeout", "run deadline passed")
        try:
            with self.speed.sampling(deadline=start + cap):
                result = job.run(ctx)
        except JobTimeout:
            return Sample(job.id, job.group, start, time.perf_counter(), "timeout",
                          f"cap {cap:.1f} s")
        except Exception as exc:  # a job that raises is a failed job, not a crash
            return Sample(job.id, job.group, start, time.perf_counter(), "error", repr(exc))
        end = time.perf_counter()
        try:
            reason = job.check(result)
        except Exception as exc:  # a result the check cannot read is a wrong result
            reason = f"check raised {exc!r}"
        return Sample(job.id, job.group, start, end, "wrong" if reason else "ok", reason, result)

    def inprocess_pass(self, jobs, kind: str, traced: bool) -> Pass:
        from prunedhurwitz import HurwitzEngine

        order = list(jobs)
        self.rng.shuffle(order)
        tracer = Tracer() if traced else NullTracer()
        # battery jobs share this engine; ladder jobs make their own
        ctx = Context(HurwitzEngine(), tracer)
        record = Pass(kind, traced)

        def run_all():
            self.speed.calibrate()
            for job in order:
                if self.speed.due():
                    self.speed.calibrate()
                tracer.job = job.id
                with tracer.span("job"):
                    record.samples.append(self.run_job(job, ctx))
            self.speed.calibrate()

        if traced:
            with tracer.installed():
                run_all()
            record.spans = tracer.spans
        else:
            run_all()
        for s in record.samples:
            s.seconds = self.speed.scaled(s.start, s.end)
        return record

    # -- cli passes ---------------------------------------------------------

    def cli_job(self, job, cache: str, workdir: str, kind: str, tracer) -> Sample:
        args = list(job.argv)
        if job.group != "startup":
            args += ["--cache", cache, "--omit-timing"]
        report = os.path.join(workdir, "child.json")
        argv = [sys.executable, str(HERE / "cli_child.py"), report,
                "1" if tracer else "0", *args]
        cap = self.cap()
        start = time.perf_counter()
        if cap <= 0:
            return Sample(job.id, job.group, start, start, "timeout", "run deadline passed")
        try:
            proc = subprocess.run(argv, cwd=workdir, env=self.env, capture_output=True,
                                  text=True, timeout=cap)
        except subprocess.TimeoutExpired:
            end = time.perf_counter()
            return Sample(job.id, job.group, start, end, "timeout", f"cap {cap:.1f} s",
                          seconds=end - start)
        end = time.perf_counter()
        sample = Sample(job.id, job.group, start, end, "ok", None, proc.stdout,
                        seconds=end - start)
        try:
            with open(report, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(report)
        except (OSError, ValueError) as exc:
            sample.status = "error"
            sample.detail = f"no timing report ({exc!r}): {proc.stderr[-300:]}"
            return sample
        sample.seconds = child["scaled_s"]
        if tracer:
            tracer.extend(child["spans"], f"{kind}:{job.id}")
        if proc.returncode != job.exit_code:
            sample.status = "wrong"
            sample.detail = (f"exit code {proc.returncode}, expected {job.exit_code}: "
                             f"{proc.stderr[-300:]}")
            return sample
        try:
            sample.detail = job.check(proc.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            sample.detail = f"unreadable report: {exc!r}"
        if sample.detail:
            sample.status = "wrong"
        return sample

    def cli_cycle(self, jobs, traced: bool) -> list[Pass]:
        """A cold pass against a fresh cache file, then the identical warm
        pass that reads it; the warm stdout must equal the cold stdout.
        Each job calibrates inside its own subprocess (cli_child.py)."""
        order = list(jobs)
        self.rng.shuffle(order)
        workdir = tempfile.mkdtemp(dir=WORK_DIR)
        cache = os.path.join(workdir, "values.jsonl")
        tracer = Tracer() if traced else None
        cold, warm = Pass("cold", traced), Pass("warm", traced)
        for record in (cold, warm):
            record.samples = [self.cli_job(job, cache, workdir, record.kind, tracer)
                              for job in order]
            if traced and record.kind == "cold":
                record.extra.update(measure_cache_load(cache))
        for c, w in zip(cold.samples, warm.samples):
            if w.status == "ok" and c.status == "ok" and w.result != c.result:
                w.status, w.detail = "wrong", "warm stdout differs from the cold pass"
        if traced:
            warm.spans = tracer.spans
        shutil.rmtree(workdir)
        return [cold, warm]

    # -- the measurement loop -----------------------------------------------

    def run(self, jobs) -> list[Pass]:
        """Passes until the time is up: the first pass is cold, in a fresh
        process; with tracing, untraced and traced passes alternate, and
        in process at least one warm untraced pass follows a traced one."""
        passes: list[Pass] = []
        minimum = 3 if self.trace and self.workload != "cli" else 2
        t0 = time.perf_counter()
        i = 0
        while i < minimum or time.perf_counter() - t0 < self.seconds:
            traced = self.trace and i % 2 == 1
            if self.workload == "cli":
                passes.extend(self.cli_cycle(jobs, traced))
            else:
                passes.append(self.inprocess_pass(jobs, "cold" if i == 0 else "warm", traced))
            i += 1
            if time.perf_counter() - self.started > RUN_DEADLINE_S:
                break
        return passes


def measure_cache_load(path: str) -> dict:
    from prunedhurwitz import Conventions
    from prunedhurwitz.cache import load_cache

    times, records = [], 0
    for _ in range(CACHE_LOAD_REPEATS):
        start = time.perf_counter()
        records = len(load_cache(path, Conventions().as_dict()))
        times.append(time.perf_counter() - start)
    return {
        "cache.records": records,
        "cache.bytes": os.path.getsize(path),
        "cache.load_s": statistics.median(times),
    }


# -- metrics ------------------------------------------------------------------

def results_digest(samples: list[Sample]) -> str:
    from workloads import canonical

    lines = sorted(f"{s.job}={canonical(s.result)!r}" for s in samples)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cycles(passes: list[Pass], traced: bool, workload: str) -> list[list[Pass]]:
    """The units ``wall_s`` is taken over: one pass, or on cli a cold
    pass with its warm pass (the cli job list runs twice)."""
    picked = [p for p in passes if p.traced == traced]
    if workload == "cli":
        return [picked[i:i + 2] for i in range(0, len(picked), 2)]
    return [[p] for p in picked]


def smoothed_percentile(values: list[float], q: float, half_width: float) -> float:
    """The mean of the empirical quantile function over [q - half_width,
    q + half_width]: each value counts with the share of that interval its
    rank covers.  Job times cluster by job, with gaps between clusters; a
    plain percentile that falls in a gap jumps across it when two jobs
    swap ranks, while this one moves by a fraction.  Repeating every
    sample does not change it, so neither does the number of passes."""
    ordered = sorted(values)
    n = len(ordered)
    lo, hi = max(0.0, q - half_width), min(1.0, q + half_width)
    total = 0.0
    for i, value in enumerate(ordered):
        total += value * max(0.0, min(hi, (i + 1) / n) - max(lo, i / n))
    return total / (hi - lo)


def end_to_end(passes: list[Pass], workload: str, setup: list[tuple[float, float]]) -> dict:
    untraced = [p for p in passes if not p.traced]
    times = [s.seconds for p in untraced for s in p.samples]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(scaled for scaled, _raw in setup),
        "wall_s": statistics.median(
            sum(p.wall_s for p in c) for c in cycles(passes, False, workload)),
        "cold_pass_s": statistics.median(p.wall_s for p in untraced if p.kind == "cold"),
        "warm_pass_s": statistics.median(p.wall_s for p in untraced if p.kind == "warm"),
        "job_p50_s": smoothed_percentile(times, 0.5, 0.25),
        "job_p90_s": smoothed_percentile(times, 0.9, 0.05),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


CLI_LAYER_GROUPS = {
    "cli.compute_warm_s": ("warm", "compute"),
    "cli.verify_cold_s": ("cold", "verify"),
    "cli.verify_warm_s": ("warm", "verify"),
}


def per_layer(passes: list[Pass], workload: str) -> dict:
    rows = []
    for cycle in cycles(passes, True, workload):
        row = layer_metrics([s for p in cycle for s in p.spans])
        for p in cycle:
            row.update(p.extra)
        if workload == "cli":
            for name, (kind, group) in CLI_LAYER_GROUPS.items():
                row[name] = sum(s.seconds for p in cycle if p.kind == kind
                                for s in p.samples if s.group == group)
            row["cli.startup_s"] = statistics.median(
                s.seconds for p in cycle for s in p.samples if s.group == "startup")
        rows.append(row)
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    traced = [sum(p.wall_s for p in c) for c in cycles(passes, True, workload)]
    untraced = [sum(p.wall_s for p in c) for c in cycles(passes, False, workload)]
    # the first pass in a process runs slower; compare with the later ones
    untraced = untraced[1:] or untraced
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


def machine() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "loadavg_before": list(os.getloadavg()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_package():
    """Import prunedhurwitz from this checkout's src/, or exit 2."""
    if not (SRC / "prunedhurwitz" / "__init__.py").is_file():
        sys.stderr.write(f"no prunedhurwitz sources under {SRC}; run from a checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import prunedhurwitz

    if Path(prunedhurwitz.__file__).resolve().parent != (SRC / "prunedhurwitz").resolve():
        sys.stderr.write(f"imported prunedhurwitz from {prunedhurwitz.__file__}, not {SRC}\n")
        sys.exit(2)
    return prunedhurwitz


def main(argv=None) -> int:
    args = parse_args(argv)
    package = load_package()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = machine()
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    jobs = {
        "ladder": workloads.ladder_jobs,
        "battery": workloads.battery_jobs,
        "cli": lambda: workloads.cli_jobs(package.__version__),
    }[args.workload]()
    setup = runner.setup_seconds()
    WORK_DIR.mkdir(exist_ok=True)
    try:
        passes = runner.run(jobs)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    info["loadavg_after"] = list(os.getloadavg())

    samples = [s for p in passes for s in p.samples]
    failures = [s for s in samples if s.status != "ok"]
    digests = sorted({results_digest(p.samples) for p in passes})
    checks = []
    if len(digests) != 1:
        checks.append(f"passes disagree on the results: {digests}")
    if args.workload == "battery" and digests != [workloads.BATTERY_DIGEST]:
        checks.append(f"results digest {digests} differs from the pinned one")
    failed = len(failures) + len(checks)

    if args.trace:
        values = per_layer(passes, args.workload)
        wanted = spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "job", "attrs"],
            "passes": [p.spans for p in passes if p.spans],
        }))
    else:
        values = end_to_end(passes, args.workload, setup)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "passes": [
            {"kind": p.kind, "traced": p.traced, "wall_s": p.wall_s, "raw_wall_s": p.raw_wall_s,
             "jobs": len(p.samples), "failed": sum(s.status != "ok" for s in p.samples)}
            for p in passes
        ],
        "job_samples": sum(len(p.samples) for p in passes if not p.traced),
        "fail_ratio": {"value": failed / len(samples), "unit": "ratio"},
        "failures": [
            {"job": s.job, "status": s.status, "detail": s.detail} for s in failures[:20]
        ] + [{"check": c} for c in checks],
        "results_digest": digests[0] if len(digests) == 1 else digests,
        "setup_s": [scaled for scaled, _raw in setup],
        "setup_raw_s": [raw for _scaled, raw in setup],
        "calibrations": len(runner.speed.marks),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
