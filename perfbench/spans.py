"""In-memory span recording around the calls into each prunedhurwitz layer.

A span is ``[name, start, end, parent, job, attrs]``: ``parent`` is the
index of the enclosing span (or None) and ``job`` the id of the job that
was running.  Spans stay in memory and are aggregated (or written out)
when a traced pass ends.

The benchmark wraps layers from its own code: ``Tracer.installed`` swaps
the engine's references to the enumeration entry points and
``HurwitzEngine.value`` for recording wrappers, and the benchmark's job
code opens evaluator spans around its own calls.  Nothing in the
library is edited.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

# Every per-layer metric the traced run reports (units are in
# BENCHMARK.json).  A metric whose layer a workload never enters reads 0.
LAYER_METRICS = (
    "factorizations.calls",
    "factorizations.busy_s",
    "factorizations.sequences",
    "factorizations.sequences_per_s",
    "factorizations.deep_s",
    "factorizations.wide_s",
    "burnside.calls",
    "burnside.busy_s",
    "burnside.classes",
    "hurwitz.value_calls",
    "hurwitz.memo_hits",
    "hurwitz.hit_ratio",
    "hurwitz.self_s",
    "reconstruction.degrees.self_s",
    "reconstruction.forests.self_s",
    "reconstruction.oracle_calls",
    "cutjoin.self_s",
    "cutjoin.oracle_calls",
    "polynomiality.self_s",
    "forests.busy_s",
    "forests.enumerated",
    "cache.records",
    "cache.bytes",
    "cache.load_s",
    "cli.startup_s",
    "cli.compute_warm_s",
    "cli.verify_cold_s",
    "cli.verify_warm_s",
    "trace.overhead_s",
)


def search_shape(g: int, mu, nu) -> str:
    """"deep" when the transposition count m reaches d - 1, else "wide".

    Deep searches have few points and many levels (the cost is the
    depth); wide ones have many points and few levels (the cost is the
    branching factor d(d-1)/2)."""
    m = 2 * g - 2 + len(mu) + len(nu)
    return "deep" if m >= sum(mu) - 1 else "wide"


class NullTracer:
    """Stands in for a Tracer in untraced passes: spans cost one call."""

    job = None

    def span(self, name: str):
        return contextlib.nullcontext({})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        attrs: dict = {}
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, self.job, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Route the engine's calls into the enumeration layers and its
        value method through spans for the duration of the block."""
        from prunedhurwitz import hurwitz

        tracer = self
        originals = {
            "count_factorizations": hurwitz.count_factorizations,
            "count_isomorphism_classes": hurwitz.count_isomorphism_classes,
        }
        value = hurwitz.HurwitzEngine.value

        @functools.wraps(originals["count_factorizations"])
        def count_factorizations(g, mu, nu, *args, **kwargs):
            with tracer.span("factorizations") as attrs:
                n = originals["count_factorizations"](g, mu, nu, *args, **kwargs)
                attrs["n"] = n
                attrs["shape"] = search_shape(g, mu, nu)
            return n

        @functools.wraps(originals["count_isomorphism_classes"])
        def count_isomorphism_classes(*args, **kwargs):
            with tracer.span("burnside") as attrs:
                n = originals["count_isomorphism_classes"](*args, **kwargs)
                attrs["n"] = n
            return n

        @functools.wraps(value)
        def traced_value(engine, *args, **kwargs):
            with tracer.span("hurwitz.value"):
                return value(engine, *args, **kwargs)

        hurwitz.count_factorizations = count_factorizations
        hurwitz.count_isomorphism_classes = count_isomorphism_classes
        hurwitz.HurwitzEngine.value = traced_value
        try:
            yield self
        finally:
            hurwitz.count_factorizations = originals["count_factorizations"]
            hurwitz.count_isomorphism_classes = originals["count_isomorphism_classes"]
            hurwitz.HurwitzEngine.value = value

    def extend(self, spans: list[list], job: str) -> None:
        """Append spans recorded in another process, re-based onto this
        tracer's indices and attributed to ``job``."""
        base = len(self.spans)
        for name, start, end, parent, _job, attrs in spans:
            self.spans.append(
                [name, start, end, None if parent is None else parent + base, job, attrs]
            )


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the cli.* and cache.* ones
    and the tracing overhead are filled in by the runner)."""
    out = {name: 0 for name in LAYER_METRICS}
    duration = [end - start for _n, start, end, _p, _j, _a in spans]
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for i, (_n, _s, _e, parent, _j, _a) in enumerate(spans):
        if parent is not None:
            child_time[parent] += duration[i]
            has_child[parent] = True
    evaluator_self = {
        "reconstruction.degrees": "reconstruction.degrees.self_s",
        "reconstruction.forests": "reconstruction.forests.self_s",
        "cutjoin": "cutjoin.self_s",
        "polynomiality": "polynomiality.self_s",
    }
    for i, (name, _s, _e, parent, _j, attrs) in enumerate(spans):
        if name == "factorizations":
            out["factorizations.calls"] += 1
            out["factorizations.busy_s"] += duration[i]
            out["factorizations.sequences"] += attrs["n"]
            out[f"factorizations.{attrs['shape']}_s"] += duration[i]
        elif name == "burnside":
            out["burnside.calls"] += 1
            out["burnside.busy_s"] += duration[i]
            out["burnside.classes"] += attrs["n"]
        elif name == "hurwitz.value":
            out["hurwitz.value_calls"] += 1
            # a value call that reached neither an enumeration nor a
            # nested value call was answered from the engine's memo
            out["hurwitz.memo_hits"] += not has_child[i]
            out["hurwitz.self_s"] += duration[i] - child_time[i]
            caller = spans[parent][0] if parent is not None else None
            if caller in ("reconstruction.degrees", "reconstruction.forests"):
                out["reconstruction.oracle_calls"] += 1
            elif caller == "cutjoin":
                out["cutjoin.oracle_calls"] += 1
        elif name in evaluator_self:
            out[evaluator_self[name]] += duration[i] - child_time[i]
        elif name == "forests":
            out["forests.busy_s"] += duration[i]
            out["forests.enumerated"] += attrs["n"]
    if out["factorizations.busy_s"]:
        out["factorizations.sequences_per_s"] = (
            out["factorizations.sequences"] / out["factorizations.busy_s"]
        )
    if out["hurwitz.value_calls"]:
        out["hurwitz.hit_ratio"] = out["hurwitz.memo_hits"] / out["hurwitz.value_calls"]
    return out
