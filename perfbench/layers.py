"""Span tracing of the sweep's layers, installed from outside ``src/``.

The traced benchmark sample wraps one public call per layer and records a
span (name, start, end, parent) around every invocation.  Each wrapper is
installed wherever its caller looks the name up: every loaded ``repro``
module whose global of that name *is* the original function gets the
wrapper, and methods are replaced on their class.  Nothing under ``src/``
changes.

A layer's self time is its spans' duration minus the time covered by
their child spans; ``sweep.self_s`` is whatever the sweep span does not
hand to a wrapped layer.  Spans nest strictly (the benchmark sweeps with
``workers=1``, one thread), so self times plus ``sweep.self_s`` add up to
the traced sweep wall time exactly.

A wrapped call that raises is recorded in :attr:`Tracer.errors` before
the exception propagates: the sweep may catch it and fall back to
another path (the batch backend retries failed kernels on the scalar
engine), but the benchmark treats any recorded error as a failed run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute) of each wrapped module-level function.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("workload.generate", "repro.workload.generator", "generate_binned_tasksets"),
    (
        "analysis.postponement",
        "repro.analysis.postponement",
        "task_postponement_intervals",
    ),
    ("analysis.promotion", "repro.analysis.promotion", "promotion_times"),
    ("analysis.dvfs_plan", "repro.energy.dvfs", "speed_plan_for"),
    ("timeline", "repro.sim.timeline", "shared_release_timeline"),
    ("batch.build", "repro.sim.batch", "build_batch_item"),
    ("batch.kernel", "repro.sim.batch", "run_batch"),
    ("engine", "repro.schedulers.base", "run_policy"),
    ("energy", "repro.energy.accounting", "energy_of_result"),
    ("qos", "repro.qos.metrics", "collect_metrics"),
    ("audit", "repro.harness.validate", "audit_scheme"),
)

#: (span name, module, class, method) of each wrapped method.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("genstore.read", "repro.harness.genstore", "GenerationStore", "get"),
    ("journal.record", "repro.harness.journal", "RunJournal", "record"),
)

#: Imported before patching: it loads every module that holds one of the
#: wrapped names as a global (``repro.sim.batch`` is looked up at call time).
_SWEEP = "repro.harness.sweep"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None


@dataclass
class Tracer:
    """In-memory span recorder plus the per-layer counters."""

    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    _open: List[int] = field(default_factory=list)

    def span(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record one span per call.

        ``count(result, args, kwargs)`` returns extra counter increments
        for the call, keyed by counter name.
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, time.perf_counter(), parent=parent))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                raise
            finally:
                self.spans[index].end = time.perf_counter()
                self._open.pop()
            if count is not None:
                for key, value in count(result, args, kwargs).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """Per span name: (total self seconds, call count)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: Dict[str, Tuple[float, int]] = {}
        for span, children in zip(self.spans, child_time):
            seconds, calls = totals.get(span.name, (0.0, 0))
            own = span.end - span.start - children
            totals[span.name] = (seconds + own, calls + 1)
        return totals


#: Extra counters per span name: ``count(result, args, kwargs)`` returns
#: the increments one call adds.
COUNTERS: Dict[str, Callable] = {
    "batch.build": lambda item, args, kwargs: {"batch.fallbacks": int(item is None)},
    "batch.kernel": lambda results, args, kwargs: {"batch.sims": len(results)},
    "engine": lambda result, args, kwargs: {"engine.jobs_released": result.released_jobs},
    "audit": lambda report, args, kwargs: {"audit.issues": len(report.issues)},
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer call; returns a function that undoes it.

    Raises ``LookupError`` (after undoing any wrapping) when a listed
    function, class or method is missing: a renamed layer must fail the
    traced run, not drop out of the attribution unnoticed.
    """
    undo: List[Tuple[Any, str, Any]] = []

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def lookup(owner: Any, attr: str) -> Any:
        try:
            return vars(owner)[attr]
        except KeyError:
            raise LookupError(f"{owner.__name__} has no {attr}") from None

    try:
        importlib.import_module(_SWEEP)
        for name, module_name, attr in FUNCTIONS:
            original = lookup(importlib.import_module(module_name), attr)
            wrapped = tracer.span(name, original, COUNTERS.get(name))
            sites = [
                module
                for key, module in list(sys.modules.items())
                if key.split(".")[0] == "repro" and vars(module).get(attr) is original
            ]
            for module in sites:
                undo.append((module, attr, original))
                setattr(module, attr, wrapped)
        for name, module_name, cls_name, attr in METHODS:
            cls = lookup(importlib.import_module(module_name), cls_name)
            original = lookup(cls, attr)
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.span(name, original, COUNTERS.get(name)))
    except BaseException:
        uninstall()
        raise
    return uninstall


def layer_metrics(
    tracer: Tracer,
    sweep_s: float,
    generation: Dict[str, Any],
    cache_hits: int,
    cache_misses: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced sweep.

    ``generation`` is the sweep's GENERATION event payload; the cache
    arguments are the analysis-cache counter deltas over the sweep.
    """
    times = tracer.self_times()

    def seconds(name: str) -> float:
        return times.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return times.get(name, (0.0, 0))[1]

    counts = tracer.counts
    in_bin = generation.get("in_bin", 0)
    builds = calls("batch.build")
    released = counts.get("engine.jobs_released", 0)
    lookups = cache_hits + cache_misses
    return {
        "workload.gen_s": seconds("workload.generate"),
        "workload.draws": generation.get("draws", 0),
        "workload.admission_tests": generation.get("admission_tests", 0),
        "workload.screen_reject_ratio": (
            generation.get("screened_out", 0) / in_bin if in_bin else 0.0
        ),
        "genstore.read_s": seconds("genstore.read"),
        "analysis.postponement_s": seconds("analysis.postponement"),
        "analysis.postponement_calls": calls("analysis.postponement"),
        "analysis.promotion_s": seconds("analysis.promotion"),
        "analysis.dvfs_plan_s": seconds("analysis.dvfs_plan"),
        "analysis.dvfs_plan_calls": calls("analysis.dvfs_plan"),
        "analysis.cache_hits": cache_hits,
        "analysis.cache_misses": cache_misses,
        "analysis.cache_hit_ratio": cache_hits / lookups if lookups else 0.0,
        "timeline.s": seconds("timeline"),
        "timeline.calls": calls("timeline"),
        "batch.build_s": seconds("batch.build"),
        "batch.kernel_s": seconds("batch.kernel"),
        "batch.sims": counts.get("batch.sims", 0),
        "batch.fallbacks": counts.get("batch.fallbacks", 0),
        "batch.batched_ratio": counts.get("batch.sims", 0) / builds if builds else 0.0,
        "engine.s": seconds("engine"),
        "engine.runs": calls("engine"),
        "engine.jobs_released": released,
        "engine.us_per_job": seconds("engine") / released * 1e6 if released else 0.0,
        "energy.s": seconds("energy"),
        "energy.calls": calls("energy"),
        "qos.s": seconds("qos"),
        "audit.s": seconds("audit"),
        "audit.calls": calls("audit"),
        "audit.issues": counts.get("audit.issues", 0),
        "journal.s": seconds("journal.record"),
        "journal.rows": calls("journal.record"),
        "sweep.self_s": sweep_s - sum(value for value, _ in times.values()),
        "trace.sweep_s": sweep_s,
    }


def unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("us_per_job"):
        return "us"
    return "count"
