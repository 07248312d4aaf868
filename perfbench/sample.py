"""One benchmark sample: set up once, then run sweeps in forked children.

Started by ``run.py``, one fresh interpreter per sample.  The sample sets
up (imports, and the generation store where the workload uses one), then
runs ``--sweeps`` sweeps one after another, each in a child forked from
the set-up process.  Every sweep therefore starts from the state a CLI
sweep starts from: the analysis cache, the release-timeline memo and the
sweep's worker memos hold what set-up left in them and nothing from an
earlier sweep.  Writes one JSON document to ``--out``:

* ``setup_wall_s``: wall seconds from ``--started`` (when the parent
  started this process) until set-up ended, and ``setup_s``: the same
  at the reference speed, measured by a :class:`Probe` that runs during
  set-up;
* ``sweeps``: one document per sweep, with
  ``sweep_s`` / ``cpu_s``: wall and CPU seconds of the
  ``utilization_sweep`` call (CPU includes reaped child processes);
  for an untraced sweep, ``probe_s`` / ``probes``: the time and count of
  the reference probes run during it, and ``sweep_ref_s`` /
  ``cpu_ref_s``: its wall and CPU seconds at the reference speed (see
  :class:`Probe`);
  ``peak_rss_mb``: peak resident memory of the sweep's process;
  ``corpus_seed``, ``jobs``, ``payloads``, ``retries``, ``headline``,
  ``violations``, ``audit_issues``: what ``run.py`` checks against the
  recorded payloads; and with ``--trace 1``, ``layers`` (see
  ``layers.layer_metrics``) and ``layer_errors``.

Usage, from the repository root with ``PYTHONPATH=src``:
``python3 perfbench/sample.py --workload W --seed N --work-dir D --out F
[--trace 0|1] [--sweeps K] [--cpu C] [--started T] [--scale bench|tiny]``.  With
``--cpu C`` the sample and its sweeps run on CPU ``C`` only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

#: Time of one ``reference_loop`` on an uncontended core of the machine
#: the benchmark was built on (Intel Xeon at 2.1 GHz, Python 3.11.7).
REFERENCE_S = 0.4e-3
#: Pause between two probes; the probes take 3 to 5% of the sweep's time.
PROBE_PERIOD_S = 0.01


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_loop() -> int:
    """A fixed piece of pure-Python work: the probe's yardstick."""
    total = 0
    for i in range(10_000):
        total += i & 7
    return total


class Probe:
    """Times ``reference_loop`` every ``PROBE_PERIOD_S`` from a thread.

    On a shared host the speed of a CPU changes from second to second
    with what the neighbours run, and every piece of code on it slows
    down together.  The probe thread shares the sweep's CPU and, through
    the GIL, its time slices, so its loop times sample the speed the
    sweep ran at.  ``reference_s(seconds)`` rescales a span of the sweep's
    own work to the speed at which the loop takes ``REFERENCE_S``.
    """

    def __init__(self) -> None:
        self.durations: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            start = time.perf_counter()
            reference_loop()
            self.durations.append(time.perf_counter() - start)
            self._stop.wait(PROBE_PERIOD_S)

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def reference_s(self, seconds: float) -> float:
        """``seconds`` of work, less the probes' own, at the reference speed."""
        own = seconds - sum(self.durations)
        return own * REFERENCE_S / statistics.fmean(self.durations)


def in_child(fn: Callable[[], Dict[str, Any]], out: str) -> Dict[str, Any]:
    """``fn()`` run in a forked child; the document it returned.

    Raises ``RuntimeError`` when the child fails (its traceback goes to
    standard error).
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(fn(), handle)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"sweep process exited {code}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def sweep(kwargs: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Run one sweep in this process; the sweep document."""
    import layers
    from repro.analysis.cache import analysis_cache
    from repro.harness.events import GENERATION, JOB_RETRY, RUN_START, EventLog
    from repro.harness.sweep import utilization_sweep

    events = EventLog()
    # A traced sweep runs without the probe, whose time would land in
    # whichever layer's span it interrupts.
    tracer = layers.Tracer()
    uninstall = layers.install(tracer) if trace else (lambda: None)
    probe = Probe()
    cache = analysis_cache()
    hits, misses = cache.hits, cache.misses
    try:
        with contextlib.nullcontext() if trace else probe:
            cpu_start = _cpu_seconds()
            wall_start = time.perf_counter()
            result = utilization_sweep(events=events, **kwargs)
            sweep_s = time.perf_counter() - wall_start
            cpu_s = _cpu_seconds() - cpu_start
    finally:
        uninstall()

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    (generation,) = events.of_kind(GENERATION)
    (run_start,) = events.of_kind(RUN_START)
    doc: Dict[str, Any] = {
        "sweep_s": sweep_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024,
        "corpus_seed": kwargs["seed"],
        "jobs": run_start.data["jobs"],
        "payloads": {key: list(value) for key, value in result.job_payloads.items()},
        "retries": len(events.of_kind(JOB_RETRY)),
        "headline": result.max_reduction("MKSS_Selective", "MKSS_DP"),
        "violations": sum(
            sum(bucket.mk_violation_count.values()) for bucket in result.bins
        ),
        "audit_issues": len(result.validation_issues),
    }
    if not trace:
        doc["probe_s"] = sum(probe.durations)
        doc["probes"] = len(probe.durations)
        doc["sweep_ref_s"] = probe.reference_s(sweep_s)
        doc["cpu_ref_s"] = probe.reference_s(cpu_s)
    if trace:
        doc["layers"] = layers.layer_metrics(
            tracer,
            sweep_s,
            generation.data,
            cache.hits - hits,
            cache.misses - misses,
        )
        doc["layer_errors"] = tracer.errors
    return doc


def measure(
    workload: str,
    seed: int,
    work_dir: str,
    trace: bool = False,
    scale: str = "bench",
    sweeps: int = 1,
    started: Optional[float] = None,
) -> Dict[str, Any]:
    """Set up in this process, then sweep ``sweeps`` times; the sample document.

    ``started`` is the ``time.monotonic()`` at which the process was
    started (the clock is system-wide); it defaults to now.
    """
    if started is None:
        started = time.monotonic()
    with Probe() as probe:
        import workloads

        kwargs = workloads.set_up(workload, seed, scale, work_dir)
    ready_at = time.monotonic()
    docs = []
    for index in range(sweeps):
        if "journal_path" in kwargs:
            # Each sweep journals to a fresh file, as a first CLI run does.
            kwargs["journal_path"] = os.path.join(work_dir, f"journal-{index}.jsonl")
        out = os.path.join(work_dir, f"sweep-{index}.json")
        docs.append(in_child(lambda: sweep(kwargs, trace), out))
    return {
        "setup_wall_s": ready_at - started,
        "setup_s": probe.reference_s(ready_at - started),
        "sweeps": docs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweeps", type=int, default=1)
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--started", type=float)
    parser.add_argument("--scale", default="bench")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    doc = measure(
        args.workload,
        args.seed,
        args.work_dir,
        trace=bool(args.trace),
        scale=args.scale,
        sweeps=args.sweeps,
        started=args.started,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
