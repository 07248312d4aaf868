"""Utilization sweeps: the engine behind every Figure 6 panel.

The paper sweeps the total (m,k)-utilization in 0.1-wide bins, generates
at least 20 schedulable task sets per bin, runs the three approaches on
each, and plots energy normalized to MKSS_ST.  :func:`utilization_sweep`
does exactly that for an arbitrary scheme list and fault scenario; the
same task sets and the same per-set fault draws are reused across schemes
so comparisons are paired.

Parallel execution (``workers > 1``) uses one persistent process pool for
the whole sweep -- not one pool per bin -- so worker startup is paid once
and every worker's analysis cache stays warm across the bins.  A job is a
``(workload, scheme, scenario, run)`` descriptor: every job of a sweep
shares one :class:`~repro.harness.runner.RunSpec`, and when the sweep
generated its own workload, the workload reference names a task set by
(generation spec, bin, index) so workers regenerate or load it locally
(the generator is deterministic in its seed) instead of unpickling every
TaskSet; explicitly supplied task sets are shipped pickled.  The
``workers=1`` path runs the same jobs inline and is exactly the
sequential protocol.

Sweeps never consume execution traces -- each job reduces to (energy,
violations) -- so ``collect_trace=False`` runs every job stats-only.
Stats mode is exact: payloads, journals, and aggregates are bitwise
identical to trace-mode runs.

Resilience (this module's execution layer, :func:`execute_jobs`):

* jobs are submitted **per future**, not via an all-or-nothing
  ``pool.map``, so one worker crash or hang cannot discard completed
  results;
* each job carries a configurable wall-clock timeout and a bounded retry
  budget with backoff; a ``BrokenProcessPool`` respawns the pool and
  resubmits the unfinished jobs;
* a job that exhausts its retries is **dropped as a pair**: the whole
  (task set, every scheme) group leaves the aggregation -- preserving the
  paper's paired-comparison protocol -- and is surfaced in
  :attr:`SweepResult.dropped` instead of aborting the sweep;
* an optional :class:`~repro.harness.journal.RunJournal` checkpoints each
  finished job, so an interrupted sweep resumes from completed work with
  bitwise-identical results;
* a :class:`~repro.harness.events.EventLog` records job lifecycle, pool
  respawns, wall times, and progress under one run id.

Resume assumes the same ``scenario_factory`` is supplied again: fault
draws are built in the parent, deterministically by global set index, and
are not captured in the journal fingerprint.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..energy.power import PowerModel
from ..errors import ConfigurationError, UnknownSchemeError
from ..faults.scenario import FaultScenario
from ..model.taskset import TaskSet
from ..sim.validation import ValidationIssue
from ..workload.fastgen import GenerationStats, generate_single_bin
from ..workload.generator import GeneratorConfig, generate_binned_tasksets
from .events import (
    BACKEND_FALLBACK,
    BATCH_PROGRESS,
    GENERATION,
    JOB_DROP,
    JOB_FINISH,
    JOB_RETRY,
    JOB_SKIP,
    JOB_START,
    POOL_RESPAWN,
    RUN_FINISH,
    RUN_START,
    VALIDATE,
    VALIDATION_ISSUE,
    EventLog,
)
from .genstore import (
    GenerationStore,
    generation_digest,
)
from .journal import RunJournal
from .runner import PAPER_SCHEMES, SCHEME_FACTORIES, RunSpec, execute_run
from .stats import confidence_interval95, mean
from .validate import audit_scheme

ScenarioFactory = Callable[[int], FaultScenario]
"""Builds the fault scenario for the task set with the given global index
(so every scheme sees the identical fault draw on the same set)."""

#: Job outcome tags returned by :func:`execute_jobs`.
OK = "ok"
DROPPED = "dropped"

#: The execution backends of :func:`utilization_sweep`.  ``pool`` is
#: the classic per-job path (inline at ``workers=1``, process pool
#: above); ``serial`` forces the inline path regardless of ``workers``;
#: ``batch`` advances every batchable job in lockstep on the vectorized
#: kernel (:mod:`repro.sim.batch`) and falls back to the scalar engine
#: per job for the rest.
SWEEP_BACKENDS = ("pool", "batch", "serial")


def check_backend(backend: str) -> None:
    """Raise :class:`ConfigurationError` unless ``backend`` is one of
    :data:`SWEEP_BACKENDS`."""
    if backend not in SWEEP_BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {sorted(SWEEP_BACKENDS)}"
        )


def _freeze(value):
    """Recursively convert containers to hashable tuples for hash keys.

    Dicts become sorted ``(key, value)`` tuples and sets become sorted
    tuples, so a dict- or set-valued :class:`GeneratorConfig` field still
    yields a hashable :func:`_config_key` (worker-side regeneration memos
    index on it).
    """
    if isinstance(value, dict):
        return tuple(
            (key, _freeze(item)) for key, item in sorted(value.items())
        )
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(item) for item in value))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _config_key(config: Optional[GeneratorConfig]) -> Optional[tuple]:
    """Hashable identity of a generator config (None = defaults)."""
    if config is None:
        return None
    return tuple(
        (f.name, _freeze(getattr(config, f.name)))
        for f in dataclasses.fields(config)
    )


def _taskset_digest(taskset: TaskSet) -> str:
    """Short stable digest of a task set's analysis-relevant identity."""
    blob = repr(taskset.fingerprint()).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()[:16]


#: Per-worker-process workload memos.  ``_WORKER_BIN_TASKSETS`` holds one
#: *bin* of task sets per key ``((spec key), bin_range)`` -- the sharded
#: design: a worker materializes only the bins its own jobs reference
#: (from the shared :class:`GenerationStore` or by replaying that bin's
#: RNG stream), so its generation cost scales with its job shard, not
#: the whole sweep.  Only the latest spec's bins are retained.
#: ``_WORKER_TASKSETS`` is the full-spec memo behind the store-miss
#: recovery path (a store entry that vanished or failed verification).
_WORKER_BIN_TASKSETS: Dict[tuple, List[TaskSet]] = {}
_WORKER_TASKSETS: Dict[tuple, Dict[Tuple[float, float], List[TaskSet]]] = {}
_WORKER_STORES: Dict[str, GenerationStore] = {}

#: Observability counters for tests and diagnostics: how many single
#: bins and how many *full sweeps* this process has regenerated.
_WORKER_GEN_COUNTS = {"bins": 0, "full": 0, "store_bins": 0}

#: A generated workload's identity: ``(bins, sets_per_bin, generator
#: config, seed)``.
GenerationSpec = Tuple[
    Tuple[Tuple[float, float], ...], int, Optional[GeneratorConfig], Optional[int]
]


def _spec_key(spec: GenerationSpec) -> tuple:
    bins, sets_per_bin, config, seed = spec
    return (bins, sets_per_bin, _config_key(config), seed)


def _regenerated_tasksets(
    spec: GenerationSpec,
) -> Dict[Tuple[float, float], List[TaskSet]]:
    """The whole generation, regenerated (store-miss recovery)."""
    key = _spec_key(spec)
    cached = _WORKER_TASKSETS.get(key)
    if cached is None:
        cached = generate_binned_tasksets(*spec)
        _WORKER_GEN_COUNTS["full"] += 1
        _WORKER_TASKSETS.clear()
        _WORKER_TASKSETS[key] = cached
    return cached


def _retain_spec(spec_key: tuple) -> None:
    """Drop memoized bins of any other spec (bounded worker memory)."""
    for existing in list(_WORKER_BIN_TASKSETS):
        if existing[0] != spec_key:
            del _WORKER_BIN_TASKSETS[existing]


def _worker_bin_tasksets(
    spec: GenerationSpec,
    bin_range: Tuple[float, float],
    rng_state: tuple,
) -> List[TaskSet]:
    """One bin's task sets, regenerated from that bin's RNG state."""
    spec_key = _spec_key(spec)
    key = (spec_key, bin_range)
    cached = _WORKER_BIN_TASKSETS.get(key)
    if cached is None:
        _retain_spec(spec_key)
        cached = generate_single_bin(
            bin_range, spec[1], spec[2], rng_state=rng_state
        )
        _WORKER_GEN_COUNTS["bins"] += 1
        _WORKER_BIN_TASKSETS[key] = cached
    return cached


def _store_bin_tasksets(
    root: str,
    digest: str,
    spec: GenerationSpec,
    bin_range: Tuple[float, float],
) -> List[TaskSet]:
    """One bin's task sets, loaded from the shared generation store.

    A vanished or corrupt store entry degrades to full regeneration (the
    store itself warns) -- slower, never wrong.
    """
    spec_key = _spec_key(spec)
    key = (spec_key, bin_range)
    cached = _WORKER_BIN_TASKSETS.get(key)
    if cached is None:
        store = _WORKER_STORES.get(root)
        if store is None:
            store = _WORKER_STORES.setdefault(root, GenerationStore(root))
        cached = store.get_bin(digest, bin_range)
        if cached is None:
            return _regenerated_tasksets(spec)[bin_range]
        _retain_spec(spec_key)
        _WORKER_GEN_COUNTS["store_bins"] += 1
        _WORKER_BIN_TASKSETS[key] = cached
    return cached


def _workload_taskset(ref: tuple) -> TaskSet:
    """The task set a job descriptor's workload reference names.

    * ``("set", taskset)`` carries a pickled TaskSet (explicitly
      supplied workloads and the inline ``workers=1`` path);
    * ``("genbin", spec, bin_range, rng_state, index)`` carries the RNG
      state at the start of that bin's fill loop, so the worker
      regenerates *only* the referenced bin (:func:`_worker_bin_tasksets`);
    * ``("store", store_root, digest, spec, bin_range, index)`` loads the
      referenced bin's shard from the shared :class:`GenerationStore`
      (:func:`_store_bin_tasksets`), regenerating nothing on a warm store.
    """
    kind = ref[0]
    if kind == "set":
        return ref[1]
    if kind == "genbin":
        _, spec, bin_range, rng_state, index = ref
        return _worker_bin_tasksets(spec, bin_range, rng_state)[index]
    if kind == "store":
        _, root, digest, spec, bin_range, index = ref
        return _store_bin_tasksets(root, digest, spec, bin_range)[index]
    raise ConfigurationError(  # pragma: no cover - built in this module
        f"unknown sweep workload kind {kind!r}"
    )


#: Test-only fault injection: when this environment variable names an
#: existing file, the first worker to claim it (by unlinking it) dies
#: with ``os._exit``, simulating a SIGKILL/OOM mid-sweep.  Used by the
#: resilience tests and the CI worker-kill job; inert in normal runs.
_CRASH_FILE_ENV = "REPRO_SWEEP_CRASH_FILE"


def _maybe_crash_for_tests() -> None:
    path = os.environ.get(_CRASH_FILE_ENV)
    if not path:
        return
    try:
        os.unlink(path)
    except OSError:
        return
    os._exit(17)


def _run_one(job: tuple) -> Tuple[float, int]:
    """Module-level worker so ProcessPoolExecutor can pickle it.

    ``job`` is a descriptor ``(workload, scheme, scenario, run)``:
    a workload reference (see :func:`_workload_taskset`), the scheme
    name, the fault scenario, and the sweep's :class:`RunSpec`.

    Returns ``(total energy, mk violations)``, the checkpointed payload;
    it is identical whatever the execution mode (the engine guarantees
    the metrics are).
    """
    _maybe_crash_for_tests()
    workload, scheme, scenario, run = job
    outcome = execute_run(_workload_taskset(workload), scheme, scenario, run)
    return outcome.total_energy, outcome.metrics.mk_violations


@dataclass(frozen=True)
class ExecutionPolicy:
    """Fault-isolation knobs for :func:`execute_jobs`.

    Attributes:
        job_timeout: per-job wall-clock budget in seconds, measured from
            submission; ``None`` waits forever.  A timeout tears the pool
            down (a stuck worker cannot be cancelled any other way),
            charges the timed-out job one attempt, and resubmits the rest
            uncharged.  Ignored on the inline ``workers=1`` path.
        max_retries: failed attempts a job may accumulate beyond its
            first try before it is dropped.
        retry_backoff: seconds slept before retrying a job that raised,
            scaled by its attempt count (0 = retry immediately).
    """

    job_timeout: Optional[float] = None
    max_retries: int = 2
    retry_backoff: float = 0.0

    def __post_init__(self) -> None:
        if self.job_timeout is not None and not self.job_timeout > 0:
            raise ConfigurationError(
                f"job_timeout must be positive or None, got {self.job_timeout}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )


def _describe_error(exc: BaseException) -> str:
    text = str(exc)
    name = type(exc).__name__
    return f"{name}: {text}" if text else name


def _kill_pool(pool) -> None:
    """Forcefully tear down an executor whose workers may be stuck.

    ``shutdown`` alone joins the workers, which never returns if one is
    hung; killing the processes first (private attribute, guarded) makes
    teardown prompt and lets a fresh pool take over.
    """
    processes = getattr(pool, "_processes", None)
    for process in list((processes or {}).values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def execute_jobs(
    jobs: Sequence[Any],
    *,
    worker: Optional[Callable[[Any], Any]] = None,
    keys: Optional[Sequence[str]] = None,
    workers: int = 1,
    policy: Optional[ExecutionPolicy] = None,
    journal: Optional[RunJournal] = None,
    completed: Optional[Dict[str, Any]] = None,
    events: Optional[EventLog] = None,
    batch: Optional[
        Callable[[List[int]], Tuple[Dict[int, Any], float]]
    ] = None,
) -> List[Tuple[str, Any]]:
    """Run independent jobs with fault isolation, retries, checkpointing.

    The resilient core of the sweep harness, usable with any picklable
    ``worker``.  Returns one ``(tag, payload)`` per job, aligned with
    ``jobs``: ``("ok", value)`` for a finished job, ``("dropped",
    reason)`` for a job that exhausted its retry budget.  The call never
    raises for worker-side failures -- crashes, hangs, and exceptions all
    degrade to drops after bounded retries.

    Args:
        jobs: picklable job descriptors.
        worker: callable mapping one descriptor to a result (default:
            the sweep worker :func:`_run_one`).
        keys: deterministic per-job identities for journaling; generated
            positionally when omitted.
        workers: process count; 1 runs inline (same retry/drop policy,
            no timeout enforcement).
        policy: timeout/retry knobs (default :class:`ExecutionPolicy`).
        journal: started journal to append finished jobs to.
        completed: ``{key: value}`` of jobs already done (from a journal
            resume); matching jobs are skipped and reported as ok.
        events: event log to emit into (a throwaway one when omitted).
        batch: an optional first pass over the indices of the jobs not
            resumed (the sweep's batch kernel, :func:`_run_batched`):
            returns ``{index: value}`` for the jobs it finished and the
            wall time apportioned to each.  Those jobs are journaled and
            announced with ``apportioned=True``; the rest run through
            ``worker`` as usual.

    Failure semantics in the pool path: an exception raised *by the job*
    charges that job an attempt and retries after backoff; a pool break
    charges every submitted-but-unfinished job (the culprit is unknowable
    once the pool dies) and respawns; a timeout charges only the
    timed-out job, then tears down and respawns the pool because a
    running future cannot be cancelled.
    """
    worker = worker or _run_one
    policy = policy or ExecutionPolicy()
    log = events if events is not None else EventLog()
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    total = len(jobs)
    if keys is None:
        key_list = [f"job{index}" for index in range(total)]
    else:
        key_list = [str(key) for key in keys]
        if len(key_list) != total:
            raise ConfigurationError(
                f"{len(key_list)} keys for {total} jobs"
            )
        if len(set(key_list)) != total:
            raise ConfigurationError("job keys must be unique")

    results: List[Optional[Tuple[str, Any]]] = [None] * total
    attempts = [0] * total
    done = 0

    def finish(
        index: int, value: Any, wall_s: float, apportioned: bool = False
    ) -> None:
        nonlocal done
        results[index] = (OK, value)
        done += 1
        if journal is not None:
            journal.record(
                key_list[index],
                value,
                wall_s=round(wall_s, 6),
                attempt=attempts[index] + 1,
            )
        log.emit(
            JOB_FINISH,
            job=key_list[index],
            attempt=attempts[index] + 1,
            wall_s=round(wall_s, 6),
            progress=f"{done}/{total}",
            **({"apportioned": True} if apportioned else {}),
        )

    def drop(index: int, reason: str) -> None:
        nonlocal done
        results[index] = (DROPPED, reason)
        done += 1
        log.emit(
            JOB_DROP,
            job=key_list[index],
            attempt=attempts[index],
            reason=reason,
            progress=f"{done}/{total}",
        )

    def fail(index: int, reason: str, survivors: List[int], backoff: bool) -> None:
        """Charge one attempt; retry (into ``survivors``) or drop."""
        attempts[index] += 1
        if attempts[index] > policy.max_retries:
            drop(index, reason)
            return
        log.emit(
            JOB_RETRY,
            job=key_list[index],
            attempt=attempts[index],
            reason=reason,
        )
        if backoff and policy.retry_backoff:
            time.sleep(policy.retry_backoff * attempts[index])
        survivors.append(index)

    if completed:
        for index, key in enumerate(key_list):
            if key in completed:
                results[index] = (OK, completed[key])
                done += 1
                log.emit(JOB_SKIP, job=key, progress=f"{done}/{total}")
    pending = [index for index in range(total) if results[index] is None]
    if batch is not None and pending:
        batched, wall_s = batch(pending)
        for index in pending:
            if index in batched:
                finish(index, batched[index], wall_s, apportioned=True)
        pending = [index for index in pending if index not in batched]

    if workers == 1:
        while pending:
            survivors: List[int] = []
            for index in pending:
                log.emit(
                    JOB_START,
                    job=key_list[index],
                    attempt=attempts[index] + 1,
                    queue_depth=total - done,
                )
                started = time.monotonic()
                try:
                    value = worker(jobs[index])
                except Exception as exc:
                    fail(index, _describe_error(exc), survivors, backoff=True)
                else:
                    finish(index, value, time.monotonic() - started)
            pending = survivors
        return [
            outcome if outcome is not None else (DROPPED, "not executed")
            for outcome in results
        ]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeoutError
    from concurrent.futures.process import BrokenProcessPool

    pool = None
    try:
        while pending:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
            futures = {}
            submitted_at = {}
            for index in pending:
                futures[index] = pool.submit(worker, jobs[index])
                submitted_at[index] = time.monotonic()
                log.emit(
                    JOB_START,
                    job=key_list[index],
                    attempt=attempts[index] + 1,
                    queue_depth=total - done,
                )
            survivors = []
            pool_dead = False
            for index in pending:
                future = futures[index]
                if pool_dead:
                    # The pool is being torn down: harvest whatever
                    # already finished, resubmit the rest uncharged
                    # (broken futures are charged -- see below).
                    if not future.done():
                        future.cancel()
                        survivors.append(index)
                        continue
                    try:
                        value = future.result(timeout=0)
                    except BrokenProcessPool:
                        fail(
                            index,
                            "worker process died (pool broken)",
                            survivors,
                            backoff=False,
                        )
                    except Exception as exc:
                        fail(index, _describe_error(exc), survivors, backoff=False)
                    else:
                        finish(
                            index, value, time.monotonic() - submitted_at[index]
                        )
                    continue
                try:
                    value = future.result(timeout=policy.job_timeout)
                except FutureTimeoutError:
                    pool_dead = True
                    fail(
                        index,
                        f"timed out after {policy.job_timeout:g}s",
                        survivors,
                        backoff=False,
                    )
                except BrokenProcessPool:
                    pool_dead = True
                    fail(
                        index,
                        "worker process died (pool broken)",
                        survivors,
                        backoff=False,
                    )
                except Exception as exc:
                    fail(index, _describe_error(exc), survivors, backoff=True)
                else:
                    finish(index, value, time.monotonic() - submitted_at[index])
            if pool_dead:
                _kill_pool(pool)
                pool = None
                log.emit(POOL_RESPAWN, pending=len(survivors))
            pending = survivors
    finally:
        if pool is not None:
            pool.shutdown()
    return [
        outcome if outcome is not None else (DROPPED, "not executed")
        for outcome in results
    ]


def _run_batch_chunk(items: list) -> list:
    """Module-level batch worker so ProcessPoolExecutor can pickle it.

    ``items`` is a list of :class:`repro.sim.batch.BatchItem`; the whole
    chunk advances in lockstep on one vectorized kernel.  Returns one
    ``(energy, violations)`` payload per item, aligned
    with ``items`` -- exactly what :func:`_run_one` returns for the same
    job on the scalar engine.
    """
    _maybe_crash_for_tests()
    from ..sim.batch import run_batch_payloads

    return run_batch_payloads(items)


def _run_batched(
    pending: Sequence[int],
    *,
    keys: Sequence[str],
    specs: Sequence[Tuple[TaskSet, str, Optional[FaultScenario]]],
    workers: int,
    policy: ExecutionPolicy,
    events: EventLog,
    run: RunSpec,
) -> Tuple[Dict[int, Any], float]:
    """The ``backend="batch"`` kernel pass over the pending jobs.

    Resolves every pending job into a :class:`~repro.sim.batch.BatchItem`
    where possible and advances all of them in lockstep -- inline at
    ``workers=1`` with live BATCH_PROGRESS, or split into one chunk per
    worker over the process pool.  Returns ``{index: payload}`` for the
    jobs the kernel finished plus their apportioned wall time (the
    kernel's elapsed time divided evenly among its jobs);
    :func:`execute_jobs` journals and announces them and runs every
    other pending job on the scalar engine: jobs the kernel cannot take
    (transient faults possible, no batch profile, window too deep) and
    every batched job whose chunk failed (announced here as JOB_RETRY).
    """
    from ..sim.batch import build_batch_item, run_batch_payloads

    items: Dict[int, Any] = {}
    for index in pending:
        taskset, scheme, scenario = specs[index]
        item = build_batch_item(taskset, scheme, scenario, **run.knobs())
        if item is not None:
            items[index] = item
    batch_order = sorted(items)
    if not batch_order:
        return {}, 0.0

    def retry(chunk: Sequence[int], reason: str) -> None:
        for index in chunk:
            events.emit(JOB_RETRY, job=keys[index], attempt=1, reason=reason)

    def report(done_sims: int, total_sims: int, elapsed: float) -> None:
        events.emit(
            BATCH_PROGRESS,
            done=done_sims,
            total=total_sims,
            sims_per_s=round(done_sims / elapsed, 1) if elapsed > 0 else None,
        )

    payloads: Dict[int, Any] = {}
    started = time.monotonic()
    if workers == 1:
        last_emit = [started]

        def progress(done_sims: int, total_sims: int) -> None:
            stamp = time.monotonic()
            if done_sims < total_sims and stamp - last_emit[0] < 1.0:
                return
            last_emit[0] = stamp
            report(done_sims, total_sims, stamp - started)

        try:
            values = run_batch_payloads(
                [items[index] for index in batch_order], progress
            )
        except Exception as exc:
            retry(batch_order, f"batch kernel failed: {_describe_error(exc)}")
        else:
            payloads.update(zip(batch_order, values))
        elapsed = time.monotonic() - started
    else:
        # One lockstep chunk per worker; a chunk is the retry/timeout
        # unit (execute_jobs charges and respawns per chunk), and a
        # chunk that still fails degrades to per-job scalar fallback.
        chunk_count = min(workers, len(batch_order))
        chunks = [
            batch_order[offset::chunk_count] for offset in range(chunk_count)
        ]
        outcomes = execute_jobs(
            [[items[index] for index in chunk] for chunk in chunks],
            worker=_run_batch_chunk,
            keys=[f"batch-chunk{offset}" for offset in range(chunk_count)],
            workers=workers,
            policy=policy,
            events=EventLog(),  # chunk lifecycle stays off the run stream
        )
        elapsed = time.monotonic() - started
        for chunk, (tag, value) in zip(chunks, outcomes):
            if tag == OK:
                payloads.update(zip(chunk, value))
            else:
                retry(chunk, f"batch chunk failed: {value}")
        report(len(payloads), len(batch_order), elapsed)
    return payloads, elapsed / len(batch_order)


@dataclass
class BinResult:
    """Aggregated results for one (m,k)-utilization bin."""

    bin_range: Tuple[float, float]
    taskset_count: int
    mean_energy: Dict[str, float]
    normalized_energy: Dict[str, float]
    mk_violation_count: Dict[str, int]
    energy_ci95: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"[{self.bin_range[0]:g},{self.bin_range[1]:g})"


@dataclass(frozen=True)
class DroppedSet:
    """One (task set, all schemes) pair excluded from aggregation.

    Dropping the whole pair -- not just the failing scheme's run --
    preserves the paired-comparison protocol: every aggregated task set
    contributes one result to *every* scheme.
    """

    bin_range: Tuple[float, float]
    index: int
    schemes: Tuple[str, ...]
    reason: str

    @property
    def label(self) -> str:
        return f"[{self.bin_range[0]:g},{self.bin_range[1]:g}) set {self.index}"


@dataclass(frozen=True)
class SweepValidation:
    """One conformance issue found by the sweep's ``validate`` sampling."""

    job: str
    scheme: str
    mode: str
    issue: ValidationIssue


@dataclass
class SweepResult:
    """Results of a full utilization sweep."""

    schemes: Sequence[str]
    reference_scheme: str
    bins: List[BinResult] = field(default_factory=list)
    dropped: List[DroppedSet] = field(default_factory=list)
    run_id: Optional[str] = None
    validation_issues: List[SweepValidation] = field(default_factory=list)
    #: Per-job payloads of every aggregated run, keyed by the sweep's
    #: deterministic job key (the journal's key): ``(energy, violations)``.
    #: Jobs of dropped pairs are excluded, mirroring the aggregates.
    #: Enables paired per-set analyses (alternative normalizations,
    #: outlier triage) without re-running or re-parsing the journal.
    job_payloads: Dict[str, Tuple[float, int]] = field(default_factory=dict)

    def series(self, scheme: str) -> List[Tuple[str, float]]:
        """(bin label, normalized energy) pairs for one scheme."""
        return [(b.label, b.normalized_energy[scheme]) for b in self.bins]

    def max_reduction(self, scheme: str, versus: str) -> float:
        """Largest *signed* relative energy reduction of ``scheme`` vs
        ``versus`` across bins.

        Paper-style headline: 0.28 means 'up to 28% lower energy'.  A
        negative value means the scheme never beat the baseline in any
        bin -- a regression this method deliberately does not clamp to
        zero, so it stays visible.  Returns 0.0 only when no bin has a
        positive baseline to compare against.
        """
        best: Optional[float] = None
        for bucket in self.bins:
            baseline = bucket.mean_energy[versus]
            if baseline <= 0:
                continue
            reduction = 1.0 - bucket.mean_energy[scheme] / baseline
            if best is None or reduction > best:
                best = reduction
        return 0.0 if best is None else best


def _sweep_fingerprint(
    bins: Sequence[Tuple[float, float]],
    schemes: Sequence[str],
    sets_per_bin: int,
    reference_scheme: str,
    generator_config: Optional[GeneratorConfig],
    seed: Optional[int],
    supplied_tasksets: Optional[Dict[Tuple[float, float], List[TaskSet]]],
    run: RunSpec,
) -> Dict[str, Any]:
    """JSON-able identity of a sweep, for journal header validation.

    The fixed keys plus :meth:`RunSpec.canonical`: a non-default run knob
    (power model, release model, initial history, DVFS) changes every
    payload, so it enters the identity; defaults stay absent so journals
    recorded before a knob existed still resume.  Execution-mode knobs
    (``collect_trace``, ``workers``, ``backend``, timeouts) are
    deliberately absent: the engine guarantees identical metrics in
    every mode, so a journal written stats-only or on the batch backend
    resumes a trace-mode pool sweep -- and vice versa -- with
    bitwise-equal payloads.
    """
    if supplied_tasksets is None:
        workload: Any = "generated"
    else:
        workload = {
            f"{key[0]:g}-{key[1]:g}": [
                _taskset_digest(taskset) for taskset in tasksets
            ]
            for key, tasksets in sorted(supplied_tasksets.items())
        }
    return {
        "kind": "utilization_sweep",
        "bins": [[float(lo), float(hi)] for lo, hi in bins],
        "schemes": list(schemes),
        "reference_scheme": reference_scheme,
        "sets_per_bin": int(sets_per_bin),
        "seed": seed,
        "horizon_cap_units": int(run.horizon_cap_units),
        "generator_config": repr(_config_key(generator_config)),
        "workload": workload,
        **run.canonical(),
    }


def utilization_sweep(
    bins: Sequence[Tuple[float, float]],
    schemes: Sequence[str] = PAPER_SCHEMES,
    scenario_factory: Optional[ScenarioFactory] = None,
    sets_per_bin: int = 20,
    reference_scheme: str = "MKSS_ST",
    generator_config: Optional[GeneratorConfig] = None,
    seed: Optional[int] = 20200309,
    horizon_cap_units: int = 2000,
    power_model: Optional[PowerModel] = None,
    tasksets_by_bin: Optional[Dict[Tuple[float, float], List[TaskSet]]] = None,
    workers: int = 1,
    backend: str = "pool",
    journal_path: Optional[str] = None,
    resume: bool = False,
    force_new: bool = False,
    job_timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.0,
    events: Optional[EventLog] = None,
    collect_trace: bool = True,
    validate: int = 0,
    generation_store: "Optional[GenerationStore | str]" = None,
    release_model=None,
    initial_history: str = "met",
    dvfs=None,
) -> SweepResult:
    """Run the paper's sweep protocol.

    Args:
        bins: (lo, hi) utilization intervals.
        schemes: scheme names to compare (must include the reference).
        scenario_factory: per-task-set fault scenario builder; fault-free
            when omitted.  Always invoked in the parent process, in global
            set order, regardless of ``workers``.
        sets_per_bin: schedulable sets per bin (the paper's >= 20).
        reference_scheme: normalization reference (the paper's MKSS_ST).
        generator_config: workload generator knobs.
        seed: workload RNG seed (fixed default for reproducibility).
        horizon_cap_units: simulation horizon cap per set.
        power_model: energy model applied in every job (None = the
            paper's default).  A non-default model enters the journal
            fingerprint, so a journal recorded under one T_be cannot be
            silently resumed under another.
        tasksets_by_bin: pre-generated task sets (skips generation).
        workers: > 1 fans the (task set, scheme) runs out over a single
            persistent process pool spanning every bin; results are
            identical to the sequential run (each run is deterministic
            given its scenario).
        backend: execution backend, one of :data:`SWEEP_BACKENDS`.
            ``"pool"`` (default) runs one scalar engine per job --
            inline at ``workers=1``, over the process pool above.
            ``"batch"`` advances every batchable job in lockstep on the
            vectorized numpy kernel (one batch per worker) and falls
            back to the scalar engine per job for the rest; payloads,
            journal rows, and aggregates are byte-identical to the pool
            backend, so journals resume across backends.  Without
            numpy it degrades to ``"pool"`` and emits BACKEND_FALLBACK
            right after RUN_START, whose ``backend`` names the backend
            actually used.  ``"serial"`` forces the inline scalar path
            regardless of ``workers``.
        journal_path: JSONL checkpoint file; every finished job is
            appended so a crashed or interrupted sweep can resume.
        resume: load completed jobs from ``journal_path`` (validated
            against this sweep's fingerprint) and run only the rest.
        force_new: with ``resume=True``, overwrite a journal that cannot
            be resumed (corrupt/truncated header, fingerprint mismatch)
            instead of raising; a healthy matching journal still resumes.
        job_timeout: per-job wall-clock budget in seconds (parallel runs
            only); a job over budget is retried, then dropped as a pair.
        max_retries: retry budget per job before its pair is dropped.
        retry_backoff: base backoff in seconds between retries of a job
            that raised.
        events: :class:`EventLog` receiving the run's structured events
            (job lifecycle, respawns, progress); omitted = internal log.
        collect_trace: False runs every job stats-only (no execution
            trace is ever built); energies and violation counts are
            identical, wall clock is lower.  Sweeps never consume
            traces, so this is purely a speed knob.
        validate: sample up to this many aggregated task sets (evenly
            across the sweep) and run the conformance auditor
            (:func:`~repro.harness.validate.audit_scheme`) on every
            scheme for each, in trace and stats modes.  Findings land in
            :attr:`SweepResult.validation_issues` and are emitted as
            VALIDATE / VALIDATION_ISSUE events.  0 (default) disables
            sampling.
        generation_store: a :class:`GenerationStore` (or its root path)
            memoizing generated corpora across processes and restarts.
            A spec seen before loads task sets instead of regenerating
            them; pool workers read only the bin shards their jobs
            reference.  Purely an execution knob: results, journal rows,
            and the sweep fingerprint are identical with or without it.
        release_model: job arrival process
            (:class:`~repro.workload.release.ReleaseModel`, a preset
            name, or a model dict); None or a periodic model keeps the
            paper's strictly periodic releases (and the historical
            fingerprint).  Non-periodic models enter the journal
            fingerprint and make every job non-batchable (the batch backend falls back to the
            scalar engine per job, like transient faults).
        initial_history: (m,k)-history boundary condition for every job,
            one of :data:`repro.model.history.INITIAL_HISTORY_MODES`;
            non-default modes enter the journal fingerprint.
        dvfs: deadline-safe frequency scaling
            (:class:`~repro.energy.dvfs.DVFSConfig` or its dict form)
            applied in every job to the schemes the config names; None
            -- or a config whose critical speed is 1 -- keeps the
            paper's fixed-frequency runs (and the historical
            fingerprint).  An effective config enters the journal
            fingerprint and makes the affected schemes' jobs
            non-batchable (the batch backend falls back to the scalar
            engine per job, like transient faults).
    """
    if reference_scheme not in schemes:
        raise ConfigurationError(
            f"reference scheme {reference_scheme!r} must be in {schemes}"
        )
    unknown = sorted(set(schemes) - set(SCHEME_FACTORIES))
    if unknown:
        raise UnknownSchemeError(
            f"unknown scheme(s) {unknown}; known: {sorted(SCHEME_FACTORIES)}"
        )
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    check_backend(backend)
    if backend == "serial":
        workers = 1
    fallback: Optional[str] = None
    if backend == "batch":
        from ..sim.batch import numpy_available

        if not numpy_available():
            # Degrade, don't crash: the batch kernel is an accelerator,
            # not a requirement, and the backend is outside the result.
            fallback = "numpy is not installed (pip install repro[batch])"
            backend = "pool"
    if resume and not journal_path:
        raise ConfigurationError("resume=True requires journal_path")
    run = RunSpec(
        horizon_cap_units=horizon_cap_units,
        power_model=power_model,
        release_model=release_model,
        initial_history=initial_history,
        dvfs=dvfs,
        collect_trace=collect_trace,
    )
    if validate < 0:
        raise ConfigurationError(f"validate must be >= 0, got {validate}")
    policy = ExecutionPolicy(
        job_timeout=job_timeout,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
    )

    log = events if events is not None else EventLog()
    supplied = tasksets_by_bin is not None
    generated_spec: Optional[GenerationSpec] = None
    fingerprint = _sweep_fingerprint(
        bins,
        schemes,
        sets_per_bin,
        reference_scheme,
        generator_config,
        seed,
        tasksets_by_bin,
        run,
    )
    gen_store: Optional[GenerationStore] = (
        GenerationStore(generation_store)
        if isinstance(generation_store, str)
        else generation_store
    )
    gen_digest: Optional[str] = None
    gen_stats: Optional[GenerationStats] = None
    if tasksets_by_bin is None:
        generated_spec = (
            tuple(tuple(b) for b in bins),
            sets_per_bin,
            generator_config,
            seed,
        )
        gen_digest = generation_digest(
            bins, sets_per_bin, generator_config, seed
        )
        gen_started = time.monotonic()
        cached = gen_store.get(gen_digest) if gen_store is not None else None
        if cached is not None:
            tasksets_by_bin = cached
            gen_source = "cache"
            gen_counters: Dict[str, Any] = {}
        else:
            gen_stats = GenerationStats()
            tasksets_by_bin = generate_binned_tasksets(
                bins, sets_per_bin, generator_config, seed, stats=gen_stats
            )
            gen_source = "generated"
            gen_counters = {
                key: value
                for key, value in gen_stats.to_dict().items()
                if key != "seconds"
            }
            if gen_store is not None:
                gen_store.put(
                    gen_digest,
                    tasksets_by_bin,
                    spec={
                        "bins": [list(map(float, b)) for b in bins],
                        "sets_per_bin": sets_per_bin,
                        "seed": seed,
                    },
                )
        if gen_store is not None:
            gen_counters.update(
                {f"cache_{k}": v for k, v in gen_store.stats().items()}
            )
        # Emitted right after RUN_START: run_start/run_finish bracket the
        # whole event stream (the service e2e contract).
        gen_event: Optional[Dict[str, Any]] = dict(
            source=gen_source,
            digest=gen_digest,
            seconds=round(time.monotonic() - gen_started, 3),
            sets=sum(len(v) for v in tasksets_by_bin.values()),
            **gen_counters,
        )
    else:
        gen_event = None
    # Workers rebuild internally generated workloads from a per-bin shard
    # -- a store read when a GenerationStore is shared, otherwise a
    # replay of just that bin's RNG stream (a few ints + one RNG state
    # beat a pickled TaskSet per job); supplied workloads have no spec
    # and are shipped pickled.
    ship_spec = workers > 1 and generated_spec is not None

    jobs: List[tuple] = []
    # meta rows: (bin key, scheme, global set counter, index within bin).
    meta: List[Tuple[Tuple[float, float], str, int, int]] = []
    job_keys: List[str] = []
    # (taskset, scheme, scenario) per job, for the batch backend's
    # parent-side batchability resolution (references, not copies).
    batch_specs: List[Tuple[TaskSet, str, Optional[FaultScenario]]] = []
    populated: List[Tuple[Tuple[float, float], int]] = []
    set_counter = 0
    for bin_range in bins:
        key = tuple(bin_range)
        tasksets = tasksets_by_bin.get(key, [])
        if not tasksets:
            continue
        populated.append((key, len(tasksets)))
        for index, taskset in enumerate(tasksets):
            scenario = (
                scenario_factory(set_counter) if scenario_factory else None
            )
            counter = set_counter
            set_counter += 1
            for scheme in schemes:
                meta.append((key, scheme, counter, index))
                batch_specs.append((taskset, scheme, scenario))
                # Journal keys are worker-count independent (a sweep
                # journaled sequentially resumes in parallel and vice
                # versa): position for generated workloads, digest for
                # supplied ones.
                if supplied:
                    job_keys.append(
                        f"set{counter}|{_taskset_digest(taskset)}|{scheme}"
                    )
                else:
                    job_keys.append(
                        f"u{key[0]:g}-{key[1]:g}|set{index}|{scheme}"
                    )
                if not ship_spec:
                    workload: tuple = ("set", taskset)
                elif gen_store is not None:
                    workload = ("store", gen_store.root, gen_digest,
                                generated_spec, key, index)
                else:
                    workload = ("genbin", generated_spec, key,
                                gen_stats.bin_states[key], index)
                jobs.append((workload, scheme, scenario, run))

    log.emit(
        RUN_START,
        jobs=len(jobs),
        workers=workers,
        backend=backend,
        resume=bool(resume),
        journal=journal_path or None,
    )
    if fallback is not None:
        log.emit(
            BACKEND_FALLBACK, requested="batch", used="pool", reason=fallback
        )
    if gen_event is not None:
        log.emit(GENERATION, **gen_event)
    journal: Optional[RunJournal] = None
    completed: Dict[str, Any] = {}
    if journal_path:
        journal = RunJournal(journal_path)
        completed = journal.start(
            fingerprint, log.run_id, resume=resume, force_new=force_new
        )
    batch = None
    if backend == "batch":
        batch = functools.partial(
            _run_batched,
            keys=job_keys,
            specs=batch_specs,
            workers=workers,
            policy=policy,
            events=log,
            run=run,
        )
    try:
        results = execute_jobs(
            jobs,
            keys=job_keys,
            workers=workers,
            policy=policy,
            journal=journal,
            completed=completed,
            events=log,
            batch=batch,
        )
    finally:
        if journal is not None:
            journal.close()

    # A dropped job voids its whole (task set, schemes) pair so every
    # aggregated set still contributes to every scheme.
    failures: Dict[int, List[Tuple[str, str]]] = {}
    set_info: Dict[int, Tuple[Tuple[float, float], int]] = {}
    for (key, scheme, counter, index), outcome in zip(meta, results):
        set_info.setdefault(counter, (key, index))
        if outcome[0] != OK:
            failures.setdefault(counter, []).append((scheme, outcome[1]))

    totals: Dict[Tuple[float, float], Dict[str, List[float]]] = {
        key: {scheme: [] for scheme in schemes} for key, _ in populated
    }
    violations: Dict[Tuple[float, float], Dict[str, int]] = {
        key: {scheme: 0 for scheme in schemes} for key, _ in populated
    }
    payloads: Dict[str, Tuple[float, int]] = {}
    for job_key, (key, scheme, counter, index), outcome in zip(
        job_keys, meta, results
    ):
        if counter in failures or outcome[0] != OK:
            continue
        energy, job_violations = outcome[1]
        totals[key][scheme].append(energy)
        violations[key][scheme] += job_violations
        payloads[job_key] = (energy, job_violations)

    sweep = SweepResult(
        schemes=tuple(schemes),
        reference_scheme=reference_scheme,
        run_id=log.run_id,
        job_payloads=payloads,
    )
    for counter in sorted(failures):
        key, index = set_info[counter]
        failed = failures[counter]
        sweep.dropped.append(
            DroppedSet(
                bin_range=key,
                index=index,
                schemes=tuple(scheme for scheme, _ in failed),
                reason="; ".join(sorted({reason for _, reason in failed})),
            )
        )
    for key, _count in populated:
        aggregated = len(totals[key][reference_scheme])
        if aggregated == 0:
            continue  # every set in the bin was dropped
        mean_energy = {
            scheme: mean(values) for scheme, values in totals[key].items()
        }
        reference = mean_energy[reference_scheme]
        normalized = {
            scheme: (value / reference if reference else 0.0)
            for scheme, value in mean_energy.items()
        }
        intervals = {
            scheme: confidence_interval95(values)
            for scheme, values in totals[key].items()
        }
        sweep.bins.append(
            BinResult(
                bin_range=key,
                taskset_count=aggregated,
                mean_energy=mean_energy,
                normalized_energy=normalized,
                mk_violation_count=violations[key],
                energy_ci95=intervals,
            )
        )
    if validate:
        # Conformance spot-checks on a deterministic, evenly spaced
        # sample of the aggregated sets.  Runs inline in the parent (the
        # auditor needs traces and performs its own differential
        # re-runs); dropped pairs are excluded -- their runs never
        # entered the aggregates.
        audit_modes = ("trace", "stats")
        candidates: List[Tuple[Tuple[float, float], int, int, TaskSet]] = []
        audit_counter = 0
        for bin_range in bins:
            key = tuple(bin_range)
            for index, taskset in enumerate(tasksets_by_bin.get(key, [])):
                if audit_counter not in failures:
                    candidates.append((key, index, audit_counter, taskset))
                audit_counter += 1
        step = max(1, len(candidates) // validate)
        for key, index, counter, taskset in candidates[::step][:validate]:
            scenario = (
                scenario_factory(counter) if scenario_factory else None
            )
            label = f"u{key[0]:g}-{key[1]:g}|set{index}"
            for scheme in schemes:
                report = audit_scheme(
                    taskset,
                    scheme,
                    scenario=scenario,
                    modes=audit_modes,
                    **run.knobs(),
                )
                log.emit(
                    VALIDATE,
                    job=label,
                    scheme=scheme,
                    modes=list(audit_modes),
                    issues=len(report.issues),
                )
                for audit in report.modes:
                    for issue in audit.issues:
                        sweep.validation_issues.append(
                            SweepValidation(
                                job=label,
                                scheme=scheme,
                                mode=audit.mode,
                                issue=issue,
                            )
                        )
                        log.emit(
                            VALIDATION_ISSUE,
                            job=label,
                            scheme=scheme,
                            mode=audit.mode,
                            issue_kind=issue.kind,
                            detail=issue.detail,
                        )

    log.emit(
        RUN_FINISH,
        completed=sum(1 for outcome in results if outcome[0] == OK),
        dropped=len(sweep.dropped),
    )
    return sweep
