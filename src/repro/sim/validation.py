"""Independent post-run validation and scheme-aware conformance auditing.

A second pair of eyes on the engine: given only a
:class:`~repro.sim.engine.SimulationResult` and the task model, these
checks re-derive what *must* hold of any correct standby-sparing schedule
and report every violation.  The property-based engine tests run the
validator on every random schedule, so engine bugs have to get past an
implementation that shares no code with the engine's bookkeeping.

Two layers:

* :func:`validate_result` -- **model-level** invariants that hold for any
  policy: no overlapping segments, no execution before release or past
  the deadline, bounded total execution, effective jobs really executed,
  skipped jobs never ran, no execution after an effective decision
  (backup cancellation), contiguous job records.  On a DVFS run (the
  result carries a :class:`~repro.energy.dvfs.SpeedPlan`) this layer
  also enforces per-segment frequency conformance: pre-fault main
  copies run at exactly the plan's speed, every other copy at full
  speed, and no mandatory segment may execute below the
  feasibility-checked speed (``dvfs-underspeed``).

* :func:`audit_result` -- adds **scheme-level** invariants declared by
  the policy through a :class:`ConformanceSpec` (see
  :meth:`~repro.sim.engine.SchedulingPolicy.conformance`): the paper's
  classification rules (mandatory iff FD = 0 replayed from the outcome
  history, or iff the static pattern says so -- Definition 1 /
  Equation 1), the optional-selection rule (optionals only within the
  scheme's FD window -- Algorithm 1 line 6), backup postponement (no
  backup segment before r̃ = r + θ_i -- Definitions 2-5), post-fault
  release offsets, and fixed-priority queue conformance (no copy runs
  while a strictly higher-priority ready copy of the same queue class
  waits on that processor, and never while a mandatory copy waits).

Separate entry points cover the remaining surfaces:

* :func:`audit_energy` -- DPD legality: an
  :class:`~repro.energy.accounting.EnergyReport` must decompose each
  processor's window exactly as the
  :func:`~repro.energy.dpd.shutdown_decision` rule dictates.  On a DVFS
  run it additionally re-derives the per-speed busy decomposition from
  the run itself and recomputes the active energy from it, bit-exactly.
* :func:`result_ledger` / :func:`compare_ledgers` -- a canonical,
  mode-independent summary of a run, used by the cross-mode differential
  check (trace vs stats-only runs of the same descriptor must agree
  bit-for-bit).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..energy.accounting import active_energy_of
from ..energy.dpd import shutdown_decision
from ..model.history import (
    make_initial_history,
    normalize_initial_history,
)
from ..model.job import JobOutcome, JobRole
from ..model.patterns import Pattern
from ..qos.monitor import verify_mk
from ..sim.engine import PRIMARY, SPARE, SimulationResult

_MAIN = JobRole.MAIN.value
_BACKUP = JobRole.BACKUP.value
_OPTIONAL = JobRole.OPTIONAL.value


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant."""

    kind: str
    detail: str


@dataclass(frozen=True)
class TaskConformance:
    """Scheme invariants for one task, declared by the policy.

    Attributes:
        classification: how mandatory jobs are determined -- ``"fd"``
            (mandatory iff the replayed flexibility degree is 0),
            ``"pattern"`` (mandatory iff ``pattern.is_mandatory(j)``), or
            ``"all"`` (every job mandatory).
        pattern: the static pattern, required when classification is
            ``"pattern"``.
        optional_fd_max: optionals may only execute with flexibility
            degree in ``[1, optional_fd_max]``; None means any FD >= 1
            is acceptable; 0 means the scheme never runs optionals.
        backup_offset: ticks past the nominal release before which no
            backup segment of this task may start (the postponement
            r̃ - r); None means the scheme creates no backup copies.
        postfault_main_offset: per-surviving-processor enqueue offset of
            post-fault mandatory releases (index = survivor).
    """

    classification: str
    pattern: Optional[Pattern] = None
    optional_fd_max: Optional[int] = 0
    backup_offset: Optional[int] = None
    postfault_main_offset: Tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class ConformanceSpec:
    """A policy's complete invariant suite for the auditor.

    Attributes:
        scheme: the policy name (for issue messages).
        tasks: one :class:`TaskConformance` per task, in task order.
        optional_preemption: whether a more urgent optional may preempt
            a running optional (mirrors
            :attr:`~repro.sim.engine.SchedulingPolicy.optional_preemption`);
            when False, optional-vs-optional priority checks are skipped
            because a dispatched optional legitimately holds its
            processor.
        max_copies: executions of one logical job may total at most this
            many WCETs (1 for single-copy policies, 2 for
            standby-sparing, 1 + max_recoveries for re-execution).
    """

    scheme: str
    tasks: Tuple[TaskConformance, ...]
    optional_preemption: bool = True
    max_copies: int = 2


def validate_result(
    result: SimulationResult, max_copies: int = 2
) -> List[ValidationIssue]:
    """Run all model-level checks; returns the (ideally empty) issue list.

    Args:
        result: a finished trace-mode simulation.
        max_copies: executions of one logical job may total at most this
            many WCETs (2 for plain standby-sparing; higher when a policy
            schedules recovery copies).
    """
    if result.trace is None:
        raise ValueError(
            "validate_result needs a trace run (collect_trace=True); audit "
            "trace-less runs through the cross-mode differential check"
        )
    issues: List[ValidationIssue] = []
    base = result.timebase
    taskset = result.taskset
    plan = result.speed_plan
    wcets = [base.to_ticks(task.wcet) for task in taskset]
    periods = [base.to_ticks(task.period) for task in taskset]
    deadlines = [base.to_ticks(task.deadline) for task in taskset]

    # -- per-processor segment sanity ------------------------------------
    # Sorted by start with a running *max* end: remembering only the
    # previous segment's end would let a segment nested inside an
    # earlier, longer one reset the watermark and hide a later overlap.
    for processor in range(result.trace.processor_count):
        max_end: Optional[int] = None
        for segment in result.trace.segments_on(processor):
            if max_end is not None and segment.start < max_end:
                issues.append(
                    ValidationIssue(
                        "overlap",
                        f"processor {processor} segments overlap at "
                        f"{segment.start}",
                    )
                )
            if max_end is None or segment.end > max_end:
                max_end = segment.end

    # -- per-logical-job execution accounting -----------------------------
    executed: Dict[Tuple[int, int], int] = defaultdict(int)
    first_start: Dict[Tuple[int, int], int] = {}
    last_end: Dict[Tuple[int, int], int] = {}
    for segment in result.trace.segments:
        key = (segment.task_index, segment.job_index)
        executed[key] += segment.length
        first_start[key] = min(
            first_start.get(key, segment.start), segment.start
        )
        last_end[key] = max(last_end.get(key, segment.end), segment.end)

    for key, ticks in executed.items():
        task_index, job_index = key
        record = result.trace.records.get(key)
        # The record carries the actual release tick; non-periodic
        # release models place job j later than (j - 1) * P.
        release = (
            record.release
            if record is not None
            else (job_index - 1) * periods[task_index]
        )
        deadline = release + deadlines[task_index]
        wcet = wcets[task_index]
        if first_start[key] < release:
            issues.append(
                ValidationIssue(
                    "early-start",
                    f"J{task_index + 1},{job_index} started at "
                    f"{first_start[key]} before release {release}",
                )
            )
        if last_end[key] > deadline:
            issues.append(
                ValidationIssue(
                    "late-execution",
                    f"J{task_index + 1},{job_index} executed past its "
                    f"deadline {deadline} (until {last_end[key]})",
                )
            )
        # A DVFS plan stretches the main copy's budget; every other copy
        # of the job runs at full speed, so the legal total swaps exactly
        # one WCET for the stretched one.
        cap = max_copies * wcet
        if plan is not None:
            cap = (max_copies - 1) * wcet + plan.stretched_wcets[task_index]
        if ticks > cap:
            issues.append(
                ValidationIssue(
                    "over-execution",
                    f"J{task_index + 1},{job_index} executed {ticks} ticks "
                    f"> the {max_copies}-copy budget of {cap}",
                )
            )

    # -- per-segment DVFS frequency conformance ---------------------------
    # Without a plan no segment may carry a scaled speed; with one, the
    # speed of every segment is fully determined: a main copy released
    # while both processors were alive runs at exactly the plan's speed
    # for its task (max-performance fallback reverts post-fault releases
    # to full speed), and every other copy runs at 1.  Independently,
    # no mandatory segment may ever run below the feasibility-checked
    # speed the plan's R-pattern critical-scaling test admitted.
    fault = result.permanent_fault
    fault_tick = fault[1] if fault is not None else None
    for segment in result.trace.segments:
        label = (
            f"J{segment.task_index + 1},{segment.job_index}/{segment.role}"
        )
        if plan is None:
            if segment.speed != 1:
                issues.append(
                    ValidationIssue(
                        "dvfs-speed",
                        f"{label} ran at speed {segment.speed} but the run "
                        f"has no speed plan",
                    )
                )
            continue
        record = result.trace.records.get(
            (segment.task_index, segment.job_index)
        )
        release = (
            record.release
            if record is not None
            else (segment.job_index - 1) * periods[segment.task_index]
        )
        prefault = fault_tick is None or release < fault_tick
        want = plan.speeds[segment.task_index] if (
            segment.role == _MAIN and prefault
        ) else 1
        if segment.speed != want:
            issues.append(
                ValidationIssue(
                    "dvfs-speed",
                    f"{label} ran at speed {segment.speed}, the plan "
                    f"dictates {want}",
                )
            )
        if (
            segment.role != _OPTIONAL
            and segment.speed != 1
            and segment.speed < plan.checked_speed
        ):
            issues.append(
                ValidationIssue(
                    "dvfs-underspeed",
                    f"mandatory segment of {label} ran at speed "
                    f"{segment.speed}, below the feasibility-checked "
                    f"speed {plan.checked_speed}",
                )
            )

    # -- outcome bookkeeping ----------------------------------------------
    per_task_jobs: Dict[int, List[int]] = defaultdict(list)
    for (task_index, job_index), record in sorted(result.trace.records.items()):
        per_task_jobs[task_index].append(job_index)
        key = (task_index, job_index)
        if record.outcome is None:
            issues.append(
                ValidationIssue(
                    "undecided",
                    f"J{task_index + 1},{job_index} has no outcome",
                )
            )
        elif record.outcome is JobOutcome.EFFECTIVE:
            if executed.get(key, 0) < wcets[task_index]:
                issues.append(
                    ValidationIssue(
                        "phantom-success",
                        f"J{task_index + 1},{job_index} effective with only "
                        f"{executed.get(key, 0)} ticks executed",
                    )
                )
            # Backup cancellation: once a copy completes fault-free the
            # logical job is decided and every sibling is canceled on
            # the spot, so no segment of the job may extend past the
            # decision instant (segments ending exactly at it are the
            # deciding copy and concurrent copies cut by the event).
            end = last_end.get(key)
            if (
                record.decided_at is not None
                and end is not None
                and end > record.decided_at
            ):
                issues.append(
                    ValidationIssue(
                        "run-after-success",
                        f"J{task_index + 1},{job_index} executed until "
                        f"{end}, past its effective decision at "
                        f"{record.decided_at}",
                    )
                )
        if record.classified_as == "skipped" and executed.get(key, 0) > 0:
            issues.append(
                ValidationIssue(
                    "skipped-but-ran",
                    f"J{task_index + 1},{job_index} was skipped yet executed",
                )
            )

    for task_index, job_indices in per_task_jobs.items():
        expected = list(range(1, max(job_indices) + 1))
        if job_indices != expected:
            issues.append(
                ValidationIssue(
                    "gap",
                    f"task {task_index + 1} job records are not contiguous: "
                    f"{job_indices}",
                )
            )
    return issues


def audit_result(
    result: SimulationResult,
    spec: Optional[ConformanceSpec] = None,
    max_copies: Optional[int] = None,
    initial_history_met: "str | bool" = True,
) -> List[ValidationIssue]:
    """Model-level checks plus the scheme checks declared by ``spec``.

    Args:
        result: a finished trace-mode simulation.
        spec: the policy's invariant suite (from
            :meth:`~repro.sim.engine.SchedulingPolicy.conformance`); None
            runs only the model-level checks.
        max_copies: override for the execution cap; defaults to
            ``spec.max_copies`` (or 2 without a spec).
        initial_history_met: the (m,k)-history boundary condition the
            audited run used (must match for the FD replay to be exact):
            a mode string or the legacy booleans.
    """
    if max_copies is None:
        max_copies = spec.max_copies if spec is not None else 2
    issues = validate_result(result, max_copies=max_copies)
    if spec is None:
        return issues
    if len(spec.tasks) != len(result.taskset):
        raise ValueError(
            f"spec for {spec.scheme!r} covers {len(spec.tasks)} tasks, "
            f"result has {len(result.taskset)}"
        )
    issues.extend(_audit_classification(result, spec, initial_history_met))
    issues.extend(_audit_offsets(result, spec))
    issues.extend(_audit_priority(result, spec))
    return issues


def _audit_classification(
    result: SimulationResult,
    spec: ConformanceSpec,
    initial_history_met: "str | bool",
) -> List[ValidationIssue]:
    """Replay each task's (m,k)-history and check every classification.

    With constrained deadlines (D <= P, enforced by the task model) and
    the engine's deadline-before-release event order, job j's outcome is
    always decided before job j+1's release, so the flexibility degree
    at each release is exactly the replayed one.
    """
    issues: List[ValidationIssue] = []
    trace = result.trace
    for task_index, task in enumerate(result.taskset):
        tc = spec.tasks[task_index]
        history = make_initial_history(
            task.mk, normalize_initial_history(initial_history_met)
        )
        for key in sorted(k for k in trace.records if k[0] == task_index):
            record = trace.records[key]
            job_index = key[1]
            label = f"J{task_index + 1},{job_index}"
            fd = history.flexibility_degree()
            if (
                record.flexibility_degree is not None
                and record.flexibility_degree != fd
            ):
                issues.append(
                    ValidationIssue(
                        "fd-mismatch",
                        f"{label} recorded FD {record.flexibility_degree}, "
                        f"outcome replay gives {fd}",
                    )
                )
            if tc.classification == "all":
                mandatory_required = True
                rule = "every job is mandatory"
            elif tc.classification == "pattern":
                mandatory_required = tc.pattern.is_mandatory(job_index)
                rule = f"pattern bit for job {job_index}"
            else:
                mandatory_required = fd == 0
                rule = f"replayed FD {fd}"
            classified = record.classified_as
            if mandatory_required and classified != "mandatory":
                issues.append(
                    ValidationIssue(
                        "mandatory-rule",
                        f"{label} classified {classified!r} but must be "
                        f"mandatory ({rule})",
                    )
                )
            elif not mandatory_required and classified == "mandatory":
                issues.append(
                    ValidationIssue(
                        "mandatory-rule",
                        f"{label} classified mandatory but must not be "
                        f"({rule})",
                    )
                )
            if classified == "optional":
                limit = tc.optional_fd_max
                allowed = (
                    fd >= 1
                    and limit != 0
                    and (limit is None or fd <= limit)
                )
                if not allowed:
                    issues.append(
                        ValidationIssue(
                            "optional-fd",
                            f"{label} executed as optional at FD {fd}; "
                            f"{spec.scheme} only runs optionals with FD in "
                            f"[1, {'inf' if limit is None else limit}]",
                        )
                    )
            history.record(record.outcome is JobOutcome.EFFECTIVE)
    return issues


def _fault_view(
    result: SimulationResult,
) -> Tuple[Optional[int], Optional[int]]:
    """(fault tick, surviving processor), or (None, None) without a fault."""
    if result.permanent_fault is None:
        return None, None
    dead, tick = result.permanent_fault
    return tick, SPARE if dead == PRIMARY else PRIMARY


def _expected_enqueue(
    record, role: str, tc: TaskConformance,
    fault_tick: Optional[int], survivor: Optional[int],
) -> int:
    """The earliest tick a copy of this role may become ready."""
    enqueue = record.release
    if role == _BACKUP:
        enqueue += tc.backup_offset or 0
    elif (
        role == _MAIN
        and fault_tick is not None
        and record.release >= fault_tick
        and survivor is not None
    ):
        enqueue += tc.postfault_main_offset[survivor]
    return enqueue


def _audit_offsets(
    result: SimulationResult, spec: ConformanceSpec
) -> List[ValidationIssue]:
    """Postponed-release conformance (Definitions 2-5 / Equation 2).

    No backup segment may start before r̃ = r + θ_i, no post-fault
    mandatory segment before its survivor offset, and schemes without
    backups must not have backup segments at all.
    """
    issues: List[ValidationIssue] = []
    trace = result.trace
    fault_tick, survivor = _fault_view(result)
    starts: Dict[Tuple[int, int, str], int] = {}
    for segment in trace.segments:
        key = (segment.task_index, segment.job_index, segment.role)
        if key not in starts or segment.start < starts[key]:
            starts[key] = segment.start
    for (task_index, job_index, role), start in sorted(starts.items()):
        record = trace.records.get((task_index, job_index))
        if record is None:
            continue  # flagged as "gap" by validate_result
        tc = spec.tasks[task_index]
        label = f"J{task_index + 1},{job_index}"
        if role == _BACKUP and tc.backup_offset is None:
            issues.append(
                ValidationIssue(
                    "unexpected-backup",
                    f"{label} has backup segments but {spec.scheme} "
                    f"schedules no backups",
                )
            )
            continue
        earliest = _expected_enqueue(record, role, tc, fault_tick, survivor)
        if start < earliest:
            issues.append(
                ValidationIssue(
                    "postponement",
                    f"{label}/{role} started at {start}, before its "
                    f"postponed release {earliest} "
                    f"(r = {record.release} + offset {earliest - record.release})",
                )
            )
    return issues


def _audit_priority(
    result: SimulationResult, spec: ConformanceSpec
) -> List[ValidationIssue]:
    """Fixed-priority queue conformance (Algorithm 1, lines 2-9).

    Reconstructs, per processor, when each copy *ran* (its segments) and
    when it was demonstrably *ready but not running*: from its expected
    enqueue tick to its first segment, and between consecutive segments
    of the same copy.  A violation is a running segment overlapping a
    waiting interval of (a) a mandatory-queue copy while an optional
    runs, or (b) a strictly higher-priority copy of the same queue
    class.

    Conservative by construction: copies that never ran contribute no
    waiting intervals, pre-first-segment intervals are dropped when
    transient faults occurred (recovery copies enqueue at fault-detection
    times the trace does not record), and optional-vs-optional checks
    are skipped for non-preemptive-optional schemes (a dispatched
    optional legitimately holds its processor there).
    """
    issues: List[ValidationIssue] = []
    trace = result.trace
    records = trace.records
    have_transients = result.transient_fault_count > 0
    fault_tick, survivor = _fault_view(result)

    groups: Dict[Tuple[int, int, int, str], List] = defaultdict(list)
    for segment in trace.segments:
        groups[
            (segment.processor, segment.task_index,
             segment.job_index, segment.role)
        ].append(segment)

    # processor -> [(start, end, is_optional, queue_key, label)]
    running: Dict[int, List[Tuple[int, int, bool, tuple, str]]] = (
        defaultdict(list)
    )
    waiting: Dict[int, List[Tuple[int, int, bool, tuple, str]]] = (
        defaultdict(list)
    )
    for (processor, task_index, job_index, role), segs in groups.items():
        record = records.get((task_index, job_index))
        if record is None:
            continue  # flagged as "gap" by validate_result
        tc = spec.tasks[task_index]
        is_optional = role == _OPTIONAL
        if is_optional:
            fd = record.flexibility_degree
            key: tuple = (0 if fd is None else fd, task_index, job_index)
        else:
            key = (task_index, job_index)
        label = f"J{task_index + 1},{job_index}/{role}"
        segs.sort(key=lambda s: s.start)
        for seg in segs:
            running[processor].append(
                (seg.start, seg.end, is_optional, key, label)
            )
        enqueue = _expected_enqueue(record, role, tc, fault_tick, survivor)
        if not have_transients and segs[0].start > enqueue:
            waiting[processor].append(
                (enqueue, segs[0].start, is_optional, key, label)
            )
        for prev, nxt in zip(segs, segs[1:]):
            if nxt.start > prev.end:
                waiting[processor].append(
                    (prev.end, nxt.start, is_optional, key, label)
                )

    for processor, waits in waiting.items():
        runs = running[processor]
        for wstart, wend, w_opt, w_key, w_label in waits:
            for rstart, rend, r_opt, r_key, r_label in runs:
                if rend <= wstart or rstart >= wend:
                    continue
                if w_key == r_key and w_opt == r_opt:
                    continue  # the same copy identity (recovery re-runs)
                overlap = (max(wstart, rstart), min(wend, rend))
                if not w_opt and r_opt:
                    issues.append(
                        ValidationIssue(
                            "priority",
                            f"optional {r_label} ran on processor "
                            f"{processor} during {overlap} while mandatory "
                            f"{w_label} was ready",
                        )
                    )
                elif w_opt == r_opt:
                    if w_opt and not spec.optional_preemption:
                        continue
                    if w_key < r_key:
                        issues.append(
                            ValidationIssue(
                                "priority",
                                f"{r_label} (key {r_key}) ran on processor "
                                f"{processor} during {overlap} while "
                                f"higher-priority {w_label} (key {w_key}) "
                                f"was ready",
                            )
                        )
    return issues


def assert_valid(result: SimulationResult, max_copies: int = 2) -> None:
    """Raise AssertionError with every issue when validation fails."""
    issues = validate_result(result, max_copies=max_copies)
    assert not issues, "\n".join(f"{i.kind}: {i.detail}" for i in issues)


# -- DPD legality ---------------------------------------------------------


def _expected_decomposition(
    result: SimulationResult, model
) -> Dict[int, Tuple[Fraction, Fraction, Fraction, int]]:
    """Per-processor (busy, idle, sleep, transitions) the DPD rule demands.

    Recomputed from the run itself -- the trace's segments/gaps or the
    stats ledger -- applying :func:`~repro.energy.dpd.shutdown_decision`
    to every idle gap inside the processor's accounting window
    ([0, horizon), truncated at a dead processor's fault instant).
    """
    base = result.timebase
    expected: Dict[int, Tuple[Fraction, Fraction, Fraction, int]] = {}
    if result.trace is not None:
        for processor in range(result.trace.processor_count):
            window_end = result.horizon_ticks
            fault = result.permanent_fault
            if fault is not None and fault[0] == processor:
                window_end = min(window_end, fault[1])
            busy = base.from_ticks(
                result.trace.busy_ticks(processor, (0, window_end))
            )
            idle = Fraction(0)
            sleep = Fraction(0)
            transitions = 0
            for gap_start, gap_end in result.trace.idle_gaps(
                processor, (0, window_end)
            ):
                gap = base.from_ticks(gap_end - gap_start)
                if shutdown_decision(gap, model):
                    sleep += gap
                    transitions += 1
                else:
                    idle += gap
            expected[processor] = (busy, idle, sleep, transitions)
        return expected
    stats = result.stats
    if stats is None:  # pragma: no cover - engine fills one of the two
        raise ValueError("result has neither trace nor stats")
    for processor, counts in enumerate(stats.gap_counts):
        busy = base.from_ticks(result.busy_by_processor[processor])
        idle = Fraction(0)
        sleep = Fraction(0)
        transitions = 0
        for length, count in counts.items():
            gap = base.from_ticks(length)
            if shutdown_decision(gap, model):
                sleep += gap * count
                transitions += count
            else:
                idle += gap * count
        expected[processor] = (busy, idle, sleep, transitions)
    return expected


def _expected_speed_units(
    result: SimulationResult,
) -> Dict[int, Tuple[Tuple[object, Fraction], ...]]:
    """Per-processor sorted (speed, units) of DVFS-scaled execution.

    Re-derived from the run itself -- windowed segment overlaps on a
    trace run, the engine's :attr:`RunStats.speed_busy` ledger on a
    stats-only run -- independently of the accounting code under audit.
    """
    base = result.timebase
    expected: Dict[int, Tuple[Tuple[object, Fraction], ...]] = {}
    if result.trace is not None:
        for processor in range(result.trace.processor_count):
            window_end = result.horizon_ticks
            fault = result.permanent_fault
            if fault is not None and fault[0] == processor:
                window_end = min(window_end, fault[1])
            by_speed: Dict[object, int] = {}
            for segment in result.trace.segments:
                if segment.processor != processor or segment.speed == 1:
                    continue
                overlap = segment.overlap_with(0, window_end)
                if overlap > 0:
                    by_speed[segment.speed] = (
                        by_speed.get(segment.speed, 0) + overlap
                    )
            expected[processor] = tuple(
                (speed, base.from_ticks(by_speed[speed]))
                for speed in sorted(by_speed)
            )
        return expected
    stats = result.stats
    if stats is None:  # pragma: no cover - engine fills one of the two
        raise ValueError("result has neither trace nor stats")
    for processor, by_speed in enumerate(stats.speed_busy):
        expected[processor] = tuple(
            (speed, base.from_ticks(by_speed[speed]))
            for speed in sorted(by_speed)
        )
    return expected


def audit_energy(result: SimulationResult, report) -> List[ValidationIssue]:
    """DPD legality: the energy report must match the shutdown rule.

    Every gap the report counts as slept must satisfy
    :func:`~repro.energy.dpd.shutdown_decision` and vice versa, so the
    per-processor (busy, idle, sleep, transition) decomposition recomputed
    from the run must equal the report's exactly.

    On a DVFS run the audit goes further: the report must carry the
    plan's DVS model, its per-speed busy decomposition must equal the
    one re-derived from the run, and the active energy must equal the
    speed-aware charge over that re-derived decomposition bit-for-bit
    (the charging formula fixes its summation order so an independent
    recomputation reproduces the float exactly).
    """
    issues: List[ValidationIssue] = []
    expected = _expected_decomposition(result, report.model)
    plan = result.speed_plan
    dvs = getattr(report, "dvs", None)
    if (plan is None) != (dvs is None):
        issues.append(
            ValidationIssue(
                "dvfs-report",
                f"run {'has' if plan is not None else 'has no'} speed plan "
                f"but the report {'carries no' if dvs is None else 'carries a'}"
                f" DVS model",
            )
        )
    elif plan is not None and dvs != plan.model:
        issues.append(
            ValidationIssue(
                "dvfs-report",
                f"report charges under {dvs} but the run's plan uses "
                f"{plan.model}",
            )
        )
    speed_expected = (
        _expected_speed_units(result) if plan is not None else {}
    )
    for processor in sorted(
        set(expected) | set(report.per_processor)
    ):
        want = expected.get(processor)
        got = report.per_processor.get(processor)
        got_tuple = (
            None
            if got is None
            else (
                got.busy_units,
                got.idle_units,
                got.sleep_units,
                got.transition_count,
            )
        )
        if want != got_tuple:
            issues.append(
                ValidationIssue(
                    "dpd",
                    f"processor {processor}: reported "
                    f"(busy, idle, sleep, transitions) = {got_tuple} but "
                    f"the DPD rule over the run's gaps gives {want}",
                )
            )
        if want is None or got is None:
            continue
        want_speed = speed_expected.get(processor, ())
        if tuple(getattr(got, "speed_units", ())) != want_speed:
            issues.append(
                ValidationIssue(
                    "dvfs-energy",
                    f"processor {processor}: reported speed decomposition "
                    f"{got.speed_units} but the run gives {want_speed}",
                )
            )
            continue
        want_active = active_energy_of(
            want[0], want_speed, report.model, dvs
        )
        if got.active_energy != want_active:
            issues.append(
                ValidationIssue(
                    "dvfs-energy",
                    f"processor {processor}: reported active energy "
                    f"{got.active_energy!r}, the speed-aware charge over "
                    f"the run's decomposition is {want_active!r}",
                )
            )
    return issues


# -- cross-mode differential ----------------------------------------------


def result_ledger(result: SimulationResult) -> Dict[str, object]:
    """Canonical mode-independent summary of a run.

    Computable from a trace run (re-derived from segments and records)
    or a stats-only run (the engine's ledger); two runs of the
    same descriptor must produce equal ledgers in every mode.
    """
    if result.trace is None:
        stats = result.stats
        if stats is None:  # pragma: no cover - engine fills one of the two
            raise ValueError("result has neither trace nor stats")
        return {
            "released": stats.released,
            "effective": stats.effective,
            "missed": stats.missed,
            "mandatory": stats.mandatory,
            "optional_executed": stats.optional_executed,
            "skipped": stats.skipped,
            "violations": tuple(stats.violations),
            "busy": tuple(result.busy_by_processor),
            "gaps": tuple(
                tuple(sorted(counts.items())) for counts in stats.gap_counts
            ),
            "speed_busy": tuple(
                tuple(sorted(counts.items())) for counts in stats.speed_busy
            ),
            "transient_faults": result.transient_fault_count,
        }
    trace = result.trace
    effective = missed = mandatory = optional_executed = skipped = 0
    for record in trace.records.values():
        if record.outcome is JobOutcome.EFFECTIVE:
            effective += 1
        elif record.outcome is JobOutcome.MISSED:
            missed += 1
        if record.classified_as == "mandatory":
            mandatory += 1
        elif record.classified_as == "optional":
            optional_executed += 1
        elif record.classified_as == "skipped":
            skipped += 1
    violations = [0] * len(result.taskset)
    for violation in verify_mk(result):
        violations[violation.task_index] += 1
    horizon = result.horizon_ticks
    fault = result.permanent_fault
    busy: List[int] = []
    gaps: List[Tuple[Tuple[int, int], ...]] = []
    speed_busy: List[Tuple[Tuple[object, int], ...]] = []
    for processor in range(trace.processor_count):
        window_end = horizon
        if fault is not None and fault[0] == processor:
            window_end = min(window_end, fault[1])
        busy.append(trace.busy_ticks(processor, (0, window_end)))
        counts: Dict[int, int] = {}
        for gap_start, gap_end in trace.idle_gaps(processor, (0, window_end)):
            length = gap_end - gap_start
            counts[length] = counts.get(length, 0) + 1
        gaps.append(tuple(sorted(counts.items())))
        by_speed: Dict[object, int] = {}
        for segment in trace.segments:
            if segment.processor != processor or segment.speed == 1:
                continue
            overlap = segment.overlap_with(0, window_end)
            if overlap > 0:
                by_speed[segment.speed] = (
                    by_speed.get(segment.speed, 0) + overlap
                )
        speed_busy.append(tuple(sorted(by_speed.items())))
    return {
        "released": len(trace.records),
        "effective": effective,
        "missed": missed,
        "mandatory": mandatory,
        "optional_executed": optional_executed,
        "skipped": skipped,
        "violations": tuple(violations),
        "busy": tuple(busy),
        "gaps": tuple(gaps),
        "speed_busy": tuple(speed_busy),
        "transient_faults": result.transient_fault_count,
    }


def compare_ledgers(
    reference: Dict[str, object],
    candidate: Dict[str, object],
    label: str = "candidate",
) -> List[ValidationIssue]:
    """Field-by-field comparison of two :func:`result_ledger` outputs."""
    issues: List[ValidationIssue] = []
    for key in sorted(set(reference) | set(candidate)):
        want = reference.get(key)
        got = candidate.get(key)
        if want != got:
            issues.append(
                ValidationIssue(
                    "mode-divergence",
                    f"{label}: ledger field {key!r} diverges from the "
                    f"trace reference ({got!r} != {want!r})",
                )
            )
    return issues
