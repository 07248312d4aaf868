"""MKSS_ST: the static reference scheme (Section V, first approach).

Task sets are statically partitioned with R-patterns; every mandatory job
runs *concurrently* on both processors -- main on the primary, backup on
the spare, both released at the nominal release time, with no
procrastination.  Optional jobs are never executed.  The evaluation uses
this scheme's energy as the normalization reference.

Because the two processors are identical and both copies are released
together, the copies finish (essentially) together and cancellation saves
nothing in the fault-free case -- which is exactly why the paper treats
this scheme as the upper reference: its active energy is twice the
mandatory workload.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..model.job import JobRole
from ..model.patterns import Pattern, RPattern, is_window_periodic
from ..sim.engine import (
    PRIMARY,
    SPARE,
    CopySpec,
    PolicyContext,
    ReleasePlan,
    SchedulingPolicy,
)
from ..sim.validation import ConformanceSpec, TaskConformance


class MKSSStatic(SchedulingPolicy):
    """Static R-pattern standby-sparing without procrastination."""

    name = "MKSS_ST"

    def __init__(self, patterns: Optional[Sequence[Pattern]] = None) -> None:
        """Args:
        patterns: static partitioning patterns, one per task; defaults
            to deeply-red R-patterns (the paper's choice).
        """
        self._patterns: Optional[List[Pattern]] = (
            list(patterns) if patterns is not None else None
        )

    def prepare(self, ctx: PolicyContext) -> None:
        if self._patterns is None:
            self._patterns = [RPattern(task.mk) for task in ctx.taskset]
        elif len(self._patterns) != len(ctx.taskset):
            raise ValueError("need exactly one pattern per task")

    def plan_release(
        self,
        ctx: PolicyContext,
        task_index: int,
        job_index: int,
        release: int,
        deadline: int,
        fd: int,
    ) -> ReleasePlan:
        assert self._patterns is not None
        if not self._patterns[task_index].is_mandatory(job_index):
            return ReleasePlan.skip()
        if ctx.fault_mode:
            survivor = ctx.surviving_processor()
            return ReleasePlan(
                copies=(CopySpec(JobRole.MAIN, survivor, release),),
                classified_as="mandatory",
            )
        return ReleasePlan(
            copies=(
                CopySpec(JobRole.MAIN, PRIMARY, release),
                CopySpec(JobRole.BACKUP, SPARE, release),
            ),
            classified_as="mandatory",
        )

    def conformance(self, ctx: PolicyContext) -> ConformanceSpec:
        # Pattern classification, never an optional, both copies released
        # together (no procrastination): backup offset 0, post-fault
        # mandatory releases land on the survivor immediately.
        assert self._patterns is not None
        return ConformanceSpec(
            scheme=self.name,
            tasks=tuple(
                TaskConformance(
                    classification="pattern",
                    pattern=pattern,
                    optional_fd_max=0,
                    backup_offset=0,
                )
                for pattern in self._patterns
            ),
        )

    def batch_profile(self, ctx: PolicyContext):
        # Pattern-mandatory only, both copies at the nominal release,
        # post-fault mains land on the survivor immediately.  Supplied
        # patterns that are not window-periodic cannot be expressed as a
        # k-bit mask, so those runs stay on the scalar engine.
        assert self._patterns is not None
        if not all(is_window_periodic(p) for p in self._patterns):
            return None
        from ..sim.batch_profile import BatchProfile, BatchTaskProfile

        return BatchProfile(
            tasks=tuple(
                BatchTaskProfile(
                    classification="pattern",
                    pattern_window=tuple(pattern.window()),
                    main_processor=PRIMARY,
                    backup_offset=0,
                )
                for pattern in self._patterns
            ),
        )
