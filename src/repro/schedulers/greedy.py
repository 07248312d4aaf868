"""The greedy dynamic-pattern scheme from the motivation (Figures 2-3).

Jobs are classified *dynamically* at release from the task's outcome
history: a job is mandatory iff its flexibility degree is 0.  Every
optional job (FD >= 1) is greedily submitted to the primary processor's
optional queue and executed whenever the mandatory queue is empty -- most
urgent (lowest FD) first, the footnote's "less flexible first" rule.
Optional jobs that can no longer finish by their deadline are dropped
(O11 in Figure 2).  Mandatory jobs keep the standby-sparing treatment:
main on the primary, backup on the spare postponed by the promotion time.

The paper introduces this scheme to show that greed backfires on modest
workloads (Figure 3: 20 energy units where the selective scheme needs
14); it is retained here as an ablation baseline.
"""

from __future__ import annotations

from typing import List

from ..analysis.promotion import promotion_times
from ..model.job import JobRole
from ..sim.engine import (
    PRIMARY,
    SPARE,
    CopySpec,
    PolicyContext,
    ReleasePlan,
    SchedulingPolicy,
)
from ..sim.validation import ConformanceSpec, TaskConformance


class MKSSGreedy(SchedulingPolicy):
    """Dynamic patterns with greedy optional execution on the primary."""

    name = "MKSS_Greedy"

    def __init__(
        self, optional_processor: int = PRIMARY, preemptive: bool = False
    ) -> None:
        """Args:
        optional_processor: where optional jobs are queued (the
            motivation uses the primary only).
        preemptive: whether optional jobs may preempt each other; the
            paper's Figure 3 trace runs optionals to completion (O12 is
            never started), so the default is False.
        """
        self._optional_processor = optional_processor
        self.optional_preemption = preemptive
        self._promotions: List[int] = []

    def prepare(self, ctx: PolicyContext) -> None:
        self._promotions = promotion_times(ctx.taskset, ctx.timebase)

    def plan_release(
        self,
        ctx: PolicyContext,
        task_index: int,
        job_index: int,
        release: int,
        deadline: int,
        fd: int,
    ) -> ReleasePlan:
        if ctx.fault_mode:
            survivor = ctx.surviving_processor()
            if fd == 0:
                # Preserve the survivor's analyzed offsets (see MKSS_DP).
                offset = (
                    0
                    if survivor == PRIMARY
                    else self._promotions[task_index]
                )
                return ReleasePlan(
                    copies=(CopySpec(JobRole.MAIN, survivor, release + offset),),
                    classified_as="mandatory",
                )
            return ReleasePlan(
                copies=(CopySpec(JobRole.OPTIONAL, survivor, release),),
                classified_as="optional",
            )
        if fd == 0:
            postponed = release + self._promotions[task_index]
            return ReleasePlan(
                copies=(
                    CopySpec(JobRole.MAIN, PRIMARY, release),
                    CopySpec(JobRole.BACKUP, SPARE, postponed),
                ),
                classified_as="mandatory",
            )
        return ReleasePlan(
            copies=(
                CopySpec(JobRole.OPTIONAL, self._optional_processor, release),
            ),
            classified_as="optional",
        )

    def conformance(self, ctx: PolicyContext) -> ConformanceSpec:
        # FD classification; *every* FD >= 1 job may run as an optional
        # (the greedy rule), backups postponed by the promotion time.
        return ConformanceSpec(
            scheme=self.name,
            tasks=tuple(
                TaskConformance(
                    classification="fd",
                    optional_fd_max=None,
                    backup_offset=self._promotions[index],
                    postfault_main_offset=(0, self._promotions[index]),
                )
                for index in range(len(ctx.taskset))
            ),
            optional_preemption=self.optional_preemption,
        )

    def batch_profile(self, ctx: PolicyContext):
        # FD classification with no upper bound on the optional degree;
        # optionals are pinned (never alternating) and keep running on the
        # survivor after a fault.  Non-preemptive optionals map to the
        # kernel's sticky-optional dispatch rule.
        from ..sim.batch_profile import (
            UNBOUNDED_FD,
            BatchProfile,
            BatchTaskProfile,
        )

        return BatchProfile(
            tasks=tuple(
                BatchTaskProfile(
                    classification="fd",
                    fd_max=UNBOUNDED_FD,
                    main_processor=PRIMARY,
                    backup_offset=self._promotions[index],
                    optional_processor=self._optional_processor,
                    postfault_main_offset=(0, self._promotions[index]),
                    postfault_optionals=True,
                )
                for index in range(len(ctx.taskset))
            ),
            sticky_optionals=not self.optional_preemption,
        )
