"""MKSS_Selective: the paper's contribution (Algorithm 1).

Principles (Section IV):

(i)   Jobs are classified dynamically at release: mandatory iff the
      flexibility degree is 0.  Mandatory mains go to the primary's MJQ;
      their backups to the spare's MJQ with releases postponed by the
      offline θ_i (Definitions 2-5, floored at the promotion time Y_i).

(ii)  Only optional jobs with **FD exactly 1** are selected for execution;
      more flexible jobs are skipped outright.  A selected optional has no
      backup and runs in the OJQ, strictly below the MJQ.

(iii) Successive selected optionals of the same task alternate between the
      primary and the spare processor, spreading their load so they have a
      better chance to complete (Figure 4's O12/O22 on the primary,
      J13/J'23 on the spare).

On a successful optional completion the engine updates the task's history,
which raises the next job's flexibility degree -- demoting would-be
mandatory jobs and dropping their backups, the scheme's energy lever.

After a permanent fault the survivor runs mandatory jobs (single copy) and
still executes FD = 1 optionals, preserving both the (m,k) guarantee and
the adaptive behaviour.

The ``fd_threshold`` knob generalizes principle (ii) for ablation studies:
the paper's scheme is ``fd_threshold=1`` (select only FD == 1); larger
values select any optional with ``1 <= FD <= fd_threshold``.
"""

from __future__ import annotations

from typing import List

from ..analysis.postponement import task_postponement_intervals
from ..errors import ConfigurationError
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


class MKSSSelective(SchedulingPolicy):
    """Selective execution of FD = 1 optionals with alternation (Alg. 1)."""

    name = "MKSS_Selective"

    def __init__(
        self,
        fd_threshold: int = 1,
        alternate: bool = True,
        use_theta_postponement: bool = True,
        optionals_after_fault: bool = False,
    ) -> None:
        """Args:
        fd_threshold: select optionals with 1 <= FD <= this (paper: 1).
        alternate: alternate selected optionals across processors
            (paper: True); False pins them to the primary.
        use_theta_postponement: postpone backups by θ_i (paper: True);
            False falls back to the promotion time Y_i as in MKSS_DP.
        optionals_after_fault: keep executing FD=1 optionals on the
            survivor after a permanent fault.  Default False: with no
            spare left an optional cancels no backup, so running it only
            costs energy (QoS-greedy deployments may prefer True).
        """
        if fd_threshold < 1:
            raise ConfigurationError(
                f"fd_threshold must be >= 1, got {fd_threshold}"
            )
        self.fd_threshold = fd_threshold
        self.alternate = alternate
        self.use_theta_postponement = use_theta_postponement
        self.optionals_after_fault = optionals_after_fault
        self._postponements: List[int] = []
        self._promotions: List[int] = []
        self._next_optional_processor: List[int] = []

    def prepare(self, ctx: PolicyContext) -> None:
        result = task_postponement_intervals(
            ctx.taskset, ctx.timebase, horizon_ticks=ctx.horizon_ticks
        )
        self._postponements = (
            result.thetas if self.use_theta_postponement else result.promotions
        )
        self._promotions = result.promotions
        self._next_optional_processor = [PRIMARY] * len(ctx.taskset)

    def plan_release(
        self,
        ctx: PolicyContext,
        task_index: int,
        job_index: int,
        release: int,
        deadline: int,
        fd: int,
    ) -> ReleasePlan:
        if fd == 0:
            return self._mandatory_plan(ctx, task_index, release)
        if ctx.fault_mode and not self.optionals_after_fault:
            # With the spare gone there are no backups left to drop, so an
            # optional execution saves nothing -- it only spends energy on
            # the survivor.  Run the bare mandatory pattern instead (the
            # FD=0 jobs), which Theorem 1 already guarantees.
            return ReleasePlan.skip()
        if 1 <= fd <= self.fd_threshold:
            return self._optional_plan(ctx, task_index, release)
        return ReleasePlan.skip()

    def _mandatory_plan(
        self, ctx: PolicyContext, task_index: int, release: int
    ) -> ReleasePlan:
        if ctx.fault_mode:
            # Post-fault releases on the spare use the *promotion time*
            # Y_i, not θ_i: Y's guarantee is the per-job critical-instant
            # argument, valid for any per-task constant offsets -- whereas
            # θ's guarantee (Definitions 2-5) assumes the static R-pattern
            # alignment, which the dynamic patterns have long drifted away
            # from by the time a fault strikes.  A generated counterexample
            # (see DESIGN.md §4b.7 and the regression test) shows θ offsets
            # missing a mandatory deadline post-fault.
            survivor = ctx.surviving_processor()
            offset = 0 if survivor == PRIMARY else self._promotions[task_index]
            return ReleasePlan(
                copies=(CopySpec(JobRole.MAIN, survivor, release + offset),),
                classified_as="mandatory",
            )
        postponed = release + self._postponements[task_index]
        return ReleasePlan(
            copies=(
                CopySpec(JobRole.MAIN, PRIMARY, release),
                CopySpec(JobRole.BACKUP, SPARE, postponed),
            ),
            classified_as="mandatory",
        )

    def _optional_plan(
        self, ctx: PolicyContext, task_index: int, release: int
    ) -> ReleasePlan:
        if ctx.fault_mode:
            processor = ctx.surviving_processor()
        elif self.alternate:
            processor = self._next_optional_processor[task_index]
            self._next_optional_processor[task_index] = (
                SPARE if processor == PRIMARY else PRIMARY
            )
        else:
            processor = PRIMARY
        return ReleasePlan(
            copies=(CopySpec(JobRole.OPTIONAL, processor, release),),
            classified_as="optional",
        )

    def conformance(self, ctx: PolicyContext) -> ConformanceSpec:
        # FD classification (mandatory iff FD = 0), optionals only within
        # [1, fd_threshold], backups postponed by θ_i (or Y_i without
        # theta postponement); post-fault mandatory releases on the spare
        # are offset by Y_i, on the primary by 0.
        return ConformanceSpec(
            scheme=self.name,
            tasks=tuple(
                TaskConformance(
                    classification="fd",
                    optional_fd_max=self.fd_threshold,
                    backup_offset=self._postponements[index],
                    postfault_main_offset=(0, self._promotions[index]),
                )
                for index in range(len(ctx.taskset))
            ),
        )

    def batch_profile(self, ctx: PolicyContext):
        # FD classification with optionals in [1, fd_threshold]; backups
        # postponed by θ_i (or Y_i), post-fault mains offset by Y_i on the
        # spare; optionals alternate per task unless pinned, and stop
        # after a fault unless optionals_after_fault.
        from ..sim.batch_profile import BatchProfile, BatchTaskProfile

        return BatchProfile(
            tasks=tuple(
                BatchTaskProfile(
                    classification="fd",
                    fd_max=self.fd_threshold,
                    main_processor=PRIMARY,
                    backup_offset=self._postponements[index],
                    optional_processor=PRIMARY,
                    alternate_optionals=self.alternate,
                    postfault_main_offset=(0, self._promotions[index]),
                    postfault_optionals=self.optionals_after_fault,
                )
                for index in range(len(ctx.taskset))
            ),
        )
