"""MKSS_Hybrid: per-task offline choice between selective and DP modes.

An extension beyond the paper, motivated by a crossover the reproduction
exposes (see EXPERIMENTS.md): the FD = 1 selection rule executes optional
jobs at a long-run rate S that can exceed the mandatory rate m/k -- for an
(1,2) task it executes *every* job -- which is only worth it when the
dual-priority backups would otherwise overlap their mains substantially.
At low utilization the θ-postponed backups are almost always canceled
before running, so plain DP-style duplication is cheaper for such tasks.

``MKSSHybrid`` therefore decides **per task, offline**, which mode to use:

* the long-run selection rate ``S_i`` of the FD = 1 rule comes from
  :func:`selective_execution_rate`, an exact cycle detection on the
  (m,k)-history automaton (all selected jobs assumed to succeed -- the
  fault-free steady state);
* the DP-mode cost per window is ``m_i * (C_i + overlap_i)`` where
  ``overlap_i = min(C_i, max(0, R_i - θ_i))`` bounds the backup work that
  runs before the main's completion cancels it;
* the selective-mode cost per window is ``S_i * k_i * C_i``;
* the cheaper mode wins.

Mixed operation is safe: selective-mode tasks follow Algorithm 1's
argument (Theorem 1), DP-mode tasks the static R-pattern + postponement
argument, and both modes' mandatory/backup jobs live in the same MJQs the
offline analyses already cover.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from ..analysis.postponement import task_postponement_intervals
from ..model.history import MKHistory
from ..model.job import JobRole
from ..model.mk import MKConstraint
from ..model.patterns import RPattern
from ..sim.engine import (
    PRIMARY,
    SPARE,
    CopySpec,
    PolicyContext,
    ReleasePlan,
    SchedulingPolicy,
)
from ..sim.validation import ConformanceSpec, TaskConformance


def selective_execution_rate(mk: MKConstraint) -> Fraction:
    """Long-run fraction of jobs the FD = 1 rule executes, fault-free.

    Iterates the history automaton (select iff FD == 1, selected jobs
    succeed, others miss) until the window state repeats, then returns the
    execution rate over the detected cycle.  Examples: (1,2) -> 1,
    (2,4) -> 2/3, (1,k) -> 1/k.
    """
    history = MKHistory(mk)
    seen: Dict[Tuple[bool, ...], int] = {}
    executed: List[bool] = []
    step = 0
    while True:
        state = history.outcomes()
        if state in seen:
            start = seen[state]
            cycle = executed[start:]
            if not cycle:  # pragma: no cover - cycle length >= 1 always
                return Fraction(0)
            return Fraction(sum(cycle), len(cycle))
        seen[state] = step
        selected = history.flexibility_degree() == 1
        history.record(selected)
        executed.append(selected)
        step += 1


class MKSSHybrid(SchedulingPolicy):
    """Offline per-task mode selection between selective and DP styles."""

    name = "MKSS_Hybrid"

    def __init__(self, alternate: bool = True) -> None:
        """Args:
        alternate: alternate selective-mode optionals across processors
            (as in Algorithm 1's principle (iii)).
        """
        self.alternate = alternate
        self._selective_mode: List[bool] = []
        self._postponements: List[int] = []
        self._promotions: List[int] = []
        self._patterns: List[RPattern] = []
        self._next_optional_processor: List[int] = []

    def prepare(self, ctx: PolicyContext) -> None:
        taskset = ctx.taskset
        base = ctx.timebase
        self._patterns = [RPattern(task.mk) for task in taskset]
        result = task_postponement_intervals(
            taskset, base, horizon_ticks=ctx.horizon_ticks
        )
        self._postponements = result.thetas
        self._promotions = result.promotions
        from ..analysis.energy_bounds import (
            dp_energy_bound,
            selective_energy_bound,
        )

        self._selective_mode = []
        for index, task in enumerate(taskset):
            dp_cost = dp_energy_bound(
                taskset, index, base, self._postponements[index]
            )
            selective_cost = selective_energy_bound(task)
            self._selective_mode.append(selective_cost < dp_cost)
        self._next_optional_processor = [PRIMARY] * len(taskset)

    def mode_of(self, task_index: int) -> str:
        """'selective' or 'dp' -- the offline decision (after prepare)."""
        return "selective" if self._selective_mode[task_index] else "dp"

    def plan_release(
        self,
        ctx: PolicyContext,
        task_index: int,
        job_index: int,
        release: int,
        deadline: int,
        fd: int,
    ) -> ReleasePlan:
        if self._selective_mode[task_index]:
            return self._plan_selective(ctx, task_index, release, fd)
        return self._plan_dp(ctx, task_index, job_index, release)

    # -- selective-mode tasks (Algorithm 1) ------------------------------

    def _plan_selective(
        self, ctx: PolicyContext, task_index: int, release: int, fd: int
    ) -> ReleasePlan:
        if fd == 0:
            return self._mandatory(ctx, task_index, release)
        if ctx.fault_mode or fd != 1:
            return ReleasePlan.skip()
        if self.alternate:
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

    # -- DP-mode tasks (static pattern + θ-postponed backups) ------------

    def _plan_dp(
        self, ctx: PolicyContext, task_index: int, job_index: int, release: int
    ) -> ReleasePlan:
        if not self._patterns[task_index].is_mandatory(job_index):
            return ReleasePlan.skip()
        return self._mandatory(ctx, task_index, release)

    # -- shared mandatory plan with survivor-offset discipline -----------

    def _mandatory(
        self, ctx: PolicyContext, task_index: int, release: int
    ) -> ReleasePlan:
        if ctx.fault_mode:
            # Post-fault offsets use Y_i, not θ_i, for the same soundness
            # reason as MKSSSelective (dynamic patterns break θ's static
            # alignment assumption; see DESIGN.md §4b.7).
            survivor = ctx.surviving_processor()
            offset = (
                0 if survivor == PRIMARY else self._promotions[task_index]
            )
            return ReleasePlan(
                copies=(CopySpec(JobRole.MAIN, survivor, release + offset),),
                classified_as="mandatory",
            )
        return ReleasePlan(
            copies=(
                CopySpec(JobRole.MAIN, PRIMARY, release),
                CopySpec(
                    JobRole.BACKUP,
                    SPARE,
                    release + self._postponements[task_index],
                ),
            ),
            classified_as="mandatory",
        )

    def conformance(self, ctx: PolicyContext) -> ConformanceSpec:
        # Selective-mode tasks follow Algorithm 1 (FD rule, optionals at
        # FD = 1 only); DP-mode tasks follow their static R-pattern and
        # never run optionals.  Both postpone backups by θ_i and use the
        # Y_i survivor offset post-fault.
        tasks = []
        for index in range(len(ctx.taskset)):
            shared = dict(
                backup_offset=self._postponements[index],
                postfault_main_offset=(0, self._promotions[index]),
            )
            if self._selective_mode[index]:
                tasks.append(
                    TaskConformance(
                        classification="fd", optional_fd_max=1, **shared
                    )
                )
            else:
                tasks.append(
                    TaskConformance(
                        classification="pattern",
                        pattern=self._patterns[index],
                        optional_fd_max=0,
                        **shared,
                    )
                )
        return ConformanceSpec(scheme=self.name, tasks=tuple(tasks))

    def batch_profile(self, ctx: PolicyContext):
        # Selective-mode tasks follow Algorithm 1's FD rule (optionals at
        # FD = 1 only, never post-fault); DP-mode tasks follow their
        # static R-pattern with no optionals.  Both postpone backups by
        # θ_i and use the Y_i survivor offset post-fault.
        from ..sim.batch_profile import BatchProfile, BatchTaskProfile

        tasks = []
        for index in range(len(ctx.taskset)):
            shared = dict(
                main_processor=PRIMARY,
                backup_offset=self._postponements[index],
                postfault_main_offset=(0, self._promotions[index]),
            )
            if self._selective_mode[index]:
                tasks.append(
                    BatchTaskProfile(
                        classification="fd",
                        fd_max=1,
                        optional_processor=PRIMARY,
                        alternate_optionals=self.alternate,
                        **shared,
                    )
                )
            else:
                tasks.append(
                    BatchTaskProfile(
                        classification="pattern",
                        pattern_window=tuple(self._patterns[index].window()),
                        **shared,
                    )
                )
        return BatchProfile(tasks=tuple(tasks))
