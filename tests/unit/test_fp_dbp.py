"""Unit tests for the substrate FP scheduler."""

from __future__ import annotations

from repro.faults.scenario import FaultScenario
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import SingleProcessorFP
from repro.schedulers.base import run_policy
from repro.sim.engine import PRIMARY, SPARE


def run(ts, policy, horizon_units, scenario=None):
    base = ts.timebase()
    return run_policy(
        ts, policy, horizon_units * base.ticks_per_unit, base, scenario
    )


class TestSingleProcessorFP:
    def test_all_jobs_run_once(self, simple_taskset):
        result = run(simple_taskset, SingleProcessorFP(), 8)
        assert result.trace.outcomes_for_task(0) == [True, True]
        assert result.trace.outcomes_for_task(1) == [True]
        assert result.busy_ticks(SPARE) == 0

    def test_alternate_processor(self, simple_taskset):
        result = run(simple_taskset, SingleProcessorFP(processor=SPARE), 8)
        assert result.busy_ticks(PRIMARY) == 0
        assert result.busy_ticks(SPARE) == 4

    def test_migrates_after_fault(self, simple_taskset):
        scenario = FaultScenario.permanent_only(processor=PRIMARY, tick=5)
        result = run(simple_taskset, SingleProcessorFP(), 16, scenario)
        late = [s for s in result.trace.segments if s.start >= 5]
        assert all(s.processor == SPARE for s in late)

    def test_overload_misses_low_priority(self):
        ts = TaskSet([Task(2, 2, 2, 2, 2), Task(4, 4, 1, 1, 2)])
        result = run(ts, SingleProcessorFP(), 8)
        assert not result.all_mk_satisfied()
        assert result.trace.outcomes_for_task(0) == [True] * 4
