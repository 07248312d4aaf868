"""Unit tests for the stats-mode surface of
:class:`~repro.sim.engine.SimulationResult` (the
:mod:`repro.sim.ledger` counters behind it)."""

from __future__ import annotations

import pytest

from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import MKSSSelective
from repro.sim.engine import StandbySparingEngine


class TestStatsModeResult:
    @pytest.fixture
    def taskset(self):
        return TaskSet(
            [
                Task(5, 5, 1, 1, 2),
                Task(10, 10, 2, 1, 2),
            ]
        )

    def run(self, taskset, **kwargs):
        return StandbySparingEngine(
            taskset, MKSSSelective(), 40, **kwargs
        ).run()

    def test_busy_ticks_from_counters(self, taskset):
        trace_run = self.run(taskset)
        stats_run = self.run(taskset, collect_trace=False)
        assert stats_run.busy_by_processor is not None
        assert stats_run.busy_ticks() == trace_run.busy_ticks()
        assert stats_run.busy_ticks(0) == trace_run.busy_ticks(0)
        assert stats_run.busy_ticks(1) == trace_run.busy_ticks(1)
        assert stats_run.busy_ticks(7) == 0

    def test_mk_satisfied_cached_and_copied(self, taskset):
        result = self.run(taskset, collect_trace=False)
        first = result.mk_satisfied()
        second = result.mk_satisfied()
        assert first == second
        first[0] = not first[0]  # caller mutation must not poison the cache
        assert result.mk_satisfied() == second

    def test_stats_mode_has_no_trace(self, taskset):
        result = self.run(taskset, collect_trace=False)
        assert result.trace is None
        assert result.stats is not None
        assert result.stats.released == result.released_jobs
