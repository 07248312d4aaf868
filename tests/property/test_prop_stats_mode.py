"""Differential tests: stats-only runs vs full traces.

Stats mode claims *bitwise* equality: a stats-only run must report
exactly the same energies, QoS metrics, (m,k)-satisfaction, busy ticks,
and release counts as the plain trace-collecting simulation -- which
test_prop_fastpath already pins to the seed reference engine.  These
tests close the triangle:

* trace mode == stats-only mode, on generated workloads across
  {fault-free, forced permanent fault} x horizons of roughly
  {1, 2.5, 7} hyperperiods;
* stats-only mode == the verbatim seed reference engine on a sample of
  the same configurations;
* a sweep journal written by a stats-only sweep is byte-identical
  (modulo run id / wall clock) to one written by a trace-mode sweep,
  and either resumes the other.
"""

from __future__ import annotations

import json

import pytest

from tests.metric_view import metric_view
from tests.reference_engine import ReferenceStandbySparingEngine
from repro.analysis.hyperperiod import lcm_ticks
from repro.harness.events import EventLog
from repro.harness.sweep import utilization_sweep
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.schedulers import (
    MKSSDualPriority,
    MKSSGreedy,
    MKSSHybrid,
    MKSSSelective,
    MKSSStatic,
)
from repro.sim.engine import StandbySparingEngine
from repro.workload.generator import TaskSetGenerator

POLICIES = (MKSSStatic, MKSSDualPriority, MKSSSelective, MKSSGreedy, MKSSHybrid)


def aligned_taskset() -> TaskSet:
    """Harmonic periods with k_i * P_i | lcm(P): the state recurs every
    20-tick cycle."""
    return TaskSet(
        [
            Task(5, 5, 1, 1, 2),
            Task(10, 10, 2, 1, 2),
            Task(20, 20, 5, 1, 1),
        ]
    )


def run_mode(taskset, policy_cls, horizon_ticks, *, collect_trace,
             permanent_fault=None, engine_cls=StandbySparingEngine):
    base = taskset.timebase()
    return engine_cls(
        taskset,
        policy_cls(),
        horizon_ticks,
        base,
        permanent_fault=permanent_fault,
        **(
            {"collect_trace": collect_trace}
            if engine_cls is StandbySparingEngine
            else {}
        ),
    ).run()


def run_both_modes(taskset, policy_cls, horizon_ticks, permanent_fault=None):
    trace = run_mode(
        taskset, policy_cls, horizon_ticks,
        collect_trace=True, permanent_fault=permanent_fault,
    )
    stats = run_mode(
        taskset, policy_cls, horizon_ticks,
        collect_trace=False, permanent_fault=permanent_fault,
    )
    return trace, stats


class TestTwoModeAgreement:
    """trace == stats on generated workloads."""

    SEEDS = range(10)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated(self, seed):
        taskset = TaskSetGenerator(seed=3000 + seed).generate(
            0.3 + 0.05 * (seed % 6)
        )
        base = taskset.timebase()
        cycle = lcm_ticks(base.to_ticks(task.period) for task in taskset)
        horizon = [cycle, (5 * cycle) // 2, 7 * cycle][seed % 3]
        policy_cls = POLICIES[seed % len(POLICIES)]
        fault = None
        if seed % 2 == 1:
            # Odd seeds kill a processor partway through the second cycle.
            fault = (seed % 4 // 2, cycle + (cycle // 3) + seed)
        trace, stats = run_both_modes(
            taskset, policy_cls, horizon, permanent_fault=fault
        )
        assert metric_view(stats) == metric_view(trace)
        assert trace.trace is not None
        assert stats.trace is None

    @pytest.mark.parametrize("policy_cls", POLICIES)
    @pytest.mark.parametrize("fault", [None, (0, 27), (1, 43)])
    def test_aligned_every_policy(self, policy_cls, fault):
        taskset = aligned_taskset()
        horizon = 7 * 20  # ticks_per_unit == 1 for integer-parameter sets
        trace, stats = run_both_modes(
            taskset, policy_cls, horizon, permanent_fault=fault
        )
        assert metric_view(stats) == metric_view(trace)

    def test_agrees_with_seed_reference_engine(self):
        """Stats-only runs match the verbatim pre-overhaul engine."""
        for seed in (3004, 3007):
            taskset = TaskSetGenerator(seed=seed).generate(0.4)
            base = taskset.timebase()
            cycle = lcm_ticks(base.to_ticks(task.period) for task in taskset)
            horizon = (5 * cycle) // 2
            stats = run_mode(
                taskset, MKSSSelective, horizon, collect_trace=False
            )
            reference = run_mode(
                taskset, MKSSSelective, horizon,
                collect_trace=True,
                engine_cls=ReferenceStandbySparingEngine,
            )
            assert metric_view(stats) == metric_view(reference)


class TestSweepJournalIdentity:
    """Stats-only sweeps checkpoint and resume identically to trace sweeps."""

    BINS = [(0.4, 0.5)]
    KW = dict(sets_per_bin=3, seed=77, horizon_cap_units=300)

    def _journal_rows(self, path, **extra):
        utilization_sweep(
            self.BINS, journal_path=str(path), **extra, **self.KW
        )
        rows = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                for volatile in ("run_id", "wall_s", "ts"):
                    row.pop(volatile, None)
                rows.append(row)
        return rows

    def test_journal_bytes_match_across_modes(self, tmp_path):
        plain = self._journal_rows(tmp_path / "trace.jsonl")
        stats = self._journal_rows(
            tmp_path / "stats.jsonl", collect_trace=False
        )
        assert plain == stats

    def test_cross_mode_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = utilization_sweep(
            self.BINS, journal_path=str(path), collect_trace=False, **self.KW
        )
        log = EventLog()
        resumed = utilization_sweep(
            self.BINS, journal_path=str(path), resume=True,
            events=log, **self.KW
        )

        def flat(sweep):
            return [
                (
                    bucket.bin_range,
                    bucket.taskset_count,
                    bucket.mean_energy,
                    bucket.normalized_energy,
                    bucket.mk_violation_count,
                )
                for bucket in sweep.bins
            ]

        assert flat(resumed) == flat(first)
        # Every job must come from the journal, none re-executed.
        assert any(event.kind == "job_skip" for event in log.events)
        assert not any(event.kind == "job_start" for event in log.events)
