"""Differential tests: the batch kernel vs the scalar engine's modes.

The batch backend (:mod:`repro.sim.batch`) advances many independent
simulations in lockstep over numpy arrays.  Its contract is *bit
identity* with the scalar trace engine -- not statistical agreement --
so these tests compare the full observable state (the RunStats ledger,
per-processor busy counts, released-job counts, the permanent-fault
record, energies, violation counts) across three execution modes:
batch, trace, and stats-only.

They also pin the harness composition: a ``backend="batch"`` sweep must
produce byte-identical journal rows to the pool backend, resume a
pool-written journal (and vice versa), fall back to the scalar engine
per job mid-batch when a job is not batchable (transient faults
possible), and keep ``validate`` sampling coverage identical when every
job was journal-resumed.  Chunk-per-worker sweeps (``workers > 1``) must
match the pool backend too, and a kernel that raises must hand every
batched job to the scalar engine with nothing dropped.
"""

from __future__ import annotations

import json

import pytest

from repro.faults.scenario import FaultScenario
from repro.harness.events import EventLog
from repro.harness.runner import SCHEME_FACTORIES, run_scheme
from repro.harness.sweep import utilization_sweep
from repro.sim.batch import (
    build_batch_item,
    numpy_available,
    run_batch,
    run_batch_payloads,
)
from repro.workload.generator import TaskSetGenerator

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the batch backend requires numpy"
)

SCHEMES = sorted(SCHEME_FACTORIES)


def result_view(result):
    """Aggregates every execution mode exposes (trace mode has no
    RunStats ledger, so this is the common observable surface)."""
    return (
        result.busy_by_processor,
        result.released_jobs,
        result.permanent_fault,
    )


def stats_view(result):
    """Every aggregate the sweep (and energy accounting) can observe."""
    stats = result.stats
    return (
        stats.busy,
        stats.gap_counts,
        stats.released,
        stats.effective,
        stats.missed,
        stats.mandatory,
        stats.optional_executed,
        stats.skipped,
        stats.violations,
    ) + result_view(result)


def scenario_for(seed: int):
    """Rotate fault regimes: fault-free, drawn permfault, pinned early."""
    kind = seed % 3
    if kind == 1:
        return FaultScenario.permanent_only(seed=60 + seed)
    if kind == 2:
        return FaultScenario.permanent_only(
            processor=seed % 2, tick=11, seed=1
        )
    return None


class TestBatchScalarAgreement:
    """Generated workloads x schemes x fault regimes x horizons."""

    SEEDS = range(18)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_modes_agree(self, seed):
        target = 0.3 + 0.05 * (seed % 8)
        taskset = TaskSetGenerator(seed=4000 + seed).generate(target)
        scheme = SCHEMES[seed % len(SCHEMES)]
        horizon = (150, 300, 600)[seed % 3]
        scenario = scenario_for(seed)
        item = build_batch_item(
            taskset, scheme, scenario, horizon_cap_units=horizon
        )
        assert item is not None, "permanent-only jobs must be batchable"
        batch_result = run_batch([item])[0]
        batch_energy, batch_violations = run_batch_payloads([item])[0]

        views = {"batch": stats_view(batch_result)}
        for mode, kwargs in (
            ("trace", dict(collect_trace=True)),
            ("stats", dict(collect_trace=False)),
        ):
            outcome = run_scheme(
                taskset,
                scheme,
                scenario=scenario,
                horizon_cap_units=horizon,
                **kwargs,
            )
            if mode == "trace":
                assert result_view(outcome.result) == result_view(
                    batch_result
                )
            else:
                views[mode] = stats_view(outcome.result)
            assert outcome.total_energy == batch_energy, mode
            assert outcome.metrics.mk_violations == batch_violations, mode
        assert views["batch"] == views["stats"], scheme

    def test_mixed_lockstep_batch(self):
        """Many sims with different schemes/scenarios in ONE kernel run."""
        items, expected = [], []
        for seed in range(12):
            taskset = TaskSetGenerator(seed=7000 + seed).generate(
                0.3 + 0.04 * (seed % 6)
            )
            scheme = SCHEMES[seed % len(SCHEMES)]
            scenario = scenario_for(seed)
            item = build_batch_item(
                taskset, scheme, scenario, horizon_cap_units=250
            )
            assert item is not None
            items.append(item)
            expected.append((taskset, scheme, scenario))
        results = run_batch(items)
        assert len(results) == len(items)
        for (taskset, scheme, scenario), batch_result in zip(
            expected, results
        ):
            scalar = run_scheme(
                taskset,
                scheme,
                scenario=scenario,
                horizon_cap_units=250,
                collect_trace=False,
            )
            assert stats_view(batch_result) == stats_view(scalar.result), (
                scheme
            )


def journal_job_rows(path):
    """``{key: canonical-json(value)}`` of a journal's job records."""
    rows = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            doc = json.loads(line)
            if doc.get("kind") == "job":
                rows[doc["key"]] = json.dumps(doc["value"], sort_keys=True)
    return rows


SWEEP_KW = dict(
    bins=[(0.3, 0.4), (0.7, 0.8)],
    sets_per_bin=2,
    seed=42,
    horizon_cap_units=250,
)


class TestSweepBackend:
    """backend='batch' composed with journals, resume, and fallback."""

    def test_payloads_and_journal_match_pool(self, tmp_path):
        pool_journal = tmp_path / "pool.jsonl"
        batch_journal = tmp_path / "batch.jsonl"
        factory = lambda i: FaultScenario.permanent_only(seed=500 + i)  # noqa: E731
        pool = utilization_sweep(
            journal_path=str(pool_journal),
            scenario_factory=factory,
            **SWEEP_KW,
        )
        log = EventLog()
        batch = utilization_sweep(
            journal_path=str(batch_journal),
            scenario_factory=factory,
            backend="batch",
            events=log,
            **SWEEP_KW,
        )
        assert batch.job_payloads == pool.job_payloads
        assert journal_job_rows(batch_journal) == journal_job_rows(
            pool_journal
        )
        assert log.of_kind("batch_progress"), "batch emits progress events"
        for bucket_pool, bucket_batch in zip(pool.bins, batch.bins):
            assert bucket_pool.mean_energy == bucket_batch.mean_energy
            assert (
                bucket_pool.mk_violation_count
                == bucket_batch.mk_violation_count
            )

    def test_mid_batch_scalar_fallback_mix(self):
        """Transient-capable jobs fall back to the scalar engine per job."""

        def factory(index):
            if index % 2:
                return FaultScenario.permanent_and_transient(seed=index)
            return FaultScenario.permanent_only(seed=index)

        pool = utilization_sweep(scenario_factory=factory, **SWEEP_KW)
        log = EventLog()
        batch = utilization_sweep(
            scenario_factory=factory,
            backend="batch",
            events=log,
            **SWEEP_KW,
        )
        assert batch.job_payloads == pool.job_payloads
        # The mix really was mixed: some jobs batched, some ran scalar
        # (scalar jobs are the ones that get JOB_START events).
        scalar_jobs = {e.data["job"] for e in log.of_kind("job_start")}
        assert scalar_jobs and len(scalar_jobs) < len(batch.job_payloads)

    def test_batched_job_finish_is_labelled_apportioned(self):
        """A batched job's wall_s is its chunk's time split evenly, and
        its JOB_FINISH says so; scalar-fallback jobs are timed alone."""

        def factory(index):
            if index % 2:
                return FaultScenario.permanent_and_transient(seed=index)
            return FaultScenario.permanent_only(seed=index)

        log = EventLog()
        utilization_sweep(
            scenario_factory=factory, backend="batch", events=log, **SWEEP_KW
        )
        scalar_jobs = {e.data["job"] for e in log.of_kind("job_start")}
        finishes = log.of_kind("job_finish")
        batched = [e for e in finishes if e.data["job"] not in scalar_jobs]
        scalar = [e for e in finishes if e.data["job"] in scalar_jobs]
        assert batched and scalar
        assert all(e.data["apportioned"] is True for e in batched)
        assert all("apportioned" not in e.data for e in scalar)

        pool_log = EventLog()
        utilization_sweep(scenario_factory=factory, events=pool_log, **SWEEP_KW)
        assert all(
            "apportioned" not in e.data for e in pool_log.of_kind("job_finish")
        )

    def test_cross_backend_partial_resume(self, tmp_path):
        """A half-complete pool journal finishes on the batch backend."""
        journal = tmp_path / "resume.jsonl"
        factory = lambda i: FaultScenario.permanent_only(seed=900 + i)  # noqa: E731
        pool = utilization_sweep(
            journal_path=str(journal), scenario_factory=factory, **SWEEP_KW
        )
        full_rows = journal_job_rows(journal)
        # Truncate the journal to its first half of job records.
        kept, job_seen = [], 0
        for line in journal.read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)
            if doc.get("kind") == "job":
                job_seen += 1
                if job_seen > len(full_rows) // 2:
                    continue
            kept.append(line)
        journal.write_text(
            "\n".join(kept) + "\n", encoding="utf-8"
        )
        log = EventLog()
        resumed = utilization_sweep(
            journal_path=str(journal),
            resume=True,
            backend="batch",
            scenario_factory=factory,
            events=log,
            **SWEEP_KW,
        )
        assert resumed.job_payloads == pool.job_payloads
        assert journal_job_rows(journal) == full_rows
        counts = log.counts()
        assert counts.get("job_skip") == len(full_rows) // 2

    def test_validate_covers_resumed_jobs(self, tmp_path):
        """Auditor sampling is identical when every job was resumed."""
        journal = tmp_path / "validated.jsonl"
        fresh_log = EventLog()
        utilization_sweep(
            journal_path=str(journal),
            validate=2,
            events=fresh_log,
            **SWEEP_KW,
        )
        resumed_log = EventLog()
        resumed = utilization_sweep(
            journal_path=str(journal),
            resume=True,
            validate=2,
            backend="batch",
            events=resumed_log,
            **SWEEP_KW,
        )
        fresh_audits = [
            (e.data["job"], e.data["scheme"])
            for e in fresh_log.of_kind("validate")
        ]
        resumed_audits = [
            (e.data["job"], e.data["scheme"])
            for e in resumed_log.of_kind("validate")
        ]
        assert fresh_audits and fresh_audits == resumed_audits
        assert resumed_log.counts().get("job_skip") == len(
            resumed.job_payloads
        )
        assert not resumed.validation_issues


def assert_same_sweep(got, expected):
    """Payloads, aggregates and drops of two sweeps are identical."""
    assert got.job_payloads == expected.job_payloads
    assert got.dropped == expected.dropped
    assert [
        (b.bin_range, b.taskset_count, b.mean_energy, b.normalized_energy,
         b.mk_violation_count)
        for b in got.bins
    ] == [
        (b.bin_range, b.taskset_count, b.mean_energy, b.normalized_energy,
         b.mk_violation_count)
        for b in expected.bins
    ]


#: A kernel monkeypatched in the parent reaches pool workers only when
#: they are forked from it.
needs_fork = pytest.mark.skipif(
    __import__("multiprocessing").get_start_method() != "fork",
    reason="pool workers inherit the patched kernel only under fork",
)


class TestBatchWorkers:
    """The batch backend's chunk-per-worker path and its kernel-failure
    fallback, pinned against the pool backend."""

    FACTORY = staticmethod(lambda i: FaultScenario.permanent_only(seed=300 + i))

    def test_two_workers_match_pool(self, tmp_path):
        pool_journal = tmp_path / "pool.jsonl"
        batch_journal = tmp_path / "batch.jsonl"
        pool = utilization_sweep(
            journal_path=str(pool_journal),
            scenario_factory=self.FACTORY,
            **SWEEP_KW,
        )
        log = EventLog()
        batch = utilization_sweep(
            journal_path=str(batch_journal),
            scenario_factory=self.FACTORY,
            backend="batch",
            workers=2,
            events=log,
            **SWEEP_KW,
        )
        assert_same_sweep(batch, pool)
        assert journal_job_rows(batch_journal) == journal_job_rows(
            pool_journal
        )
        # Every job was batched: none started on the scalar engine.
        assert not log.of_kind("job_start")
        assert log.of_kind("batch_progress")
        finishes = log.of_kind("job_finish")
        assert len(finishes) == len(pool.job_payloads)
        assert all(e.data["apportioned"] is True for e in finishes)

    @pytest.mark.parametrize(
        "workers", [1, pytest.param(2, marks=needs_fork)]
    )
    def test_failing_kernel_falls_back_to_scalar(self, monkeypatch, workers):
        import repro.sim.batch as batch_mod

        pool = utilization_sweep(scenario_factory=self.FACTORY, **SWEEP_KW)

        def broken_kernel(items, progress=None):
            raise RuntimeError("injected kernel fault")

        monkeypatch.setattr(batch_mod, "run_batch", broken_kernel)
        log = EventLog()
        batch = utilization_sweep(
            scenario_factory=self.FACTORY,
            backend="batch",
            workers=workers,
            events=log,
            **SWEEP_KW,
        )
        assert_same_sweep(batch, pool)
        assert not batch.dropped and not log.of_kind("job_drop")
        keys = set(pool.job_payloads)
        retried = [e.data["job"] for e in log.of_kind("job_retry")]
        # Every job was batchable, so every job's chunk failed, retried
        # once on the scalar engine and finished there, timed alone.
        assert sorted(retried) == sorted(keys)
        assert all(
            "injected kernel fault" in e.data["reason"]
            for e in log.of_kind("job_retry")
        )
        assert {e.data["job"] for e in log.of_kind("job_start")} == keys
        finishes = log.of_kind("job_finish")
        assert sorted(e.data["job"] for e in finishes) == sorted(keys)
        assert all("apportioned" not in e.data for e in finishes)


class TestNumpyAbsence:
    """Graceful degradation when numpy is not importable."""

    def test_sweep_degrades_to_pool(self, monkeypatch):
        import repro.sim.batch as batch_mod

        pool = utilization_sweep(**SWEEP_KW)
        monkeypatch.setattr(batch_mod, "_np", None)
        log = EventLog()
        batch = utilization_sweep(backend="batch", events=log, **SWEEP_KW)
        assert_same_sweep(batch, pool)
        kinds = [event.kind for event in log.events]
        assert kinds[:2] == ["run_start", "backend_fallback"]
        assert log.of_kind("run_start")[0].data["backend"] == "pool"
        (fallback,) = log.of_kind("backend_fallback")
        assert fallback.data["requested"] == "batch"
        assert fallback.data["used"] == "pool"
        assert "repro[batch]" in fallback.data["reason"]

    def test_service_spec_runs_without_numpy(self, monkeypatch):
        import repro.sim.batch as batch_mod
        from repro.harness.store import sweep_to_dict
        from repro.service import SweepSpec

        small = {
            "faults": "none",
            "bins": [[0.3, 0.4]],
            "sets_per_bin": 1,
            "horizon_cap_units": 100,
        }
        expected = sweep_to_dict(SweepSpec.from_dict(small).run())
        monkeypatch.setattr(batch_mod, "_np", None)
        spec = SweepSpec.from_dict({**small, "backend": "batch"})
        assert sweep_to_dict(spec.run()) == expected

    def test_build_batch_item_returns_none(self, monkeypatch):
        import repro.sim.batch as batch_mod

        monkeypatch.setattr(batch_mod, "_np", None)
        taskset = TaskSetGenerator(seed=1).generate(0.4)
        assert (
            build_batch_item(taskset, SCHEMES[0], horizon_cap_units=100)
            is None
        )

    def test_cli_falls_back_to_pool(self, monkeypatch, capsys):
        import repro.sim.batch as batch_mod

        monkeypatch.setattr(batch_mod, "_np", None)
        from repro.cli import main

        rc = main(
            [
                "sweep",
                "--backend",
                "batch",
                "--bins",
                "0.3:0.4",
                "--sets-per-bin",
                "1",
                "--horizon",
                "150",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "falling back to pool" in captured.err
