"""The benchmark's own tests, at the tiny scale (1 set per bin, horizon 100).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import record  # noqa: E402
import run  # noqa: E402
import sample  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


@pytest.fixture(scope="module")
def tiny_expected(tmp_path_factory):
    """Tiny-scale payloads of every workload, recorded once per test module."""
    directory = tmp_path_factory.mktemp("expected")
    paths = {}
    for workload in workloads.WORKLOADS:
        paths[workload] = str(directory / f"{workload}.json")
        with open(paths[workload], "w", encoding="utf-8") as handle:
            json.dump(record.record(workload, "tiny", ROOT), handle)
    return paths


def _run(workload, expected_file, trace, seed=1):
    return run.run(
        workload, seed, 0.1, trace, scale="tiny", expected_file=expected_file, root=ROOT
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, tiny_expected):
    result, lines = _run(workload, tiny_expected[workload], trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    sweeps = run.MIN_SAMPLES * run.SWEEPS_PER_SAMPLE
    for name, count in (("sweep_ref_s", sweeps), ("setup_s", run.MIN_SAMPLES)):
        assert any(line.startswith(f"{name}: {count} samples, min ") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload, tiny_expected):
    result, _ = _run(workload, tiny_expected[workload], trace=True)
    assert result["correct"], result
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    batched = 1.0 if workload == "fig6a-nofault" else 0.0
    assert metrics["batch.batched_ratio"] == batched
    assert (metrics["audit.calls"] > 0) == (workload == "dvfs-sporadic")
    assert (metrics["journal.rows"] > 0) == (workload == "fig6c-faults")
    assert (metrics["workload.draws"] > 0) == (workload == "fig6a-nofault")


def test_self_times_account_for_the_traced_sweep(tmp_path):
    (doc,) = sample.measure(
        "fig6a-nofault", 0, str(tmp_path), trace=True, scale="tiny"
    )["sweeps"]
    metrics = doc["layers"]
    self_times = sum(
        value
        for name, value in metrics.items()
        if layers.unit(name) == "s" and name != "trace.sweep_s"
    )
    assert self_times == pytest.approx(doc["sweep_s"], rel=1e-9)
    assert metrics["sweep.self_s"] >= 0


def test_probe_rescales_to_the_reference_speed(tmp_path):
    probe = sample.Probe()
    probe.durations = [2 * sample.REFERENCE_S] * 10
    # 10 probes of twice the reference time: the rest of 1 s at half speed.
    rest = 1.0 - 20 * sample.REFERENCE_S
    assert probe.reference_s(1.0) == pytest.approx(rest / 2)
    (doc,) = sample.measure("fig6c-faults", 0, str(tmp_path), scale="tiny")["sweeps"]
    assert doc["probes"] >= 1 and 0 < doc["probe_s"] < doc["sweep_s"]
    assert doc["sweep_ref_s"] > 0 and doc["cpu_ref_s"] > 0


def test_every_sweep_of_a_sample_starts_cold(tmp_path):
    first, second = sample.measure(
        "fig6c-faults", 0, str(tmp_path), trace=True, scale="tiny", sweeps=2
    )["sweeps"]
    for name in ("analysis.cache_hits", "analysis.cache_misses", "timeline.calls"):
        assert first["layers"][name] == second["layers"][name] > 0
    assert first["payloads"] == second["payloads"]


def test_doctored_payload_counts_as_failed_job(tiny_expected, tmp_path):
    with open(tiny_expected["fig6c-faults"], encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["entries"]["scenario-1"]["payloads"][0][0] += 1.0
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(doc))
    result, lines = _run("fig6c-faults", str(doctored), trace=False)
    sweeps = result["attempted"] // len(doc["entries"]["scenario-1"]["payloads"])
    assert result["failed"] == sweeps >= 1
    assert not result["correct"]
    assert f"jobs failed: {sweeps} of {result['attempted']}" in lines


def test_raising_layer_fails_the_run_though_the_sweep_falls_back(
    tiny_expected, tmp_path, monkeypatch
):
    import repro.sim.batch

    def broken_kernel(items, progress=None):
        raise RuntimeError("injected kernel fault")

    monkeypatch.setattr(repro.sim.batch, "run_batch", broken_kernel)
    (doc,) = sample.measure(
        "fig6a-nofault", 0, str(tmp_path), trace=True, scale="tiny"
    )["sweeps"]
    expected = run.load_expected(tiny_expected["fig6a-nofault"], "scenario-0")
    attempted, failed, problems = run.check(doc, expected)
    # The scalar fallback reproduces every payload: only the span error
    # and the retries show that a layer failed.
    assert failed == 0 and attempted == doc["jobs"]
    assert any("injected kernel fault" in problem for problem in problems)
    assert any("retries" in problem for problem in problems)


def test_missing_layer_fails_the_traced_run(monkeypatch):
    monkeypatch.setattr(
        layers, "FUNCTIONS", layers.FUNCTIONS + (("gone", "repro.sim.batch", "no_such"),)
    )
    import repro.sim.batch

    kernel = repro.sim.batch.run_batch
    with pytest.raises(LookupError):
        layers.install(layers.Tracer())
    assert repro.sim.batch.run_batch is kernel


def test_scenarios_are_distinct_recorded_inputs(tiny_expected):
    with open(tiny_expected["dvfs-sporadic"], encoding="utf-8") as handle:
        entries = json.load(handle)["entries"]
    assert sorted(entries) == sorted(record.labels("dvfs-sporadic"))
    assert entries["scenario-0"]["payloads"] != entries["scenario-1"]["payloads"]
    assert run.input_label("dvfs-sporadic", 5) == "scenario-1"
    assert run.input_label("fig6a-nofault", 5) == "scenario-0"


def test_every_documented_input_is_recorded():
    for workload in workloads.WORKLOADS:
        for label in record.labels(workload):
            entry = run.load_expected(run.expected_path(workload), label)
            assert entry["payloads"] and entry["violations"] >= 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "fig6a-nofault",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
