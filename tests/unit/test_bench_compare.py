"""The microbenchmark gate (scripts/bench_compare.py) on canned reports."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "bench_compare.py"


@pytest.fixture()
def gate():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(min_us):
    return {"min_us": min_us, "mean_us": min_us}


def _report(**mins):
    return {
        "benchmarks": [
            {"name": name, "stats": {"min": us / 1e6, "mean": us / 1e6}}
            for name, us in mins.items()
        ]
    }


class TestCompare:
    def test_within_threshold_passes(self, gate):
        regressions, unbaselined = gate.compare(
            {"a": _entry(110.0)}, {"a": _entry(100.0)}, 0.2
        )
        assert regressions == [] and unbaselined == []

    def test_slowdown_beyond_threshold_regresses(self, gate):
        regressions, _ = gate.compare(
            {"a": _entry(130.0)}, {"a": _entry(100.0)}, 0.2
        )
        assert [name for name, *_ in regressions] == ["a"]

    def test_measured_benchmark_without_baseline_is_reported(self, gate):
        regressions, unbaselined = gate.compare(
            {"a": _entry(100.0), "new": _entry(5.0)}, {"a": _entry(100.0)}, 0.2
        )
        assert regressions == []
        assert unbaselined == ["new"]


class TestMainExitCodes:
    @pytest.fixture()
    def baseline(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"baseline": {"a": _entry(100.0)}}))
        return path

    def _main(self, gate, monkeypatch, baseline, *flags, **mins):
        monkeypatch.setattr(
            gate, "run_benchmarks", lambda quick, select="": _report(**mins)
        )
        return gate.main(["--baseline", str(baseline), *flags])

    def test_hard_gate_fails_a_selected_benchmark_without_baseline(
        self, gate, monkeypatch, baseline
    ):
        code = self._main(
            gate, monkeypatch, baseline, "--select", "a or new", a=100.0, new=5.0
        )
        assert code == 2

    def test_advisory_reports_but_passes(self, gate, monkeypatch, baseline):
        code = self._main(
            gate, monkeypatch, baseline, "--advisory", a=100.0, new=5.0
        )
        assert code == 0

    def test_baselined_run_passes_and_regression_fails(
        self, gate, monkeypatch, baseline
    ):
        assert self._main(gate, monkeypatch, baseline, a=100.0) == 0
        assert self._main(gate, monkeypatch, baseline, a=200.0) == 1
