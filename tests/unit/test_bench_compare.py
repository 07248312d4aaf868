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

    def test_hard_gate_fails_a_baselined_benchmark_not_measured(
        self, gate, monkeypatch, tmp_path
    ):
        # An unselected run that lost a baselined benchmark (skipped or
        # deleted) cannot see it regress.
        path = tmp_path / "two.json"
        path.write_text(
            json.dumps({"baseline": {"a": _entry(100.0), "b": _entry(50.0)}})
        )
        assert self._main(gate, monkeypatch, path, a=100.0) == 2
        assert self._main(gate, monkeypatch, path, "--advisory", a=100.0) == 0
        assert self._main(gate, monkeypatch, path, a=100.0, b=50.0) == 0


class TestPerModeBaselines:
    @pytest.fixture()
    def baseline(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "baseline": {"a": _entry(100.0)},
                    "baseline_quick": {"a": _entry(300.0)},
                }
            )
        )
        return path

    def _main(self, gate, monkeypatch, baseline, *flags, **mins):
        seen = {}

        def fake_run(quick, select=""):
            seen["quick"] = quick
            return _report(**mins)

        monkeypatch.setattr(gate, "run_benchmarks", fake_run)
        code = gate.main(["--baseline", str(baseline), *flags])
        return code, seen["quick"]

    def test_quick_run_reads_baseline_quick(self, gate, monkeypatch, baseline):
        # 250us is a 2.5x regression of the full baseline but within 20%
        # of the quick one; each mode is held to its own numbers.
        assert self._main(
            gate, monkeypatch, baseline, "--quick", a=250.0
        ) == (0, True)
        assert self._main(gate, monkeypatch, baseline, a=250.0) == (1, False)
        assert self._main(
            gate, monkeypatch, baseline, "--quick", a=400.0
        ) == (1, True)

    def test_quick_update_writes_baseline_quick_only(
        self, gate, monkeypatch, baseline
    ):
        code, _ = self._main(
            gate, monkeypatch, baseline, "--quick", "--update-baseline", a=7.0
        )
        assert code == 0
        written = json.loads(baseline.read_text())
        assert written["baseline_quick"] == {"a": _entry(7.0)}
        assert written["baseline"] == {"a": _entry(100.0)}

    def test_quick_run_without_quick_baseline_fails_hard(
        self, gate, monkeypatch, tmp_path
    ):
        # Full-mode numbers are never a stand-in for quick-mode ones.
        path = tmp_path / "full_only.json"
        path.write_text(json.dumps({"baseline": {"a": _entry(100.0)}}))
        assert self._main(
            gate, monkeypatch, path, "--quick", a=100.0
        ) == (2, True)

    def test_full_update_keeps_baseline_quick(
        self, gate, monkeypatch, baseline
    ):
        code, quick = self._main(
            gate, monkeypatch, baseline, "--update-baseline", a=9.0
        )
        assert (code, quick) == (0, False)
        written = json.loads(baseline.read_text())
        assert written["baseline"] == {"a": _entry(9.0)}
        assert written["baseline_quick"] == {"a": _entry(300.0)}
