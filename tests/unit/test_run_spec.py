"""RunSpec: the one value that carries every per-run knob."""

import dataclasses
import inspect

import pytest

from repro.energy.dvfs import DVFSConfig
from repro.energy.power import PowerModel
from repro.errors import ConfigurationError
from repro.harness import runner as runner_module
from repro.harness import sweep as sweep_module
from repro.harness.protocol import ExperimentProtocol
from repro.harness.runner import RunSpec, run_scheme
from repro.harness.sweep import utilization_sweep
from repro.harness.validate import AuditReport, audit_scheme
from repro.sim.batch import build_batch_item
from repro.workload.release import ReleaseModel

MODE_FIELDS = {"collect_trace", "fold"}


class TestNormalization:
    def test_defaults_have_an_empty_canonical_form(self):
        assert RunSpec().canonical() == {}

    def test_periodic_and_no_op_knobs_normalize_to_defaults(self):
        run = RunSpec(
            release_model="periodic",
            dvfs=DVFSConfig(static_power=5.0),  # critical speed 1
        )
        assert run == RunSpec()

    def test_values_are_resolved(self):
        run = RunSpec(release_model="light", dvfs={}, initial_history=False)
        assert run.release_model == ReleaseModel.preset("light")
        assert run.dvfs == DVFSConfig()
        assert run.initial_history == "miss"

    @pytest.mark.parametrize(
        "bad",
        [
            {"initial_history": "reds"},
            {"horizon_cap_units": 0},
            {"release_model": "storm"},
            {"dvfs": 3},
            {"fold": True, "collect_trace": True},
        ],
    )
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            RunSpec(**bad)


class TestCanonical:
    def test_only_non_default_knobs_appear(self):
        power = PowerModel.paper_default(break_even=2)
        run = RunSpec(
            power_model=power,
            release_model="light",
            initial_history="rpattern",
            dvfs=DVFSConfig(),
        )
        assert run.canonical() == {
            "power_model": repr(power),
            "release_model": {"kind": "sporadic", "jitter": 0.1},
            "initial_history": "rpattern",
            "dvfs": {},
        }

    def test_mode_and_horizon_never_enter(self):
        stats = RunSpec(horizon_cap_units=5, collect_trace=False, fold=True)
        assert stats.canonical() == {}


class TestFlatSignatures:
    @pytest.mark.parametrize("entry", [run_scheme, audit_scheme, build_batch_item])
    def test_knobs_are_keywords_of_every_flat_entry_point(self, entry):
        params = inspect.signature(entry).parameters
        assert set(RunSpec().knobs()) <= set(params)

    def test_knobs_cover_every_non_mode_field(self):
        fields = {field.name for field in dataclasses.fields(RunSpec)}
        assert set(RunSpec().knobs()) == fields - MODE_FIELDS
        assert set(inspect.signature(utilization_sweep).parameters) >= fields

    def test_protocol_run_spec_carries_its_power_model(self):
        proto = ExperimentProtocol(break_even_units=2, initial_history="miss")
        run = proto.run_spec()
        assert run.power_model == PowerModel.paper_default(break_even=2)
        assert run.initial_history == "miss"
        assert ExperimentProtocol().run_spec().power_model is None


@pytest.fixture
def built_run_specs(monkeypatch):
    built = []
    original = RunSpec.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(runner_module.RunSpec, "__post_init__", counting)
    return built


def test_sweep_builds_one_run_spec(built_run_specs):
    sweep = utilization_sweep(
        [(0.2, 0.3)],
        sets_per_bin=2,
        seed=7,
        horizon_cap_units=50,
        collect_trace=False,
        dvfs=DVFSConfig(),
    )
    assert sum(len(b.mean_energy) * b.taskset_count for b in sweep.bins) == 6
    assert len(built_run_specs) == 1


def test_validating_sweep_hands_its_one_run_spec_to_every_audit(
    built_run_specs, monkeypatch
):
    # audit_scheme, the keyword entry point the sweep calls per audited
    # pair, is stubbed: only the sweep's own RunSpec builds are counted.
    audits = []

    def recording_audit(taskset, scheme, scenario=None, modes=(), **knobs):
        audits.append(knobs)
        return AuditReport(scheme=scheme, modes=())

    monkeypatch.setattr(sweep_module, "audit_scheme", recording_audit)
    utilization_sweep(
        [(0.2, 0.3)],
        sets_per_bin=2,
        seed=7,
        horizon_cap_units=50,
        collect_trace=False,
        dvfs=DVFSConfig(),
        validate=2,
    )
    assert len(built_run_specs) == 1
    assert len(audits) == 2 * 3
    assert all(knobs == built_run_specs[0].knobs() for knobs in audits)
