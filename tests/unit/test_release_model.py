"""ReleaseModel: validation, presets, serialization, knob plumbing."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ModelError
from repro.harness.protocol import ExperimentProtocol
from repro.harness.runner import RunSpec
from repro.harness.sweep import _sweep_fingerprint
from repro.model.history import (
    INITIAL_HISTORY_MODES,
    normalize_initial_history,
)
from repro.workload.release import (
    RELEASE_KINDS,
    RELEASE_PRESETS,
    ReleaseModel,
    resolve_release_model,
)


class TestValidation:
    def test_default_is_periodic(self):
        model = ReleaseModel()
        assert model.kind == "periodic"
        assert model.is_periodic()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="poisson")

    def test_periodic_rejects_parameters(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel(jitter=0.1)
        with pytest.raises(ConfigurationError):
            ReleaseModel(burst_size=2)
        with pytest.raises(ConfigurationError):
            ReleaseModel(burst_gap=0.5)

    def test_sporadic_needs_positive_jitter(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="sporadic")
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="sporadic", jitter=-0.1)
        assert ReleaseModel(kind="sporadic", jitter=0.2).jitter == 0.2

    def test_sporadic_rejects_burst_parameters(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="sporadic", jitter=0.1, burst_size=3)
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="sporadic", jitter=0.1, burst_gap=1.0)

    def test_bursty_needs_burst_shape(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="bursty", burst_gap=1.0)  # burst_size 1
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="bursty", burst_size=3)  # no gap
        with pytest.raises(ConfigurationError):
            ReleaseModel(kind="bursty", burst_size=3, burst_gap=1.0, jitter=0.1)
        model = ReleaseModel(kind="bursty", burst_size=2, burst_gap=0.5)
        assert not model.is_periodic()

    def test_task_seeds_are_distinct_ints(self):
        model = ReleaseModel(kind="sporadic", jitter=0.1, seed=5)
        seeds = [model.task_seed(i) for i in range(10)]
        assert len(set(seeds)) == len(seeds)
        assert all(isinstance(s, int) for s in seeds)
        other = ReleaseModel(kind="sporadic", jitter=0.1, seed=6)
        assert other.task_seed(0) != model.task_seed(0)


class TestPresets:
    def test_preset_names(self):
        assert set(RELEASE_PRESETS) == {"periodic", "light", "bursty", "heavy"}
        assert set(RELEASE_KINDS) == {"periodic", "sporadic", "bursty"}

    @pytest.mark.parametrize("name", sorted(RELEASE_PRESETS))
    def test_presets_construct(self, name):
        model = ReleaseModel.preset(name, seed=3)
        assert model.kind in RELEASE_KINDS
        if name == "periodic":
            assert model.is_periodic()
            assert model.seed == 0  # seed means nothing without draws
        else:
            assert not model.is_periodic()
            assert model.seed == 3

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel.preset("storm")

    def test_preset_shapes(self):
        assert RELEASE_PRESETS["light"].jitter == 0.1
        assert RELEASE_PRESETS["heavy"].jitter == 0.5
        assert RELEASE_PRESETS["bursty"].burst_size == 3


class TestSerialization:
    @pytest.mark.parametrize("name", ["light", "bursty", "heavy"])
    def test_roundtrip(self, name):
        model = ReleaseModel.preset(name, seed=11)
        assert ReleaseModel.from_dict(model.as_dict()) == model

    def test_as_dict_omits_defaults(self):
        assert ReleaseModel().as_dict() == {"kind": "periodic"}
        light = ReleaseModel.preset("light")
        assert light.as_dict() == {"kind": "sporadic", "jitter": 0.1}

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel.from_dict({"kind": "sporadic", "jitters": 0.1})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ConfigurationError):
            ReleaseModel.from_dict(["sporadic"])

    def test_cache_key_distinguishes_models(self):
        keys = {
            ReleaseModel.preset(name, seed=s).cache_key()
            for name in ("light", "bursty", "heavy")
            for s in (0, 1)
        }
        assert len(keys) == 6


class TestResolve:
    def test_none_and_periodic_normalize_to_none(self):
        assert resolve_release_model(None) is None
        assert resolve_release_model("periodic") is None
        assert resolve_release_model(ReleaseModel()) is None
        assert resolve_release_model({"kind": "periodic"}) is None

    def test_accepts_every_spelling(self):
        by_name = resolve_release_model("light")
        by_model = resolve_release_model(ReleaseModel.preset("light"))
        by_dict = resolve_release_model({"kind": "sporadic", "jitter": 0.1})
        assert by_name == by_model == by_dict

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_release_model(42)
        with pytest.raises(ConfigurationError):
            resolve_release_model("storm")


class TestInitialHistoryKnob:
    def test_modes(self):
        assert INITIAL_HISTORY_MODES == ("met", "miss", "rpattern")

    def test_normalize_accepts_legacy_booleans(self):
        assert normalize_initial_history(True) == "met"
        assert normalize_initial_history(False) == "miss"
        for mode in INITIAL_HISTORY_MODES:
            assert normalize_initial_history(mode) == mode
        with pytest.raises(ModelError):
            normalize_initial_history("reds")


class TestProtocolKnobs:
    def test_periodic_protocol_normalizes_to_none(self):
        proto = ExperimentProtocol(release_model=ReleaseModel())
        assert proto.release_model is None
        assert proto == ExperimentProtocol()

    def test_preset_name_accepted(self):
        proto = ExperimentProtocol(release_model="light")
        assert proto.release_model == ReleaseModel.preset("light")

    def test_default_as_dict_has_no_new_keys(self):
        payload = ExperimentProtocol().as_dict()
        assert "release_model" not in payload
        assert "initial_history" not in payload

    def test_non_default_as_dict_carries_knobs(self):
        proto = ExperimentProtocol(
            release_model="bursty", initial_history="rpattern"
        )
        payload = proto.as_dict()
        assert payload["release_model"]["kind"] == "bursty"
        assert payload["initial_history"] == "rpattern"

    def test_bad_initial_history_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentProtocol(initial_history="reds")


class TestSweepFingerprint:
    ARGS = ([(0.2, 0.3)], ["MKSS_ST"], 2, "MKSS_ST", None, 7, None)

    def _fingerprint(self, **knobs):
        run = RunSpec(horizon_cap_units=100, **knobs)
        return _sweep_fingerprint(*self.ARGS, run)

    def test_periodic_fingerprint_unchanged(self):
        default = self._fingerprint()
        explicit = self._fingerprint(release_model=None, initial_history="met")
        assert explicit == default
        assert "release_model" not in default
        assert "initial_history" not in default

    def test_non_default_knobs_enter_fingerprint(self):
        fp = self._fingerprint(
            release_model=ReleaseModel.preset("light", seed=4),
            initial_history="miss",
        )
        assert fp["release_model"] == {
            "kind": "sporadic",
            "jitter": 0.1,
            "seed": 4,
        }
        assert fp["initial_history"] == "miss"
        assert fp != self._fingerprint()
