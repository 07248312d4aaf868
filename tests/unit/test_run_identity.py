"""Golden identity bytes of every per-run knob's canonical form.

Sweep digests, journal fingerprints, and protocol reports are cache keys
and resume keys: a refactor of how the knobs are carried must leave every
byte of them unchanged.  The constants below were recorded before the
knobs were folded into one value; the test must never be edited to
follow a change of these bytes.
"""

import json

import pytest

from repro.energy.dvfs import DVFSConfig
from repro.energy.power import PowerModel
from repro.harness.journal import RunJournal
from repro.harness.protocol import ExperimentProtocol
from repro.harness.sweep import utilization_sweep
from repro.service.spec import SweepSpec

DEFAULT_DIGEST = "17463c3f03322f2667097189"


@pytest.mark.parametrize(
    "extra, digest",
    [
        ({}, DEFAULT_DIGEST),
        ({"release_model": "light"}, "8e1973e87fd7c5e022c44d08"),
        ({"initial_history": "miss"}, "3bea79534627394a3e1960a6"),
        ({"dvfs": {}}, "3e0276942acd794002790149"),
        ({"validate": 2}, "5fd521d2ffc6b843eeffec7f"),
        ({"release_model": "periodic"}, DEFAULT_DIGEST),
        ({"release_model": "periodic", "initial_history": "met"}, DEFAULT_DIGEST),
    ],
)
def test_sweep_spec_digest(extra, digest):
    spec = SweepSpec.from_dict({"faults": "transient", **extra})
    assert spec.digest() == digest


def test_documented_protocol_dict_with_dvfs():
    payload = ExperimentProtocol.documented(dvfs=DVFSConfig()).as_dict()
    assert json.dumps(payload, sort_keys=True) == (
        '{"bins": [[0.1, 0.2], [0.2, 0.3], [0.3, 0.4], [0.4, 0.5], '
        '[0.5, 0.6], [0.6, 0.7], [0.7, 0.8], [0.8, 0.9], [0.9, 1.0]], '
        '"break_even_units": "1", "dvfs": {}, "generator": null, '
        '"horizon_cap_units": 1500, "permanent_seed_base": 1000000, '
        '"seed": 20200309, "sets_per_bin": 15, "transient_seed_base": 2000000}'
    )


def _journaled(tmp_path, name, **knobs):
    path = str(tmp_path / f"{name}.jsonl")
    utilization_sweep(
        [(0.2, 0.3)],
        schemes=["MKSS_ST", "MKSS_DP"],
        sets_per_bin=1,
        seed=7,
        horizon_cap_units=50,
        journal_path=path,
        **knobs,
    )
    return RunJournal(path).load()


FIXED = (
    '"bins": [[0.2, 0.3]], "generator_config": "None", '
    '"horizon_cap_units": 50, "kind": "utilization_sweep", '
)
TAIL = (
    '"reference_scheme": "MKSS_ST", "schemes": ["MKSS_ST", "MKSS_DP"], '
    '"seed": 7, "sets_per_bin": 1, "workload": "generated"}'
)


def test_default_sweep_fingerprint(tmp_path):
    header, _ = _journaled(tmp_path, "default")
    assert json.dumps(header["fingerprint"], sort_keys=True) == (
        "{" + FIXED + TAIL
    )


def test_power_model_sweep_fingerprint(tmp_path):
    header, _ = _journaled(
        tmp_path, "be2", power_model=PowerModel.paper_default(break_even=2)
    )
    assert json.dumps(header["fingerprint"], sort_keys=True) == (
        "{" + FIXED
        + '"power_model": "PowerModel(active_power=1.0, idle_power=0.1, '
        "sleep_power=0.0, transition_energy=0.0, "
        'break_even=Fraction(2, 1))", '
        + TAIL
    )


def test_every_knob_sweep_fingerprint_and_rows(tmp_path):
    header, rows = _journaled(
        tmp_path,
        "knobs",
        release_model="light",
        initial_history="rpattern",
        dvfs=DVFSConfig(),
        collect_trace=False,
    )
    assert json.dumps(header["fingerprint"], sort_keys=True) == (
        '{"bins": [[0.2, 0.3]], "dvfs": {}, "generator_config": "None", '
        '"horizon_cap_units": 50, "initial_history": "rpattern", '
        '"kind": "utilization_sweep", "reference_scheme": "MKSS_ST", '
        '"release_model": {"jitter": 0.1, "kind": "sporadic"}, '
        + TAIL[len('"reference_scheme": "MKSS_ST", '):]
    )
    assert {key: row["value"] for key, row in rows.items()} == {
        "u0.2-0.3|set0|MKSS_ST": [52.46060008257716, 0],
        "u0.2-0.3|set0|MKSS_DP": [40.059885079175864, 0],
    }
