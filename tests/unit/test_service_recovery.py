"""Job records persisted by earlier releases still recover.

A service restart reloads every ``jobs/<digest>.json`` record through
the strict :meth:`SweepSpec.from_dict`.  Records written while sweeps
had a ``fold`` execution-mode flag carry ``"fold"`` in their spec; they
must reload under the same digest (job id, journal path, and cache key
all hang off it), and a rewritten record drops the retired key.
"""

import asyncio
import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.service.config import ServiceConfig
from repro.service.jobs import JobManager
from repro.service.spec import SweepSpec

PAPER_SCHEMES = ["MKSS_ST", "MKSS_DP", "MKSS_Selective"]

#: (spec document as the earlier release persisted it, its digest then).
LEGACY_RECORDS = [
    (
        {
            "faults": "none",
            "bins": [[0.2, 0.3]],
            "schemes": PAPER_SCHEMES,
            "reference_scheme": "MKSS_ST",
            "sets_per_bin": 1,
            "seed": 20200309,
            "horizon_cap_units": 50,
            "backend": "pool",
            "collect_trace": False,
            "fold": True,
            "validate": 0,
        },
        "d0d58ba61de00f0b61c277cf",
    ),
    (
        {
            "faults": "transient",
            "bins": [[0.2, 0.3]],
            "schemes": PAPER_SCHEMES,
            "reference_scheme": "MKSS_ST",
            "sets_per_bin": 1,
            "seed": 20200309,
            "horizon_cap_units": 50,
            "backend": "pool",
            "collect_trace": False,
            "fold": False,
            "validate": 0,
            "release_model": {"kind": "sporadic", "jitter": 0.1},
        },
        "361075e5273b859ce5e878df",
    ),
]


def _write_record(data_dir, spec, digest, state):
    jobs_dir = os.path.join(data_dir, "jobs")
    os.makedirs(jobs_dir, exist_ok=True)
    path = os.path.join(jobs_dir, f"{digest}.json")
    record = {
        "digest": digest,
        "spec": spec,
        "tenant": "anonymous",
        "state": state,
        "error": None,
        "submitted_at": 1.0,
        "finished_at": None,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, indent=2)
    return path


@pytest.fixture
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


@pytest.mark.parametrize(
    "spec, digest", LEGACY_RECORDS, ids=["fold-true", "fold-false"]
)
def test_legacy_record_recovers_under_its_digest(tmp_path, loop, spec, digest):
    data_dir = str(tmp_path)
    path = _write_record(data_dir, spec, digest, state="running")
    manager = JobManager(ServiceConfig(data_dir=data_dir), loop)
    assert manager.recovered == [digest]
    job = manager.jobs[digest]
    assert job.state == "queued"
    assert job.spec.digest() == digest
    # Recovery rewrote the record (running -> queued) in the current
    # format: no retired key, same digest on the next restart.
    with open(path, encoding="utf-8") as handle:
        rewritten = json.load(handle)
    assert "fold" not in rewritten["spec"]
    assert rewritten["digest"] == digest
    again = JobManager(ServiceConfig(data_dir=data_dir), loop)
    assert again.jobs[digest].spec.digest() == digest


@pytest.mark.parametrize("fold", [True, False])
def test_legacy_fold_key_is_dropped_without_changing_identity(fold):
    spec, _ = LEGACY_RECORDS[0]
    current = {key: value for key, value in spec.items() if key != "fold"}
    legacy = SweepSpec.from_dict({**current, "fold": fold})
    assert legacy == SweepSpec.from_dict(current)
    assert legacy.digest() == SweepSpec.from_dict(current).digest()
    assert "fold" not in legacy.to_dict()
    assert SweepSpec.from_dict(legacy.to_dict()) == legacy


@pytest.mark.parametrize("value", [1, None])
def test_legacy_fold_key_must_still_be_a_json_boolean(value):
    spec, _ = LEGACY_RECORDS[0]
    with pytest.raises(ConfigurationError, match="fold"):
        SweepSpec.from_dict({**spec, "fold": value})
