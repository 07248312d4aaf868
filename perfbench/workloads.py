"""The benchmark's workloads: which Figure 6 sweep each one runs, on what.

Every workload sweeps the documented protocol
(``ExperimentProtocol.documented()``: 9 bins of 0.1 (m,k)-utilization,
horizon cap 1500, the paper's three schemes) through ``utilization_sweep``
with ``workers=1``, ``backend="batch"`` and ``collect_trace=False``, at
the ``bench`` scale: 1 set per bin instead of 15 (8 sets, 24
simulations).  ``dvfs-sporadic`` also caps the horizon at 750.  A sweep
then takes about 0.4 to 1.3 s at reference speed (see ``run.py``), so a
run holds a dozen or more of them and its medians rest on many sweeps.

Seeds.  The task-set corpus is the documented one (generator seed
20200309), so every run of a workload sweeps the same sets and
timings compare across runs.  ``--seed n`` drives the scenario draws on
top of it -- the fault draws of ``fig6c-faults`` and the sporadic release
streams of ``dvfs-sporadic`` -- through scenario ``n % SCENARIOS``, because
each scenario's expected per-job payloads are recorded in ``expected/``.
``fig6a-nofault`` draws no faults and releases periodically, so its
inputs are the corpus alone.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, Tuple

WORKLOADS: Tuple[str, ...] = ("fig6a-nofault", "fig6c-faults", "dvfs-sporadic")

#: Recorded scenarios that ``--seed`` selects from.
SCENARIOS = 4

#: Protocol overrides per scale.  ``tiny`` exists for the benchmark's own
#: tests: a pass of every workload in a few seconds.
SCALES: Dict[str, Dict[str, int]] = {
    "bench": {"sets_per_bin": 1},
    "tiny": {"sets_per_bin": 1, "horizon_cap_units": 100},
}

#: Auditor sample size of ``dvfs-sporadic``.
AUDITED_SETS = 2

#: Horizon cap of ``dvfs-sporadic`` (it also bounds the ``tiny`` scale's).
DVFS_HORIZON_CAP = 750


def scenario_of(workload: str, seed: int) -> int:
    """The recorded scenario a seed selects (fig6a-nofault has one)."""
    return 0 if workload == "fig6a-nofault" else seed % SCENARIOS


def protocol(workload: str, scenario: int, scale: str):
    """The :class:`ExperimentProtocol` of one run's inputs."""
    from repro.energy.dvfs import DVFSConfig
    from repro.harness.protocol import ExperimentProtocol
    from repro.workload.release import RELEASE_PRESETS

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    base = ExperimentProtocol.documented(**SCALES[scale])
    if workload == "fig6c-faults":
        return base.replace(
            transient_seed_base=base.transient_seed_base + 1000 * scenario
        )
    if workload == "dvfs-sporadic":
        return base.replace(
            dvfs=DVFSConfig(),
            horizon_cap_units=min(base.horizon_cap_units, DVFS_HORIZON_CAP),
            release_model=dataclasses.replace(RELEASE_PRESETS["light"], seed=scenario),
        )
    return base


def set_up(workload: str, seed: int, scale: str, work_dir: str) -> Dict[str, Any]:
    """Prepare one sweep; returns the ``utilization_sweep`` keyword arguments.

    ``fig6c-faults`` and ``dvfs-sporadic`` warm a generation store under
    ``work_dir`` here (generation and the store put count as set-up), and
    ``fig6c-faults`` journals its jobs to a fresh file there.
    """
    from repro.harness.figures import panel_scenario_factory
    from repro.harness.genstore import GenerationStore, generation_digest
    from repro.workload.generator import generate_binned_tasksets

    proto = protocol(workload, scenario_of(workload, seed), scale)
    kwargs: Dict[str, Any] = dict(
        bins=list(proto.bins),
        sets_per_bin=proto.sets_per_bin,
        seed=proto.seed,
        horizon_cap_units=proto.horizon_cap_units,
        release_model=proto.release_model,
        dvfs=proto.dvfs,
        workers=1,
        backend="batch",
        collect_trace=False,
    )
    if workload == "fig6a-nofault":
        return kwargs
    store = GenerationStore(os.path.join(work_dir, "genstore"))
    store.put(
        generation_digest(kwargs["bins"], proto.sets_per_bin, None, proto.seed),
        generate_binned_tasksets(kwargs["bins"], proto.sets_per_bin, None, proto.seed),
    )
    kwargs["generation_store"] = store
    if workload == "fig6c-faults":
        kwargs["scenario_factory"] = panel_scenario_factory("fig6c", proto)
        kwargs["journal_path"] = os.path.join(work_dir, "journal.jsonl")
    else:
        kwargs["validate"] = AUDITED_SETS
    return kwargs
