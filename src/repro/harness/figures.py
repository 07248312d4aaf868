"""Experiment definitions for the paper's Figure 6 panels.

Each panel is a utilization sweep of the three approaches under one fault
scenario:

* 6(a) no faults;
* 6(b) one permanent fault per run (uniform instant, random processor);
* 6(c) a permanent fault plus Poisson transient faults (λ = 1e-6 / ms).

Panels share the generated task sets when run through
:func:`figure6_series`, matching the paper's presentation.

Scale and setup knobs come from one
:class:`~repro.harness.protocol.ExperimentProtocol`: panels default to
the *documented* protocol (``sets_per_bin=15, horizon_cap_units=1500`` --
the scale every EXPERIMENTS.md series was measured at), and every knob
can still be overridden per call.  Pass ``protocol=`` to rescale a whole
panel coherently.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from ..energy.power import PowerModel
from ..faults.scenario import FaultScenario
from ..faults.transient import PAPER_FAULT_RATE
from ..workload.generator import GeneratorConfig, generate_binned_tasksets
from .protocol import DEFAULT_BINS, ExperimentProtocol
from .runner import PAPER_SCHEMES
from .sweep import ScenarioFactory, SweepResult, utilization_sweep

__all__ = [
    "DEFAULT_BINS",
    "FIGURE_SCENARIOS",
    "fig6a",
    "fig6b",
    "fig6c",
    "figure6_series",
    "panel_scenario_factory",
]


def _scenario_none(_: int) -> FaultScenario:
    return FaultScenario.none()


def _scenario_permanent(seed_base: int) -> ScenarioFactory:
    def factory(index: int) -> FaultScenario:
        return FaultScenario.permanent_only(seed=seed_base + index)

    return factory


def _scenario_permanent_transient(seed_base: int) -> ScenarioFactory:
    def factory(index: int) -> FaultScenario:
        return FaultScenario.permanent_and_transient(
            seed=seed_base + index, rate=PAPER_FAULT_RATE
        )

    return factory


FIGURE_SCENARIOS: Dict[str, str] = {
    "fig6a": "no fault",
    "fig6b": "permanent fault",
    "fig6c": "permanent and transient faults",
}


def panel_scenario_factory(
    panel: str, protocol: Optional[ExperimentProtocol] = None
) -> Optional[ScenarioFactory]:
    """The fault-scenario factory a panel uses (None for fig6a)."""
    proto = protocol or ExperimentProtocol.documented()
    if panel == "fig6a":
        return None
    if panel == "fig6b":
        return _scenario_permanent(proto.scenario_seed_base(panel))
    if panel == "fig6c":
        return _scenario_permanent_transient(proto.scenario_seed_base(panel))
    raise KeyError(f"unknown panel {panel!r}; known: {sorted(FIGURE_SCENARIOS)}")


def fig6a(**kwargs) -> SweepResult:
    """Figure 6(a): energy comparison with no faults."""
    kwargs.setdefault("scenario_factory", _scenario_none)
    return _run_panel(**kwargs)


def fig6b(seed_base: Optional[int] = None, **kwargs) -> SweepResult:
    """Figure 6(b): energy comparison under one permanent fault."""
    if "scenario_factory" not in kwargs:
        proto = kwargs.get("protocol") or ExperimentProtocol.documented()
        base = seed_base if seed_base is not None else proto.permanent_seed_base
        kwargs["scenario_factory"] = _scenario_permanent(base)
    return _run_panel(**kwargs)


def fig6c(seed_base: Optional[int] = None, **kwargs) -> SweepResult:
    """Figure 6(c): energy under permanent + transient faults."""
    if "scenario_factory" not in kwargs:
        proto = kwargs.get("protocol") or ExperimentProtocol.documented()
        base = seed_base if seed_base is not None else proto.transient_seed_base
        kwargs["scenario_factory"] = _scenario_permanent_transient(base)
    return _run_panel(**kwargs)


def _run_panel(
    bins: Optional[Sequence[Tuple[float, float]]] = None,
    schemes: Sequence[str] = PAPER_SCHEMES,
    sets_per_bin: Optional[int] = None,
    seed: Optional[int] = None,
    scenario_factory: Optional[ScenarioFactory] = None,
    generator_config: Optional[GeneratorConfig] = None,
    horizon_cap_units: Optional[int] = None,
    power_model: Optional[PowerModel] = None,
    protocol: Optional[ExperimentProtocol] = None,
    tasksets_by_bin=None,
    workers: int = 1,
    backend: str = "pool",
    journal_path: Optional[str] = None,
    resume: bool = False,
    force_new: bool = False,
    job_timeout: Optional[float] = None,
    events=None,
    collect_trace: bool = True,
    fold: bool = False,
    validate: int = 0,
    generation_store=None,
    release_model=None,
    initial_history: Optional[str] = None,
    dvfs=None,
) -> SweepResult:
    proto = protocol or ExperimentProtocol.documented()
    explicit = {
        "horizon_cap_units": horizon_cap_units,
        "power_model": power_model,
        "release_model": release_model,
        "initial_history": initial_history,
        "dvfs": dvfs,
    }
    run = dataclasses.replace(
        proto.run_spec(),
        **{name: value for name, value in explicit.items() if value is not None},
    )
    return utilization_sweep(
        bins=list(proto.bins) if bins is None else bins,
        schemes=schemes,
        scenario_factory=scenario_factory,
        sets_per_bin=(
            proto.sets_per_bin if sets_per_bin is None else sets_per_bin
        ),
        generator_config=(
            proto.generator if generator_config is None else generator_config
        ),
        seed=proto.seed if seed is None else seed,
        tasksets_by_bin=tasksets_by_bin,
        workers=workers,
        backend=backend,
        journal_path=journal_path,
        resume=resume,
        force_new=force_new,
        job_timeout=job_timeout,
        events=events,
        collect_trace=collect_trace,
        fold=fold,
        validate=validate,
        generation_store=generation_store,
        **run.knobs(),
    )


def figure6_series(
    bins: Optional[Sequence[Tuple[float, float]]] = None,
    sets_per_bin: Optional[int] = None,
    seed: Optional[int] = None,
    generator_config: Optional[GeneratorConfig] = None,
    horizon_cap_units: Optional[int] = None,
    schemes: Sequence[str] = PAPER_SCHEMES,
    protocol: Optional[ExperimentProtocol] = None,
    generation_store=None,
) -> Dict[str, SweepResult]:
    """All three panels over one shared pool of task sets.

    ``generation_store`` memoizes the shared corpus across processes:
    a :class:`~repro.harness.genstore.GenerationStore` (or root path)
    consulted before generating and populated after.
    """
    proto = protocol or ExperimentProtocol.documented()
    bins = list(proto.bins) if bins is None else bins
    sets_per_bin = proto.sets_per_bin if sets_per_bin is None else sets_per_bin
    seed = proto.seed if seed is None else seed
    generator_config = (
        proto.generator if generator_config is None else generator_config
    )
    horizon_cap_units = (
        proto.horizon_cap_units
        if horizon_cap_units is None
        else horizon_cap_units
    )
    store = None
    if generation_store is not None:
        from .genstore import GenerationStore, generation_digest

        store = (
            GenerationStore(generation_store)
            if isinstance(generation_store, str)
            else generation_store
        )
        digest = generation_digest(bins, sets_per_bin, generator_config, seed)
        tasksets = store.get(digest)
        if tasksets is None:
            tasksets = generate_binned_tasksets(
                bins, sets_per_bin, generator_config, seed
            )
            store.put(digest, tasksets)
    else:
        tasksets = generate_binned_tasksets(
            bins, sets_per_bin, generator_config, seed
        )
    shared = dict(
        bins=bins,
        schemes=schemes,
        sets_per_bin=sets_per_bin,
        horizon_cap_units=horizon_cap_units,
        tasksets_by_bin=tasksets,
        protocol=proto,
    )
    return {
        "fig6a": fig6a(**shared),
        "fig6b": fig6b(**shared),
        "fig6c": fig6c(**shared),
    }
