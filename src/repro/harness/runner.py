"""Running one scheme on one task set under one fault scenario.

The evaluation's three approaches are registered in
:data:`SCHEME_FACTORIES` by their paper names; ablation schemes are
registered alongside so the ablation benches can sweep them with the same
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..analysis.cache import analysis_cache
from ..analysis.hyperperiod import analysis_horizon
from ..energy.accounting import EnergyReport, energy_of_result
from ..energy.dvfs import DVFSConfig, SpeedPlan, resolve_dvfs, speed_plan_for
from ..energy.power import PowerModel
from ..errors import ConfigurationError, ModelError, UnknownSchemeError
from ..faults.scenario import FaultScenario
from ..model.history import INITIAL_HISTORY_MODES, normalize_initial_history
from ..model.taskset import TaskSet
from ..qos.metrics import QoSMetrics, collect_metrics
from ..schedulers import (
    MKSSDualPriority,
    MKSSGreedy,
    MKSSHybrid,
    MKSSSelective,
    MKSSStatic,
    ReExecutionFP,
)
from ..schedulers.base import run_policy
from ..sim.engine import SchedulingPolicy, SimulationResult
from ..sim.timeline import shared_release_timeline
from ..workload.release import ReleaseModel, resolve_release_model

#: Factories for every registered scheme (fresh policy per run).
SCHEME_FACTORIES: Dict[str, Callable[[], SchedulingPolicy]] = {
    "MKSS_ST": MKSSStatic,
    "MKSS_DP": MKSSDualPriority,
    "MKSS_Selective": MKSSSelective,
    "MKSS_Greedy": MKSSGreedy,
    "MKSS_Selective_NoAlt": lambda: MKSSSelective(alternate=False),
    "MKSS_Selective_FD2": lambda: MKSSSelective(fd_threshold=2),
    "MKSS_Selective_NoTheta": lambda: MKSSSelective(
        use_theta_postponement=False
    ),
    "MKSS_Hybrid": MKSSHybrid,
    "ReExecution_FP": ReExecutionFP,
}

#: The three approaches of the paper's Section V, in presentation order.
PAPER_SCHEMES = ("MKSS_ST", "MKSS_DP", "MKSS_Selective")


@dataclass
class RunOutcome:
    """One (task set, scheme, scenario) execution with derived metrics."""

    scheme: str
    result: SimulationResult
    energy: EnergyReport
    metrics: QoSMetrics

    @property
    def total_energy(self) -> float:
        return self.energy.total_energy


@dataclass(frozen=True)
class RunSpec:
    """Every per-run knob of a simulation, resolved and validated once.

    The knob fields change results, so non-default values enter every
    identity built off a run (journal fingerprints, sweep digests,
    protocol reports) through :meth:`canonical`.  The execution-mode
    pair ``collect_trace`` / ``fold`` never changes a result (the engine
    guarantees equal metrics in every mode) and never enters an identity.
    A sweep builds one RunSpec and hands it to every job.

    Attributes:
        horizon_cap_units: horizon cap in model time units; the actual
            horizon is min((m,k)-hyperperiod, cap).
        power_model: energy model; None is the paper's evaluation model.
        release_model: arrival process
            (:class:`~repro.workload.release.ReleaseModel`, a preset
            name, or a model dict); periodic models normalize to None,
            the paper's strictly periodic releases.
        initial_history: (m,k)-history boundary condition, one of
            :data:`repro.model.history.INITIAL_HISTORY_MODES` (the
            legacy booleans normalize to ``"met"`` / ``"miss"``).
        dvfs: deadline-safe frequency scaling
            (:class:`~repro.energy.dvfs.DVFSConfig` or its dict form); a
            config whose critical speed is 1 normalizes to None, the
            paper's fixed-frequency processors.  Only applies to the
            schemes the config names.
        collect_trace: False runs stats-only -- same energy and metrics,
            no trace; required by ``fold``.
        fold: enable the engine's cycle-folding fast path (self-disables
            on non-periodic timelines).
    """

    horizon_cap_units: int = 2000
    power_model: Optional[PowerModel] = None
    release_model: Optional[ReleaseModel] = None
    initial_history: str = "met"
    dvfs: Optional[DVFSConfig] = None
    collect_trace: bool = True
    fold: bool = False

    def __post_init__(self) -> None:
        if self.horizon_cap_units < 1:
            raise ConfigurationError(
                f"horizon_cap_units must be >= 1, got {self.horizon_cap_units}"
            )
        object.__setattr__(
            self, "release_model", resolve_release_model(self.release_model)
        )
        try:
            history = normalize_initial_history(self.initial_history)
        except ModelError:
            raise ConfigurationError(
                f"initial_history must be one of {INITIAL_HISTORY_MODES}, "
                f"got {self.initial_history!r}"
            ) from None
        object.__setattr__(self, "initial_history", history)
        object.__setattr__(self, "dvfs", resolve_dvfs(self.dvfs))
        if self.fold and self.collect_trace:
            raise ConfigurationError(
                "fold=True requires collect_trace=False (folding is exact "
                "for aggregate stats, not for traces)"
            )

    def knobs(self) -> Dict[str, Any]:
        """The knob fields, as keywords of :func:`run_scheme` and the
        other flat-signature entry points (mode fields excluded)."""
        return {
            "horizon_cap_units": self.horizon_cap_units,
            "power_model": self.power_model,
            "release_model": self.release_model,
            "initial_history": self.initial_history,
            "dvfs": self.dvfs,
        }

    def canonical(self) -> Dict[str, Any]:
        """The knobs that differ from their defaults, in JSON-able form.

        Default-valued knobs are omitted, so identities recorded before a
        knob existed stay byte-identical.  ``horizon_cap_units`` is not
        included: every identity carries it unconditionally.
        """
        payload: Dict[str, Any] = {}
        if self.power_model is not None:
            payload["power_model"] = repr(self.power_model)
        if self.release_model is not None:
            payload["release_model"] = self.release_model.as_dict()
        if self.initial_history != "met":
            payload["initial_history"] = self.initial_history
        if self.dvfs is not None:
            payload["dvfs"] = self.dvfs.as_dict()
        return payload


def speed_plan_of(
    taskset: TaskSet, scheme: str, run: RunSpec
) -> Optional[SpeedPlan]:
    """The memoized DVFS plan of one scheme's run, or None at full speed."""
    if run.dvfs is None or not run.dvfs.applies_to(scheme):
        return None
    base = taskset.timebase()
    return analysis_cache().get(
        (
            "dvfs-plan",
            taskset.fingerprint(),
            base.ticks_per_unit,
            run.horizon_cap_units,
            run.dvfs.cache_key(),
        ),
        lambda: speed_plan_for(
            taskset, base, run.dvfs, horizon_cap_units=run.horizon_cap_units
        ),
    )


def execute_run(
    taskset: TaskSet,
    scheme: str,
    scenario: Optional[FaultScenario],
    run: RunSpec,
    execution_time_fn=None,
) -> RunOutcome:
    """Simulate one scheme under a :class:`RunSpec`; see :func:`run_scheme`."""
    try:
        factory = SCHEME_FACTORIES[scheme]
    except KeyError as exc:
        raise UnknownSchemeError(
            f"unknown scheme {scheme!r}; known: {sorted(SCHEME_FACTORIES)}"
        ) from exc
    base = taskset.timebase()
    cap = run.horizon_cap_units
    horizon = analysis_cache().get(
        ("horizon", taskset.fingerprint(), base.ticks_per_unit, cap),
        lambda: analysis_horizon(taskset, base, cap),
    )
    timeline = shared_release_timeline(taskset, horizon, base, run.release_model)
    result = run_policy(
        taskset,
        factory(),
        horizon,
        base,
        scenario,
        execution_time_fn,
        collect_trace=run.collect_trace,
        fold=run.fold,
        release_timeline=timeline,
        initial_history=run.initial_history,
        speed_plan=speed_plan_of(taskset, scheme, run),
    )
    energy = energy_of_result(
        result, run.power_model or PowerModel.paper_default()
    )
    return RunOutcome(
        scheme=scheme,
        result=result,
        energy=energy,
        metrics=collect_metrics(result),
    )


def run_scheme(
    taskset: TaskSet,
    scheme: str,
    scenario: Optional[FaultScenario] = None,
    horizon_cap_units: int = 2000,
    power_model: Optional[PowerModel] = None,
    execution_time_fn=None,
    collect_trace: bool = True,
    fold: bool = False,
    release_model=None,
    initial_history: str = "met",
    dvfs=None,
) -> RunOutcome:
    """Simulate one scheme and account its energy and QoS.

    Args:
        taskset: the task set.
        scheme: a key of :data:`SCHEME_FACTORIES`.
        scenario: fault scenario (default fault-free).
        execution_time_fn: optional actual-execution-time model
            (see :mod:`repro.workload.acet`); None charges full WCETs.
        horizon_cap_units, power_model, collect_trace, fold,
        release_model, initial_history, dvfs: the :class:`RunSpec`
            fields of the run.
    """
    run = RunSpec(
        horizon_cap_units=horizon_cap_units,
        power_model=power_model,
        release_model=release_model,
        initial_history=initial_history,
        dvfs=dvfs,
        collect_trace=collect_trace,
        fold=fold,
    )
    return execute_run(taskset, scheme, scenario, run, execution_time_fn)
