"""Scheme-aware conformance auditing of harness runs.

:func:`audit_scheme` is the harness-level entry point behind the
``repro-mk validate`` CLI subcommand and the ``--validate`` sampling
hook of :func:`repro.harness.sweep.utilization_sweep`.  For one
(task set, scheme, scenario) it

1. builds the scheme's :class:`~repro.sim.validation.ConformanceSpec`
   from a freshly prepared policy (each policy declares its own
   invariant suite via :meth:`SchedulingPolicy.conformance`),
2. runs the scheme in **trace** mode and audits the trace against the
   spec (:func:`~repro.sim.validation.audit_result`) and the energy
   report against the DPD rule
   (:func:`~repro.sim.validation.audit_energy`), and
3. re-runs the *same* descriptor in any requested trace-less modes
   (stats-only, cycle-folded) and requires their
   :func:`~repro.sim.validation.result_ledger` to match the trace
   run's exactly (cross-mode differential check) -- the trace-less
   fast paths are thereby held to the fully audited reference.

Determinism caveat: the differential check re-materializes the fault
scenario once per mode, so the scenario must be reproducible from its
seed (every :class:`~repro.faults.scenario.FaultScenario` in this
package is).  A genuinely nondeterministic scenario would report
spurious ``mode-divergence`` issues.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..analysis.cache import analysis_cache
from ..analysis.hyperperiod import analysis_horizon
from ..energy.power import PowerModel
from ..errors import ConfigurationError, UnknownSchemeError
from ..faults.scenario import FaultScenario
from ..model.taskset import TaskSet
from ..sim.engine import PolicyContext
from ..sim.validation import (
    ConformanceSpec,
    ValidationIssue,
    audit_energy,
    audit_result,
    compare_ledgers,
    result_ledger,
)
from .runner import SCHEME_FACTORIES, RunSpec, execute_run

#: The execution modes the auditor can cover, in audit order.  Trace is
#: always run (it is the differential reference) even when absent here.
AUDIT_MODES = ("trace", "stats", "fold")


@dataclass(frozen=True)
class ModeAudit:
    """The audit verdict for one execution mode of one scheme run."""

    mode: str
    issues: Tuple[ValidationIssue, ...]
    cycles_folded: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues


@dataclass(frozen=True)
class AuditReport:
    """All mode audits of one (task set, scheme, scenario) triple."""

    scheme: str
    modes: Tuple[ModeAudit, ...]

    @property
    def issues(self) -> Tuple[ValidationIssue, ...]:
        """Every issue across all modes, in audit order."""
        return tuple(
            issue for audit in self.modes for issue in audit.issues
        )

    @property
    def ok(self) -> bool:
        return not self.issues


def conformance_spec(
    taskset: TaskSet,
    scheme: str,
    horizon_cap_units: int = 2000,
) -> Optional[ConformanceSpec]:
    """The scheme's declared invariant suite for this task set.

    Prepares a fresh policy instance exactly as a run would (same
    cached horizon), then asks it for its
    :class:`~repro.sim.validation.ConformanceSpec`.  None means the
    policy declares no suite and only model-level checks apply.
    """
    try:
        factory = SCHEME_FACTORIES[scheme]
    except KeyError as exc:
        raise UnknownSchemeError(
            f"unknown scheme {scheme!r}; known: {sorted(SCHEME_FACTORIES)}"
        ) from exc
    base = taskset.timebase()
    horizon = analysis_cache().get(
        (
            "horizon",
            taskset.fingerprint(),
            base.ticks_per_unit,
            horizon_cap_units,
        ),
        lambda: analysis_horizon(taskset, base, horizon_cap_units),
    )
    policy = factory()
    ctx = PolicyContext(
        taskset=taskset,
        timebase=base,
        horizon_ticks=horizon,
        histories=(),
    )
    policy.prepare(ctx)
    return policy.conformance(ctx)


def audit_scheme(
    taskset: TaskSet,
    scheme: str,
    scenario: Optional[FaultScenario] = None,
    horizon_cap_units: int = 2000,
    modes: Sequence[str] = AUDIT_MODES,
    power_model: Optional[PowerModel] = None,
    release_model=None,
    initial_history: str = "met",
    dvfs=None,
) -> AuditReport:
    """Run one scheme in every requested mode and audit each run.

    Args:
        taskset: the task set.
        scheme: a key of :data:`~repro.harness.runner.SCHEME_FACTORIES`.
        scenario: fault scenario (default fault-free); must be
            seed-reproducible, see the module docstring.
        horizon_cap_units: horizon cap in model time units.
        modes: subset of :data:`AUDIT_MODES` to audit.  The trace run
            always happens (it is the reference); listing ``"trace"``
            additionally audits it against the conformance spec.
        power_model: energy model (default: the paper's).
        release_model: arrival process shared by every mode's run (None
            = the paper's periodic releases).  Under a non-periodic
            model the ``"fold"`` mode still runs -- folding self-disables
            in the engine, so the audit doubles as a regression check
            that the fallback matches the trace reference exactly.
        initial_history: (m,k)-history boundary condition shared by
            every mode's run (and by the FD replay of the trace audit).
        dvfs: deadline-safe frequency scaling
            (:class:`~repro.energy.dvfs.DVFSConfig` or its dict form)
            shared by every mode's run.  The trace audit then also
            enforces per-segment frequency conformance, and the energy
            audit re-derives the speed-aware charge in every mode.

    Returns:
        An :class:`AuditReport` with one :class:`ModeAudit` per
        requested mode, in :data:`AUDIT_MODES` order.
    """
    unknown = [mode for mode in modes if mode not in AUDIT_MODES]
    if unknown:
        raise ConfigurationError(
            f"unknown audit mode(s) {unknown}; known: {list(AUDIT_MODES)}"
        )
    run = RunSpec(
        horizon_cap_units=horizon_cap_units,
        power_model=power_model,
        release_model=release_model,
        initial_history=initial_history,
        dvfs=dvfs,
    )
    spec = conformance_spec(taskset, scheme, horizon_cap_units)
    reference = execute_run(taskset, scheme, scenario, run)
    reference_ledger = result_ledger(reference.result)
    audits = []
    for mode in AUDIT_MODES:
        if mode not in modes:
            continue
        if mode == "trace":
            issues = audit_result(
                reference.result, spec, initial_history_met=run.initial_history
            )
            issues += audit_energy(reference.result, reference.energy)
            audits.append(ModeAudit(mode="trace", issues=tuple(issues)))
            continue
        outcome = execute_run(
            taskset,
            scheme,
            scenario,
            dataclasses.replace(run, collect_trace=False, fold=mode == "fold"),
        )
        issues = compare_ledgers(
            reference_ledger, result_ledger(outcome.result), label=mode
        )
        issues += audit_energy(outcome.result, outcome.energy)
        audits.append(
            ModeAudit(
                mode=mode,
                issues=tuple(issues),
                cycles_folded=outcome.result.cycles_folded,
            )
        )
    return AuditReport(scheme=scheme, modes=tuple(audits))
