"""Differential fidelity triage: mechanically hunting the Figure 6 gap.

EXPERIMENTS.md records the reproduction's biggest open correctness
question: the worked examples (Figures 1-5, θ values, promotion times)
reproduce *exactly*, yet Figure 6's max energy reductions measure about
half the paper's "up to" claims (15.1/11.3/7.1% vs ~28/22/16%).  The
discrepancy must therefore live in the experiment protocol -- which
Section V states only in prose, with several knobs unstated -- or in a
sweep-scale bug.

This module turns that one-off footnote into a permanent, resumable
root-cause subsystem.  :func:`run_triage` runs **one-knob-at-a-time
ablations** of the experiment protocol around a baseline
:class:`~repro.harness.protocol.ExperimentProtocol` and emits a
machine-readable **gap decomposition report**:

* for each panel (6a/6b/6c), the baseline headline (max reduction of
  MKSS_Selective vs MKSS_DP), the paper's target, and the gap;
* for each knob (horizon cap, sets per bin, period grid, k range,
  T_be, schedulability/admission filter, normalization statistic,
  fault-scenario seeding), one sweep per variant and the headline delta
  it produces -- i.e. how much of the paper-vs-measured gap that knob
  can explain;
* a per-bin drill-down naming the task sets that drive the
  Selective-vs-DP divergence, each replayed through the conformance
  auditor (trace / stats differential) and exported as a full
  trace for inspection.

Every ablation sweep checkpoints into its own
:class:`~repro.harness.journal.RunJournal` under the output directory,
so an interrupted campaign resumes job-by-job (``resume=True``); all
sweeps of a campaign share one :class:`~repro.harness.events.EventLog`
run id.  Correctness is enforced throughout: every sweep samples the
conformance auditor (``validate``), so trace/stats agreement is
asserted in every ablation run, and the 0-violation invariant in every
run whose variant keeps the guarantee's hypothesis intact (see
:class:`Variant` -- a deliberately broken hypothesis reports its
violation count as the finding itself).

The CLI front end is ``repro-mk triage`` (see :mod:`repro.cli`); the
CI ``fidelity`` job runs it at the documented scale and uploads the
report as an artifact.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..energy.dvfs import DVFSConfig
from ..errors import ConfigurationError
from ..workload.generator import GeneratorConfig
from ..workload.release import ReleaseModel
from .events import EventLog
from .figures import fig6a, fig6b, fig6c
from .protocol import PAPER_TARGETS, ExperimentProtocol
from .report import format_table
from .sweep import SweepResult
from .validate import audit_scheme

#: The Figure 6 panels, in presentation order.
PANELS: Tuple[str, ...] = ("fig6a", "fig6b", "fig6c")

#: The headline comparison the paper's "up to" claims quote.
HEADLINE_SCHEME = "MKSS_Selective"
HEADLINE_VERSUS = "MKSS_DP"

#: Utilization threshold above which the paper's ordering claim
#: (Selective below DP) is enforced by :func:`check_report`.
ORDERING_UTILIZATION = 0.6

_PANEL_RUNNERS = {"fig6a": fig6a, "fig6b": fig6b, "fig6c": fig6c}

#: Job-key pattern of generated-workload sweeps:
#: ``u<lo>-<hi>|set<index>|<scheme>``.
_JOB_KEY = re.compile(r"^u(?P<lo>[^|]+)-(?P<hi>[^|]+)\|set(?P<index>\d+)\|(?P<scheme>.+)$")


@dataclass(frozen=True)
class Variant:
    """One setting of one knob: a full protocol, or an analysis marker.

    ``protocol`` is the varied :class:`ExperimentProtocol` to sweep;
    ``analysis`` names a re-aggregation of the *baseline* sweep's
    per-job payloads instead (no extra simulation).  Exactly one of the
    two is set.  ``panels`` restricts the variant to a subset of panels
    (e.g. fault-seed variants mean nothing in fault-free 6a).

    ``gated=False`` marks a variant that deliberately breaks a
    hypothesis behind the 0-violation guarantee -- e.g. disabling the
    Theorem 1 schedulability admission, or redrawing transient faults
    whose coverage is only probabilistic.  Such variants still report
    their (m,k) violation counts (that *is* the finding), but
    :func:`check_report` does not treat those violations as a CI
    regression; mode agreement (trace/stats) stays gated for every
    run regardless.
    """

    label: str
    description: str
    protocol: Optional[ExperimentProtocol] = None
    analysis: Optional[str] = None
    panels: Optional[Tuple[str, ...]] = None
    gated: bool = True

    def applies_to(self, panel: str) -> bool:
        return self.panels is None or panel in self.panels


@dataclass(frozen=True)
class Knob:
    """One ablation axis of the experiment protocol."""

    name: str
    question: str
    variants: Tuple[Variant, ...]


def default_knobs(baseline: ExperimentProtocol) -> Tuple[Knob, ...]:
    """The standard one-knob-at-a-time ablation axes around a baseline.

    Each knob probes one underspecified or deliberately substituted
    sentence of the paper's Section V protocol (see the ``question``
    fields and docs/paper_mapping.md).
    """
    gen = baseline.generator or GeneratorConfig()

    def gen_with(**changes: Any) -> GeneratorConfig:
        return dataclasses.replace(gen, **changes)

    short = max(100, baseline.horizon_cap_units // 3)
    long = baseline.horizon_cap_units * 2
    return (
        Knob(
            name="horizon",
            question=(
                "The paper simulates 'within the hyper period' but never "
                "states the horizon; short horizons hand every task "
                "k-m-1 free skips from the all-met initial history, "
                "favouring the selective scheme."
            ),
            variants=(
                Variant(
                    label=f"short{short}",
                    description=f"horizon cap {short} units",
                    protocol=baseline.replace(horizon_cap_units=short),
                ),
                Variant(
                    label=f"long{long}",
                    description=f"horizon cap {long} units",
                    protocol=baseline.replace(horizon_cap_units=long),
                ),
            ),
        ),
        Knob(
            name="sets_per_bin",
            question=(
                "The paper requires >= 20 schedulable sets per bin; the "
                "documented reproduction scale is 15.  Does the sample "
                "size move the headline?"
            ),
            variants=(
                Variant(
                    label="sets5",
                    description="5 sets per bin (smoke scale)",
                    protocol=baseline.replace(sets_per_bin=5),
                ),
                Variant(
                    label="paper20",
                    description="the paper's >= 20 sets per bin",
                    protocol=baseline.replace(sets_per_bin=20),
                ),
            ),
        ),
        Knob(
            name="period_grid",
            question=(
                "The paper draws periods 'randomly chosen in [5, 50] ms'; "
                "the reproduction defaults to a divisor-friendly grid to "
                "keep hyperperiods tractable."
            ),
            variants=(
                Variant(
                    label="free",
                    description="periods uniform over every integer in [5, 50]",
                    protocol=baseline.replace(
                        generator=gen_with(period_choices=None)
                    ),
                ),
            ),
        ),
        Knob(
            name="k_range",
            question=(
                "k is uniform in [2, 20]; shallow windows over-execute "
                "under the FD=1 rule (rate m/(k-1)), deep windows favour "
                "it -- how sensitive is the headline to the draw?"
            ),
            variants=(
                Variant(
                    label="shallow2-6",
                    description="k uniform in [2, 6]",
                    protocol=baseline.replace(generator=gen_with(k_range=(2, 6))),
                ),
                Variant(
                    label="deep10-20",
                    description="k uniform in [10, 20]",
                    protocol=baseline.replace(
                        generator=gen_with(k_range=(10, 20))
                    ),
                ),
            ),
        ),
        Knob(
            name="tbe",
            question=(
                "T_be = 1 ms is stated, but the idle/sleep split it "
                "induces depends on the unstated gap distribution; how "
                "much headline sits on the break-even choice?"
            ),
            variants=(
                Variant(
                    label="tbe0.5",
                    description="break-even 0.5 ms",
                    protocol=baseline.replace(break_even_units=Fraction(1, 2)),
                ),
                Variant(
                    label="tbe2",
                    description="break-even 2 ms",
                    protocol=baseline.replace(break_even_units=Fraction(2)),
                ),
            ),
        ),
        Knob(
            name="admission",
            question=(
                "'sets schedulable' under what test?  The reproduction "
                "uses the R-pattern admission of Theorem 1; rotated "
                "patterns (Quan & Hu) admit more sets, no filter admits "
                "everything the bins can hold."
            ),
            variants=(
                Variant(
                    label="rotated",
                    # The rotation search simulates every candidate
                    # rotation per draw; over the generator's default
                    # 5000-unit admission horizon that is hours per
                    # high-utilization bin, so this variant tests
                    # admission over 600 units.
                    description=(
                        "admit sets schedulable under optimized rotations "
                        "(600-unit admission horizon)"
                    ),
                    protocol=baseline.replace(
                        generator=gen_with(
                            admission="rotated", horizon_cap_units=600
                        )
                    ),
                    # Admitted sets are only rotated-schedulable; the
                    # sweep still runs them under the R-patterns of
                    # Theorem 1, so (m,k) violations are the expected
                    # measurement, not a regression.
                    gated=False,
                ),
                Variant(
                    label="nofilter",
                    description="no schedulability filter at all",
                    protocol=baseline.replace(
                        generator=gen_with(admission="none")
                    ),
                    gated=False,
                ),
            ),
        ),
        Knob(
            name="normalization",
            question=(
                "'normalized to MKSS_ST' per bin: mean energy ratio of "
                "means (the reproduction) or mean of per-set ratios (the "
                "other common reading)?"
            ),
            variants=(
                Variant(
                    label="mean-of-ratios",
                    description=(
                        "per-set energy ratios averaged per bin, from the "
                        "baseline sweep's per-job payloads"
                    ),
                    analysis="mean_of_ratios",
                ),
            ),
        ),
        Knob(
            name="fault_seed",
            question=(
                "Fault instants/processors are random and unstated; how "
                "much do the 6b/6c headlines move across independent "
                "fault draws?"
            ),
            variants=(
                Variant(
                    label="reseed",
                    description="independent fault-draw seed bases",
                    protocol=baseline.replace(
                        permanent_seed_base=baseline.permanent_seed_base + 7777,
                        transient_seed_base=baseline.transient_seed_base + 7777,
                    ),
                    panels=("fig6b", "fig6c"),
                    # Transient coverage is probabilistic (a fault can
                    # land on the backup too); a different draw may
                    # legitimately show violations the documented seed
                    # does not.
                    gated=False,
                ),
            ),
        ),
        Knob(
            name="release_model",
            question=(
                "The paper (like Niu & Zhu's analysis) assumes strictly "
                "periodic releases; the R-pattern partition and Theorem 1 "
                "admission are only proven there.  Sporadic-legal jitter "
                "and bursty arrivals (Goossens; Bonifaci et al.) keep "
                "inter-arrivals >= P yet void the proof -- how far do the "
                "schemes degrade off the periodic happy path?"
            ),
            variants=(
                Variant(
                    label="light",
                    description="sporadic releases, jitter up to 0.1 P",
                    protocol=baseline.replace(
                        release_model=ReleaseModel.preset("light")
                    ),
                    # Theorem 1's guarantee assumes periodic arrivals;
                    # (m,k) violations under jitter are the measurement.
                    gated=False,
                ),
                Variant(
                    label="bursty",
                    description=(
                        "bursts of 3 back-to-back periods, then a random "
                        "gap up to one period"
                    ),
                    protocol=baseline.replace(
                        release_model=ReleaseModel.preset("bursty")
                    ),
                    gated=False,
                ),
                Variant(
                    label="heavy",
                    description="sporadic releases, jitter up to 0.5 P",
                    protocol=baseline.replace(
                        release_model=ReleaseModel.preset("heavy")
                    ),
                    gated=False,
                ),
            ),
        ),
        Knob(
            name="dvfs",
            question=(
                "The paper compares its DPD-based schemes 'without "
                "applying DVS'; layering deadline-safe uniform frequency "
                "scaling on every scheme's mains measures how much of "
                "the Selective-vs-DP headline survives once slack is "
                "spent on slowdown instead of sleep."
            ),
            variants=(
                Variant(
                    label="dvs-default",
                    description=(
                        "uniform DVFS (alpha=3, static 0.05) on every "
                        "scheme's main copies, clamped at the critical "
                        "speed"
                    ),
                    protocol=baseline.replace(dvfs=DVFSConfig()),
                    # Slowdown is deadline-safe by construction, but the
                    # headline *ordering* claim is only stated for the
                    # paper's no-DVS accounting: the DVS leakage adder
                    # on full-speed units can legally invert it.
                    gated=False,
                ),
            ),
        ),
        Knob(
            name="initial_history",
            question=(
                "Every run historically started from an all-met (m,k) "
                "history, handing each task k-m-1 free skips before the "
                "first real miss matters.  The paper never states the "
                "boundary condition; all-miss and R-pattern starts bound "
                "how much headline rides on it."
            ),
            variants=(
                Variant(
                    label="miss",
                    description="all-miss initial (m,k) windows",
                    protocol=baseline.replace(initial_history="miss"),
                    # An all-miss start can make windows unsatisfiable
                    # before any job runs; violations are the finding.
                    gated=False,
                ),
                Variant(
                    label="rpattern",
                    description="R-pattern-aligned initial (m,k) windows",
                    protocol=baseline.replace(initial_history="rpattern"),
                    gated=False,
                ),
            ),
        ),
    )


@dataclass
class TriageOptions:
    """Execution knobs of one triage campaign (not protocol knobs).

    Attributes:
        out_dir: campaign directory; journals land in ``journals/``,
            outlier traces in ``traces/``, and the JSON report is the
            caller's to place (see :meth:`TriageReport.write`).
        panels: Figure 6 panels to triage.
        knobs: knob-name subset (None = every default knob).
        workers: worker processes per sweep (1 = inline); sweeps always
            run stats-only.
        validate: conformance-auditor samples per sweep (>= 1 keeps the
            trace/stats agreement assertion on every ablation run).
        resume: resume each sweep from its journal when present.
        outliers: per panel, how many extreme task sets to replay
            through the auditor and export traces for.
        job_timeout: per-job wall-clock budget (parallel sweeps only).
    """

    out_dir: str
    panels: Tuple[str, ...] = PANELS
    knobs: Optional[Tuple[str, ...]] = None
    workers: int = 1
    validate: int = 1
    resume: bool = False
    outliers: int = 2
    job_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        unknown = sorted(set(self.panels) - set(PANELS))
        if unknown:
            raise ConfigurationError(
                f"unknown panel(s) {unknown}; known: {list(PANELS)}"
            )
        if self.outliers < 0:
            raise ConfigurationError(
                f"outliers must be >= 0, got {self.outliers}"
            )
        if self.validate < 0:
            raise ConfigurationError(
                f"validate must be >= 0, got {self.validate}"
            )


@dataclass
class RunSummary:
    """Headline metrics of one sweep (baseline or one knob variant)."""

    headline: float
    normalized_series: Dict[str, Dict[str, float]]
    violations: int
    ordering_ok: bool
    dropped: int
    validation_issues: int
    taskset_counts: Dict[str, int]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "headline_reduction_selective_vs_dp": round(self.headline, 6),
            "normalized_energy": self.normalized_series,
            "mk_violations": self.violations,
            "ordering_ok": self.ordering_ok,
            "dropped_pairs": self.dropped,
            "validation_issues": self.validation_issues,
            "tasksets_per_bin": self.taskset_counts,
        }


@dataclass
class VariantOutcome:
    """One knob variant's measurement against the panel baseline."""

    knob: str
    label: str
    description: str
    summary: RunSummary
    delta: float
    gap_explained: Optional[float]
    gated: bool = True

    def as_dict(self) -> Dict[str, Any]:
        doc = {
            "knob": self.knob,
            "label": self.label,
            "description": self.description,
            "delta_vs_baseline": round(self.delta, 6),
            "gap_explained": (
                None
                if self.gap_explained is None
                else round(self.gap_explained, 6)
            ),
            "gated": self.gated,
        }
        doc.update(self.summary.as_dict())
        return doc


@dataclass
class OutlierFinding:
    """One extreme task set replayed through the conformance auditor."""

    bin_label: str
    set_index: int
    ratio_selective_vs_dp: float
    energies: Dict[str, float]
    audit_issues: int
    trace_paths: Dict[str, str]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "bin": self.bin_label,
            "set_index": self.set_index,
            "ratio_selective_vs_dp": round(self.ratio_selective_vs_dp, 6),
            "energies": {k: round(v, 6) for k, v in self.energies.items()},
            "audit_issues": self.audit_issues,
            "trace_paths": self.trace_paths,
        }


@dataclass
class PanelTriage:
    """Gap decomposition of one Figure 6 panel."""

    panel: str
    paper_target: float
    baseline: RunSummary
    variants: List[VariantOutcome] = field(default_factory=list)
    outliers: List[OutlierFinding] = field(default_factory=list)

    @property
    def gap(self) -> float:
        """Paper target minus measured baseline headline."""
        return self.paper_target - self.baseline.headline

    def as_dict(self) -> Dict[str, Any]:
        return {
            "panel": self.panel,
            "paper_target": self.paper_target,
            "gap": round(self.gap, 6),
            "baseline": self.baseline.as_dict(),
            "variants": [v.as_dict() for v in self.variants],
            "outliers": [o.as_dict() for o in self.outliers],
        }


@dataclass
class TriageReport:
    """The machine-readable gap-decomposition report of one campaign."""

    protocol: ExperimentProtocol
    run_id: str
    panels: Dict[str, PanelTriage] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "triage_report",
            "version": 1,
            "run_id": self.run_id,
            "protocol": self.protocol.as_dict(),
            "paper_targets": dict(PAPER_TARGETS),
            "panels": {
                name: panel.as_dict() for name, panel in self.panels.items()
            },
        }

    def write(self, path: str) -> None:
        """Persist the report as pretty-printed JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def _parse_job_key(key: str) -> Optional[Tuple[str, int, str]]:
    """``u<lo>-<hi>|set<i>|<scheme>`` -> (bin label, set index, scheme)."""
    match = _JOB_KEY.match(key)
    if match is None:
        return None
    return (
        f"[{match.group('lo')},{match.group('hi')})",
        int(match.group("index")),
        match.group("scheme"),
    )


def _grouped_payloads(
    sweep: SweepResult,
) -> Dict[Tuple[str, int], Dict[str, float]]:
    """Per (bin label, set index): {scheme: energy} of aggregated jobs."""
    grouped: Dict[Tuple[str, int], Dict[str, float]] = {}
    for key, (energy, _violations) in sweep.job_payloads.items():
        parsed = _parse_job_key(key)
        if parsed is None:
            continue
        bin_label, index, scheme = parsed
        grouped.setdefault((bin_label, index), {})[scheme] = energy
    return grouped


def _ordering_ok(sweep: SweepResult) -> bool:
    """The paper's claim: Selective below DP at mid/high utilization."""
    if (
        HEADLINE_SCHEME not in sweep.schemes
        or HEADLINE_VERSUS not in sweep.schemes
    ):
        return True
    for bucket in sweep.bins:
        if bucket.bin_range[0] < ORDERING_UTILIZATION:
            continue
        if (
            bucket.normalized_energy[HEADLINE_SCHEME]
            > bucket.normalized_energy[HEADLINE_VERSUS]
        ):
            return False
    return True


def summarize_sweep(sweep: SweepResult) -> RunSummary:
    """Reduce one sweep to the triage-relevant metrics."""
    series: Dict[str, Dict[str, float]] = {}
    violations = 0
    counts: Dict[str, int] = {}
    for bucket in sweep.bins:
        series[bucket.label] = {
            scheme: round(value, 6)
            for scheme, value in bucket.normalized_energy.items()
        }
        violations += sum(bucket.mk_violation_count.values())
        counts[bucket.label] = bucket.taskset_count
    headline = (
        sweep.max_reduction(HEADLINE_SCHEME, HEADLINE_VERSUS)
        if HEADLINE_SCHEME in sweep.schemes
        and HEADLINE_VERSUS in sweep.schemes
        else 0.0
    )
    return RunSummary(
        headline=headline,
        normalized_series=series,
        violations=violations,
        ordering_ok=_ordering_ok(sweep),
        dropped=len(sweep.dropped),
        validation_issues=len(sweep.validation_issues),
        taskset_counts=counts,
    )


def _mean_of_ratios_summary(
    sweep: SweepResult, baseline_summary: RunSummary
) -> RunSummary:
    """Re-aggregate a sweep with per-set ratios instead of ratio of means.

    Uses the paired per-job payloads: within each bin, every scheme's
    normalized energy becomes ``mean over sets of (E_scheme / E_ST)``;
    the headline becomes ``max over bins of (1 - mean(E_sel / E_dp))``.
    Violations/dropped/validation are the baseline's -- no new runs.
    """
    per_bin_ratios: Dict[str, Dict[str, List[float]]] = {}
    headline_ratios: Dict[str, List[float]] = {}
    for (bin_label, _index), energies in _grouped_payloads(sweep).items():
        reference = energies.get(sweep.reference_scheme)
        if reference:
            bucket = per_bin_ratios.setdefault(bin_label, {})
            for scheme, energy in energies.items():
                bucket.setdefault(scheme, []).append(energy / reference)
        dp = energies.get(HEADLINE_VERSUS)
        sel = energies.get(HEADLINE_SCHEME)
        if dp and sel is not None:
            headline_ratios.setdefault(bin_label, []).append(sel / dp)
    series = {
        bin_label: {
            scheme: round(sum(values) / len(values), 6)
            for scheme, values in by_scheme.items()
        }
        for bin_label, by_scheme in sorted(per_bin_ratios.items())
    }
    headline = 0.0
    best: Optional[float] = None
    for ratios in headline_ratios.values():
        reduction = 1.0 - sum(ratios) / len(ratios)
        if best is None or reduction > best:
            best = reduction
    if best is not None:
        headline = best
    ordering = True
    for bin_label, by_scheme in series.items():
        lo = float(bin_label[1:].split(",", 1)[0])
        if lo < ORDERING_UTILIZATION:
            continue
        if by_scheme.get(HEADLINE_SCHEME, 0.0) > by_scheme.get(
            HEADLINE_VERSUS, float("inf")
        ):
            ordering = False
    return RunSummary(
        headline=headline,
        normalized_series=series,
        violations=baseline_summary.violations,
        ordering_ok=ordering,
        dropped=baseline_summary.dropped,
        validation_issues=baseline_summary.validation_issues,
        taskset_counts=baseline_summary.taskset_counts,
    )


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


def _run_panel_sweep(
    panel: str,
    protocol: ExperimentProtocol,
    options: TriageOptions,
    journal_name: str,
    events: EventLog,
) -> SweepResult:
    journal_dir = os.path.join(options.out_dir, "journals")
    os.makedirs(journal_dir, exist_ok=True)
    runner = _PANEL_RUNNERS[panel]
    return runner(
        protocol=protocol,
        workers=options.workers,
        journal_path=os.path.join(journal_dir, _slug(journal_name) + ".jsonl"),
        resume=options.resume,
        job_timeout=options.job_timeout,
        events=events,
        collect_trace=False,
        validate=options.validate,
    )


def _panel_outliers(
    panel: str,
    protocol: ExperimentProtocol,
    sweep: SweepResult,
    options: TriageOptions,
    events: EventLog,
) -> List[OutlierFinding]:
    """Replay the task sets with the worst Selective-vs-DP ratios.

    'Worst' means the highest per-set E_Selective / E_DP -- exactly the
    sets pulling the measured headline *away* from the paper's claim --
    replayed through the conformance auditor (all modes) and exported as
    full traces for manual inspection.
    """
    if not options.outliers:
        return []
    ranked: List[Tuple[float, str, int, Dict[str, float]]] = []
    for (bin_label, index), energies in _grouped_payloads(sweep).items():
        dp = energies.get(HEADLINE_VERSUS)
        sel = energies.get(HEADLINE_SCHEME)
        if not dp or sel is None:
            continue
        ranked.append((sel / dp, bin_label, index, energies))
    ranked.sort(reverse=True)
    if not ranked:
        return []

    from ..sim.export import write_result
    from ..workload.generator import generate_binned_tasksets
    from .figures import panel_scenario_factory
    from .runner import execute_run

    pool = generate_binned_tasksets(
        list(protocol.bins),
        protocol.sets_per_bin,
        protocol.generator,
        protocol.seed,
    )
    # Global set counter ordering matches the sweep's scenario indexing.
    counters: Dict[Tuple[str, int], int] = {}
    counter = 0
    for bin_range in protocol.bins:
        label = f"[{bin_range[0]:g},{bin_range[1]:g})"
        for index in range(len(pool.get(tuple(bin_range), []))):
            counters[(label, index)] = counter
            counter += 1
    by_label = {
        f"[{lo:g},{hi:g})": pool.get((lo, hi), [])
        for lo, hi in protocol.bins
    }
    scenario_factory = panel_scenario_factory(panel, protocol)
    run = protocol.run_spec()
    trace_dir = os.path.join(options.out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    findings: List[OutlierFinding] = []
    for ratio, bin_label, index, energies in ranked[: options.outliers]:
        tasksets = by_label.get(bin_label, [])
        if index >= len(tasksets):
            continue
        taskset = tasksets[index]
        scenario = (
            scenario_factory(counters[(bin_label, index)])
            if scenario_factory
            else None
        )
        issues = 0
        trace_paths: Dict[str, str] = {}
        for scheme in (HEADLINE_SCHEME, HEADLINE_VERSUS):
            report = audit_scheme(
                taskset, scheme, scenario=scenario, **run.knobs()
            )
            issues += len(report.issues)
            outcome = execute_run(taskset, scheme, scenario, run)
            path = os.path.join(
                trace_dir,
                _slug(f"{panel}--{bin_label}-set{index}-{scheme}") + ".json",
            )
            write_result(outcome.result, path)
            trace_paths[scheme] = path
        events.emit(
            "triage_outlier",
            panel=panel,
            bin=bin_label,
            set_index=index,
            ratio=round(ratio, 6),
            audit_issues=issues,
        )
        findings.append(
            OutlierFinding(
                bin_label=bin_label,
                set_index=index,
                ratio_selective_vs_dp=ratio,
                energies=energies,
                audit_issues=issues,
                trace_paths=trace_paths,
            )
        )
    return findings


def run_triage(
    protocol: ExperimentProtocol,
    options: TriageOptions,
    events: Optional[EventLog] = None,
    knobs: Optional[Sequence[Knob]] = None,
) -> TriageReport:
    """Run the full differential triage campaign.

    Args:
        protocol: the baseline experiment protocol the knobs perturb.
        options: execution knobs (output dir, workers, resume, ...).
        events: shared event log (one run id for the whole campaign).
        knobs: explicit knob list; defaults to
            :func:`default_knobs` filtered by ``options.knobs``.
    """
    log = events if events is not None else EventLog()
    all_knobs = tuple(knobs) if knobs is not None else default_knobs(protocol)
    if options.knobs is not None:
        known = {knob.name for knob in all_knobs}
        unknown = sorted(set(options.knobs) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown knob(s) {unknown}; known: {sorted(known)}"
            )
        all_knobs = tuple(k for k in all_knobs if k.name in options.knobs)
    os.makedirs(options.out_dir, exist_ok=True)
    report = TriageReport(protocol=protocol, run_id=log.run_id)
    for panel in options.panels:
        log.emit("triage_panel", panel=panel, knobs=len(all_knobs))
        baseline_sweep = _run_panel_sweep(
            panel, protocol, options, f"{panel}--baseline", log
        )
        baseline = summarize_sweep(baseline_sweep)
        triage = PanelTriage(
            panel=panel,
            paper_target=PAPER_TARGETS[panel],
            baseline=baseline,
        )
        gap = triage.gap
        for knob in all_knobs:
            for variant in knob.variants:
                if not variant.applies_to(panel):
                    continue
                if variant.analysis == "mean_of_ratios":
                    summary = _mean_of_ratios_summary(baseline_sweep, baseline)
                elif variant.analysis is not None:
                    raise ConfigurationError(
                        f"unknown analysis variant {variant.analysis!r}"
                    )
                else:
                    sweep = _run_panel_sweep(
                        panel,
                        variant.protocol,
                        options,
                        f"{panel}--{knob.name}--{variant.label}",
                        log,
                    )
                    summary = summarize_sweep(sweep)
                delta = summary.headline - baseline.headline
                outcome = VariantOutcome(
                    knob=knob.name,
                    label=variant.label,
                    description=variant.description,
                    summary=summary,
                    delta=delta,
                    gap_explained=(delta / gap if gap else None),
                    gated=variant.gated,
                )
                triage.variants.append(outcome)
                log.emit(
                    "triage_variant",
                    panel=panel,
                    knob=knob.name,
                    variant=variant.label,
                    headline=round(summary.headline, 6),
                    delta=round(delta, 6),
                    violations=summary.violations,
                    validation_issues=summary.validation_issues,
                )
        triage.outliers = _panel_outliers(
            panel, protocol, baseline_sweep, options, log
        )
        report.panels[panel] = triage
    return report


def check_report(report: TriageReport) -> List[str]:
    """Regression findings that should fail a CI fidelity gate.

    Gates on the reproduction's *established* claims, not on closing the
    paper gap: the Selective-vs-DP ordering at mid/high utilization must
    hold in every panel's baseline, and the 0-violation invariant must
    hold in every *gated* run (a variant is allowed to flip the ordering
    -- that is a finding -- and a hypothesis-breaking variant, see
    :class:`Variant`, is allowed to violate (m,k): those counts are the
    measurement itself).  Trace/stats agreement is gated in every
    run without exception -- even a deliberately broken hypothesis must
    diverge *identically* across execution modes.
    """
    problems: List[str] = []
    for panel, triage in report.panels.items():
        if not triage.baseline.ordering_ok:
            problems.append(
                f"{panel}: baseline Selective-vs-DP ordering regressed at "
                f"utilization >= {ORDERING_UTILIZATION:g}"
            )
        runs = [("baseline", triage.baseline, True)] + [
            (f"{v.knob}/{v.label}", v.summary, v.gated)
            for v in triage.variants
        ]
        for name, summary, gated in runs:
            if summary.violations and gated:
                problems.append(
                    f"{panel} {name}: {summary.violations} (m,k) violation(s)"
                )
            if summary.validation_issues:
                problems.append(
                    f"{panel} {name}: {summary.validation_issues} "
                    "conformance issue(s) (trace/stats divergence?)"
                )
        for outlier in triage.outliers:
            if outlier.audit_issues:
                problems.append(
                    f"{panel} outlier {outlier.bin_label} set "
                    f"{outlier.set_index}: {outlier.audit_issues} audit "
                    "issue(s)"
                )
    return problems


def format_triage_tables(report: TriageReport) -> str:
    """Human-readable gap decomposition, one table per panel."""
    sections: List[str] = []
    footnote_needed = False
    for panel, triage in report.panels.items():
        rows: List[List[str]] = [
            [
                "(baseline)",
                "",
                f"{triage.baseline.headline:.1%}",
                "-",
                "-",
                str(triage.baseline.violations),
            ]
        ]
        for variant in triage.variants:
            violations = str(variant.summary.violations)
            if variant.summary.violations and not variant.gated:
                violations += "*"
                footnote_needed = True
            rows.append(
                [
                    variant.knob,
                    variant.label,
                    f"{variant.summary.headline:.1%}",
                    f"{variant.delta:+.1%}",
                    (
                        "-"
                        if variant.gap_explained is None
                        else f"{variant.gap_explained:+.0%}"
                    ),
                    violations,
                ]
            )
        table = format_table(
            ["knob", "variant", "headline", "delta", "of gap", "viol"],
            rows,
        )
        sections.append(
            f"{panel}: paper ~{triage.paper_target:.0%}, measured "
            f"{triage.baseline.headline:.1%} (gap {triage.gap:+.1%})\n{table}"
        )
    text = "\n\n".join(sections)
    if footnote_needed:
        text += (
            "\n\n* expected: this variant deliberately breaks a hypothesis "
            "of the 0-violation guarantee (not CI-gated)"
        )
    return text


__all__ = [
    "HEADLINE_SCHEME",
    "HEADLINE_VERSUS",
    "ORDERING_UTILIZATION",
    "PANELS",
    "Knob",
    "OutlierFinding",
    "PanelTriage",
    "RunSummary",
    "TriageOptions",
    "TriageReport",
    "Variant",
    "VariantOutcome",
    "check_report",
    "default_knobs",
    "format_triage_tables",
    "run_triage",
    "summarize_sweep",
]
