"""Experiment harness: runners, utilization sweeps, Figure 6 series, and
the resilient execution layer (journal, events, fault isolation)."""

from .runner import SCHEME_FACTORIES, RunOutcome, RunSpec, execute_run, run_scheme
from .sweep import (
    BinResult,
    DroppedSet,
    ExecutionPolicy,
    SweepResult,
    SweepValidation,
    execute_jobs,
    utilization_sweep,
)
from .validate import AuditReport, ModeAudit, audit_scheme, conformance_spec
from .events import EventLog, SweepEvent
from .journal import RunJournal
from .figures import (
    FIGURE_SCENARIOS,
    figure6_series,
    fig6a,
    fig6b,
    fig6c,
)
from .report import format_event_summary, format_series_table, format_table
from .ascii_chart import render_sweep_chart
from .stats import mean, sample_std, confidence_interval95

__all__ = [
    "SCHEME_FACTORIES",
    "RunOutcome",
    "RunSpec",
    "execute_run",
    "run_scheme",
    "BinResult",
    "DroppedSet",
    "ExecutionPolicy",
    "SweepResult",
    "SweepValidation",
    "execute_jobs",
    "utilization_sweep",
    "AuditReport",
    "ModeAudit",
    "audit_scheme",
    "conformance_spec",
    "EventLog",
    "SweepEvent",
    "RunJournal",
    "FIGURE_SCENARIOS",
    "figure6_series",
    "fig6a",
    "fig6b",
    "fig6c",
    "format_table",
    "format_series_table",
    "format_event_summary",
    "render_sweep_chart",
    "mean",
    "sample_std",
    "confidence_interval95",
]
