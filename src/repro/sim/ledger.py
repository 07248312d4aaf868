"""The aggregate ledger of one stats-only engine run.

Stats mode (``collect_trace=False``) skips every trace structure and
keeps only the integer counters below; energy accounting, QoS metrics
and the sweep payloads are derived from them.  The batch kernel
(:mod:`repro.sim.batch`) fills the same ledger, so the two backends
share one observable surface.
"""

from __future__ import annotations

from typing import Dict, List


class RunStats:
    """Cumulative counters of one stats-only run.

    Attributes:
        busy: per-processor execution ticks inside [0, horizon).
        gap_counts: per-processor multiset of *closed* idle-gap lengths,
            as a length -> count dict (the energy model only needs each
            gap's length, not its position).
        speed_busy: per-processor speed -> execution-tick dict for
            DVFS-scaled execution (speed != 1 only; full-speed ticks are
            ``busy`` minus the scaled sum).  Empty on every non-DVFS
            run, so the ledger stays byte-identical to the pre-DVFS one.
        released / effective / missed / mandatory / optional_executed /
            skipped: logical-job counts matching
            :class:`~repro.qos.metrics.QoSMetrics`.
        violations: per-task count of violated (m,k) windows.
    """

    __slots__ = (
        "busy",
        "gap_counts",
        "speed_busy",
        "released",
        "effective",
        "missed",
        "mandatory",
        "optional_executed",
        "skipped",
        "violations",
    )

    def __init__(self, task_count: int) -> None:
        self.busy: List[int] = [0, 0]
        self.gap_counts: List[Dict[int, int]] = [{}, {}]
        self.speed_busy: List[dict] = [{}, {}]
        self.released = 0
        self.effective = 0
        self.missed = 0
        self.mandatory = 0
        self.optional_executed = 0
        self.skipped = 0
        self.violations: List[int] = [0] * task_count
