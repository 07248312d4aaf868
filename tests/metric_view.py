"""The observable surface shared by the cross-mode differential tests."""

from __future__ import annotations

from repro.energy.accounting import energy_of_result
from repro.energy.power import PowerModel
from repro.qos.metrics import collect_metrics


def metric_view(result):
    """Everything downstream consumers can observe, exactly."""
    energy = energy_of_result(result, PowerModel.paper_default())
    breakdown = {
        processor: (
            pe.busy_units,
            pe.idle_units,
            pe.sleep_units,
            pe.active_energy,
            pe.idle_energy,
            pe.sleep_energy,
            pe.transition_count,
        )
        for processor, pe in energy.per_processor.items()
    }
    return (
        collect_metrics(result).as_dict(),
        breakdown,
        energy.total_energy,
        result.mk_satisfied(),
        (result.busy_ticks(), result.busy_ticks(0), result.busy_ticks(1)),
        result.released_jobs,
        result.transient_fault_count,
    )
