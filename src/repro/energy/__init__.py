"""Energy modeling: power states, dynamic power down, trace accounting."""

from .power import PowerModel
from .dpd import DPDController, shutdown_decision
from .accounting import (
    EnergyReport,
    energy_from_counts,
    energy_of,
    energy_of_result,
)
from .dvs import DVSModel, scaled_energy
from .dvs_scheduling import max_uniform_slowdown
from .dvfs import (
    DVFS_SCHEMES,
    DVFSConfig,
    SpeedPlan,
    resolve_dvfs,
    speed_plan_for,
)

__all__ = [
    "PowerModel",
    "DPDController",
    "shutdown_decision",
    "EnergyReport",
    "energy_of",
    "energy_from_counts",
    "energy_of_result",
    "DVSModel",
    "scaled_energy",
    "max_uniform_slowdown",
    "DVFS_SCHEMES",
    "DVFSConfig",
    "SpeedPlan",
    "resolve_dvfs",
    "speed_plan_for",
]
