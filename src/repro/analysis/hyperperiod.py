"""Hyperperiods and bounded analysis horizons.

Random task sets with periods drawn from [5, 50] ms and k up to 20 can have
(m,k)-hyperperiods ``LCM(k_i * P_i)`` in the billions of ticks, far beyond
what any simulation (the paper's included) actually runs.  All analyses and
simulations in this package therefore run over an *analysis horizon*::

    H = min(LCM(k_i * P_i), cap)

The postponement intervals (Equation 5) are computed over the same horizon
as the simulation that uses them, so every guarantee we rely on is exact
for everything we simulate (see DESIGN.md, "Substitutions").
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from ..errors import AnalysisError
from ..model.taskset import TaskSet
from ..timebase import TimeBase

#: Default horizon cap, in ticks, used when the caller does not override it.
DEFAULT_HORIZON_CAP_UNITS = 5000


def lcm_ticks(values: Iterable[int]) -> int:
    """LCM of positive integers; raises on empty or non-positive input."""
    result = 1
    seen = False
    for value in values:
        if value <= 0:
            raise AnalysisError(f"lcm needs positive integers, got {value}")
        result = result * value // math.gcd(result, value)
        seen = True
    if not seen:
        raise AnalysisError("lcm of an empty sequence is undefined")
    return result


def mk_hyperperiod_ticks(
    taskset: TaskSet,
    timebase: TimeBase,
    upto_priority: Optional[int] = None,
) -> int:
    """LCM of k_i * P_i in ticks, optionally over tasks with index <= bound."""
    tasks = (
        taskset.tasks
        if upto_priority is None
        else taskset.tasks[: upto_priority + 1]
    )
    return lcm_ticks(
        task.mk.k * timebase.to_ticks(task.period) for task in tasks
    )


def analysis_horizon(
    taskset: TaskSet,
    timebase: TimeBase,
    cap_units: Optional[int] = DEFAULT_HORIZON_CAP_UNITS,
) -> int:
    """The bounded horizon H = min(mk-hyperperiod, cap) in ticks.

    Args:
        taskset: the task set under analysis.
        timebase: tick grid (must represent all task parameters exactly).
        cap_units: cap expressed in model time units (e.g. ms); ``None``
            means "no cap" and returns the full (m,k)-hyperperiod.
    """
    full = mk_hyperperiod_ticks(taskset, timebase)
    if cap_units is None:
        return full
    cap_ticks = cap_units * timebase.ticks_per_unit
    if cap_ticks <= 0:
        raise AnalysisError(f"horizon cap must be positive, got {cap_units}")
    return min(full, cap_ticks)
