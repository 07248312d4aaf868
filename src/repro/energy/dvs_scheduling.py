"""Uniform DVS slowdown for standby-sparing: the safe speed bound.

The paper's MKSS_DP baseline is Begam et al. [8] "without applying DVS";
this module supplies the speed bound the DVFS layer
(:mod:`repro.energy.dvfs`) compiles into per-task plans:

* :func:`max_uniform_slowdown` -- the largest uniform execution-time
  stretch factor f (speed s = 1/f) that keeps the mandatory workload
  R-pattern schedulable; reuses the exact critical-scaling-factor search.
* :func:`clamp_to_critical_speed` -- never slow past the energy-optimal
  critical speed.

The engine bills every executed unit ``s**alpha + static`` under the
plan (:mod:`repro.energy.accounting`).  The expected outcome (and what
the extension bench shows): with realistic leakage, slowing below the
critical speed *increases* energy, and even optimal uniform DVS buys
little once DPD already eliminates idle power -- the paper's stated
reason for dropping DVS.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..analysis.sensitivity import critical_scaling_factor
from ..model.taskset import TaskSet
from .dvs import DVSModel


def max_uniform_slowdown(
    taskset: TaskSet,
    precision: Fraction = Fraction(1, 64),
    horizon_cap_units: int = 2000,
) -> Fraction:
    """Largest uniform WCET stretch keeping R-pattern schedulability.

    Equal to the critical scaling factor (>= 1 for schedulable sets);
    the corresponding processor speed is ``1 / factor``.
    """
    factor = critical_scaling_factor(
        taskset, precision=precision, horizon_cap_units=horizon_cap_units
    )
    return max(factor, Fraction(1))


def clamp_to_critical_speed(
    slowdown: Fraction, model: DVSModel
) -> Fraction:
    """Never slow below the energy-optimal critical speed.

    The float critical speed is rationalized from the *safe* side: the
    bound is rounded up to the next 1/1024 grid point, so the permitted
    slowdown ``1 / bound`` never dips below the true critical speed.
    (``Fraction(critical).limit_denominator(1024)`` rounds to nearest,
    which can round *down* and permit a slowdown strictly past the
    energy-optimal point.)
    """
    critical = Fraction(model.critical_speed())
    bound = Fraction(math.ceil(critical * 1024), 1024)
    if bound > 1:
        bound = Fraction(1)
    max_sensible = Fraction(1) / bound
    return min(slowdown, max_sensible)
