"""Unit tests for the uniform DVS slowdown bound."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.analysis.schedulability import is_rpattern_schedulable
from repro.analysis.sensitivity import scale_wcets
from repro.energy.dvs import DVSModel
from repro.energy.dvs_scheduling import (
    clamp_to_critical_speed,
    max_uniform_slowdown,
)


class TestSlowdown:
    def test_slowed_set_remains_schedulable(self, fig1):
        slowdown = max_uniform_slowdown(fig1)
        assert slowdown >= 1
        slowed = scale_wcets(fig1, slowdown)
        assert is_rpattern_schedulable(slowed)

    def test_clamp_to_critical_speed(self):
        model = DVSModel(alpha=3.0, static_power=0.2, min_speed=0.05)
        huge = Fraction(100)
        clamped = clamp_to_critical_speed(huge, model)
        assert float(1 / clamped) == pytest.approx(
            model.critical_speed(), rel=0.01
        )
        small = Fraction(3, 2)
        assert clamp_to_critical_speed(small, model) == small

    def test_clamp_rationalizes_from_the_safe_side(self):
        """Regression: the 1024ths rounding must never round *down*.

        static_power=0.206 puts the critical speed at ~0.4687548, which
        the old ``Fraction(critical).limit_denominator(1024)`` rounded
        down to 15/32 = 0.46875 -- permitting slowdown 32/15, i.e. past
        the energy-optimal point.  The clamp must keep the slowed speed
        at or above the exact critical speed.
        """
        model = DVSModel(alpha=3.0, static_power=0.206, min_speed=0.05)
        critical = Fraction(model.critical_speed())
        assert Fraction(15, 32) < critical  # the case rounds badly
        clamped = clamp_to_critical_speed(Fraction(100), model)
        assert Fraction(1) / clamped >= critical
        assert clamped < Fraction(32, 15)  # the buggy bound

    def test_clamp_bound_never_exceeds_full_speed(self):
        """A critical speed rounding up past 1 must clamp the slowdown
        to exactly 1 (no speed-up), not to a bound above full speed."""
        model = DVSModel(alpha=3.0, static_power=1.999, min_speed=0.05)
        assert model.critical_speed() > 1023 / 1024
        assert clamp_to_critical_speed(Fraction(100), model) == 1
