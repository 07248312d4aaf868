"""Extension bench: does DVS still pay once DPD is in place?

Begam et al. [8] combine preference-oriented scheduling with DVS; the
paper under reproduction drops DVS, arguing leakage makes it
counterproductive.  This bench measures MKSS_DP at full speed vs the
deadline-safe DVFS plan (the largest uniform slowdown passing the
R-pattern check, clamped to the critical speed; the engine bills each
executed unit ``s**alpha + static``) across leakage levels, on the
shared task-set pool.  Both sides pay the same leakage: the full-speed
run is billed ``1 + static`` per busy unit, as the DVFS run bills its
full-speed units.

Expected shape: with negligible static power DVS saves substantially,
and the gain shrinks as leakage grows.  It stays positive here: leakage
is paid only while busy and the plan never runs below the critical
speed, where a unit of work costs less than at full speed, so this
model cannot show the full-speed + DPD configuration winning outright.
"""

from __future__ import annotations

from conftest import HORIZON_UNITS

from repro.energy.dvfs import DVFSConfig
from repro.harness.report import format_table
from repro.harness.runner import run_scheme

BIN = (0.4, 0.5)
LEAKAGE_LEVELS = (0.0, 0.1, 0.3, 0.7)


def _run(taskset, dvfs=None):
    return run_scheme(
        taskset, "MKSS_DP", horizon_cap_units=HORIZON_UNITS, dvfs=dvfs
    )


def _series(bench_tasksets):
    rows = []
    pool = bench_tasksets[BIN]
    full_runs = [_run(taskset) for taskset in pool]
    for static_power in LEAKAGE_LEVELS:
        # The flat model bills a busy unit P_act = 1; add the leakage
        # the DVFS run pays on every executed unit.
        full_total = sum(
            run.total_energy + static_power * float(run.energy.active_units)
            for run in full_runs
        )
        dvfs = DVFSConfig(
            alpha=3.0,
            static_power=static_power,
            min_speed=0.05,
            precision_denominator=16,
            schemes=("MKSS_DP",),
        )
        dvs_total = sum(_run(taskset, dvfs).total_energy for taskset in pool)
        rows.append((static_power, full_total, dvs_total))
    return rows


def test_dvs_vs_dpd_across_leakage(benchmark, bench_tasksets):
    rows = benchmark.pedantic(
        lambda: _series(bench_tasksets), rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            ["static power", "full speed + DPD", "uniform DVS", "DVS gain"],
            [
                [
                    f"{p:.1f}",
                    f"{full:.1f}",
                    f"{dvs:.1f}",
                    f"{1 - dvs / full:+.1%}",
                ]
                for p, full, dvs in rows
            ],
        )
    )
    gains = [1 - dvs / full for _, full, dvs in rows]
    # DVS gain shrinks monotonically (within noise) as leakage grows.
    assert gains[0] > gains[-1]
    benchmark.extra_info["gain_no_leakage"] = round(gains[0], 4)
    benchmark.extra_info["gain_heavy_leakage"] = round(gains[-1], 4)
