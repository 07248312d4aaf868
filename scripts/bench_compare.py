#!/usr/bin/env python
"""Run the microbenchmarks and compare them against the committed baseline.

Executes ``benchmarks/test_bench_micro.py`` under pytest-benchmark with
JSON output, then compares each benchmark's *minimum* time (the least
noise-sensitive statistic) against the ``baseline`` section of the
committed ``BENCH_micro.json``.  Any benchmark more than ``--threshold``
(default 20%) slower than its baseline minimum fails the run, so
performance regressions in the simulator substrate are caught the same
way functional regressions are.

Usage::

    python scripts/bench_compare.py              # full run, hard-fail
    python scripts/bench_compare.py --quick      # fewer rounds (CI)
    python scripts/bench_compare.py --advisory   # report, never fail
    python scripts/bench_compare.py --update-baseline
    python scripts/bench_compare.py --quick --select "engine or timeline"

Every measured run includes a warmup pass (one iteration in ``--quick``
mode, two otherwise) so cold caches and import latency never land in the
recorded minimum.  ``--select`` narrows both the run and the comparison
to benchmarks matching a pytest ``-k`` expression -- the CI smoke job
uses it to gate merges on the engine-path benchmarks only.

The hard gate (without ``--advisory``) also fails, with exit code 2, when
a measured benchmark has no baseline entry: it could regress unseen.

``--update-baseline`` rewrites the ``baseline`` section from the current
run (preserving the recorded ``pre_pr`` reference numbers); commit the
result when a deliberate performance change shifts the expected numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "benchmarks" / "test_bench_micro.py"
DEFAULT_BASELINE = REPO_ROOT / "BENCH_micro.json"


def run_benchmarks(quick: bool, select: str = "") -> dict:
    """Run pytest-benchmark and return its parsed JSON report."""
    with tempfile.NamedTemporaryFile(
        suffix=".json", prefix="bench_", delete=False
    ) as handle:
        json_path = handle.name
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        str(BENCH_FILE),
        "-q",
        "-p",
        "no:cacheprovider",
        f"--benchmark-json={json_path}",
    ]
    if select:
        cmd += ["-k", select]
    if quick:
        # One warmup round keeps cold-start effects (import latency,
        # analysis caches) out of even the short CI measurement.
        cmd += [
            "--benchmark-min-rounds=3",
            "--benchmark-max-time=0.5",
            "--benchmark-warmup=on",
            "--benchmark-warmup-iterations=1",
        ]
    else:
        cmd += [
            "--benchmark-warmup=on",
            "--benchmark-warmup-iterations=2",
        ]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    # Quick mode also trims the sweep-sized fixtures via the benchmarks'
    # own knob (see benchmarks/conftest.py).
    if quick:
        env.setdefault("REPRO_BENCH_SETS", "2")
    result = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        print("benchmark run failed", file=sys.stderr)
        sys.exit(result.returncode)
    try:
        with open(json_path) as fh:
            return json.load(fh)
    finally:
        os.unlink(json_path)


def stats_by_name(report: dict) -> dict:
    """{benchmark name: {min_us, mean_us}} from a pytest-benchmark report."""
    out = {}
    for bench in report.get("benchmarks", []):
        stats = bench["stats"]
        out[bench["name"]] = {
            "min_us": round(stats["min"] * 1e6, 1),
            "mean_us": round(stats["mean"] * 1e6, 1),
        }
    return out


def compare(current: dict, baseline: dict, threshold: float) -> tuple:
    """Compare a run with its baseline.

    Returns ``(regressions, unbaselined)``: regressions as (name,
    current_min_us, baseline_min_us, ratio), and the names of measured
    benchmarks that have no baseline entry -- a benchmark the gate cannot
    compare is a benchmark it cannot see regress.
    """
    regressions = []
    for name, entry in sorted(baseline.items()):
        now = current.get(name)
        if now is None:
            print(f"  MISSING  {name}: not in current run")
            continue
        base_min = entry["min_us"]
        cur_min = now["min_us"]
        ratio = cur_min / base_min if base_min else float("inf")
        verdict = "ok"
        if ratio > 1.0 + threshold:
            verdict = "REGRESSED"
            regressions.append((name, cur_min, base_min, ratio))
        print(
            f"  {verdict:>9}  {name}: {cur_min:.1f}us vs baseline "
            f"{base_min:.1f}us ({ratio:.2f}x)"
        )
    unbaselined = sorted(set(current) - set(baseline))
    for name in unbaselined:
        print(f"  NEW      {name}: {current[name]['min_us']:.1f}us (no baseline)")
    return regressions, unbaselined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline JSON file (default: BENCH_micro.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed slowdown fraction before failing (default 0.20)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer rounds and smaller fixtures (noisier; for CI smoke)",
    )
    parser.add_argument(
        "--select",
        default="",
        help="pytest -k expression: run and compare only matching "
        "benchmarks (baseline entries outside the selection are ignored)",
    )
    parser.add_argument(
        "--advisory",
        action="store_true",
        help="report regressions but always exit 0",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline section from this run",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(quick=args.quick, select=args.select)
    current = stats_by_name(report)
    if not current:
        print("no benchmarks were collected", file=sys.stderr)
        return 2

    if args.update_baseline:
        existing = {}
        if args.baseline.exists():
            with open(args.baseline) as fh:
                existing = json.load(fh)
        if args.select:
            # A selected run only refreshes the benchmarks it measured.
            existing.setdefault("baseline", {}).update(current)
        else:
            existing["baseline"] = current
        existing.setdefault("pre_pr", {})
        existing["note"] = (
            "min/mean microbenchmark times in microseconds; 'baseline' is "
            "the regression reference for scripts/bench_compare.py, "
            "'pre_pr' records the numbers before the hot-path overhaul."
        )
        with open(args.baseline, "w") as fh:
            json.dump(existing, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update-baseline")
        return 0 if args.advisory else 2
    with open(args.baseline) as fh:
        baseline = json.load(fh)

    print(f"comparing against {args.baseline} (threshold {args.threshold:.0%}):")
    reference = baseline.get("baseline", {})
    if args.select:
        reference = {
            name: entry for name, entry in reference.items() if name in current
        }
    regressions, unbaselined = compare(current, reference, args.threshold)
    if regressions:
        print(f"{len(regressions)} benchmark(s) regressed beyond threshold")
        return 0 if args.advisory else 1
    if unbaselined:
        print(
            f"{len(unbaselined)} benchmark(s) have no baseline; record "
            "them with --update-baseline --select"
        )
        return 0 if args.advisory else 2
    print("no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
