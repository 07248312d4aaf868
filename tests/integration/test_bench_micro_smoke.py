"""Smoke run of the microbenchmarks, so a break in them fails the suite.

``benchmarks/`` lies outside ``testpaths``: only ``scripts/bench_compare.py``
runs it.  This test runs ``benchmarks/test_bench_micro.py`` once, with
measurement disabled and the sweep-sized fixtures trimmed, and asserts it
exits cleanly.  The other benchmark files are slower and not smoked here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("pytest_benchmark")

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_micro_benchmarks_run():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env["REPRO_BENCH_SETS"] = "2"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(REPO_ROOT / "benchmarks" / "test_bench_micro.py"),
            "-q",
            "-p",
            "no:cacheprovider",
            "--benchmark-disable",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
