"""End-to-end Figure 6 sweep benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig6a-nofault --seed 0 --seconds 40 --trace 0

One closed-loop client runs one ``utilization_sweep`` at a time until
``--seconds`` are used up.  It takes samples: a sample is a fresh
interpreter (``sample.py``) that sets up once and then runs
``SWEEPS_PER_SAMPLE`` sweeps, each in a child forked from the set-up
process, so that every sweep starts cold.  Samples take the CPUs in
turn.  A run takes at least ``MIN_SAMPLES`` untraced samples; with
``--trace 1`` traced and untraced samples alternate, at least one of
each.  Every sweep's per-job ``(energy, violations)`` payloads are
checked against the payloads recorded in ``expected/`` for the run's
inputs; each missing or differing job counts as failed.

The last line of standard output is one JSON object:

* ``--trace 0``: medians over the untraced sweeps of ``sweep_ref_s``,
  ``cpu_ref_s`` and ``peak_rss_mb``, and over the untraced samples'
  set-ups of ``setup_s``;
* ``--trace 1``: medians over the traced sweeps of every per-layer
  metric (``layers.py``), plus ``trace.overhead_s``: the traced minus the
  untraced median sweep wall time (less the probes' own time).

``sweep_ref_s`` and ``cpu_ref_s`` are a sweep's wall and CPU seconds at
a fixed reference speed of the CPU: a probe thread times a fixed loop
during the sweep, and the sweep's time is rescaled by how much slower
than its reference time the loop ran (``sample.Probe``).  On a shared
host the speed of a CPU swings by up to 1.8x with the neighbours' load,
in spells from a second to minutes; rescaled, the sweeps of one workload
agree to a few percent, where their wall times do not.  ``setup_s`` is
rescaled the same way.  The wall times are printed too.

``attempted`` and ``failed`` count jobs over all sweeps.  Lines before
the JSON give each metric's sample count, minimum, median and maximum.
Exit code 2 means the benchmark could not run at all (no ``src/repro``
here, no recorded payloads for the inputs); a sample that crashes exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

#: Untraced samples a run takes at least, whatever ``--seconds`` says (a
#: traced run takes at least one traced and one untraced sample).
MIN_SAMPLES = 3
#: Sweeps per sample, each forked from the sample's set-up process.
SWEEPS_PER_SAMPLE = 4
#: A run starts no sample that would likely end past this many seconds,
#: so it exits well within the 180 s a run may take.
RUN_CAP_S = 150.0
SAMPLE_TIMEOUT_S = 170.0
WORK_DIR = ".perfbench-work"

#: Each end-to-end metric: its unit and how a run's values are reduced.
END_TO_END = {
    "sweep_ref_s": ("s", statistics.median),
    "cpu_ref_s": ("s", statistics.median),
    "setup_s": ("s", statistics.median),
    "peak_rss_mb": ("MB", statistics.median),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (exit code 2)."""


class SampleFailed(Exception):
    """A sample process exited abnormally (exit code 1)."""


def expected_path(workload: str) -> str:
    return os.path.join(HERE, "expected", f"{workload}.json")


def input_label(workload: str, seed: int) -> str:
    """The name under which a run's inputs are recorded."""
    return f"scenario-{workloads.scenario_of(workload, seed)}"


def load_expected(path: str, label: str) -> Dict[str, Any]:
    """The recorded entry ``label`` of ``path``, payloads keyed by job."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise BenchmarkError(f"no recorded payloads at {path}") from None
    if label not in doc["entries"]:
        raise BenchmarkError(f"{path} records no entry {label!r}")
    entry = dict(doc["entries"][label])
    keys = doc["corpora"][str(entry["corpus_seed"])]
    entry["payloads"] = dict(zip(keys, entry["payloads"]))
    return entry


def child_env(root: str) -> Dict[str, str]:
    """Environment of a sample: single-threaded, fixed hashing, repro on the path."""
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.path.join(root, "src"),
    )
    return env


def take_sample(
    root: str,
    work_root: str,
    workload: str,
    seed: int,
    trace: bool,
    scale: str,
    timeout: float,
    cpu: Optional[int] = None,
) -> Dict[str, Any]:
    """Run ``sample.py`` once; its document plus ``wall_s``."""
    sample_dir = tempfile.mkdtemp(dir=work_root)
    out = os.path.join(sample_dir, "sample.json")
    command = [
        sys.executable,
        os.path.join(HERE, "sample.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--work-dir", sample_dir,
        "--out", out,
        "--trace", str(int(trace)),
        "--sweeps", str(SWEEPS_PER_SAMPLE),
        "--scale", scale,
    ]
    if cpu is not None:
        command += ["--cpu", str(cpu)]
    started = time.monotonic()
    command += ["--started", repr(started)]
    # A session of its own, so that a kill reaches the forked sweeps too.
    proc = subprocess.Popen(
        command,
        cwd=root,
        env=child_env(root),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SampleFailed(f"sample exceeded {timeout:.0f} s") from None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SampleFailed(f"sample exited {proc.returncode}:\n{stderr[-4000:]}")
    with open(out, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["wall_s"] = time.monotonic() - started
    doc["traced"] = trace
    shutil.rmtree(sample_dir)
    return doc


def check(sweep: Dict[str, Any], expected: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    """(attempted jobs, failed jobs, other problems) of one sweep."""
    want = expected["payloads"]
    got = sweep["payloads"]
    failed = sum(1 for key, value in want.items() if got.get(key) != value)
    failed += sum(1 for key in got if key not in want)
    problems = []
    for name in ("headline", "violations", "audit_issues"):
        if sweep[name] != expected[name]:
            problems.append(f"{name} {sweep[name]!r} != recorded {expected[name]!r}")
    if sweep["retries"]:
        problems.append(f"{sweep['retries']} job retries (a layer raised)")
    for error in sweep.get("layer_errors", ()):
        problems.append(f"wrapped layer raised: {error}")
    return max(sweep["jobs"], len(want)), failed, problems


def summarize(name: str, unit: str, values: List[float]) -> str:
    return (
        f"{name}: {len(values)} samples, min {min(values):.6g} {unit}, "
        f"median {statistics.median(values):.6g}, max {max(values):.6g}"
    )


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "bench",
    expected_file: Optional[str] = None,
    root: Optional[str] = None,
) -> Tuple[Dict[str, Any], List[str]]:
    """Measure one workload; (result document, summary lines)."""
    root = os.path.abspath(root or os.getcwd())
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchmarkError(
            f"no repro package under {root}/src; run from the repository root"
        )
    expected = load_expected(
        expected_file or expected_path(workload), input_label(workload, seed)
    )
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORK_DIR))
    # A sample runs on one CPU, so that the probe shares the sweep's CPU;
    # samples take the CPUs in turn, as each CPU has slow spells of its own.
    cpus = sorted(os.sched_getaffinity(0))
    samples: List[Dict[str, Any]] = []
    start = time.monotonic()
    try:
        while True:
            untraced = [s for s in samples if not s["traced"]]
            traced = [s for s in samples if s["traced"]]
            enough = bool(traced and untraced) if trace else len(untraced) >= MIN_SAMPLES
            elapsed = time.monotonic() - start
            if enough:
                # Another sample only if it likely ends within the run.
                wall = statistics.median([s["wall_s"] for s in samples])
                if elapsed + wall > min(seconds, RUN_CAP_S):
                    break
            samples.append(
                take_sample(
                    root,
                    work_root,
                    workload,
                    seed,
                    trace and len(traced) <= len(untraced),
                    scale,
                    timeout=max(1.0, SAMPLE_TIMEOUT_S - elapsed),
                    cpu=cpus[len(samples) % len(cpus)],
                )
            )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    attempted = failed = 0
    problems: List[str] = []
    for sample in samples:
        for sweep in sample["sweeps"]:
            sweep_attempted, sweep_failed, sweep_problems = check(sweep, expected)
            attempted += sweep_attempted
            failed += sweep_failed
            problems.extend(sweep_problems)

    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    untraced_sweeps = [sweep for s in untraced for sweep in s["sweeps"]]
    traced_sweeps = [sweep for s in traced for sweep in s["sweeps"]]
    lines = [
        f"workload {workload}, input {input_label(workload, seed)} "
        f"(seed {seed}, scale {scale}), {len(samples)} samples of "
        f"{SWEEPS_PER_SAMPLE} sweeps in "
        f"{time.monotonic() - start:.1f} s"
    ]
    metrics: Dict[str, Dict[str, Any]] = {}
    if not trace:
        for name, (unit, reduce) in END_TO_END.items():
            source = untraced if name == "setup_s" else untraced_sweeps
            values = [s[name] for s in source]
            metrics[name] = {"value": reduce(values), "unit": unit}
            lines.append(summarize(name, unit, values))
        wall = [s["sweep_s"] for s in untraced_sweeps]
        lines.append(summarize("sweep_s (wall, probed)", "s", wall))
        wall = [s["setup_wall_s"] for s in untraced]
        lines.append(summarize("setup_s (wall, probed)", "s", wall))
    else:
        for name in traced_sweeps[0]["layers"]:
            values = [s["layers"][name] for s in traced_sweeps]
            unit = layers.unit(name)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            lines.append(summarize(name, unit, values))
        traced_s = statistics.median(s["sweep_s"] for s in traced_sweeps)
        # The untraced sweeps' wall time less their probes' own time.
        untraced_s = statistics.median(
            s["sweep_s"] - s["probe_s"] for s in untraced_sweeps
        )
        overhead = traced_s - untraced_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        lines.append(f"trace.overhead_s: {overhead:.6g} s")
    lines.append(f"jobs failed: {failed} of {attempted}")
    lines.extend(f"problem: {problem}" for problem in problems)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Figure 6 sweep benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C: take_sample kills the running sample's
    # process group and reaps the sample, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, lines = run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except SampleFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
