"""Record the expected per-job payloads that ``run.py`` checks against.

Usage, from the repository root::

    python3 perfbench/record.py                      # every workload
    python3 perfbench/record.py --workload fig6c-faults

Writes ``expected/<workload>.json`` at the ``bench`` scale: for each recorded
input -- ``scenario-0`` .. ``scenario-3`` (``fig6a-nofault`` has only
``scenario-0``) -- the sweep's per-job ``(energy,
violations)`` payloads in job-key order, the headline
``max_reduction(MKSS_Selective, MKSS_DP)``, the (m,k) violation total and
the auditor issue count.  Job keys are stored once per corpus.

Re-record only when a change is meant to alter results, and say so: the
recorded payloads are what makes the benchmark's ``correct`` mean
anything.  Recording refuses a sweep that dropped or retried a job, that
misses a deadline pattern on ``fig6a-nofault``, or whose audit found
issues on ``dvfs-sporadic``, and a sample whose sweeps disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Any, Dict, List

import run
import workloads


def labels(workload: str) -> List[str]:
    count = 1 if workload == "fig6a-nofault" else workloads.SCENARIOS
    return [f"scenario-{index}" for index in range(count)]


def record(workload: str, scale: str, root: str) -> Dict[str, Any]:
    """Run every recorded input of ``workload`` once; the expected document."""
    corpora: Dict[str, List[str]] = {}
    entries: Dict[str, Any] = {}
    os.makedirs(os.path.join(root, run.WORK_DIR), exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="record-", dir=os.path.join(root, run.WORK_DIR))
    try:
        for index, label in enumerate(labels(workload)):
            sweeps = run.take_sample(
                root, work_root, workload, index, False, scale,
                timeout=run.SAMPLE_TIMEOUT_S,
            )["sweeps"]
            sample = sweeps[0]
            problems = []
            if any(sweep["payloads"] != sample["payloads"] for sweep in sweeps):
                problems.append("the sample's sweeps disagree")
            if sample["retries"] or len(sample["payloads"]) != sample["jobs"]:
                problems.append("jobs were retried or dropped")
            if workload == "fig6a-nofault" and sample["violations"]:
                problems.append(f"{sample['violations']} (m,k) violations")
            if workload == "dvfs-sporadic" and sample["audit_issues"]:
                problems.append(f"{sample['audit_issues']} auditor issues")
            if problems:
                raise SystemExit(f"{workload} {label}: refusing to record: {problems}")
            corpus_seed = sample["corpus_seed"]
            keys = sorted(sample["payloads"])
            if corpora.setdefault(str(corpus_seed), keys) != keys:
                raise SystemExit(f"{workload} {label}: job keys differ within a corpus")
            entries[label] = {
                "corpus_seed": corpus_seed,
                "headline": sample["headline"],
                "violations": sample["violations"],
                "audit_issues": sample["audit_issues"],
                "payloads": [sample["payloads"][key] for key in keys],
            }
            print(
                f"{workload} {label}: {sample['jobs']} jobs, headline "
                f"{sample['headline']:.4f}, sweep {sample['sweep_s']:.2f} s",
                file=sys.stderr,
            )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    return {"workload": workload, "scale": scale, "corpora": corpora, "entries": entries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record expected sweep payloads")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    for workload in args.workload or workloads.WORKLOADS:
        doc = record(workload, "bench", os.getcwd())
        with open(run.expected_path(workload), "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
