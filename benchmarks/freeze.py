"""Freeze each workload's outputs as the benchmark's correctness reference.

    python3 benchmarks/freeze.py [WORKLOAD ...]

Runs each workload once on unrotated inputs and writes, under
``benchmarks/reference/``, the report CSV exactly as the CLI writes it
(``<workload>.csv``) and the recorded diagnostics of every stepped run
(``<workload>.ops.json``).  The references in the repository were frozen at
the seed commit named in each ``.ops.json``; refreeze only when a change is
meant to move the outputs, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads
from worker import ROOT, SRC, Probe


def source_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def freeze(name: str, commit: str) -> None:
    from iskak.experiments import run_experiment, write_csv

    probe = Probe()
    with probe.installed():
        report = run_experiment(workloads.build_config(name))
    ops = probe.ops()
    bad = [op["label"] for op in ops if op["aborted"] is not None or not op["finite"]]
    if bad or len(ops) != workloads.WORKLOADS[name].ops:
        raise SystemExit(f"{name}: cannot freeze, runs {bad or len(ops)} failed or missing")
    csv_path, ops_path = workloads.reference_paths(name)
    os.makedirs(os.path.dirname(csv_path), exist_ok=True)
    write_csv(report, csv_path)
    w = workloads.WORKLOADS[name]
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "experiment": w.experiment, "overrides": list(w.overrides),
                   "source_commit": commit,
                   "ops": {op["label"]: op["series"] for op in ops}}, fh, indent=1)
        fh.write("\n")
    print(f"{name}: {len(report.rows)} rows, {len(ops)} runs -> {csv_path}")


def main(argv: list) -> int:
    sys.path.insert(0, SRC)
    commit = source_commit()
    for name in argv or list(workloads.WORKLOADS):
        freeze(name, commit)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
