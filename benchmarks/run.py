"""iskak benchmark: end-to-end and per-layer metrics of three workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --all [--seed N] [--seconds S] [--out FILE]

``--trace 0`` launches fresh single-threaded worker processes of the workload
one after another for ``--seconds`` (at least MIN_PROCESSES of them), so that
import cost and cold caches count as they do for a CLI user, and reports:

* ``setup_s``: median over processes of launch until the first RK4 step
  (imports, config, initial-data solve, first strip workspace);
* ``steps_per_s``: RK4 steps per second of stepping time, each kind of step
  of each run at its fastest instance (``step_rate``);
* ``peak_rss_mb``: median over processes of peak resident memory;
* ``ok_frac``: stepped runs that completed and matched the frozen reference,
  over runs attempted (``fail_frac`` = 1 - ``ok_frac`` is printed too).

``wall_s``, launch until the report is built, is printed as well but not
gated: on a shared host its run-to-run spread is close to the largest bound
a metric may have.

``--trace 1`` runs one untraced process, one traced process and one process
of layer micro-cases, and reports every per-layer metric, with
``experiments.wall_s`` (the untraced process's ``wall_s``) and
``trace.overhead_s`` (traced minus untraced ``wall_s``).  The traced report
CSV must equal the untraced one byte for byte.

Metric names and units come from BENCHMARK.json.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--all`` runs every workload both ways, prints every metric,
optionally writes a results file, and exits 1 if any output check fails.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

MIN_PROCESSES = 3
BUDGET_S = 150.0          # a run must end within 180 s
clock = time.monotonic    # CLOCK_MONOTONIC, shared with the workers

# one process, one thread: BLAS pools and the sweep thread pool stay serial
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def launch(args: list, timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ISKAK_THREADS"}
    env.update(CHILD_ENV)
    t_launch = clock()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    out = json.loads(lines[-1])
    out["t_launch"] = t_launch
    out["t_exit"] = clock()
    return out


def process_metrics(p: dict) -> dict:
    return {
        "wall_s": p["t_report"] - p["t_launch"],
        "setup_s": p["t_first_step"] - p["t_launch"],
        "peak_rss_mb": p["peak_rss_mb"],
    }


def step_rate(procs: list) -> float:
    """RK4 steps per second of one experiment, each kind of step at its fastest.

    A step lasts from its start until the next step of its run starts (the
    last one until the run returns), so reprojection, records, the RK4
    combine and warm starts count with the step they follow.  The steps of
    each leg x model run fall into kinds by the work between them (see
    ``SpanIndex.stepping``): the first step, plain steps, steps followed by
    a reprojection, a record or both.  Each kind of each run is costed at the
    fastest of its instances, over the run's steps and the processes, and
    counts as often as the run takes it; so every leg, and every kind of
    work, counts with its own cost.  The fastest instance is the one the
    shared host's slow stretches (up to 1.8 times slower, a second to
    minutes long) touched least, as ``timeit`` takes the fastest of
    repeated timings of one piece of work.
    """
    best: dict = {}
    for p in procs:
        for label, steps in p["step_s"]:
            for seconds, kind in steps:
                best[label, kind] = min(best.get((label, kind), math.inf), seconds)
    count = collections.Counter((label, kind) for label, steps in procs[0]["step_s"]
                                for _, kind in steps)
    total = sum(n * best[key] for key, n in count.items())
    return sum(count.values()) / total if total else 0.0


def run_untraced(workload: str, seed: int, seconds: float, t0: float) -> tuple[list, list]:
    """Worker processes for ``seconds``; returns (per-process metrics, raw outputs)."""
    args = ["--workload", workload, "--seed", str(seed)]
    procs, durations = [], []
    while True:
        elapsed = clock() - t0
        if procs:
            next_s = statistics.median(durations)
            if elapsed + next_s > BUDGET_S:
                break
            if len(procs) >= MIN_PROCESSES and elapsed + next_s > seconds:
                break
        p = launch(args, BUDGET_S - elapsed)
        procs.append(p)
        durations.append(p["t_exit"] - p["t_launch"])
    return [process_metrics(p) for p in procs], procs


def untraced_result(spec: dict, workload: str, seed: int, seconds: float) -> dict:
    t0 = clock()
    per_proc, procs = run_untraced(workload, seed, seconds, t0)
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    samples = {k: [m[k] for m in per_proc] for k in per_proc[0]}
    samples["steps_per_s"] = [step_rate(procs)]
    samples["ok_frac"] = [1.0 - failed / attempted]
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
               for m in spec["end_to_end"]}
    mismatches = [x for p in procs for x in p["mismatches"]]
    return {"correct": not mismatches, "attempted": attempted, "failed": failed,
            "metrics": metrics, "samples": samples, "mismatches": mismatches}


def traced_result(spec: dict, workload: str, seed: int) -> dict:
    t0 = clock()
    base = ["--workload", workload, "--seed", str(seed)]
    plain = launch(base, BUDGET_S)
    traced = launch(base + ["--trace"], BUDGET_S - (clock() - t0))
    micro = launch(["--micro", "--seed", str(seed)], BUDGET_S - (clock() - t0))
    layer = dict(traced["layer"], **micro["layer"])
    layer["experiments.wall_s"] = process_metrics(plain)["wall_s"]
    layer["trace.overhead_s"] = process_metrics(traced)["wall_s"] - layer["experiments.wall_s"]
    mismatches = plain["mismatches"] + traced["mismatches"]
    if traced["csv"] != plain["csv"]:
        mismatches.append("traced report CSV differs from the untraced one")
    names = [m["name"] for m in spec["per_layer"]]
    if set(layer) != set(names):
        mismatches.append(f"per-layer metrics differ from BENCHMARK.json: "
                          f"{sorted(set(layer) ^ set(names))}")
    metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec["per_layer"]}
    return {"correct": not mismatches, "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"], "metrics": metrics,
            "samples": {}, "mismatches": mismatches}


def print_result(workload: str, trace: int, res: dict) -> None:
    for name, m in res["metrics"].items():
        line = f"{workload} {name} = {m['value']:.6g} {m['unit']}"
        xs = res["samples"].get(name, [])
        if len(xs) > 1:
            line += f" (median of {len(xs)} processes, min {min(xs):.6g}, max {max(xs):.6g})"
        print(line)
    for name, xs in res["samples"].items():
        if name not in res["metrics"]:
            print(f"{workload} {name} = {statistics.median(xs):.6g} s (median of {len(xs)} "
                  f"processes, min {min(xs):.6g}, max {max(xs):.6g}; not a gated metric)")
    fail_frac = res["failed"] / res["attempted"]
    print(f"{workload} fail_frac = {fail_frac:.6g} ({res['failed']}/{res['attempted']} runs)")
    for m in res["mismatches"][:10]:
        print(f"{workload} CHECK FAILED: {m}")
    print(f"{workload} trace={trace} outputs {'OK' if res['correct'] else 'WRONG'}")


def environment() -> dict:
    from importlib import metadata

    import numpy as np

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(CHILD_ENV["OPENBLAS_NUM_THREADS"]),
        "git_sha": sha,
    }


def run_all(spec: dict, seed: int, seconds: float, out_path: str | None) -> int:
    results = {}
    ok = True
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            res = (traced_result(spec, w, seed) if trace
                   else untraced_result(spec, w, seed, seconds))
            print_result(w, trace, res)
            ok &= res["correct"] and res["failed"] == 0
            results[f"{w}/trace{trace}"] = {k: res[k] for k in
                                            ("correct", "attempted", "failed", "metrics", "samples")}
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(), "seed": seed, "seconds": seconds,
                       "results": results}, fh, indent=1)
            fh.write("\n")
    print(f"all workloads: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(workloads.WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --all: write the results and environment here")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "iskak", "__init__.py")):
        print("run.py: no iskak sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        if args.all:
            return run_all(spec, args.seed, seconds, args.out)
        if not args.workload:
            p.error("give --workload or --all")
        res = (traced_result(spec, args.workload, args.seed) if args.trace
               else untraced_result(spec, args.workload, args.seed, seconds))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print_result(args.workload, args.trace, res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
