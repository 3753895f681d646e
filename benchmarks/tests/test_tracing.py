"""Checks on the benchmark's own instrumentation.

    python3 -m pytest benchmarks/tests -q

The traced run must not change what the program computes, and the span tree
it records must be consistent: no span's self time is negative or exceeds
its own or its parent's duration.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Probe, report_csv  # noqa: E402

# shortened runs of each workload: same code paths, fewer steps
SHORT_T_END = {"ik-wave": 0.04, "ww-exact": 0.04, "delta-sweep": 0.01}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_report_is_byte_identical(name):
    from iskak import operators
    from iskak.experiments import run_experiment

    cfg = dataclasses.replace(workloads.build_config(name), t_end=SHORT_T_END[name])
    l1 = operators._l1_v
    with workloads.rotated_profiles(seed=5):
        plain = report_csv(run_experiment(cfg))
        tracer = tracing.Tracer()
        probe = Probe(tracer)
        with probe.installed():
            traced = report_csv(tracer.wrap("experiments.run", run_experiment)(cfg))
    assert traced == plain
    assert operators._l1_v is l1, "tracer left a wrapper installed"
    assert tracer.fft_calls["rfft"] > 0 and tracer.spans
    assert tracing.span_tree_errors(tracer) == []

    ops = probe.ops()
    assert len(ops) == workloads.WORKLOADS[name].ops
    ix = tracing.SpanIndex(tracer.spans)
    for op, run in zip(ops, ix.runs()):
        steps = ix.steps(run)
        assert len(op["step_s"]) == len(steps) == round(cfg.t_end / cfg.dt)
        # each step's time covers the step and the work after it
        assert all(t >= tracing.duration(st) for (t, _), st in zip(op["step_s"], steps))
        assert sum(t for t, _ in op["step_s"]) == pytest.approx(
            tracer.spans[run][tracing.END] - steps[0][tracing.START])


# kinds of step of a 40-step run: (step number, kind), "" elsewhere
IK_WAVE_KINDS = {1: "first", 10: "ik_solver.reproject", 30: "ik_solver.reproject",
                 20: "ik_solver.record+ik_solver.reproject",
                 40: "ik_solver.record+ik_solver.reproject"}
SWEEP_KINDS = {1: "first", 40: "{}.record"}   # convergence legs do not reproject


@pytest.mark.parametrize("name, t_end, kinds", [("ik-wave", 0.04, IK_WAVE_KINDS),
                                                ("delta-sweep", 0.02, SWEEP_KINDS)])
def test_untraced_probe_counts_every_step_by_kind(name, t_end, kinds):
    from iskak.experiments import run_experiment

    cfg = dataclasses.replace(workloads.build_config(name), t_end=t_end)
    probe = Probe()
    with probe.installed():
        run_experiment(cfg)
    ops = probe.ops()
    assert len(ops) == workloads.WORKLOADS[name].ops
    for op in ops:
        layer = "ik_solver" if op["label"].startswith("ik") else "waterwave"
        want = [kinds.get(n, "").format(layer) for n in range(1, 41)]
        assert [kind for _, kind in op["step_s"]] == want, op["label"]


def test_self_times_never_exceed_parent_duration():
    tracer = tracing.Tracer(points=(), count_fft=False)
    leaf = tracer.wrap("leaf", lambda: sum(range(2000)))
    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)])
    top = tracer.wrap("top", lambda: [mid() for _ in range(2)])
    top()
    spans = tracer.spans
    assert [s[tracing.NAME] for s in spans].count("leaf") == 6
    for s in spans:
        own = tracing.self_time(s)
        assert 0.0 <= own <= tracing.duration(s)
        if s[tracing.PARENT] >= 0:
            assert own <= tracing.duration(spans[s[tracing.PARENT]])
    mids = [s for s in spans if s[tracing.NAME] == "mid"]
    assert spans[0][tracing.CHILD] == pytest.approx(sum(map(tracing.duration, mids)))
    assert tracing.span_tree_errors(tracer) == []

    # a child longer than its parent is reported
    spans.append(["bad", 0.0, 1.0, -1, 2.0, None])
    assert tracing.span_tree_errors(tracer)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "ik-wave",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "ik-wave",
                           "--seed", "2", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
