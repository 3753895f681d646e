"""One measured process of the iskak benchmark.

    python3 benchmarks/worker.py --workload NAME --seed N [--trace]
    python3 benchmarks/worker.py --micro --seed N

Runs one workload's experiment once in this fresh process, so import cost
and cold caches count as they do for a CLI user, and prints one JSON line:
timestamps on the system-wide monotonic clock (``run.py`` measures from the
moment it launched this process), the time and kind of every RK4 step,
the report CSV text, each stepped run's outcome against the frozen
reference and, with ``--trace``, the per-layer metrics of ``tracing.py``.  ``--micro`` runs the
layer micro-cases instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import tracing  # noqa: E402  (benchmark-local modules, no iskak import)
import workloads  # noqa: E402

clock = tracing.clock


class Probe:
    """Capture of the stepped runs, installed in every measured process.

    Each call of the experiments' ``run``/``ww_run`` is one operation (a leg x
    model pair); its result is kept for the oracle.  Its RK4 steps come from
    the spans of ``tracer``, by default one restricted to the runs and their
    step points (``tracing.STEP_POINTS``).  ``installed`` puts the capture
    in place before the tracer, so that each run span encloses its capture.
    """

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.tracer = tracer or tracing.Tracer(tracing.STEP_POINTS, count_fft=False)
        self.results: list = []   # (label, run result), in call order

    def _capture(self, fn, model_of):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.results.append((workloads.op_label(model_of(args), args[0].delta), result))
            return result
        return captured

    @contextlib.contextmanager
    def installed(self):
        from iskak import experiments

        with tracing.patched([
            (experiments, "run", self._capture(experiments.run, lambda a: "ik")),
            (experiments, "ww_run", self._capture(experiments.ww_run,
                                                  lambda a: "ww " + a[2].label())),
        ]), self.tracer.installed():
            yield

    def ops(self) -> list:
        """One record per stepped run: its steps, stepping time and outcome."""
        import numpy as np

        ix = tracing.SpanIndex(self.tracer.spans)
        out = []
        # runs are serial, so results and run spans share their order; a run
        # that raised has a span but no result and ends the experiment
        for i, (label, result) in zip(ix.runs(), self.results):
            steps = ix.steps(i)
            diag = result.diagnostics
            series = {k: [float(v) for v in getattr(diag, k)] for k in workloads.SERIES}
            fields = [f.values for f in vars(result.final).values() if hasattr(f, "values")]
            finite = (all(math.isfinite(v) for xs in series.values() for v in xs)
                      and all(bool(np.isfinite(v).all()) for v in fields))
            out.append({"label": label, "step_s": ix.stepping(i),
                        "first": steps[0][tracing.START] if steps else None,
                        "aborted": diag.aborted, "series": series, "finite": finite})
        return out


def report_csv(report) -> str:
    """The report CSV exactly as the CLI writes it.

    ``write_csv`` takes only a path.  The benchmark reads and writes nothing
    outside its checkout, so the file goes under ``.bench_build/`` there
    rather than in the system temp directory.
    """
    from iskak.experiments import write_csv

    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        path = os.path.join(tmp, "report.csv")
        write_csv(report, path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def run_workload(name: str, seed: int, trace: bool) -> dict:
    t_import = clock()
    from iskak.experiments import run_experiment
    t_imported = clock()

    cfg = workloads.build_config(name)
    tracer = tracing.Tracer() if trace else None
    probe = Probe(tracer)
    error = None
    report = None
    with contextlib.ExitStack() as stack:
        stack.enter_context(workloads.rotated_profiles(seed))
        stack.enter_context(probe.installed())
        runner = run_experiment
        if tracer is not None:
            runner = tracer.wrap("experiments.run", run_experiment)
        try:
            report = runner(cfg)
        except Exception as exc:  # a crashing experiment is a failed workload, not a crash here
            traceback.print_exc()
            error = f"experiment raised {type(exc).__name__}: {exc}"
    t_report = clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref_csv, ref_ops = workloads.load_reference(name)
    csv_text = report_csv(report) if report is not None else ""
    mismatches = [error] if error else workloads.compare_csv(csv_text, ref_csv)
    ops = probe.ops()
    passed = 0
    for op in ops:
        why = workloads.compare_op(op, ref_ops.get(op["label"]))
        if why is None:
            passed += 1
        else:
            mismatches.append(f"{op['label']}: {why}")
    attempted = max(workloads.WORKLOADS[name].ops, len(ops))
    t_first_step = min((op["first"] for op in ops if op["first"] is not None),
                       default=t_report)

    out = {
        "t_first_step": t_first_step,
        "t_report": t_report,
        "step_s": [[op["label"], op["step_s"]] for op in ops],
        "peak_rss_mb": peak_rss_mb,
        "csv": csv_text,
        "attempted": attempted,
        "failed": attempted - passed,
        "mismatches": mismatches,
    }
    if tracer is not None:
        layer = tracing.layer_metrics(tracer, workloads.SWEEP_DELTAS)
        layer["experiments.import_s"] = t_imported - t_import
        out["layer"] = layer
        out["mismatches"] += tracing.span_tree_errors(tracer)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--micro", action="store_true", help="run the layer micro-cases")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "iskak", "__init__.py")):
        print(f"worker: no iskak sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.micro:
        import micro

        out = {"layer": micro.run_micro(args.seed)}
    elif args.workload:
        out = run_workload(args.workload, args.seed, args.trace)
    else:
        p.error("give --workload or --micro")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
