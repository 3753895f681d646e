"""In-memory span tracing for the benchmark.

Every measured process records the stepped runs and their RK4 steps
(``STEP_POINTS``), which give ``steps_per_s``; the traced run records every
point of ``SPAN_POINTS`` and the FFT counters.  A span is recorded around a call into a layer by replacing the module-level
name that the caller looks up at call time (``SPAN_POINTS``).  Where a
module binds a name at import (``ik_solver`` imports ``solve_elliptic_pair``
from ``operators``), the name is replaced in each module that uses it.  The
FFT entry points ``numpy.fft.rfft``/``irfft`` are counted, not spanned: they
run a few hundred times per step and a span each would dominate the cost.

Spans stay in memory as ``[name, start, end, parent, child_time, tag]`` and
are reduced to per-layer metrics by ``layer_metrics`` when the run ends.  A
span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import bisect
import contextlib
import importlib
import statistics
import time

# CLOCK_MONOTONIC: comparable across the processes of one run on Linux
clock = time.monotonic

NAME, START, END, PARENT, CHILD, TAG = range(6)


def _leg_delta(args, kwargs):
    return args[1]


def _run_backend(args, kwargs):
    return args[2].label()


def _zcs_backend(args, kwargs):
    return args[1].kind


def _apply_backend(args, kwargs):
    return args[0].kind


def _warm_hit(args, kwargs):
    # _StripWorkspace.solve(self, eta, phi, tol, h_min, warm_start)
    ws, warm = args[0], args[5] if len(args) > 5 else kwargs["warm_start"]
    return bool(warm and ws.last_solution is not None)


def _gmres_warm(args, kwargs):
    # with a start vector, the first operator application is the initial residual
    x0 = args[4] if len(args) > 4 else kwargs.get("x0")
    return x0 is not None


# (owner, attribute, span name, tag): owner is "module" or "module:Class"
SPAN_POINTS = (
    ("iskak.experiments", "_convergence_leg", "experiments.leg", _leg_delta),
    ("iskak.experiments", "run", "ik_solver.run", None),
    ("iskak.experiments", "ww_run", "waterwave.run", _run_backend),
    ("iskak.ik_solver", "_rk4_stages", "ik_solver.step", None),
    ("iskak.ik_solver", "time_derivatives", "ik_solver.time_derivatives", None),
    ("iskak.ik_solver", "_record", "ik_solver.record", None),
    ("iskak.ik_solver", "reproject", "ik_solver.reproject", None),
    ("iskak.ik_solver", "solve_elliptic_pair", "operators.solve_elliptic_pair", None),
    ("iskak.operators", "solve_elliptic_pair", "operators.solve_elliptic_pair", None),
    ("iskak.operators", "_l1_v", "operators.l1", None),
    ("iskak.waterwave", "zcs_rhs", "waterwave.zcs_rhs", _zcs_backend),
    ("iskak.waterwave", "hamiltonian", "waterwave.record", None),
    ("iskak.waterwave", "_gmres", "waterwave.gmres", _gmres_warm),
    ("iskak.waterwave:DtnBackend", "apply", "waterwave.dtn_apply", _apply_backend),
    ("iskak.waterwave:_StripWorkspace", "__init__", "waterwave.workspace_build", None),
    ("iskak.waterwave:_StripWorkspace", "solve", "waterwave.strip_solve", _warm_hit),
    ("iskak.waterwave:_StripWorkspace", "_apply", "waterwave.strip_apply", None),
)

# the spans every measured process records: runs, their RK4 steps and the
# work between steps that makes one step differ from another
STEP_POINTS = tuple(p for p in SPAN_POINTS if p[2] in (
    "ik_solver.run", "waterwave.run", "ik_solver.step", "waterwave.zcs_rhs",
    "ik_solver.record", "ik_solver.reproject", "waterwave.record"))

# run span -> (step span, spans per RK4 step): an IK step is one _rk4_stages
# call, a WW step four zcs_rhs calls in a row
RUN_STEPS = {"ik_solver.run": ("ik_solver.step", 1),
             "waterwave.run": ("waterwave.zcs_rhs", 4)}

FFT_POINTS = ("rfft", "irfft")


@contextlib.contextmanager
def patched(replacements):
    """Set each ``(owner, attribute, value)``; restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and FFT counters of one process, recorded while installed."""

    def __init__(self, points=SPAN_POINTS, count_fft: bool = True):
        self.points = points
        self.count_fft = count_fft
        self.spans: list = []
        self._open: list = []
        self.fft_calls = {name: 0 for name in FFT_POINTS}
        self.fft_rows = 0
        self.fft_time = 0.0

    def wrap(self, name, fn, tag=None):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, tag(args, kwargs) if tag else None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]

        return traced

    def _count(self, name, fn):
        def counted(a, *args, **kwargs):
            t0 = clock()
            try:
                return fn(a, *args, **kwargs)
            finally:
                self.fft_time += clock() - t0
                self.fft_calls[name] += 1
                if name == "rfft":
                    axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
                    self.fft_rows += a.size // a.shape[axis]

        return counted

    def installed(self):
        """Context in which the spans and counters are recorded."""
        replacements = []
        for owner, attr, name, tag in self.points:
            obj = resolve(owner)
            replacements.append((obj, attr, self.wrap(name, obj.__dict__[attr], tag)))
        if self.count_fft:
            fft = importlib.import_module("numpy.fft")
            replacements += [(fft, name, self._count(name, fft.__dict__[name]))
                             for name in FFT_POINTS]
        return patched(replacements)


def duration(span) -> float:
    return span[END] - span[START]


def self_time(span) -> float:
    return duration(span) - span[CHILD]


def _ms_quantile(spans, q: int) -> float:
    """q-th percentile of span durations in milliseconds (0 when no span)."""
    if not spans:
        return 0.0
    ms = sorted(1e3 * duration(s) for s in spans)
    if len(ms) == 1:
        return ms[0]
    return statistics.quantiles(ms, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_frac(spans) -> float:
    return _ratio(sum(self_time(s) for s in spans), sum(duration(s) for s in spans))


class SpanIndex:
    """Spans of one trace grouped by name and by parent."""

    def __init__(self, spans: list):
        self.spans = spans
        self.by_name: dict = {}
        self.by_parent: dict = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)
            self.by_parent.setdefault(s[PARENT], []).append(i)

    def named(self, name: str, tag=...) -> list:
        return [self.spans[i] for i in self.by_name.get(name, ())
                if tag is ... or self.spans[i][TAG] == tag]

    def children(self, index: int, name: str) -> list:
        return [self.spans[i] for i in self.by_parent.get(index, ())
                if self.spans[i][NAME] == name]

    def runs(self) -> list:
        """Indices of the stepped runs (IK and WW), in call order."""
        return [i for i, s in enumerate(self.spans) if s[NAME] in RUN_STEPS]

    def steps(self, run: int) -> list:
        """RK4 steps of one run span, as ``[None, start, end]`` pseudo-spans."""
        name, k = RUN_STEPS[self.spans[run][NAME]]
        calls = self.children(run, name)
        return [[None, calls[j][START], calls[j + k - 1][END]]
                for j in range(0, len(calls) - k + 1, k)]

    def stepping(self, run: int) -> list:
        """The steps of one run span as ``(seconds, kind)`` pairs.

        Step i lasts from its start until step i+1 starts, the last step
        until the run returns, so the work between steps counts with the step
        it follows: reprojection, records, the RK4 combine and the blow-up
        guard.  ``kind`` names that work, from the run's other child spans
        that start within the step ("ik_solver.reproject", ...), and marks
        the run's first step, which starts without a warm start.
        """
        step_name, _ = RUN_STEPS[self.spans[run][NAME]]
        marks = [st[START] for st in self.steps(run)]
        if not marks:
            return []
        marks.append(self.spans[run][END])
        kinds = [set() for _ in marks[1:]]
        kinds[0].add("first")
        for i in self.by_parent.get(run, ()):
            s = self.spans[i]
            j = bisect.bisect_right(marks, s[START]) - 1
            if s[NAME] != step_name and 0 <= j < len(kinds):
                kinds[j].add(s[NAME])
        return [(b - a, "+".join(sorted(k)))
                for a, b, k in zip(marks, marks[1:], kinds)]


def layer_metrics(tracer: Tracer, deltas=()) -> dict:
    """Per-layer metrics of one traced workload run.

    ``deltas`` lists the sweep legs whose ``experiments.leg_s`` is reported
    (0 for a leg the workload does not run).
    """
    ix = SpanIndex(tracer.spans)
    ik_steps = ix.named("ik_solver.step")
    ww_exact_steps = [st for i in ix.by_name.get("waterwave.run", ())
                      if ix.spans[i][TAG].startswith("exact") for st in ix.steps(i)]
    n_steps = sum(len(ix.steps(i)) for i in ix.runs())
    solves = ix.named("operators.solve_elliptic_pair")
    strip_solves = ix.named("waterwave.strip_solve")
    records = ix.named("ik_solver.record")

    gmres_iters = sum(len(ix.children(i, "waterwave.strip_apply")) - int(tracer.spans[i][TAG])
                      for i in ix.by_name.get("waterwave.gmres", ()))
    runs = ix.named("experiments.run")
    run_time = sum(duration(s) for s in runs)

    m = {
        "spectral.fft_pairs_per_step": _ratio(tracer.fft_calls["rfft"], n_steps),
        "spectral.fft_rows_per_pair": _ratio(tracer.fft_rows, tracer.fft_calls["rfft"]),
        "spectral.fft_self_frac": _ratio(tracer.fft_time, run_time),
        "operators.l1_applies_per_solve": _ratio(len(ix.named("operators.l1")), len(solves)),
        "operators.pcg_solves_per_step": _ratio(len(solves), len(ik_steps)),
        "operators.solve_elliptic_pair.ms_p50": _ms_quantile(solves, 50),
        "operators.solve_elliptic_pair.self_frac": _self_frac(solves),
        "ik_solver.step.ms_p50": _ms_quantile(ik_steps, 50),
        "ik_solver.step.ms_p95": _ms_quantile(ik_steps, 95),
        "ik_solver.time_derivatives.ms_p50": _ms_quantile(ix.named("ik_solver.time_derivatives"), 50),
        "ik_solver.record.ms_p50": _ms_quantile(records, 50),
        "ik_solver.record.self_frac": _self_frac(records),
        "ik_solver.reproject.ms_p50": _ms_quantile(ix.named("ik_solver.reproject"), 50),
        "waterwave.gmres_iters_per_solve": _ratio(gmres_iters, len(strip_solves)),
        "waterwave.gmres_calls_per_solve": _ratio(len(ix.named("waterwave.gmres")), len(strip_solves)),
        "waterwave.strip_applies_per_solve": _ratio(len(ix.named("waterwave.strip_apply")),
                                                    len(strip_solves)),
        "waterwave.strip_solve.ms_p50": _ms_quantile(strip_solves, 50),
        "waterwave.dtn_apply.ms_p50": _ms_quantile(ix.named("waterwave.dtn_apply", "exact"), 50),
        "waterwave.zcs_rhs.ms_p50": _ms_quantile(ix.named("waterwave.zcs_rhs", "exact"), 50),
        "waterwave.step.ms_p50": _ms_quantile(ww_exact_steps, 50),
        "waterwave.warm_start_hit_frac": _ratio(sum(s[TAG] for s in strip_solves), len(strip_solves)),
        "waterwave.workspace_build.ms": _ms_quantile(ix.named("waterwave.workspace_build"), 50),
        "experiments.report_s": sum(self_time(s) for s in runs),
    }
    legs = ix.named("experiments.leg")
    for d in deltas:
        m[f"experiments.leg_s.d{d}"] = sum(duration(s) for s in legs if s[TAG] == d)
    return m


def span_tree_errors(tracer: Tracer, slack: float = 1e-9) -> list:
    """Spans whose self time is negative or exceeds their parent's duration
    (beyond ``slack`` seconds of clock rounding)."""
    bad = []
    for s in tracer.spans:
        own = self_time(s)
        if own < -slack or own > duration(s) + slack:
            bad.append(f"{s[NAME]}: self {own:.3e} s outside [0, {duration(s):.3e}]")
        elif s[PARENT] >= 0 and own > duration(tracer.spans[s[PARENT]]) + slack:
            bad.append(f"{s[NAME]}: self {own:.3e} s exceeds parent duration")
    return bad
