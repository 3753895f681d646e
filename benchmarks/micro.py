"""Layer micro-cases at N in {64, 128, 512} x delta in {0.05, 0.2, 0.5}.

Each case builds the depth of a 0.1-amplitude cosine wave (rotated by the
seed's shift) and measures, on the grid and shallowness of the case:

* ``operators.l1_apply_us``: one ``L1`` application;
* ``operators.pcg_cold_iters`` / ``pcg_cold_ms``: the initial-data elliptic
  solve of a three-mode surface potential, started from zero;
* ``waterwave.strip_solve_cold_ms`` / ``gmres_cold_iters``: one exact:16
  strip solve of the same data without a warm start, workspace prebuilt;

and per N ``spectral.fft_pair_us.rows1`` / ``rows8``: an rfft+irfft pair
over one and over eight stacked rows.  Every timed case runs once per round
and reports its median over ROUNDS rounds, so that a slow spell of the
machine touches each case alike.  Iteration counts come from a ``Tracer``
over the operator applications.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import tracing
import workloads

NS = (64, 128, 512)
DELTAS = (0.05, 0.2, 0.5)
ROUNDS = 9

COUNT_POINTS = tuple(p for p in tracing.SPAN_POINTS
                     if p[2] in ("operators.l1", "waterwave.gmres", "waterwave.strip_apply"))


def _count(fn) -> tuple[int, int]:
    """(L1 applications, GMRES iterations) made by one call of fn."""
    tracer = tracing.Tracer(COUNT_POINTS, count_fft=False)
    with tracer.installed():
        fn()
    ix = tracing.SpanIndex(tracer.spans)
    gmres = sum(len(ix.children(i, "waterwave.strip_apply")) - int(tracer.spans[i][tracing.TAG])
                for i in ix.by_name.get("waterwave.gmres", ()))
    return len(ix.named("operators.l1")), gmres


def run_micro(seed: int) -> dict:
    from iskak import operators, waterwave
    from iskak.spectral import PeriodicGrid, RealField

    frac = workloads.shift_fraction(seed)
    timed = {}    # metric -> (fn, calls per timing, scale from seconds per call)
    out = {}
    for n in NS:
        grid = PeriodicGrid(n)
        x = np.roll(grid.nodes, round(frac * n))
        eta = RealField(grid, 0.1 * np.cos(x))
        phi = RealField(grid, 0.1 * np.sin(x) + 0.05 * np.cos(2 * x) + 0.02 * np.sin(3 * x))
        rows8 = np.stack([np.cos(k * x) for k in range(1, 9)])
        one = rows8[0].copy()
        timed[f"spectral.fft_pair_us.rows1.n{n}"] = (
            lambda one=one, n=n: np.fft.irfft(np.fft.rfft(one), n=n), 200, 1e6)
        timed[f"spectral.fft_pair_us.rows8.n{n}"] = (
            lambda rows8=rows8, n=n: np.fft.irfft(np.fft.rfft(rows8, axis=-1), n=n, axis=-1),
            200, 1e6)

        dc = operators.DepthCoefs.from_eta(eta)
        for delta in DELTAS:
            case = f"n{n}.d{delta}"
            ws = waterwave._StripWorkspace(grid, 16, delta)

            def l1(grid=grid, delta=delta, dc=dc, v=phi.values):
                return operators._l1_v(grid, delta, dc, v)

            def pcg(eta=eta, phi=phi, delta=delta):
                return operators.solve_initial_data(eta, phi, delta)

            def strip(ws=ws, eta=eta, phi=phi):
                return ws.solve(eta, phi, waterwave.DTN_TOL_DEFAULT, operators.H_MIN_DEFAULT,
                                warm_start=False)

            out[f"operators.pcg_cold_iters.{case}"] = _count(pcg)[0]
            out[f"waterwave.gmres_cold_iters.{case}"] = _count(strip)[1]
            timed[f"operators.l1_apply_us.{case}"] = (l1, 50, 1e6)
            timed[f"operators.pcg_cold_ms.{case}"] = (pcg, 3, 1e3)
            timed[f"waterwave.strip_solve_cold_ms.{case}"] = (strip, 1, 1e3)

    samples = {name: [] for name in timed}
    for _ in range(ROUNDS):
        for name, (fn, calls, _) in timed.items():
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            samples[name].append((time.perf_counter() - t0) / calls)
    for name, (_, _, scale) in timed.items():
        out[name] = scale * statistics.median(samples[name])
    return out
