"""Workloads of the iskak benchmark, their seeded inputs and their oracle.

Each workload is one CLI experiment at a shortened ``t_end``:

* ``ik-wave``: ``simulate`` with ``model=ik`` (N=128, delta=0.2, amplitude
  0.1, dt=1e-3, reprojection every 10 steps, a record every 20).  The PCG
  elliptic solve and the IK stepper do nearly all the work; the water-wave
  side does none.
* ``ww-exact``: ``simulate`` with ``model=ww`` and the warm-started
  ``exact:16`` strip DtN on the same grid.  The strip GMRES solve does nearly
  all the work; PCG does none.
* ``delta-sweep``: ``convergence`` over the five default delta legs, each
  running IK, WW ``exact:16`` and WW ``series:0``.  The only workload with
  several legs, per-delta caches and the series backend.

Inputs from the seed: the seed picks a rotation of the initial profiles by a
whole number of grid points.  Every output the oracle compares (integrals,
norms, extrema, their time series) is invariant under that rotation, so one
frozen reference serves every seed and the rotation moves the outputs only at
rounding level.

Oracle: the report CSV rows and each stepped run's recorded diagnostics,
frozen at the seed commit by ``freeze.py``.  A number ``a`` matches its
reference ``b`` when ``|a - b| <= atol + RTOL * |b|``.  RTOL = 1e-9 admits
reordered floating-point sums and solver iterates that differ within the
1e-12 solver tolerances, and nothing larger; the largest relative deviation
measured across rotations is 4.4e-16 on the O(1e-2..1) quantities.

``atol`` depends on the quantity.  ``mass`` and ``constraint_max`` are
rounding noise by design (the mass of a zero-mean wave, the constraint
residual under reprojection): they compare at the experiments' own noise
floor, NOISE_ATOL = 1e-12 (``noise_floor``), and their largest deviation
measured is 1.3e-14.  Everything else compares at ATOL = 2e-17.  The model
errors of ``delta-sweep`` (``err_eta``, ``err_grad_phi``, ``err_control``)
reach down to 4.4e-16 at t_end=0.02; over 43 of the 128 rotations they
moved by at most 2.5e-18 absolute, so ATOL holds each of them within 5 % of
its reference, and all but ``err_grad_phi`` at delta <= 0.15 within 0.1 %.  Text cells and NaN compare exactly: a NaN
never matches.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

from tracing import patched

ATOL = 2e-17
RTOL = 1e-9
NOISE_ATOL = 1e-12
NOISE_COLUMNS = ("mass", "constraint_max")

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# diagnostics series each stepped run records (WW runs leave the last two empty)
SERIES = ("times", "mass", "energy", "min_depth", "constraint_max", "min_a")


@dataclass(frozen=True)
class Workload:
    experiment: str
    overrides: tuple
    ops: int          # stepped runs (leg x model pairs) per experiment


WORKLOADS = {
    "ik-wave": Workload("simulate", ("model=ik", "t_end=0.2"), ops=1),
    "ww-exact": Workload("simulate", ("model=ww", "dtn=exact:16", "t_end=0.2"), ops=1),
    "delta-sweep": Workload("convergence", ("t_end=0.02",), ops=15),
}

# sweep legs reported as experiments.leg_s.d<delta> (the convergence default)
SWEEP_DELTAS = (0.4, 0.3, 0.2, 0.15, 0.1)


def build_config(name: str):
    from iskak.config import apply_overrides, default_config

    w = WORKLOADS[name]
    return apply_overrides(default_config(w.experiment), list(w.overrides))


def shift_fraction(seed: int) -> float:
    """Rotation of the initial profiles as a fraction of the period."""
    return random.Random(seed).randrange(128) / 128.0


def rotated_profiles(seed: int):
    """Context in which the experiments' initial cos/sin profiles are rotated
    by the seed's shift."""
    import numpy as np
    from iskak import experiments
    from iskak.spectral import RealField

    frac = shift_fraction(seed)

    def rotate(profile):
        def rotated(grid, amplitude, k0):
            shift = round(frac * grid.n_points)
            return RealField(grid, np.roll(profile(grid, amplitude, k0).values, shift))
        return rotated

    return patched([(experiments, name, rotate(getattr(experiments, name)))
                    for name in ("_cos_profile", "_sin_profile")])


def op_label(model: str, delta: float) -> str:
    return f"{model} d={delta}"


def reference_paths(name: str) -> tuple[str, str]:
    return (os.path.join(REFERENCE_DIR, f"{name}.csv"),
            os.path.join(REFERENCE_DIR, f"{name}.ops.json"))


def load_reference(name: str) -> tuple[str, dict]:
    csv_path, ops_path = reference_paths(name)
    with open(csv_path, encoding="utf-8") as fh:
        csv_text = fh.read()
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    return csv_text, ops


def close(a: float, b: float, column: str) -> bool:
    atol = NOISE_ATOL if column in NOISE_COLUMNS else ATOL
    return abs(a - b) <= atol + RTOL * abs(b)


def _cell_mismatch(column: str, a: str, b: str) -> bool:
    try:
        fa, fb = float(a), float(b)
    except ValueError:
        return a != b
    return not close(fa, fb, column)


def compare_csv(text: str, ref: str) -> list:
    """Mismatches between report CSV text and its frozen reference."""
    rows, ref_rows = text.splitlines(), ref.splitlines()
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} CSV lines, reference has {len(ref_rows)}"]
    if rows[0] != ref_rows[0]:
        return [f"CSV header {rows[0]!r} != {ref_rows[0]!r}"]
    columns = rows[0].split(",")
    out = []
    for i, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
        cells, ref_cells = row.split(","), ref_row.split(",")
        if len(cells) != len(columns) or any(map(_cell_mismatch, columns, cells, ref_cells)):
            out.append(f"CSV row {i}: {row} != reference {ref_row}")
    return out


def compare_op(op: dict, ref: dict | None) -> str | None:
    """Why a stepped run fails (aborted, non-finite, off its reference), or None."""
    if op["aborted"] is not None:
        return f"aborted: {op['aborted']}"
    if not op["finite"]:
        return "non-finite output"
    if ref is None:
        return "no frozen reference for this run"
    for key in SERIES:
        got, want = op["series"][key], ref[key]
        if len(got) != len(want):
            return f"{key}: {len(got)} records, reference has {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            if not (math.isfinite(a) and close(a, b, key)):
                return f"{key}[{i}] = {a!r}, reference {b!r}"
    return None
