"""Named experiments with CSV + summary reporting and log-log slope fits.

Each runner turns an ExperimentConfig into an ExperimentReport: raw rows
(one record per delta and time sample, carrying the run parameters for
auditability), ordinary-least-squares slope fits on (log delta, log error)
that discard rows within 10x of the declared numerical noise floor, and
named pass/fail checks with pinned thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig, config_items
from .consistency import dispersion_table, residuals
from .ik_solver import Diagnostics, RunResult, SimConfig, run
from .operators import (
    DepthCoefs,
    ik_state_from_surface,
    op_l1,
    op_l11,
    op_l12,
    op_l22,
    solve_elliptic_pair,
    solve_initial_data,
    surface_potential,
)
from .spectral import PeriodicGrid, RealField, dx, field_from_function, l2_norm
from .waterwave import DtnBackend, WwState, ww_run

__all__ = [
    "SlopeFit",
    "Check",
    "ExperimentReport",
    "fit_loglog",
    "write_csv",
    "run_experiment",
    "summary_text",
    "EXPERIMENTS",
]

# frozen reference: dispersion gap at x = 1 is 16/21 - tanh(1)
GAP_AT_ONE = 3.106059489970166e-04
# convergence errors within 10x of this are rounding and left out of the fits
NOISE_FLOOR = 1e-12
# steps between the reprojections of simulate's IK runs, the only runs that
# reproject: conservation and convergence measure the constraint's transport,
# and the benchmark pins this cadence (IK_WAVE_KINDS and SPAN_POINTS)
REPROJECT_EVERY = 10


@dataclass
class SlopeFit:
    metric: str
    slope: float | None
    ci95: float | None
    n_used: int
    n_discarded: int
    noise_floor: float

    def describe(self) -> str:
        if self.slope is None:
            return (f"{self.metric}: slope undefined-by-rule "
                    f"(usable points {self.n_used} < 3, discarded {self.n_discarded} "
                    f"below 10x noise floor {self.noise_floor:.1e})")
        return (f"{self.metric}: slope {self.slope:.3f} +/- {self.ci95:.3f} "
                f"(n={self.n_used}, discarded={self.n_discarded}, "
                f"noise_floor={self.noise_floor:.1e})")


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentReport:
    experiment: str
    columns: list
    rows: list
    slopes: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    params: list = field(default_factory=list)
    snapshots: tuple | None = None    # (columns, rows) side table, e.g. field dumps

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _t_quantile_975(dof: int) -> float:
    """The 97.5 % Student-t quantile for integer dof >= 1: the two-sided CDF
    in theta = atan(t / sqrt(dof)), Abramowitz & Stegun 26.7.3 (odd dof) and
    26.7.4 (even dof), inverted at 0.95 by bisection in theta."""
    odd = dof % 2

    def two_sided(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        total, term = 0.0, 1.0
        for k in range(dof // 2):
            total += term
            term *= c * c * (2 * k + 1 + odd) / (2 * k + 2 + odd)
        return 2.0 / math.pi * (theta + s * c * total) if odd else s * total

    lo, hi = 0.0, 0.5 * math.pi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return math.sqrt(dof) * math.tan(mid)
        if two_sided(mid) < 0.95:
            lo = mid
        else:
            hi = mid


def fit_loglog(xs, errs, noise_floor: float, metric: str) -> SlopeFit:
    """Least-squares slope of log(errs) on log(xs).  Points that are not
    finite or lie within 10x noise_floor are left out; with fewer than 3
    left the slope is undefined.  dof = n_used - 2, and ci95 is the 97.5 %
    Student-t quantile at dof times the slope's standard error."""
    xs = np.asarray(xs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = np.isfinite(errs) & (errs > 10.0 * noise_floor)
    n_used = int(keep.sum())
    n_disc = len(errs) - n_used
    if n_used < 3:
        return SlopeFit(metric, None, None, n_used, n_disc, noise_floor)
    lx, le = np.log(xs[keep]), np.log(errs[keep])
    slope, intercept = np.polyfit(lx, le, 1)
    resid = le - (slope * lx + intercept)
    dof = n_used - 2
    se = float(np.sqrt(resid @ resid / dof / np.sum((lx - lx.mean()) ** 2)))
    ci = _t_quantile_975(dof) * se
    return SlopeFit(metric, float(slope), ci, n_used, n_disc, noise_floor)


def _fmt(v) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{float(v):.12e}"
    return str(v)


def write_csv(report: ExperimentReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(report.columns) + "\n")
        for row in report.rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def summary_text(report: ExperimentReport) -> str:
    """The summary: the params: block (config_items, the full resolved
    configuration, which parses back as a config file), slopes and checks."""
    lines = [f"experiment: {report.experiment}", "params:"]
    lines += [f"  {k} = {v}" for k, v in report.params]
    if report.slopes:
        lines.append("slopes:")
        lines += [f"  {s.describe()}" for s in report.slopes]
    lines.append("checks:")
    for c in report.checks:
        lines.append(f"  {'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _cos_profile(grid: PeriodicGrid, amplitude: float, k0: int) -> RealField:
    return field_from_function(grid, lambda x: amplitude * np.cos(k0 * x))


def _sin_profile(grid: PeriodicGrid, amplitude: float, k0: int) -> RealField:
    return field_from_function(grid, lambda x: amplitude * np.sin(k0 * x))


def _stepped(backend: DtnBackend | None, eta0: RealField, phi: RealField, delta: float,
             sim: SimConfig) -> RunResult:
    """Step the surface data (eta0, phi) at delta to sim.t_end: the IK model
    if backend is None, else the water-wave problem under backend.  The one
    place an experiment starts a stepped run; run_loop copies the fields."""
    if backend is None:
        return run(ik_state_from_surface(eta0, phi, delta, cg_tol=sim.cg_tol), sim)
    return ww_run(WwState(eta0, phi, delta), sim, backend)


def _sign_check(min_h: float, min_a: float) -> Check:
    """Both sign conditions; a NaN minimum (no record) fails."""
    return Check("sign conditions: min depth and min a >= 0.5",
                 min_h >= 0.5 and min_a >= 0.5, f"min depth {min_h:.4f}, min a {min_a:.4f}")


DIAG_COLUMNS = ["time", "mass", "energy", "constraint_max", "min_depth", "min_a"]


def _diag_rows(diag: Diagnostics, *tail) -> list:
    """One row per record: the DIAG_COLUMNS, then tail.  A water-wave run
    records no constraint or min_a series; those cells read 0.0 and 1.0."""
    cmax = diag.constraint_max or [0.0] * len(diag.times)
    min_a = diag.min_a or [1.0] * len(diag.times)
    return [[t, m, e, c, h, a, *tail] for t, m, e, c, h, a
            in zip(diag.times, diag.mass, diag.energy, cmax, diag.min_depth, min_a)]


# ---------------------------------------------------------------------------
# dispersion

def run_dispersion(cfg: ExperimentConfig) -> ExperimentReport:
    fit_x = np.geomspace(0.05, 0.5, 9)
    extra = [1e-3, 1e-2, 1.0]
    all_x = sorted(set(np.concatenate([fit_x, extra]).tolist()))
    table = dispersion_table(all_x)
    floor = 1e-15
    rows, fit_pts = [], []
    for x, cm, cf, diff in table:
        in_window = 0.05 - 1e-12 <= x <= 0.5 + 1e-12
        used = in_window and abs(diff) > 10.0 * floor
        if used:
            fit_pts.append((x, abs(diff)))
        rows.append([x, cm, cf, diff, int(used)])
    sf = fit_loglog([p[0] for p in fit_pts], [p[1] for p in fit_pts], floor, "phase_speed_gap")
    gap1 = next(abs(d) for x, _, _, d in table if x == 1.0)
    checks = [
        Check("gap slope 6.0 +/- 0.3 over x in [0.05, 0.5]",
              sf.slope is not None and abs(sf.slope - 6.0) <= 0.3,
              sf.describe()),
        Check("gap at x=1 within 10% of 16/21 - tanh(1)",
              abs(gap1 - GAP_AT_ONE) <= 0.1 * GAP_AT_ONE,
              f"gap(1) = {gap1:.6e}, reference {GAP_AT_ONE:.6e}"),
    ]
    return ExperimentReport(
        "dispersion",
        ["x", "c_model_sq", "c_full_sq", "gap", "used_in_fit"],
        rows,
        slopes=[sf],
        checks=checks,
    )


# ---------------------------------------------------------------------------
# convergence: model trajectory vs the exact-map reference

@dataclass
class _ConvLeg:
    delta: float
    errors: list        # per record: (time, err_eta, err_grad_phi, err_control)
    min_depth: float
    min_a: float
    constraint_max: float   # of the IK model run, which does not reproject
    aborted: str | None


def _convergence_leg(cfg: ExperimentConfig, delta: float) -> _ConvLeg:
    grid = PeriodicGrid(cfg.n_points)
    eta0 = _cos_profile(grid, cfg.amplitude, cfg.k0)
    phi0 = _sin_profile(grid, cfg.phi_amplitude, cfg.k0)
    sim = SimConfig(t_end=cfg.t_end, dt=cfg.dt, cg_tol=cfg.cg_tol,
                    record_every=cfg.record_every)

    # the leg stops at its first aborted run, in the order reference, model, control
    results = []
    for backend in (DtnBackend.parse(cfg.dtn), None, DtnBackend.series()):
        res = _stepped(backend, eta0, phi0, delta, sim)
        if res.diagnostics.aborted is not None:
            return _ConvLeg(delta, [], np.nan, np.nan, np.nan, res.diagnostics.aborted)
        results.append(res)
    reference, model, control = results
    errors = []
    for (tw, sw), (_, si), (_, sc) in zip(reference.trajectory, model.trajectory,
                                          control.trajectory):
        errors.append((tw, l2_norm(RealField(grid, sw.eta.values - si.eta.values)),
                       l2_norm(RealField(grid, dx(grid, sw.phi.values)
                                         - dx(grid, surface_potential(si)))),
                       l2_norm(RealField(grid, sw.eta.values - sc.eta.values))))
    diag = model.diagnostics
    return _ConvLeg(delta, errors, min(diag.min_depth), min(diag.min_a),
                    max(diag.constraint_max), None)


def _delta6_bands(legs: list, column: int) -> list:
    """[(t, band)] over the record times t > 0, shared by the legs through
    their dt and record_every: band is max/min over the legs of
    e(t) / delta^6, e the column-th entry of a leg's error record (an
    aborted leg records none).  Errors within 10x NOISE_FLOOR are left out,
    as fit_loglog leaves them out, and a time with fewer than two legs left
    is skipped."""
    cells = {}
    for leg in legs:
        for rec in leg.errors:
            if rec[0] > 0.0 and rec[column] > 10.0 * NOISE_FLOOR:
                cells.setdefault(rec[0], []).append(rec[column] / leg.delta**6)
    return [(t, max(v) / min(v)) for t, v in sorted(cells.items()) if len(v) >= 2]


def _band_check(legs: list) -> Check:
    """The delta^6 claim uniformly in time: the normalized surface and
    velocity errors of all legs within a factor 3 at every record time, the
    band consistency puts on its residuals.  No usable record time fails."""
    passed, details = True, []
    for name, column in (("surface", 1), ("velocity", 2)):
        bands = _delta6_bands(legs, column)
        if not bands:
            passed = False
            details.append(f"{name}: no record time with two legs above 10x noise floor")
            continue
        t_worst, worst = max(bands, key=lambda b: b[1])
        passed = passed and worst <= 3.0
        details.append(f"{name} worst {worst:.3f} at t={t_worst:g}, "
                       f"{bands[-1][1]:.3f} at t={bands[-1][0]:g}")
    return Check("delta^6-normalized error band <= 3", passed, "; ".join(details))


def run_convergence(cfg: ExperimentConfig) -> ExperimentReport:
    legs = [_convergence_leg(cfg, d) for d in cfg.delta]
    rows, deltas, peaks, any_abort = [], [], [], []
    for leg in legs:
        if leg.aborted is not None:
            any_abort.append(f"delta={leg.delta}: {leg.aborted}")
            rows.append([leg.delta, np.nan, np.nan, np.nan, np.nan,
                         cfg.n_points, cfg.dt, cfg.dtn])
            continue
        rows.extend([leg.delta, *e, cfg.n_points, cfg.dt, cfg.dtn] for e in leg.errors)
        deltas.append(leg.delta)
        peaks.append(np.max(leg.errors, axis=0)[1:])
    max_eta, max_du, max_ctrl = np.reshape(peaks, (-1, 3)).T

    sf_eta = fit_loglog(deltas, max_eta, NOISE_FLOOR, "surface_error")
    sf_du = fit_loglog(deltas, max_du, NOISE_FLOOR, "velocity_error")
    sf_ctrl = fit_loglog(deltas, max_ctrl, NOISE_FLOOR, "control_error")

    checks = []
    if cfg.amplitude == 0.0 and cfg.phi_amplitude == 0.0:
        flat = bool(deltas) and all(e <= 1e-11 for e in max_eta)    # needs a completed leg
        checks.append(Check("rest data: errors at rounding, slope not fitted",
                            flat and sf_eta.slope is None,
                            f"max surface error {max(max_eta, default=0.0):.3e}"))
    else:
        checks.append(Check("surface-error slope >= 5.5",
                            sf_eta.slope is not None and sf_eta.slope >= 5.5,
                            sf_eta.describe()))
        checks.append(Check("velocity-error slope >= 5.5",
                            sf_du.slope is not None and sf_du.slope >= 5.5,
                            sf_du.describe()))
        checks.append(Check("degraded-map control slope <= 2.5",
                            sf_ctrl.slope is not None and sf_ctrl.slope <= 2.5,
                            sf_ctrl.describe()))
        checks.append(_band_check(legs))
    checks.append(Check("no aborted sweep leg", not any_abort,
                        "; ".join(any_abort) if any_abort else "all legs completed"))
    fin = [leg for leg in legs if leg.aborted is None]
    checks.append(_sign_check(min((leg.min_depth for leg in fin), default=np.nan),
                              min((leg.min_a for leg in fin), default=np.nan)))
    cmax = max((leg.constraint_max for leg in fin), default=np.nan)
    checks.append(Check("constraint residual <= 1e-8", cmax <= 1e-8, f"max residual {cmax:.2e}"))
    return ExperimentReport(
        "convergence",
        ["delta", "time", "err_eta", "err_grad_phi", "err_control",
         "n_points", "dt", "dtn"],
        rows,
        slopes=[sf_eta, sf_du, sf_ctrl],
        checks=checks,
    )


# ---------------------------------------------------------------------------
# consistency: delta^-6-normalized residual sweep

def run_consistency(cfg: ExperimentConfig) -> ExperimentReport:
    grid = PeriodicGrid(cfg.n_points)
    eta_p = _cos_profile(grid, cfg.amplitude, cfg.k0)
    phi_p = _sin_profile(grid, cfg.phi_amplitude, cfg.k0)
    backend = DtnBackend.parse(cfg.dtn)

    reports = [residuals(ik_state_from_surface(eta_p, phi_p, delta, cg_tol=cfg.cg_tol),
                         backend, cg_tol=cfg.cg_tol)
               for delta in cfg.delta]
    rows = [[r.delta, r.r1_norm, r.r2_norm, r.identity_gap, r.r5_max,
             cfg.n_points, cfg.dtn] for r in reports]

    r1s = [r.r1_norm for r in reports]
    r2s = [r.r2_norm for r in reports]
    band1 = max(r1s) / min(r1s)
    band2 = max(r2s) / min(r2s)
    checks = [
        Check("continuity residual in factor-3 band", band1 <= 3.0,
              f"max/min = {band1:.3f}"),
        Check("Bernoulli residual in factor-3 band", band2 <= 3.0,
              f"max/min = {band2:.3f}"),
    ]
    gap_report = next((r for r in reports if abs(r.delta - 0.3) < 1e-12), None)
    if gap_report is not None:
        checks.append(Check("two-path identity gap <= 1e-6 at delta=0.3",
                            gap_report.identity_gap <= 1e-6,
                            f"gap = {gap_report.identity_gap:.3e}"))
    else:
        worst = max(r.identity_gap for r in reports)
        checks.append(Check("two-path identity gap <= 1e-6 (worst leg)",
                            worst <= 1e-6, f"worst gap = {worst:.3e}"))
    return ExperimentReport(
        "consistency",
        ["delta", "r1_norm", "r2_norm", "identity_gap", "r5_max", "n_points", "dtn"],
        rows,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# conservation and scheme order

def _drift(series) -> float:
    """max |x - x[0]| over a record series; NaN, which fails every bound, if
    the run recorded nothing."""
    arr = np.asarray(series, dtype=float)
    return float(np.abs(arr - arr[0]).max()) if arr.size else np.nan


def _rel_drift(series) -> float:
    """|x[-1] - x[0]| / |x[0]| over a record series; NaN if it is empty."""
    return abs(series[-1] - series[0]) / abs(series[0]) if series else np.nan


def _halving_check(dt: float, coarse: float, fine: float) -> Check:
    """Energy drifts at dt and dt/2 shrink 16-fold under RK4; a fine drift
    of zero (at rounding) or a NaN drift (no record) fails."""
    ratio = coarse / fine if fine else np.nan
    return Check("energy-drift halving ratio 16 +/- 4", 12.0 <= ratio <= 20.0,
                 f"drift({dt:g}) = {coarse:.3e}, drift({dt/2:g}) = {fine:.3e} "
                 f"({fine / np.finfo(float).eps:.0f} eps), ratio {ratio:.2f}")


def run_conservation(cfg: ExperimentConfig) -> ExperimentReport:
    rows, checks, aborted = [], [], []

    def leg(tag, grid, amplitude, k0, delta, sim, backend=None) -> Diagnostics:
        # a cosine surface under a zero potential; its records become rows tagged tag
        zero = RealField(grid, np.zeros(grid.n_points))
        diag = _stepped(backend, _cos_profile(grid, amplitude, k0), zero, delta, sim).diagnostics
        rows.extend([tag, *r] for r in _diag_rows(diag, grid.n_points, sim.dt))
        if diag.aborted is not None:
            aborted.append(f"{tag} dt={sim.dt:g}: {diag.aborted}")
        return diag

    # the rest and reference legs run on half the grid at half the step to
    # the configured t_end: (128, 1e-3, 1.0) at the defaults
    grid0, dt0 = PeriodicGrid(cfg.n_points // 2), cfg.dt / 2.0

    # rest state: everything flat to rounding
    rest = leg("rest", grid0, 0.0, 1, 0.2,
               SimConfig(t_end=cfg.t_end, dt=dt0, record_every=200, cg_tol=cfg.cg_tol))
    rest_c = max(rest.constraint_max, default=np.nan)
    checks.append(Check("rest state: mass/energy/constraint drift <= 1e-12",
                        _drift(rest.mass) <= 1e-12 and _drift(rest.energy) <= 1e-12
                        and rest_c <= 1e-12,
                        f"mass {_drift(rest.mass):.2e}, energy {_drift(rest.energy):.2e}, "
                        f"constraint {rest_c:.2e}"))

    # step-halving order on the configured drift run; neither leg reprojects, so the
    # mass, constraint and sign checks read the transport (a leg with no record fails)
    grid = PeriodicGrid(cfg.n_points)
    order = [leg("order", grid, cfg.amplitude, cfg.k0, cfg.delta[0],
                 SimConfig(t_end=cfg.t_end, dt=dt, record_every=cfg.record_every,
                           cg_tol=cfg.cg_tol))
             for dt in (cfg.dt, cfg.dt / 2.0)]
    checks.append(_halving_check(cfg.dt, *(_rel_drift(d.energy) for d in order)))
    mass_worst = float(np.max([_drift(d.mass) for d in order]))
    checks.append(Check("mass drift <= 1e-11 on both order legs", mass_worst <= 1e-11,
                        f"worst {mass_worst:.2e}"))
    cmax = float(np.max([max(d.constraint_max, default=np.nan) for d in order]))
    checks.append(Check("constraint residual <= 1e-8, transported without reprojection",
                        cmax <= 1e-8, f"max residual {cmax:.2e}"))
    checks.append(_sign_check(float(np.min([min(d.min_depth, default=np.nan) for d in order])),
                              float(np.min([min(d.min_a, default=np.nan) for d in order]))))

    # reference solver: mass and Hamiltonian drift (waterwave.hamiltonian)
    ww = leg("reference", grid0, 0.05, 1, 0.2,
             SimConfig(t_end=cfg.t_end, dt=dt0, record_every=200), DtnBackend.parse(cfg.dtn))
    e = _rel_drift(ww.energy)
    checks.append(Check("reference run: mass <= 1e-11, Hamiltonian drift <= 1e-6",
                        _drift(ww.mass) <= 1e-11 and e <= 1e-6,
                        f"mass {_drift(ww.mass):.2e}, energy {e:.2e}"))
    checks.append(Check("no aborted leg", not aborted,
                        "; ".join(aborted) if aborted else "all legs completed"))

    return ExperimentReport(
        "conservation",
        ["leg", *DIAG_COLUMNS, "n_points", "dt"],
        rows,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# randomized elliptic solver suite

def _random_band_limited(rng, grid, modes=5, amplitude=1.0) -> RealField:
    """Random trig polynomial, normalized to the requested max amplitude."""
    v = np.zeros(grid.n_points)
    x = grid.nodes
    for k in range(1, modes + 1):
        v += rng.standard_normal() * np.cos(k * x) + rng.standard_normal() * np.sin(k * x)
    m = np.abs(v).max()
    if m > 0:
        v *= amplitude / m
    return RealField(grid, v)


def _random_depth(rng, grid) -> DepthCoefs:
    """A random depth 1 + eta, min depth drawn from U(0.5, 0.9) first."""
    target = rng.uniform(0.5, 0.9)
    return DepthCoefs.from_eta(_random_band_limited(rng, grid, 4, 1.0 - target))


def _random_pair_solve(rng, grid, delta, cg_tol):
    """Draw a random depth and data (f1, f2, f3), in that order, and solve
    the elliptic pair on them; returns (depth, data, pair)."""
    dc = _random_depth(rng, grid)
    data = tuple(_random_band_limited(rng, grid, 5, 1.0) for _ in range(3))
    pair = solve_elliptic_pair(delta, dc, *(f.values for f in data), cg_tol=cg_tol)
    return dc, data, tuple(RealField(grid, v) for v in pair)


def _grad_norm(f: RealField) -> float:
    return l2_norm(RealField(f.grid, dx(f.grid, f.values)))


def run_elliptic_suite(cfg: ExperimentConfig) -> ExperimentReport:
    rng = np.random.default_rng(cfg.seed)
    grid = PeriodicGrid(cfg.n_points)
    deltas = cfg.delta
    trials = 100
    rows = []

    # coercivity of the reduced operator with depth bounded below by 0.5
    for trial in range(trials):
        delta = float(rng.choice(deltas))
        dc = _random_depth(rng, grid)
        psi = _random_band_limited(rng, grid, 6, 1.0)
        quad = grid.spacing * float(np.dot(op_l1(delta, dc, psi).values, psi.values))
        lower = l2_norm(psi) ** 2 + delta**2 * _grad_norm(psi) ** 2
        rows.append(["coercivity", trial, delta, quad / lower, ""])

    # flat-depth single-mode closed form
    x = grid.nodes
    zero = RealField(grid, np.zeros(grid.n_points))
    for delta in deltas:
        for k in (1, 2, 3):
            phi = RealField(grid, np.cos(k * x))
            p0, p1 = solve_initial_data(zero, phi, delta, cg_tol=cfg.cg_tol)
            denom = 1.0 + 0.4 * delta**2 * k**2
            amp1 = (k**2 / 2.0) / denom
            amp0 = (1.0 - delta**2 * k**2 / 10.0) / denom
            err = max(np.abs(p1.values - amp1 * np.cos(k * x)).max(),
                      np.abs(p0.values - amp0 * np.cos(k * x)).max())
            rows.append(["closed_form", k, delta, err, ""])

    # back-substitution residual on random coefficients and data
    for trial in range(20):
        delta = float(rng.choice(deltas))
        dc, (f1, f2, f3), (psi0, psi1) = _random_pair_solve(rng, grid, delta, cfg.cg_tol)
        d2 = delta**2
        eq1 = np.abs(psi0.values + d2 * dc.H2 * psi1.values - f1.values).max()
        eq2 = np.abs(
            dc.H2 * (op_l11(dc, psi0).values + d2 * op_l12(dc, psi1).values)
            - op_l12(dc, psi0).values - op_l22(delta, dc, psi1).values
            - f2.values - dx(grid, f3.values)
        ).max()
        rows.append(["back_substitution", trial, delta, max(eq1, eq2), ""])

    # delta-uniformity of the a-priori estimate constant
    for delta in deltas:
        for trial in range(10):
            _, (f1, f2, f3), (psi0, psi1) = _random_pair_solve(rng, grid, delta, cfg.cg_tol)
            lhs = (_grad_norm(psi0) ** 2
                   + delta**2 * l2_norm(psi1) ** 2
                   + delta**4 * _grad_norm(psi1) ** 2)
            rhs = (_grad_norm(f1) ** 2 + l2_norm(f3) ** 2
                   + delta**2 * l2_norm(f2) ** 2)
            rows.append(["estimate_ratio", trial, delta, lhs / rhs, ""])

    # every check reads the value column of its own rows
    def values(kind, delta=None):
        return [r[3] for r in rows if r[0] == kind and (delta is None or r[2] == delta)]

    ratios = values("coercivity")
    positives = sum(r > 0.0 for r in ratios)
    worst_closed, worst_res = max(values("closed_form")), max(values("back_substitution"))
    cs = [max(values("estimate_ratio", d)) for d in deltas]
    spread = float(np.log10(max(cs)) - np.log10(min(cs)))
    checks = [
        Check(f"coercivity positive in {trials}/{trials} trials", positives == trials,
              f"positives {positives}, min ratio {min(ratios):.4f}"),
        Check("flat-depth closed form matched to 1e-10",
              worst_closed <= 1e-10, f"worst error {worst_closed:.2e}"),
        Check("back-substitution residual <= 1e-8",
              worst_res <= 1e-8, f"worst residual {worst_res:.2e}"),
        Check("estimate constant uniform in delta (spread <= 1 decade)",
              spread <= 1.0, f"log10 spread {spread:.3f}"),
    ]
    return ExperimentReport(
        "elliptic-suite",
        ["kind", "trial", "delta", "value", "note"],
        rows,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# plain simulation with snapshot export

def run_simulate(cfg: ExperimentConfig) -> ExperimentReport:
    grid = PeriodicGrid(cfg.n_points)
    sim = SimConfig(t_end=cfg.t_end, dt=cfg.dt, reproject_every=REPROJECT_EVERY,
                    cg_tol=cfg.cg_tol, record_every=cfg.record_every)
    eta0 = _cos_profile(grid, cfg.amplitude, cfg.k0)
    phi = _sin_profile(grid, cfg.phi_amplitude, cfg.k0)
    backend = None if cfg.model == "ik" else DtnBackend.parse(cfg.dtn)
    res = _stepped(backend, eta0, phi, cfg.delta[0], sim)
    diag = res.diagnostics
    snapshots = [[t, x, *v] for t, s in res.trajectory for x, v in zip(grid.nodes, s.rows().T)]
    snap_cols = ["time", "x", *res.final.FIELDS]

    rows = _diag_rows(diag, cfg.n_points, cfg.dt)
    min_h, min_a = min(diag.min_depth, default=np.nan), min(diag.min_a, default=np.nan)
    checks = [
        Check("run completed", diag.aborted is None, diag.aborted or "no abort"),
        Check("mass drift <= 1e-11", _drift(diag.mass) <= 1e-11,
              f"drift {_drift(diag.mass):.2e}"),
        _sign_check(min_h, min_a) if cfg.model == "ik" else
        Check("sign condition: min depth >= 0.5 (min a is not computed for model=ww)",
              min_h >= 0.5, f"min depth {min_h:.4f}"),
    ]
    if cfg.model == "ik":
        # a residual above the conservation bound says the data outran the grid
        cmax = max(diag.constraint_max, default=np.nan)
        checks.append(Check("constraint residual <= 1e-8", cmax <= 1e-8,
                            f"max residual {cmax:.2e}"))
    return ExperimentReport(
        "simulate",
        [*DIAG_COLUMNS, "n_points", "dt"],
        rows,
        checks=checks,
        snapshots=(snap_cols, snapshots),
    )


EXPERIMENTS = {
    "dispersion": run_dispersion,
    "convergence": run_convergence,
    "consistency": run_consistency,
    "conservation": run_conservation,
    "elliptic-suite": run_elliptic_suite,
    "simulate": run_simulate,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the named experiment; its report's params are config_items(cfg)."""
    report = EXPERIMENTS[cfg.experiment](cfg)
    report.params = config_items(cfg)
    return report
