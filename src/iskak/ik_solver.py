"""Time integration of the constrained model, and the run loop of both models.

The state (eta, phi0, phi1) is advanced with classical RK4.  Each stage
evaluates dt(eta) from the divergence-form continuity equation and recovers
(dt phi0, dt phi1) from the coupled elliptic system with data
f1 = -F1, f2 = F2, f3 = 0, so the compatibility constraint is transported
rather than enforced; periodic reprojection through the initial-data solve
keeps its discrete drift at the solver-tolerance level.

rk4_fields and run_loop step any operators.ModelState; run() here and
waterwave.ww_run() are thin callers, so both models share one scheme, one
set of guards, one record cadence and one abort path.
The potential (phi0 here, phi on the water-wave side) is defined up to a
constant on a periodic domain; the loop re-centers it to zero mean after
every step.  No verdict depends on that gauge, but it holds the rounding
floor of the conservation checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SOLVER_ERRORS, BlowUpError
from .operators import (
    CG_TOL_DEFAULT,
    IkState,
    coef_a,
    constraint_residual,
    energy,
    solve_elliptic_pair,
    stage_sources,
    surface_potential,
)
from .spectral import integrate

__all__ = [
    "SimConfig",
    "Diagnostics",
    "RunResult",
    "time_derivatives",
    "rk4_fields",
    "rk4_step",
    "reproject",
    "run_loop",
    "run",
]

BLOWUP_GUARD = 1e6
CFL_FACTOR = 0.5


@dataclass
class SimConfig:
    """Run controls, shared by both time steppers."""

    t_end: float
    dt: float
    reproject_every: int = 0          # 0 = never
    cg_tol: float = CG_TOL_DEFAULT
    record_every: int = 20

    def __post_init__(self):
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise ValueError("dt and t_end must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.reproject_every < 0:
            raise ValueError("reproject_every must be >= 0")

    def n_steps(self, spacing: float) -> int:
        """Number of steps to t_end on a grid of this spacing; ValueError if
        dt breaks the CFL guard, does not divide t_end or exceeds it."""
        limit = CFL_FACTOR * spacing
        if self.dt > limit:
            raise ValueError(
                f"dt={self.dt:.3g} violates the CFL guard {limit:.3g} "
                f"(CFL_FACTOR * spacing at unit wave speed)"
            )
        steps = self.t_end / self.dt     # inf when the count overflows
        n = int(round(steps)) if math.isfinite(steps) else 0
        if n < 1 or abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer number of steps, at least one")
        return n


@dataclass
class Diagnostics:
    """Per-record time series of the conserved/monitored quantities."""

    times: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    constraint_max: list = field(default_factory=list)
    min_depth: list = field(default_factory=list)
    min_a: list = field(default_factory=list)
    aborted: str | None = None


@dataclass
class RunResult:
    final: object                     # IkState or waterwave.WwState
    diagnostics: Diagnostics
    trajectory: list                  # [(t, state)] at the record cadence


def time_derivatives(
    s: IkState,
    cg_tol: float = CG_TOL_DEFAULT,
    guess: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eta_t, phi0_t, phi1_t) in IkState.FIELDS order: continuity for eta, the
    elliptic solve for the pair, so phi0_t + d^2 H^2 phi1_t = -F1 holds by
    construction; guess, an estimate of phi1_t, starts the solve."""
    dc = s.depth()
    eta_t, f1, f2 = stage_sources(s, dc)
    return (eta_t, *solve_elliptic_pair(s.delta, dc, -f1, f2, cg_tol=cg_tol, psi1_guess=guess))


def _extrapolate(past):
    """(E1, E), a step's k1 guess and its offsets E = (E2, E3, E4) (rk4_fields),
    from the past entries, newest first; E1 is None with no past step or a
    None solver entry, and E is 0 with no past step."""
    if not past or any(d is None for *_, d in past):
        return None, (0.0, 0.0, 0.0)
    (p1, p4, _), *older = past
    e = sum(float((-1) ** j * math.comb(len(past), j + 1)) * d for j, (*_, d) in enumerate(past))
    return (p4 + (p1 - older[0][1]) if older else p4), e


def _stage_guess(i, ks, e):
    """Stage i's guess (0-based) from this step's stage results ks and the
    step's (E1, E) (_extrapolate): k1 <- E1, ki <- k(i-1) + Ei."""
    if i == 0:
        return e[0]
    prev = ks[i - 1][-1]
    return None if prev is None else prev + e[1][i - 1]


def rk4_fields(s, dt, rhs, warm):
    """One classical RK4 step over the fields a state names in s.FIELDS.

    rhs(state, guess) returns a stage result: a plain tuple of the fields'
    time derivatives, in order, as arrays, possibly followed by more entries.
    Its last entry is what the stage's solver computes (phi1_t on the IK
    side, the strip entry on the water-wave side); guess, an array or None,
    estimates it.  warm is None on a run's first step and otherwise the
    entries of up to s.GUESS_STEPS past steps, newest first (P, Q, R): P1
    and P4 of a step's solver entries P1..P4 and their differences
    dPi = Pi - P(i-1).  From its n past steps a step forms (_extrapolate)

        E1 = P4 + (P1 - Q4),    Ei = 2 dPi - dQi    for i = 2, 3, 4,

    at n = 2, Ei with the binomial weights of polynomial extrapolation in t
    over n steps (3 dPi - 3 dQi + dRi at n = 3, dPi at n = 1, 0 at n = 0),
    E1 = P4 at n = 1 and none at n = 0, and guesses k1 <- E1, ki <- k(i-1)
    + Ei.  P4 lands within O(dt^3) of k1 by an offset smooth in t, which
    P1 - Q4 carries over; more steps raise the order of Ei but amplify the
    entries' noise, so the IK side, whose PCG entries carry tolerance-level
    noise, uses two (IkState.GUESS_STEPS) and the water-wave side, whose
    entries are polished below it, four (WwState.GUESS_STEPS).  A None
    solver entry (the series backend) gives no guess.  Guesses change
    iteration counts only.

    Stage states and the result are s.with_rows of new arrays, so each is
    checked once and none is copied.  Returns the new state and the next
    step's warm start: this step's entry, then the newest GUESS_STEPS - 1
    past ones.  The max-norm blow-up guard is run_loop's.
    """
    m, past, y = len(s.FIELDS), warm or (), s.rows()
    e = _extrapolate(past)
    ks = [rhs(s, _stage_guess(0, [], e))]
    for i, h in ((1, 0.5 * dt), (2, 0.5 * dt), (3, dt)):
        ks.append(rhs(s.with_rows(y + h * np.array(ks[-1][:m])), _stage_guess(i, ks, e)))
    k1, k2, k3, k4 = (np.array(k[:m]) for k in ks)
    x = tuple(k[-1] for k in ks)
    d = None if any(v is None for v in x) else np.diff(x, axis=0)
    return (s.with_rows(y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)),
            ((x[0], x[3], d),) + past[:s.GUESS_STEPS - 1])


def _rk4_stages(s, dt, cg_tol, warm):
    return rk4_fields(s, dt, lambda st, g: time_derivatives(st, cg_tol, g), warm)


def rk4_step(s: IkState, dt: float, cg_tol: float = CG_TOL_DEFAULT) -> IkState:
    """One classical 4-stage explicit step, without run_loop's CFL and
    blow-up guards, so dt may be negative (the reversibility oracle)."""
    out, _ = _rk4_stages(s, dt, cg_tol, warm=None)
    return out


def reproject(s: IkState, cg_tol: float = CG_TOL_DEFAULT) -> IkState:
    """Restore the constraint: re-split the surface potential phi0 + d^2 H^2
    phi1 (surface_potential) through the initial-data solve, leaving eta and
    the reconstructed potential unchanged.
    The solve starts from the state's own phi1 at the same tolerance cg_tol,
    so a state that still meets the constraint costs one L1 application."""
    pair = solve_elliptic_pair(s.delta, s.depth(), surface_potential(s), cg_tol=cg_tol,
                               psi1_guess=s.rows()[2])
    return s.with_rows(np.array((s.rows()[0], *pair)))


def _record(s: IkState, cg_tol: float, guess: np.ndarray | None = None) -> tuple:
    """Energy, constraint_max and min_a; guess starts the elliptic solve."""
    *_, phi1_t = time_derivatives(s, cg_tol, guess)
    return energy(s), float(np.abs(constraint_residual(s)).max()), float(coef_a(s, phi1_t).min())


def _recenter(s) -> None:
    v = s.rows()[1]    # the potential
    v -= v.mean()


def run_loop(initial, cfg: SimConfig, step, record, project=None) -> RunResult:
    """Step a copy of initial's rows to cfg.t_end: the one run loop of both
    models and the one owner of their records, trajectory and blow-up guard.

    step(state, warm) advances one cfg.dt and returns the new state and the
    next step's warm start; warm is None on the first step and is passed on
    unchanged across re-centering, records and projections, as it only
    starts the solvers.  record(state, guess), at t = 0, every
    cfg.record_every steps and at the end, returns the energy and then the
    model's own series in Diagnostics order; guess is the next step's k1
    guess (rk4_fields), None at t = 0.  Only then are they, the time, mass
    and min depth appended, so a failed record leaves no partial row and a
    series the model does not return stays empty; each recorded (t, state)
    joins the trajectory.  project(state), if given, runs every
    cfg.reproject_every steps.  A new state above BLOWUP_GUARD in max norm
    raises BlowUpError before it replaces the current one; the potential,
    row 1, is re-centered in place to zero mean at the start and after
    every step, the one write into a state's rows (ModelState).  A solver
    failure (errors.SOLVER_ERRORS), the t = 0 record's included, aborts the
    run cleanly: diagnostics.aborted holds the message, final is the last
    completed step, and the records up to it are kept.
    """
    n_steps = cfg.n_steps(initial.grid.spacing)
    diag, traj = Diagnostics(), []

    def keep(t, state, past=()):
        own = record(state, _extrapolate(past)[0])
        diag.times.append(t)
        diag.mass.append(integrate(state.eta))
        diag.min_depth.append(float(1.0 + state.eta.values.min()))
        for name, value in zip(("energy", "constraint_max", "min_a"), own):
            getattr(diag, name).append(value)
        traj.append((t, state))

    s = initial.with_rows(initial.rows().copy())
    _recenter(s)
    warm = None
    try:
        keep(0.0, s)
        for i in range(1, n_steps + 1):
            new, warm = step(s, warm)
            m = float(np.abs(new.rows()).max())
            if m > BLOWUP_GUARD:
                raise BlowUpError(i * cfg.dt, m, BLOWUP_GUARD)
            s = new
            _recenter(s)
            if project is not None and cfg.reproject_every and i % cfg.reproject_every == 0:
                s = project(s)
            if i % cfg.record_every == 0 or i == n_steps:
                keep(i * cfg.dt, s, warm)
    except SOLVER_ERRORS as exc:
        diag.aborted = str(exc)
    return RunResult(s, diag, traj)


def run(initial: IkState, cfg: SimConfig) -> RunResult:
    """Step the model to t_end with run_loop, recording mass, energy, the
    constraint residual and both sign conditions."""
    return run_loop(
        initial, cfg,
        step=lambda s, warm: _rk4_stages(s, cfg.dt, cfg.cg_tol, warm),
        record=lambda s, g: _record(s, cfg.cg_tol, g),
        project=lambda s: reproject(s, cfg.cg_tol),
    )
