"""Coefficient fields, second-order operators and energies of the two-coefficient
wave model, the state contract of both models (ModelState), and the
elliptic solve that pins down the potential pair.

The depth-weighted operators

    L11 psi = -div(H grad psi)
    L12 psi = -div((1/3) H^3 grad psi)
    L22 psi = -d^2 div((1/5) H^5 grad psi) + (4/3) H^3 psi

are discretely self-adjoint (spectral derivative + diagonal coefficient
products), so the reduced operator

    L1 psi = d^2 (H^2 L11 - L12)(H^2 psi) + (L22 - d^2 H^2 L12) psi

is symmetric positive definite.  By linearity its four fluxes fold into two,

    L1 v = d^2 [H^2 dx(-H g' + (1/3) H^3 v') + dx((1/3) H^3 g' - (1/5) H^5 v')]
           + (4/3) H^3 v,    g = H^2 v,  ' = dx,

which _l1_v applies over the coefficient stack DepthCoefs builds once per
depth.  The coupled system

    psi0 + d^2 H^2 psi1 = f1
    H^2 (L11 psi0 + d^2 L12 psi1) = L12 psi0 + L22 psi1 + f2 + div f3

is solved by eliminating psi0 and running conjugate gradients on L1,
preconditioned by z = S P (S r): the flat-state symbol
P = 1 / ((8/15) d^2 k^2 + 4/3) between depth scalings S = H^(-3/2), which
turn the (4/3) H^3 term of L1 into the 4/3 of the flat symbol.  It stays
symmetric positive definite; only PCG reads it, so it needs no
row-exactness.  A breakdown (p.Ap <= 0, or a step that is not finite)
raises NonConvergenceError; a non-finite |b| or |r0|, FloatingPointError.

stage_sources evaluates the continuity flux and the sources F1, F2 of a time
step from shared transforms, with the symbols of spectral.kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DepthTooSmallError, NonConvergenceError
from .spectral import Multiplier, PeriodicGrid, RealField, dealias, dx, kernels, lap

__all__ = [
    "H_MIN_DEFAULT",
    "CG_TOL_DEFAULT",
    "CG_MAX_ITER",
    "DepthCoefs",
    "ModelState",
    "IkState",
    "op_l11",
    "op_l12",
    "op_l22",
    "op_l1",
    "stage_sources",
    "constraint_residual",
    "surface_potential",
    "coef_a",
    "energy",
    "solve_elliptic_pair",
    "solve_initial_data",
    "ik_state_from_surface",
]

H_MIN_DEFAULT = 0.1
CG_TOL_DEFAULT = 1e-12
CG_MAX_ITER = 500


# ---------------------------------------------------------------------------
# coefficient fields and state types

@dataclass(frozen=True)
class DepthCoefs:
    """Total depth H = 1 + eta, the powers the operators consume, and the
    delta-free coefficients of the fused L1 and of the preconditioner."""

    grid: PeriodicGrid
    H: np.ndarray = field(repr=False)
    H2: np.ndarray = field(repr=False)
    H3: np.ndarray = field(repr=False)
    H4: np.ndarray = field(repr=False)
    H5: np.ndarray = field(repr=False)
    grad_eta: np.ndarray = field(repr=False)
    l1_flux: np.ndarray = field(repr=False)     # (2, 2, N): [[-H, H^3/3], [H^3/3, -H^5/5]]
    pc_scale: np.ndarray = field(repr=False)    # S = H^(-3/2)

    @classmethod
    def from_eta(cls, eta: RealField) -> "DepthCoefs":
        h = 1.0 + eta.values
        hmin = float(h.min())
        if hmin < H_MIN_DEFAULT:
            raise DepthTooSmallError(hmin, H_MIN_DEFAULT)
        h2 = h * h
        h3 = h2 * h
        h4 = h2 * h2
        h5 = h4 * h
        c = h3 / 3.0
        return cls(eta.grid, h, h2, h3, h4, h5, kernels(eta.grid).dx.whole(eta.values),
                   l1_flux=np.array(((-h, c), (c, -h5 / 5.0))),
                   pc_scale=1.0 / (h * np.sqrt(h)))


class ModelState:
    """Either model's phase point: one (m, N) float array whose rows are the
    fields named in FIELDS, eta first and the potential second, and delta.

    The constructor takes the FIELDS' RealFields in order, then delta, and
    stacks them into the state's own array; with_rows holds its array without
    a copy.  Each name in FIELDS is a RealField view of its row.  Both run the
    one check: delta range, one grid, one finite test, depth floor from eta.
    """

    FIELDS = ()

    def __init__(self, *args):
        if len(args) != len(self.FIELDS) + 1:
            raise TypeError(f"{type(self).__name__} takes {len(self.FIELDS)} fields and delta")
        *fields, delta = args
        if any(f.grid != fields[0].grid for f in fields):
            raise ValueError("state fields live on different grids")
        self._hold(fields[0].grid, np.array([f.values for f in fields]), delta)

    def _hold(self, grid: PeriodicGrid, rows: np.ndarray, delta: float) -> None:
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {delta}")
        if rows.shape != (len(self.FIELDS), grid.n_points):
            raise ValueError(f"rows of shape {rows.shape} on a grid of {grid.n_points} points")
        if not np.isfinite(rows).all():
            raise FloatingPointError("field contains NaN/Inf")
        h_min = float(1.0 + rows[0].min())
        if h_min < H_MIN_DEFAULT:
            raise DepthTooSmallError(h_min, H_MIN_DEFAULT)
        self.grid, self.delta, self._rows = grid, delta, rows
        for name, row in zip(self.FIELDS, rows):
            setattr(self, name, RealField(grid, row))

    def rows(self) -> np.ndarray:
        """The held (m, N) array itself, not a copy."""
        return self._rows

    def with_rows(self, rows: np.ndarray) -> "ModelState":
        """A checked state of this class, grid and delta that holds rows."""
        s = object.__new__(type(self))
        s._hold(self.grid, rows, self.delta)
        return s


class IkState(ModelState):
    """Phase point (eta, phi0, phi1) of the model at shallowness delta.

    Construction checks what ModelState checks, not the compatibility
    constraint: states from the initial-data solve or from reprojection
    satisfy it, mid-step states may violate it at the discretization level.
    """

    FIELDS = ("eta", "phi0", "phi1")   # evolved, in time_derivatives order; the potential second
    GUESS_STEPS = 2                     # past steps the stage guesses use (rk4_fields)

    def depth(self) -> DepthCoefs:
        return DepthCoefs.from_eta(self.eta)


# ---------------------------------------------------------------------------
# the L operators

def _l1_v(grid: PeriodicGrid, delta: float, dc: DepthCoefs, v: np.ndarray) -> np.ndarray:
    # the fused form of the module docstring: two fluxes, two 2-row
    # whole-stack dx products (no caller needs row-exactness here)
    d = kernels(grid).dx
    dg, dv = d.whole(np.array((dc.H2 * v, v)))
    c = dc.l1_flux
    f = d.whole(c[:, 0] * dg + c[:, 1] * dv)
    return (delta * delta) * (dc.H2 * f[0] + f[1]) + (4.0 / 3.0) * dc.H3 * v


def op_l11(coefs: DepthCoefs, psi: RealField) -> RealField:
    grid = psi.grid
    return RealField(grid, -dx(grid, coefs.H * dx(grid, psi.values)))


def op_l12(coefs: DepthCoefs, psi: RealField) -> RealField:
    grid = psi.grid
    return RealField(grid, -dx(grid, coefs.H3 * dx(grid, psi.values)) / 3.0)


def op_l22(delta: float, coefs: DepthCoefs, psi: RealField) -> RealField:
    grid, v = psi.grid, psi.values
    return RealField(grid, -(delta * delta) * dx(grid, coefs.H5 * dx(grid, v)) / 5.0
                     + (4.0 / 3.0) * coefs.H3 * v)


def op_l1(delta: float, coefs: DepthCoefs, psi: RealField) -> RealField:
    return RealField(psi.grid, _l1_v(psi.grid, delta, coefs, psi.values))


# ---------------------------------------------------------------------------
# pointwise fields of the model

def constraint_residual(s: IkState) -> np.ndarray:
    """(2/3) lap phi0 + (2/15) d^2 H^2 lap phi1 + (4/3) phi1."""
    eta, _, p1 = s.rows()
    h = 1.0 + eta    # not s.depth(): a record builds that once (ik_solver._record)
    l0, l1 = lap(s.grid, s.rows()[1:])
    return (2.0 / 3.0) * l0 + (2.0 / 15.0) * s.delta**2 * (h * h) * l1 + (4.0 / 3.0) * p1


def surface_potential(s: IkState) -> np.ndarray:
    """Trace of the velocity potential at the surface: phi0 + d^2 H^2 phi1."""
    eta, p0, p1 = s.rows()
    h = 1.0 + eta
    return p0 + s.delta**2 * (h * h) * p1


def stage_sources(s: IkState, dc: DepthCoefs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dt eta, F1, F2) of state s over its depth dc, from shared transforms.

    dt eta = -div(H grad phi0 + (1/3) d^2 H^3 grad phi1) is the continuity
    equation,
    F1 = eta + (1/2) u0^2 + d^2 H^2 u0 u1 + (1/2) d^4 H^4 u1^2 + 2 d^2 H^2 phi1^2
    and F2 = (4/15) d^2 H^4 (dt eta) lap phi1, with u = grad phi.  Every
    product is a pairwise 2/3-rule product (truncate the factors, multiply,
    truncate), as spectral.dp forms it.  One transform of (phi0, phi1, H..H^4)
    gives all truncated factors; the flux is truncated and differentiated in
    the same inverse transform as the quadratic terms of F1.
    """
    grid, d2 = s.grid, s.delta * s.delta
    n = grid.n_points
    ik, minus_k2, keep = (m.symbol for m in kernels(grid))    # dx, lap, dealias
    rows = (s.phi0.values, s.phi1.values, dc.H, dc.H2, dc.H3, dc.H4)
    f = np.fft.rfft(np.array(rows), axis=-1)
    f *= keep
    u0, u1, p1, h, h2, h3, h4, lap1 = np.fft.irfft(
        np.concatenate((ik * f[:2], f[1:], minus_k2 * f[1:2])), n=n, axis=-1)
    g = np.fft.rfft(np.array((h * u0 + (d2 / 3.0) * (h3 * u1),
                              u0 * u0, u0 * u1, u1 * u1, p1 * p1)), axis=-1)
    g *= keep
    g[0] *= -ik
    div, q00, q01, q11, qpp = np.fft.irfft(g, n=n, axis=-1)    # div: truncated dt eta
    trunc = kernels(grid).dealias.whole
    c01, c11, cpp, m = trunc(np.array((h2 * q01, h4 * q11, h2 * qpp, div * lap1)))
    f1 = s.eta.values + 0.5 * q00 + d2 * c01 + 0.5 * d2 * d2 * c11 + 2.0 * d2 * cpp
    f2 = (4.0 / 15.0) * d2 * trunc(h4 * m)
    return div, f1, f2


def coef_a(s: IkState, phi1_t: np.ndarray) -> np.ndarray:
    """Sign-condition coefficient; the model analogue of the Rayleigh-Taylor check.

    a = 1 + 2 d^2 H phi1_t + 2 d^2 H u0 u1 + 2 d^4 H^3 u1^2 + 4 d^2 H phi1^2,
    u = grad phi, each product the pairwise 2/3-rule product spectral.dp
    forms, stage by stage over stacked rows.  Multipliers are row-exact, so
    this equals the dp chains bit for bit.
    """
    grid, d2 = s.grid, s.delta**2
    eta, _, phi1 = s.rows()
    depth = 1.0 + eta    # not s.depth(): a record builds that once (ik_solver._record)
    u0, u1 = dx(grid, s.rows()[1:])
    h, pt, v0, v1, p1, h3 = dealias(grid, np.array((depth, phi1_t, u0, u1, phi1,
                                                    depth * depth * depth)))
    q = dealias(grid, dealias(grid, np.array((v0 * v1, v1 * v1, p1 * p1))))
    o = dealias(grid, np.array((h * pt, h * q[0], h3 * q[1], h * q[2])))
    return 1.0 + 2.0 * d2 * o[0] + 2.0 * d2 * o[1] + 2.0 * d2 * d2 * o[2] + 4.0 * d2 * o[3]


# ---------------------------------------------------------------------------
# energy

def energy(s: IkState) -> float:
    """Physical energy: (1/2)||eta||^2 plus half the kinetic quadratic form,
    the vertical integral of the squared scaled gradient of the potential ansatz."""
    eta, _, p1 = s.rows()
    h = 1.0 + eta    # not s.depth(): a record builds that once (ik_solver._record)
    h2 = h * h
    d2 = s.delta * s.delta
    u0, u1 = dx(s.grid, s.rows()[1:])
    kinetic = (
        h * u0 * u0
        + (2.0 / 3.0) * d2 * (h2 * h) * u0 * u1
        + (1.0 / 5.0) * d2 * d2 * (h2 * h2 * h) * u1 * u1
        + (4.0 / 3.0) * d2 * (h2 * h) * p1 * p1
    )
    dens = eta**2 + kinetic
    return 0.5 * float(s.grid.spacing * dens.sum())


# ---------------------------------------------------------------------------
# elliptic solver

@lru_cache(maxsize=32)
def _flat_precond(grid: PeriodicGrid, delta: float) -> Multiplier:
    k = grid.wavenumbers_half
    return Multiplier(grid, 1.0 / ((8.0 / 15.0) * delta * delta * k * k + 4.0 / 3.0))


def _pcg(apply_op, precond, b, tol, x0=None):
    """Preconditioned CG for apply_op x = b, to |r| <= tol |b|."""
    bnorm = math.sqrt(float(np.dot(b, b)))
    if not math.isfinite(bnorm):
        raise FloatingPointError(f"elliptic pair solve: non-finite norm (|b| = {bnorm})")
    if bnorm == 0.0:
        return np.zeros_like(b)
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = x0.copy()
        r = b - apply_op(x)
    res = math.sqrt(float(np.dot(r, r)))
    if not math.isfinite(res):
        raise FloatingPointError(f"elliptic pair solve: non-finite norm (|r0| = {res})")
    if res <= tol * bnorm:
        return x
    z = precond(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    for it in range(CG_MAX_ITER):
        ap = apply_op(p)
        pap = float(np.dot(p, ap))
        alpha = rz / pap if pap > 0.0 else math.nan
        if not math.isfinite(alpha):
            raise NonConvergenceError(f"elliptic pair solve: breakdown (p.Ap = {pap:.3e})",
                                      it, res / bnorm, tol)
        x += alpha * p
        r -= alpha * ap
        res = math.sqrt(float(np.dot(r, r)))
        if res <= tol * bnorm:
            return x
        z = precond(r)
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError("elliptic pair solve", CG_MAX_ITER, res / bnorm, tol)


def solve_elliptic_pair(
    delta: float,
    coefs: DepthCoefs,
    f1: np.ndarray,
    f2: np.ndarray | float = 0.0,
    f3: np.ndarray | float = 0.0,
    cg_tol: float = CG_TOL_DEFAULT,
    psi1_guess: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the coupled system for array data (f1, f2, f3); returns the
    arrays (psi0, psi1).  A default f2 or f3 of 0.0 enters the same sums as
    a zero array.  psi0 is reconstructed from the elimination identity
    psi0 = f1 - d^2 H^2 psi1, so the first equation holds to rounding by
    construction.  psi1_guess warm starts the CG iteration (same tolerance,
    fewer iterations); a guess that already meets the tolerance is returned
    after one L1 application.  Only PCG reads the right side and the
    preconditioner S P S (module docstring), so their dx and P products are
    plain whole-array products (spectral.Multiplier.whole), not row-exact
    calls.
    """
    grid = coefs.grid
    d2 = delta * delta
    d = kernels(grid).dx.whole
    df1 = d(f1)
    b = (
        -d((2.0 / 3.0) * coefs.H3 * df1 + f3)
        + 2.0 * coefs.H2 * coefs.grad_eta * df1
        - f2
    )
    flat, sc = _flat_precond(grid, delta), coefs.pc_scale
    psi1 = _pcg(lambda v: _l1_v(grid, delta, coefs, v), lambda r: sc * flat.whole(sc * r),
                b, cg_tol, x0=psi1_guess)
    return f1 - d2 * coefs.H2 * psi1, psi1


def solve_initial_data(
    eta0: RealField, phi: RealField, delta: float, cg_tol: float = CG_TOL_DEFAULT,
) -> tuple[RealField, RealField]:
    """Split a surface potential into the constrained pair (phi0, phi1)."""
    pair = solve_elliptic_pair(delta, DepthCoefs.from_eta(eta0), phi.values, cg_tol=cg_tol)
    return tuple(RealField(eta0.grid, v) for v in pair)


def ik_state_from_surface(
    eta0: RealField, phi: RealField, delta: float, cg_tol: float = CG_TOL_DEFAULT,
) -> IkState:
    phi0, phi1 = solve_initial_data(eta0, phi, delta, cg_tol)
    return IkState(eta0, phi0, phi1, delta)
