"""Full water-wave side: Dirichlet-to-Neumann map and surface evolution.

The exact map solves the flattened Laplace problem on the strip -1 <= z <= 0,

    H^{-1} dzz P + d^2 div_X (P_coef grad_X P) = 0,   P(x,0) = phi,  dz P(x,-1) = 0,

by Fourier collocation in x and Chebyshev-Lobatto collocation in z, with
the flat-bottom operator inverted mode by mode as the left preconditioner of
a GMRES iteration.

The flat operator of Fourier mode k is M_k = A - kappa_k E: A is dzz with
the surface Dirichlet and bottom Neumann rows, E = diag(0, 1, .., 1, 0) and
kappa_k = -d^2 s_k^2, with s_k the dx symbol.  The preconditioner inverts
all modes at once by fast diagonalization (Lynch, Rice & Thomas 1964):
A^-1 E = W diag(theta) W^-1, so M_k^-1 = W diag(gain[:, k]) W^-1 A^-1 with
gain = 1 / (1 - theta kappa_k): a z-transform, one x-transform pair with a
gain per (z-mode, x-mode) and a z-transform back.  W, theta and W^-1 A^-1
depend on n_z alone; the (grid, n_z, delta) workspace builds them with its
gains.  theta is real and <= 0 (_StripWorkspace raises SingularSystemError
otherwise), so every gain lies in (0, 1].  The dx symbol is zeroed at the
Nyquist mode, so kappa is 0 there too: the preconditioner is the exact
inverse of the flat discrete operator at every mode, and no outlier
eigenvalue stalls GMRES.

GMRES reports the residual it builds from the operator outputs it keeps
(_gmres), so the operator, not the Givens estimate, confirms a claimed
convergence.  The flux is the vertical average of the horizontal velocity,

    Lambda phi = -div(H Vbar),

a divergence form that conserves mass to rounding.  The series backend is
the stepped runs' degraded control, the O(d^2) shallow-water map
Lambda^(0).  dtn_series, the expansion Lambda^(0) + d^2 Lambda^(1) +
d^4 Lambda^(2) through d^4, serves consistency alone, for its R9 tail.

A stage starts GMRES from a guess extrapolated over past steps
(ik_solver.rk4_fields), so a solve makes few applications: what is fixed
for a solve is built once per solve or per workspace, never per
application (_StripWorkspace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DepthTooSmallError, NonConvergenceError, SingularSystemError
from .ik_solver import RunResult, SimConfig, rk4_fields, run_loop
from .operators import H_MIN_DEFAULT, ModelState
from .spectral import PeriodicGrid, RealField, dp, dx, kernels, lap

__all__ = [
    "WwState",
    "DtnBackend",
    "lambda0",
    "lambda1",
    "lambda2",
    "dtn_series",
    "zcs_rhs",
    "ww_run",
    "hamiltonian",
]

DTN_TOL_DEFAULT = 1e-12    # of every strip solve of DtnBackend.apply, read at each call
DTN_MAX_ITER = 120
GIVENS_FLOOR = 1e-14     # a Givens denominator below this share of its column is zero


def _norm(v: np.ndarray) -> float:
    # what np.linalg.norm computes for a 1-D float array, without its dispatch
    return math.sqrt(float(np.dot(v, v)))


def _gmres(apply_op, b, tol, max_iter, x0=None, residual=None):
    """Full GMRES with Givens rotations; returns x, the relative residual
    |r| / |b| and the residual r = r0 - sum_i y_i A v_i.

    Used on the left-preconditioned strip system, which is O(1) conditioned,
    so a few dozen iterations reach rounding without restarts.  A singular
    operator (a Givens denominator negligible next to its column) raises SingularSystemError.
    Two starts: from zero with b (x0 None), or from x0 with residual(x0),
    which returns r0 = b - A x0 and |b| (b unused).  A zero b returns
    x = r = 0; a non-finite |b| or |r0| raises FloatingPointError before any
    application.  The Givens estimate only decides when to stop.  r is built
    from the raw operator outputs A v_i kept along the way.  Without a
    further application it equals b - A x up to the rounding of x, of order
    eps |A| |x|, negligible on the strip system; so a Givens estimate that
    has drifted from the truth cannot pass for convergence.
    """
    if x0 is None:
        x, r, bnorm = np.zeros_like(b), b.copy(), _norm(b)
    else:
        x = x0.copy()
        r, bnorm = residual(x)
    if bnorm == 0.0:
        return np.zeros_like(x), 0.0, np.zeros_like(x)
    beta = _norm(r)
    if not (math.isfinite(bnorm) and math.isfinite(beta)):
        raise FloatingPointError(f"GMRES start: non-finite norm (|b| = {bnorm}, |r0| = {beta})")
    if beta <= tol * bnorm:
        return x, beta / bnorm, r
    basis = [r / beta]    # lists, not a preallocated basis: a solve makes few iterations
    outputs = []       # A v_i
    cols = []          # rotated Hessenberg columns: column k holds R[:k + 1, k]
    rotations = []     # Givens (cos, sin) pairs
    g = [beta]
    for k in range(max_iter):
        outputs.append(apply_op(basis[k]))
        v = outputs[k].copy()
        col = []
        for q in basis:
            c = float(np.dot(q, v))
            v -= c * q
            col.append(c)
        sub = _norm(v)
        col_norm = math.hypot(*col, sub)     # rotations keep this norm
        basis.append(v / sub if sub > 0.0 else v)
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], -s * col[i] + c * col[i + 1]
        denom = math.hypot(col[k], sub)
        if denom <= GIVENS_FLOOR * col_norm:
            raise SingularSystemError(f"GMRES breakdown at iteration {k}: Givens denominator "
                                      f"{denom:.3e} against column norm {col_norm:.3e}")
        c, s = col[k] / denom, sub / denom
        col[k] = denom
        cols.append(col)
        rotations.append((c, s))
        g.append(-s * g[k])
        g[k] = c * g[k]
        if abs(g[k + 1]) <= tol * bnorm:
            break
    y = g[:len(cols)]
    for j in reversed(range(len(cols))):     # back substitution, column by column
        y[j] /= cols[j][j]
        for i in range(j):
            y[i] -= cols[j][i] * y[j]
    for i, yi in enumerate(y):
        x += yi * basis[i]
        r -= yi * outputs[i]
    return x, _norm(r) / bnorm, r


class WwState(ModelState):
    """Surface elevation and surface-trace potential at shallowness delta."""

    FIELDS = ("eta", "phi")   # evolved fields, in zcs_rhs order; the potential second
    GUESS_STEPS = 4           # past steps the stage guesses use (rk4_fields)


# ---------------------------------------------------------------------------
# shallow-water expansion of the map
#
# Coefficient products are 2/3-truncated: the expansion terms chain up to
# three Laplacians, which amplify the rounding tail of an input by k^6, so
# the products must live inside the resolved band.  The truncation sandwich
# keeps each term exactly self-adjoint.

def _slopes(grid: PeriodicGrid, eta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(dx eta, dx phi): one whole-stack dx product of the two rows less
    their first entries, constant-exact (spectral module docstring), so a
    constant gets an exact-zero slope."""
    rows = np.array((eta, phi))
    return kernels(grid).dx.whole(rows - rows[:, :1])


def _lambda0(grid: PeriodicGrid, eta: np.ndarray, psi_x: np.ndarray) -> np.ndarray:
    """Lambda^(0) psi = -dx(H psi_x), H psi_x the 2/3-rule product, from the
    slope psi_x, in whole-stack products: one truncation of (H, psi_x), then
    the truncation and the derivative of their product."""
    k = kernels(grid)
    h, u = k.dealias.whole(np.array((1.0 + eta, psi_x)))
    return -k.dx.whole(k.dealias.whole(h * u))


def lambda0(eta: RealField, psi: RealField) -> RealField:
    grid = psi.grid
    # the series backend's 2-row slope product, so the two agree bit for bit
    return RealField(grid, _lambda0(grid, eta.values, _slopes(grid, eta.values, psi.values)[1]))


def lambda1(eta: RealField, psi: RealField) -> RealField:
    grid = psi.grid
    h3 = (1.0 + eta.values) ** 3
    return RealField(grid, -lap(grid, dp(grid, h3, lap(grid, psi.values))) / 3.0)


def lambda2(eta: RealField, psi: RealField) -> RealField:
    grid = psi.grid
    h = 1.0 + eta.values
    h2, h3 = h * h, h * h * h
    lp = lap(grid, psi.values)
    grad_eta_sq = dx(grid, eta.values) ** 2
    term = (
        -lap(grid, dp(grid, h3, lap(grid, dp(grid, h2, lp)))) / 15.0
        - lap(grid, dp(grid, h2, lap(grid, dp(grid, h3, lp)))) / 15.0
        + lap(grid, dp(grid, grad_eta_sq, dp(grid, h3, lp))) / 5.0
    )
    return RealField(grid, term)


def dtn_series(eta: RealField, phi: RealField, delta: float) -> RealField:
    """The expansion through delta^4, Lambda^(0) + d^2 Lambda^(1) + d^4 Lambda^(2)."""
    return RealField(phi.grid, lambda0(eta, phi).values + delta**2 * lambda1(eta, phi).values
                     + delta**4 * lambda2(eta, phi).values)


# ---------------------------------------------------------------------------
# exact map: Chebyshev-Lobatto strip solve

def _cheb_lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes xi_j = cos(j pi / n) on [-1, 1] and the differentiation matrix."""
    j = np.arange(n + 1)
    xi = np.cos(np.pi * j / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** j
    diff = xi[:, None] - xi[None, :] + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / diff
    d -= np.diag(d.sum(axis=1))
    return xi, d


def _clenshaw_curtis_weights(xi: np.ndarray) -> np.ndarray:
    """Quadrature weights exact for polynomials of degree n on the given nodes."""
    n = len(xi) - 1
    vand = np.cos(np.arccos(xi)[:, None] * np.arange(n + 1))   # T_m(xi_j)
    m = np.arange(n + 1)
    moments = np.where(m % 2 == 0, 2.0 / (1.0 - m**2 + (m % 2)), 0.0)
    return np.linalg.solve(vand.T.copy(), moments)


class _StripFields(NamedTuple):
    """The depth fields of one strip solve, for its applications and flux."""

    h: np.ndarray        # 1 + eta
    eta_x: np.ndarray
    phi_x: np.ndarray
    c1: np.ndarray       # -(z + 1) eta_x, per strip row
    c2: np.ndarray       # (z + 1)^2 eta_x^2 / h, per strip row
    hd2: np.ndarray      # delta^2 h


class _StripWorkspace:
    """Cached geometry, differentiation and flat-mode preconditioner for one
    (grid, n_z, delta) combination.

    What is fixed for a whole solve is built once: the Chebyshev rows, the
    fast diagonalization, the mode gains and the preconditioned lift column
    here, the depth fields (_StripFields) at the start of each solve.
    The right side rhs of the strip system is -lift_res on every interior row
    and 0 on the two boundary rows, so per Fourier mode k its preconditioned
    form b_p is lift_column[:, k] = M_k^-1 (0, 1, ..., 1, 0) = W lift_gain[:, k]
    times the mode k of -lift_res: one 1-row transform pair, made by solves
    from zero alone.  A solve from a guess x0 transforms lift_res as one
    more row of W^-1 A^-1 A x0 for its P(rhs - A x0), and takes |b_p|^2 =
    sum_k lift_weight[k] |rfft(lift_res)_k|^2 (Parseval: lift_weight[k] =
    w_k sum_j lift_column[j, k]^2 / N, w_k = 1 at k = 0 and Nyquist, else 2).
    A solve depends on its arguments alone: fields and last_solution are the
    last solve's outputs, for flux_divergence and DtnBackend.apply, and no
    solve reads them, so every backend shares one workspace (_strip_workspace).
    """

    def __init__(self, grid: PeriodicGrid, n_z: int, delta: float):
        self.grid = grid
        self.n_z = n_z
        self.delta = delta
        xi, d_xi = _cheb_lobatto(n_z)
        self.dz = dz = 2.0 * d_xi              # d/dz on z in [-1, 0], row 0 = surface
        self.dzs = np.vstack((dz, dz @ dz))    # (dz; dz @ dz), stacked for one product in _apply
        self.zp1 = (xi - 1.0) / 2.0 + 1.0      # z + 1
        wq = _clenshaw_curtis_weights(xi) / 2.0
        self.reduce = np.array((wq, (wq * self.zp1) @ dz))   # the flux's z-reductions
        # the fast diagonalization A^-1 E = W diag(theta) W^-1 (module docstring)
        a = self.dzs[n_z + 1:].copy()
        a[0, :] = np.eye(n_z + 1)[0]           # surface Dirichlet row
        a[-1, :] = dz[-1, :]                   # bottom Neumann row
        try:
            a_inv = np.linalg.inv(a)
            ae = a_inv.copy()
            ae[:, [0, -1]] = 0.0               # A^-1 E
            theta, self.vecs = np.linalg.eig(ae)
            self.zmap = np.linalg.solve(self.vecs, a_inv)      # W^-1 A^-1
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"flat strip modes: {exc}") from exc
        if np.iscomplexobj(theta) or theta.max() > 0.0:
            raise SingularSystemError(f"flat strip modes: n_z = {n_z} has eigenvalues off the "
                                      "nonpositive real axis")
        self.dx = kernels(grid).dx          # applied with .whole (spectral module docstring)
        # kappa_k = -delta^2 (dx symbol)^2: the symbol dx o dx applies, 0 at Nyquist
        kappa = -(delta * delta) * (self.dx.symbol * self.dx.symbol).real
        self.gain = 1.0 / (1.0 - theta[:, None] * kappa)
        interior = np.ones(n_z + 1)
        interior[[0, -1]] = 0.0
        self.lift_gain = self.gain * (self.zmap @ interior)[:, None]
        self.lift_column = self.vecs @ self.lift_gain
        twice = np.arange(self.gain.shape[1]) % (grid.n_points // 2) > 0   # not 0, Nyquist
        self.lift_weight = (1.0 + twice) * (self.lift_column**2).sum(axis=0) / grid.n_points
        self.last_solution: np.ndarray | None = None
        self.fields: _StripFields | None = None

    def _precondition(self, rows: np.ndarray) -> np.ndarray:
        # the flat inverse by fast diagonalization: z-transforms around a gain per mode
        h = self.gain * np.fft.rfft(self.zmap @ rows, axis=1)
        return self.vecs @ np.fft.irfft(h, n=self.grid.n_points, axis=1)

    def _apply(self, w: np.ndarray, f: _StripFields) -> np.ndarray:
        """Depth-scaled transformed Laplacian with BC rows substituted."""
        wz, wzz = (self.dzs @ w).reshape(2, *w.shape)
        wx = self.dx.whole(w)
        p = f.h * wx + f.c1 * wz
        q = f.c1 * wx + f.c2 * wz
        out = wzz + f.hd2 * (self.dx.whole(p) + self.dz @ q)
        out[0, :] = w[0, :]
        out[-1, :] = wz[-1, :]
        return out

    def solve(self, eta: RealField, phi: RealField, tol: float,
              h_min: float, warm_start: bool, guess: np.ndarray | None = None) -> np.ndarray:
        """Potential on the flattened strip at (z-node, x-node), row 0 the
        surface: the (n_z + 1, N) collocation values.

        GMRES solves for the potential less its surface lift phi, which is
        zero on the surface row.  GMRES starts from guess, an estimate of
        that part, if one is given and the lift residual is nonzero, else
        from zero, where a zero lift residual returns the zero part without
        an application.  The potential returned holds GMRES's verified x; with
        warm_start the solve stores x + r as last_solution, r its final
        residual: a preconditioned Richardson step, for later guesses.
        """
        grid = self.grid
        h = 1.0 + eta.values
        if float(h.min()) < h_min:
            raise DepthTooSmallError(float(h.min()), h_min)
        eta_x, phi_x = _slopes(grid, eta.values, phi.values)
        zp1 = self.zp1[:, None]
        self.fields = f = _StripFields(h, eta_x, phi_x, -zp1 * eta_x,
                                       zp1**2 * (eta_x**2 / h), self.delta**2 * h)
        shape = (self.n_z + 1, grid.n_points)

        # lifting by the z-independent surface data; residual is z-independent too
        lift_res = f.hd2 * (self.dx.whole(h * phi_x) - eta_x * phi_x)

        # iterate on the left-preconditioned system: the flat inverse is O(1)
        # conditioned, so the residual tracks the solution error rather than
        # the n_z^4-scaled collocation rows
        def apply_pa(v):
            return self._precondition(self._apply(v.reshape(shape), f)).ravel()

        def residual(x0):
            # P(rhs - A x0) and |b_p| from one transform of (W^-1 A^-1 A x0; lift_res)
            m = np.fft.rfft(np.vstack((self.zmap @ self._apply(x0.reshape(shape), f), lift_res)))
            r = np.fft.irfft(-(self.lift_gain * m[-1] + self.gain * m[:-1]), n=grid.n_points)
            return (self.vecs @ r).ravel(), math.sqrt(float(self.lift_weight @ abs(m[-1])**2))

        sol = b_p = None
        if guess is not None and lift_res.any():
            sol = guess.ravel()
        else:
            b_p = np.fft.irfft(self.lift_column * np.fft.rfft(-lift_res), n=grid.n_points).ravel()
        sol, res, r = _gmres(apply_pa, b_p, tol, DTN_MAX_ITER, sol, residual)
        if not res <= tol:   # _gmres returns the true residual; NaN fails too
            raise NonConvergenceError("strip potential solve", DTN_MAX_ITER, res, tol)
        if warm_start:
            self.last_solution = (sol + r).reshape(shape)
        return sol.reshape(shape) + phi.values[None, :]

    def flux_divergence(self, w: np.ndarray) -> np.ndarray:
        """Lambda phi = -div(H Vbar) with Vbar the vertical average of the
        horizontal velocity, integrated by Clenshaw-Curtis quadrature, for
        the potential w of the last solve, over that solve's depth fields.

        The average of wx - (z + 1) (eta_x / h) wz is dx(wq @ w) - (eta_x / h)
        (r @ w) with r = (wq (z + 1)) @ dz: two z-reductions of w, not two
        whole-strip products."""
        f = self.fields
        mean, tilt = self.reduce @ w
        vbar = self.dx.whole(mean) - (f.eta_x / f.h) * tilt
        return -self.dx.whole(f.h * vbar)


@lru_cache(maxsize=32)
def _strip_workspace(grid: PeriodicGrid, n_z: int, delta: float) -> _StripWorkspace:
    return _StripWorkspace(grid, n_z, delta)


@dataclass(frozen=True)
class DtnBackend:
    """Either the exact strip solve (kind='exact', resolution n_z) or the
    degraded control Lambda^(0) (kind='series', n_z = 0: no strip), the
    O(d^2) shallow-water map; the d^4 expansion dtn_series serves consistency
    only.  The n_z rule lives here only; parse() reads the 'exact:N' /
    'series:0' spec of a configuration, which label() writes.  A backend is
    a value: it holds no solver state, so two with one (kind, n_z) are equal
    and give the same apply."""

    kind: str
    n_z: int = 16

    def __post_init__(self):
        if self.kind not in ("exact", "series"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "exact" and self.n_z < 8:
            raise ValueError("exact backend needs n_z >= 8")
        if self.kind == "series" and self.n_z != 0:
            raise ValueError("series backend has no strip: n_z must be 0")

    @classmethod
    def exact(cls, n_z: int = 16) -> "DtnBackend":
        return cls("exact", n_z=n_z)

    @classmethod
    def series(cls) -> "DtnBackend":
        return cls("series", 0)

    @classmethod
    def parse(cls, spec: str) -> "DtnBackend":
        """'exact:16' -> exact strip solve with n_z = 16; 'series:0' -> Lambda^(0).
        Only the spelling label() writes is read: 'exact:016' is an error."""
        if spec == "series:0":
            return cls.series()
        kind, _, n_z = spec.partition(":")
        if kind != "exact" or not n_z.isdecimal() or str(int(n_z)) != n_z:
            raise ValueError(f"dtn spec must be 'exact:N' (N >= 8) or 'series:0', got {spec!r}")
        return cls.exact(int(n_z))

    def label(self) -> str:
        return f"{self.kind}:{self.n_z}"

    def apply(self, eta: RealField, phi: RealField, delta: float,
              guess: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray | None, tuple[np.ndarray, np.ndarray]]:
        """Lambda phi, the strip entry (None for the series backend) and the
        slopes (dx eta, dx phi) of _slopes, which the strip solve and
        Lambda^(0) form anyway.  Lambda phi is the flux of the verified
        potential; the entry is the solve's polished last_solution, for
        guesses only.  The solve starts from guess, an estimate of the
        entry, when one is given, and otherwise from zero
        (_StripWorkspace.solve), so the result depends on the arguments
        alone."""
        if self.kind == "series":
            eta_x, phi_x = _slopes(phi.grid, eta.values, phi.values)
            return _lambda0(phi.grid, eta.values, phi_x), None, (eta_x, phi_x)
        ws = _strip_workspace(phi.grid, self.n_z, delta)
        w = ws.solve(eta, phi, DTN_TOL_DEFAULT, H_MIN_DEFAULT, warm_start=True, guess=guess)
        return ws.flux_divergence(w), ws.last_solution, (ws.fields.eta_x, ws.fields.phi_x)


# ---------------------------------------------------------------------------
# surface evolution

def zcs_rhs(s: WwState, backend: DtnBackend,
            guess: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Right side of the surface system, (dt eta, dt phi), followed by the
    strip entry of its DtN evaluation (DtnBackend.apply, which guess
    starts), from which rk4_fields extrapolates later stages' guesses."""
    grid = s.grid
    d2 = s.delta**2
    lam, strip, (eta_x, phi_x) = backend.apply(s.eta, s.phi, s.delta, guess)
    trunc = kernels(grid).dealias.whole    # no caller needs row-exactness here
    etx, phx, lamt = trunc(np.array((eta_x, phi_x, lam)))
    sq_phx, cross = trunc(np.array((phx * phx, etx * phx)))
    num = lamt + cross
    num2 = trunc(num * num)
    denom = 1.0 + d2 * eta_x * eta_x
    phi_t = -s.eta.values - 0.5 * sq_phx + 0.5 * d2 * num2 / denom
    return lam, phi_t, strip


def hamiltonian(s: WwState, backend: DtnBackend, guess: np.ndarray | None = None) -> float:
    """The Zakharov-Craig-Sulem Hamiltonian (1/2) integral(phi Lambda phi + eta^2)
    (Lannes 2013), with Lambda the backend's map; guess as in zcs_rhs."""
    lam = backend.apply(s.eta, s.phi, s.delta, guess)[0]
    dens = s.phi.values * lam + s.eta.values**2
    return 0.5 * float(s.grid.spacing * dens.sum())


def ww_run(initial: WwState, cfg: SimConfig, backend: DtnBackend) -> RunResult:
    """RK4 evolution of the surface system through the model's run loop
    (ik_solver.run_loop): same scheme, guards and abort handling, with mass
    and Hamiltonian diagnostics; cfg.reproject_every does not apply."""
    return run_loop(
        initial, cfg,
        step=lambda s, warm: rk4_fields(s, cfg.dt, lambda st, g: zcs_rhs(st, backend, g), warm),
        record=lambda s, g: (hamiltonian(s, backend, g),),
    )
