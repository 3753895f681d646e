"""Full water-wave side: Dirichlet-to-Neumann map and surface evolution.

The exact map solves the flattened Laplace problem on the strip -1 <= z <= 0,

    H^{-1} dzz P + d^2 div_X (P_coef grad_X P) = 0,   P(x,0) = phi,  dz P(x,-1) = 0,

by Fourier collocation in x and Chebyshev-Lobatto collocation in z, with the
flat-bottom operator (dzz + d^2 dxx) inverted per Fourier mode as the
preconditioner of a GMRES iteration.  The x-derivative of a whole
(n_z + 1, N) strip array is the whole-array product of the dx Multiplier
(spectral.Multiplier.whole): one product with its cached matrix up to
spectral.MATRIX_MAX_N points and a transform pair above, cheaper than the
row-by-row product of a Multiplier call.  The preconditioner stays in
Fourier space, because its mode solve couples z within each wavenumber.
GMRES reports the residual |r0 - sum_i y_i A v_i| / |b|, from the operator
outputs A v_i it keeps, so a claimed convergence is confirmed by the
operator itself, not by the Givens estimate, at no extra application.  The
flux is then the vertical average of the horizontal velocity and

    Lambda phi = -div(H Vbar),

a divergence form that conserves mass to rounding.  The shallow-water series
backend applies Lambda^(0) + d^2 Lambda^(1) + d^4 Lambda^(2) truncated at a
chosen order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthTooSmallError, NonConvergenceError, SingularSystemError
from .ik_solver import RunResult, SimConfig, rk4_fields, run_loop
from .operators import H_MIN_DEFAULT, check_state
from .spectral import PeriodicGrid, RealField, dealias, dp, dx, kernels, lap

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

DTN_TOL_DEFAULT = 1e-12
DTN_MAX_ITER = 120
GIVENS_FLOOR = 1e-14     # a Givens denominator below this share of its column is zero


def _gmres(apply_op, b, tol, max_iter, x0=None):
    """Full GMRES with Givens rotations; returns (x, relative residual).

    Used on the left-preconditioned strip system, which is O(1) conditioned,
    so a few dozen iterations reach rounding without restarts.  A singular
    operator (a Givens denominator negligible next to its column) raises SingularSystemError.
    The Givens estimate only decides when to stop.  The returned residual is
    |r0 - sum_i y_i A v_i| / |b|, built from the raw operator outputs A v_i
    kept along the way (r0 = b - A x0).  Without a further application it
    equals |b - A x| / |b| up to the rounding of x, of order
    eps |A| |x| / |b|, which is negligible on the strip system; so a Givens
    estimate that has drifted from the truth cannot pass for convergence.
    """
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = x0.copy()
        r = b - apply_op(x)
    beta = float(np.linalg.norm(r))
    if beta <= tol * bnorm:
        return x, beta / bnorm
    basis = [r / beta]
    hess = np.zeros((max_iter + 1, max_iter))
    cs = np.zeros(max_iter)
    sn = np.zeros(max_iter)
    g = np.zeros(max_iter + 1)
    g[0] = beta
    outputs = []
    k_done = 0
    for k in range(max_iter):
        outputs.append(apply_op(basis[k]))
        v = outputs[k].copy()
        for i in range(k + 1):
            hess[i, k] = float(np.dot(basis[i], v))
            v -= hess[i, k] * basis[i]
        hess[k + 1, k] = float(np.linalg.norm(v))
        col = float(np.linalg.norm(hess[:k + 2, k]))   # rotations keep this norm
        if hess[k + 1, k] > 0.0:
            basis.append(v / hess[k + 1, k])
        else:
            basis.append(v)
        for i in range(k):
            t = cs[i] * hess[i, k] + sn[i] * hess[i + 1, k]
            hess[i + 1, k] = -sn[i] * hess[i, k] + cs[i] * hess[i + 1, k]
            hess[i, k] = t
        denom = float(np.hypot(hess[k, k], hess[k + 1, k]))
        if denom <= GIVENS_FLOOR * col:
            raise SingularSystemError(f"GMRES breakdown at iteration {k}: Givens denominator "
                                      f"{denom:.3e} against column norm {col:.3e}")
        cs[k] = hess[k, k] / denom
        sn[k] = hess[k + 1, k] / denom
        hess[k, k] = denom
        hess[k + 1, k] = 0.0
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]
        k_done = k + 1
        if abs(g[k + 1]) <= tol * bnorm:
            break
    y = np.linalg.solve(hess[:k_done, :k_done], g[:k_done])
    for i in range(k_done):
        x += y[i] * basis[i]
        r -= y[i] * outputs[i]
    return x, float(np.linalg.norm(r)) / bnorm


@dataclass
class WwState:
    """Surface elevation and surface-trace potential at shallowness delta."""

    eta: RealField
    phi: RealField
    delta: float

    FIELDS = ("eta", "phi")   # evolved fields, in zcs_rhs order

    def __post_init__(self):
        check_state(self)

    @property
    def grid(self) -> PeriodicGrid:
        return self.eta.grid


# ---------------------------------------------------------------------------
# shallow-water expansion of the map
#
# Coefficient products are 2/3-truncated: the expansion terms chain up to
# three Laplacians, which amplify the rounding tail of an input by k^6, so
# the products must live inside the resolved band.  The truncation sandwich
# keeps each term exactly self-adjoint.

def lambda0(eta: RealField, psi: RealField) -> RealField:
    grid = psi.grid
    h = 1.0 + eta.values
    return RealField(grid, -dx(grid, dp(grid, h, dx(grid, psi.values))))


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


def dtn_series(eta: RealField, phi: RealField, delta: float, order: int) -> RealField:
    """Sum of the expansion terms through delta^(2*order)."""
    if order not in (0, 1, 2):
        raise ValueError(f"series order must be 0, 1 or 2, got {order}")
    out = lambda0(eta, phi).values
    if order >= 1:
        out = out + delta**2 * lambda1(eta, phi).values
    if order >= 2:
        out = out + delta**4 * lambda2(eta, phi).values
    return RealField(phi.grid, out)


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
    vand = np.polynomial.chebyshev.chebvander(xi, n)  # (n+1, n+1): T_m(xi_j)
    m = np.arange(n + 1)
    moments = np.where(m % 2 == 0, 2.0 / (1.0 - m**2 + (m % 2)), 0.0)
    return np.linalg.solve(vand.T.copy(), moments)


class _StripWorkspace:
    """Cached geometry, differentiation and flat-mode inverses for one
    (grid, n_z, delta) combination."""

    def __init__(self, grid: PeriodicGrid, n_z: int, delta: float):
        self.grid = grid
        self.n_z = n_z
        self.delta = delta
        xi, d_xi = _cheb_lobatto(n_z)
        self.z = (xi - 1.0) / 2.0            # z in [-1, 0], row 0 = surface
        self.dz = 2.0 * d_xi
        self.dzz = self.dz @ self.dz
        self.zp1 = self.z + 1.0
        self.wq = _clenshaw_curtis_weights(xi) / 2.0
        eye = np.eye(n_z + 1)
        m = self.dzz - ((delta * grid.wavenumbers_half) ** 2)[:, None, None] * eye
        m[:, 0, :] = eye[0]                 # surface Dirichlet row
        m[:, -1, :] = self.dz[-1, :]        # bottom Neumann row
        try:
            self.mode_inverses = np.linalg.inv(m)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"flat strip modes: {exc}") from exc
        self.dx = kernels(grid).dx          # applied with .whole (module docstring)
        self.last_solution: np.ndarray | None = None

    def _precondition(self, rows: np.ndarray) -> np.ndarray:
        # one real matmul per Fourier mode, over its (real, imag) column pair
        rh = np.ascontiguousarray(np.fft.rfft(rows, axis=1).T)
        sol = np.matmul(self.mode_inverses, rh.view(np.float64).reshape(*rh.shape, 2))
        return np.fft.irfft(sol.view(np.complex128)[..., 0].T, n=self.grid.n_points, axis=1)

    def _apply(self, w: np.ndarray, h, eta_x, d2) -> np.ndarray:
        """Depth-scaled transformed Laplacian with BC rows substituted."""
        wz = self.dz @ w
        wx = self.dx.whole(w)
        zp1 = self.zp1[:, None]
        p = h * wx - zp1 * eta_x * wz
        q = -zp1 * eta_x * wx + zp1**2 * (eta_x**2 / h) * wz
        out = self.dzz @ w + d2 * h * (self.dx.whole(p) + self.dz @ q)
        out[0, :] = w[0, :]
        out[-1, :] = wz[-1, :]
        return out

    def solve(self, eta: RealField, phi: RealField, tol: float,
              h_min: float, warm_start: bool, guess: np.ndarray | None = None) -> np.ndarray:
        """Potential on the flattened strip at (z-node, x-node), row 0 the
        surface: the (n_z + 1, N) collocation values.

        GMRES solves for the potential less its surface lift phi, which is
        zero on the surface row.  It starts from guess, an estimate of that
        lift-free part, when one is given; otherwise from last_solution when
        warm_start is set.  A warm solve stores its lift-free part as
        last_solution.
        """
        grid = self.grid
        h = 1.0 + eta.values
        if float(h.min()) < h_min:
            raise DepthTooSmallError(float(h.min()), h_min)
        eta_x = dx(grid, eta.values)
        d2 = self.delta**2
        shape = (self.n_z + 1, grid.n_points)

        # lifting by the z-independent surface data; residual is z-independent too
        phi_x = dx(grid, phi.values)
        lift_res = d2 * h * (dx(grid, h * phi_x) - eta_x * phi_x)
        b = np.broadcast_to(-lift_res, shape).copy()
        b[0, :] = 0.0
        b[-1, :] = 0.0

        # iterate on the left-preconditioned system: the flat inverse is O(1)
        # conditioned, so the residual tracks the solution error rather than
        # the n_z^4-scaled collocation rows
        def apply_pa(v):
            return self._precondition(self._apply(v.reshape(shape), h, eta_x, d2)).ravel()

        b_p = self._precondition(b).ravel()
        sol = None
        if guess is not None:
            sol = guess.ravel()
        elif warm_start and self.last_solution is not None:
            sol = self.last_solution.ravel()
        sol, res = _gmres(apply_pa, b_p, tol, DTN_MAX_ITER, sol)
        if not res <= tol:   # _gmres returns the true residual; NaN fails too
            raise NonConvergenceError("strip potential solve", DTN_MAX_ITER, res, tol)
        w = sol.reshape(shape)
        if warm_start:
            self.last_solution = w
        return w + phi.values[None, :]

    def flux_divergence(self, eta: RealField, w: np.ndarray) -> np.ndarray:
        """Lambda phi = -div(H Vbar) with Vbar the vertical average of the
        horizontal velocity, integrated by Clenshaw-Curtis quadrature."""
        grid = self.grid
        h = 1.0 + eta.values
        eta_x = dx(grid, eta.values)
        wz = self.dz @ w
        wx = self.dx.whole(w)
        integrand = wx - self.zp1[:, None] * (eta_x / h) * wz
        vbar = self.wq @ integrand
        return -dx(grid, h * vbar)


@dataclass
class DtnBackend:
    """Either the exact strip solve (kind='exact', resolution n_z) or the
    truncated shallow-water expansion (kind='series', order K).  The n_z and
    order rules live here only; parse() reads the 'exact:16' / 'series:2'
    spec of a configuration."""

    kind: str
    n_z: int = 16
    order: int = 2
    tol: float = DTN_TOL_DEFAULT

    def __post_init__(self):
        if self.kind not in ("exact", "series"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "exact" and self.n_z < 8:
            raise ValueError("exact backend needs n_z >= 8")
        if self.kind == "series" and self.order not in (0, 1, 2):
            raise ValueError("series backend order must be 0, 1 or 2")
        self._workspaces: dict = {}

    @classmethod
    def exact(cls, n_z: int = 16, tol: float = DTN_TOL_DEFAULT) -> "DtnBackend":
        return cls("exact", n_z=n_z, tol=tol)

    @classmethod
    def series(cls, order: int) -> "DtnBackend":
        return cls("series", order=order)

    @classmethod
    def parse(cls, spec: str, tol: float = DTN_TOL_DEFAULT) -> "DtnBackend":
        """'exact:16' -> exact strip solve with n_z = 16; 'series:2' -> order-2 series."""
        parts = spec.split(":")
        if len(parts) != 2 or parts[0] not in ("exact", "series"):
            raise ValueError(f"dtn spec must look like 'exact:16' or 'series:2', got {spec!r}")
        try:
            n = int(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad dtn parameter in {spec!r}") from exc
        if parts[0] == "exact":
            return cls.exact(n, tol=tol)
        return cls.series(n)

    def label(self) -> str:
        return f"exact:{self.n_z}" if self.kind == "exact" else f"series:{self.order}"

    def _workspace(self, grid: PeriodicGrid, delta: float) -> _StripWorkspace:
        key = (grid, self.n_z, delta)
        ws = self._workspaces.get(key)
        if ws is None:
            ws = _StripWorkspace(grid, self.n_z, delta)
            self._workspaces[key] = ws
        return ws

    def apply(self, eta: RealField, phi: RealField, delta: float,
              guess: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
        """Lambda phi and the lift-free strip potential it was computed from
        (None for the series backend).  The strip solve starts from guess, an
        estimate of the latter, when one is given, and otherwise from the
        workspace's last solution (_StripWorkspace.solve)."""
        if self.kind == "series":
            return dtn_series(eta, phi, delta, self.order).values, None
        ws = self._workspace(phi.grid, delta)
        w = ws.solve(eta, phi, self.tol, H_MIN_DEFAULT, warm_start=True, guess=guess)
        return ws.flux_divergence(eta, w), w - phi.values


# ---------------------------------------------------------------------------
# surface evolution

def zcs_rhs(s: WwState, backend: DtnBackend,
            guess: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Right side of the surface system, (dt eta, dt phi), followed by the
    lift-free strip potential of its DtN evaluation (DtnBackend.apply, which
    guess starts), from which rk4_fields extrapolates later stages' guesses."""
    grid = s.grid
    d2 = s.delta**2
    lam, strip = backend.apply(s.eta, s.phi, s.delta, guess)
    eta_x, phi_x = dx(grid, np.stack((s.eta.values, s.phi.values)))
    etx, phx, lamt = dealias(grid, np.stack((eta_x, phi_x, lam)))
    sq_phx, cross = dealias(grid, np.stack((phx * phx, etx * phx)))
    num = lamt + cross
    num2 = dealias(grid, num * num)
    denom = 1.0 + d2 * eta_x * eta_x
    phi_t = -s.eta.values - 0.5 * sq_phx + 0.5 * d2 * num2 / denom
    return lam, phi_t, strip


def hamiltonian(s: WwState, backend: DtnBackend) -> float:
    """Surrogate energy (1/2) integral(phi * Lambda phi + eta^2)."""
    lam, _ = backend.apply(s.eta, s.phi, s.delta)
    dens = s.phi.values * lam + s.eta.values**2
    return 0.5 * float(s.grid.spacing * dens.sum())


def ww_run(initial: WwState, cfg: SimConfig, backend: DtnBackend) -> RunResult:
    """RK4 evolution of the surface system through the model's run loop
    (ik_solver.run_loop): same scheme, guards and abort handling, with mass
    and surrogate-energy diagnostics; cfg.reproject_every does not apply."""
    return run_loop(
        initial, cfg,
        step=lambda s, warm: rk4_fields(s, cfg.dt, lambda st, g: zcs_rhs(st, backend, g), warm),
        record=lambda s: (hamiltonian(s, backend),),
        gauge="phi",
    )
