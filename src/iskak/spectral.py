"""Periodic 1-D pseudo-spectral kernel layer.

Grid functions live on the uniform nodes of [0, 2 pi).  The kernels dx, lap,
dealias and dp act on raw float arrays along the last axis, on a single
field of shape (N,) or a stack of fields of shape (..., N).  Derivatives act
through the trigonometric interpolant; quadratic nonlinearities use the
2/3-rule dealiased product, and higher powers are chained pairwise.

Every kernel is a Fourier multiplier, and a Multiplier is its symbol in
rfft layout, which kernels(grid) writes once per grid: 1j k (Nyquist mode
zeroed) for dx, -k^2 for lap and the mask of |mode index| <= floor(N/3)
for dealias.  Its transform irfft(symbol * rfft(v)) is the reference.  Up
to MATRIX_MAX_N points a Multiplier applies instead the circulant matrix of
the transform of e_0, the same map up to rounding (a transform of every
unit vector would round each row its own way, mixing Fourier modes into
the delta^-6-scaled identity gap of the consistency experiment).  Above
it, where a matrix grows as N^2, the transform is the only path.  A call
applies the matrix under two rules:

* row-exact: every row of a stack goes through the same one-row product,
  so it gets exactly the values it would get alone;
* constant-exact: each row's first entry v0 is subtracted first and
  m(0) v0 added back, m(0) = symbol[0], so a constant maps exactly.

Multiplier.whole is the plain product over a whole array, w @ matrix or the
transform above MATRIX_MAX_N, under neither rule: its rows differ from the
row-exact ones at rounding level.  Stacks that no caller compares with
one-row calls use it: the water-wave strip arrays, lift and flux; the dx of
operators._l1_v and of DepthCoefs, the right side and preconditioner of
operators.solve_elliptic_pair; the truncations of operators.stage_sources
and waterwave.zcs_rhs.  Calls stay row-exact in operators.coef_a, which
equals the one-row dp chains bit for bit, and in the slopes of
DtnBackend.apply, where whole would move every water-wave output at
rounding level.  The size rule lives here alone.

RealField is the typed boundary of the solvers: a grid function whose
shape is checked on construction.  A state's fields are RealField views of
the rows of the one array it holds (operators.ModelState, which checks
them finite); the profiles, DepthCoefs.from_eta, the L and DtN maps and
the strip solve take RealFields too.  Formulas on a state read its rows
and return plain arrays, as the kernels and the elliptic solve do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "MATRIX_MAX_N",
    "PeriodicGrid",
    "RealField",
    "dx",
    "lap",
    "dealias",
    "dp",
    "Multiplier",
    "kernels",
    "integrate",
    "l2_norm",
    "field_from_function",
]

TWO_PI = 2.0 * np.pi
MATRIX_MAX_N = 128      # largest grid on which the kernels apply matrices


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on [0, 2 pi) with n_points nodes (even, >= 8)."""

    n_points: int

    def __post_init__(self):
        if self.n_points < 8 or self.n_points % 2 != 0:
            raise ValueError(f"n_points must be even and >= 8, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n_points

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_points) * self.spacing

    @cached_property
    def wavenumbers_half(self) -> np.ndarray:
        """Nonnegative wavenumbers matching numpy's rfft layout."""
        return np.fft.rfftfreq(self.n_points, d=1.0 / self.n_points)


@dataclass
class RealField:
    """Real grid function; values are physical-space samples on grid.nodes."""

    grid: PeriodicGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValueError(f"values shape {v.shape} does not match grid ({self.grid.n_points},)")
        self.values = v


def field_from_function(grid: PeriodicGrid, fn) -> RealField:
    return RealField(grid, np.asarray(fn(grid.nodes), dtype=float))


def _circulant(row: np.ndarray) -> np.ndarray:
    """The matrix whose row i is row shifted by i places: M[i, j] = row[j - i mod N]."""
    n = len(row)
    return row[(np.arange(n) - np.arange(n)[:, None]) % n]


class Multiplier:
    """The Fourier multiplier of symbol (rfft layout) on one grid (module
    docstring); matrix is None above MATRIX_MAX_N points, where a call is
    the transform."""

    def __init__(self, grid: PeriodicGrid, symbol: np.ndarray):
        self.grid, self.symbol = grid, symbol
        self.at_zero = float(symbol[0].real)
        self.matrix = None
        if grid.n_points <= MATRIX_MAX_N:
            self.matrix = _circulant(self.transform(np.eye(1, grid.n_points)[0]))

    def transform(self, v: np.ndarray) -> np.ndarray:
        """irfft(symbol * rfft(v)) along the last axis: the reference form."""
        h = self.symbol * np.fft.rfft(v, axis=-1)
        return np.fft.irfft(h, n=self.grid.n_points, axis=-1)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        if self.matrix is None:
            return self.transform(v)
        # v @ matrix, row-exact and constant-exact (module docstring)
        v0 = v[..., :1]
        out = np.matmul((v - v0)[..., None, :], self.matrix)[..., 0, :]
        if self.at_zero:
            out += self.at_zero * v0
        return out

    def whole(self, w: np.ndarray) -> np.ndarray:
        """w @ matrix, or the transform above MATRIX_MAX_N (module docstring)."""
        return self.transform(w) if self.matrix is None else w @ self.matrix


class Kernels(NamedTuple):
    dx: Multiplier
    lap: Multiplier
    dealias: Multiplier


@lru_cache(maxsize=32)
def kernels(grid: PeriodicGrid) -> Kernels:
    """The dx, lap and dealias Multipliers of grid: the one place their
    symbols are written."""
    k = grid.wavenumbers_half
    ik = 1j * k
    ik[-1] = 0.0  # the Nyquist mode carries no sign information for odd derivatives
    keep = np.arange(len(k)) <= grid.n_points // 3
    return Kernels(Multiplier(grid, ik), Multiplier(grid, -(k * k)),
                   Multiplier(grid, keep.astype(float)))


def dx(grid: PeriodicGrid, v: np.ndarray) -> np.ndarray:
    """First derivative along the last axis."""
    return kernels(grid).dx(v)


def lap(grid: PeriodicGrid, v: np.ndarray) -> np.ndarray:
    """Second derivative along the last axis."""
    return kernels(grid).lap(v)


def dealias(grid: PeriodicGrid, v: np.ndarray) -> np.ndarray:
    """2/3-rule truncation along the last axis."""
    return kernels(grid).dealias(v)


def dp(grid: PeriodicGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product with 2/3-rule truncation of inputs and output."""
    return dealias(grid, dealias(grid, a) * dealias(grid, b))


def integrate(f: RealField) -> float:
    """Trapezoid sum over the period; spectrally exact for trig polynomials."""
    return float(f.grid.spacing * f.values.sum())


def l2_norm(f: RealField) -> float:
    return float(np.sqrt(f.grid.spacing * np.square(f.values).sum()))
