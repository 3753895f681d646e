"""Periodic 1-D pseudo-spectral kernel layer.

Grid functions live on the uniform nodes of [0, L).  The kernels dx, lap,
dealias and dp act on raw float arrays along the last axis, so one call
transforms a single field of shape (N,) or a stack of fields of shape
(..., N) in one rfft/irfft pair, and every row of a stack gets exactly the
values it would get alone.  Derivatives act through the FFT of the
trigonometric interpolant; quadratic nonlinearities use the 2/3-rule
dealiased product, and higher powers are chained pairwise.

RealField is the typed boundary of the solvers: a grid function whose
shape is checked on construction and whose values can be checked finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "PeriodicGrid",
    "RealField",
    "dx",
    "lap",
    "dealias",
    "dp",
    "integrate",
    "l2_norm",
    "field_from_function",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on [0, length) with n_points nodes (even, >= 8)."""

    n_points: int
    length: float = TWO_PI

    def __post_init__(self):
        if self.n_points < 8 or self.n_points % 2 != 0:
            raise ValueError(f"n_points must be even and >= 8, got {self.n_points}")
        if not self.length > 0.0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_points) * self.spacing

    @cached_property
    def wavenumbers_half(self) -> np.ndarray:
        """Nonnegative wavenumbers matching numpy's rfft layout."""
        return np.fft.rfftfreq(self.n_points, d=1.0 / self.n_points) * (TWO_PI / self.length)

    @cached_property
    def dealias_keep(self) -> np.ndarray:
        """Boolean rfft-layout mask keeping |mode index| <= floor(N/3)."""
        cutoff = self.n_points // 3
        return np.arange(self.n_points // 2 + 1) <= cutoff


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

    def copy(self) -> "RealField":
        return RealField(self.grid, self.values.copy())

    def check_finite(self) -> "RealField":
        if not np.all(np.isfinite(self.values)):
            raise FloatingPointError("field contains NaN/Inf")
        return self


def field_from_function(grid: PeriodicGrid, fn) -> RealField:
    return RealField(grid, np.asarray(fn(grid.nodes), dtype=float))


def dx(grid: PeriodicGrid, v: np.ndarray) -> np.ndarray:
    """First derivative along the last axis."""
    h = np.fft.rfft(v, axis=-1)
    h *= 1j * grid.wavenumbers_half
    h[..., -1] = 0.0  # Nyquist mode carries no sign information for odd derivatives
    return np.fft.irfft(h, n=grid.n_points, axis=-1)


def lap(grid: PeriodicGrid, v: np.ndarray) -> np.ndarray:
    """Second derivative along the last axis."""
    h = np.fft.rfft(v, axis=-1)
    h *= -grid.wavenumbers_half**2
    return np.fft.irfft(h, n=grid.n_points, axis=-1)


def dealias(grid: PeriodicGrid, v: np.ndarray) -> np.ndarray:
    """2/3-rule truncation along the last axis."""
    h = np.fft.rfft(v, axis=-1)
    h[..., ~grid.dealias_keep] = 0.0
    return np.fft.irfft(h, n=grid.n_points, axis=-1)


def dp(grid: PeriodicGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise product with 2/3-rule truncation of inputs and output."""
    return dealias(grid, dealias(grid, a) * dealias(grid, b))


def integrate(f: RealField) -> float:
    """Trapezoid sum over the period; spectrally exact for trig polynomials."""
    return float(f.grid.spacing * f.values.sum())


def l2_norm(f: RealField) -> float:
    return float(np.sqrt(f.grid.spacing * np.square(f.values).sum()))
