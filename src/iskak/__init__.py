"""Numerical laboratory for a two-coefficient shallow-water wave model and
the full free-surface water-wave problem, with order-of-accuracy experiments."""

from .spectral import PeriodicGrid, RealField

__all__ = ["PeriodicGrid", "RealField"]
__version__ = "0.1.0"
