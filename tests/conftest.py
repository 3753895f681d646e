import numpy as np
import pytest

from iskak.experiments import _random_band_limited as random_band_limited  # noqa: F401
from iskak.spectral import PeriodicGrid, RealField


@pytest.fixture
def grid64():
    return PeriodicGrid(64)


@pytest.fixture
def grid128():
    return PeriodicGrid(128)


def zeros(grid):
    return RealField(grid, np.zeros(grid.n_points))
