import math

import numpy as np
import pytest

from loghls.grids import make_radial_grid, make_sphere_grid
from loghls.specs import RunConfig

EULER_GAMMA = float(np.euler_gamma)


@pytest.fixture(scope="session")
def radial_fine():
    """Default planar working grid (the acceptance settings' grid)."""
    return RunConfig().radial_grid()


@pytest.fixture(scope="session")
def radial_small():
    return make_radial_grid(1e4 * math.exp(-25.0), 1e4, 1024)


@pytest.fixture(scope="session")
def sphere_grid():
    return make_sphere_grid(128, 256)


@pytest.fixture(scope="session")
def sphere_small():
    return make_sphere_grid(64, 128)
