import math

import numpy as np
import pytest
from hypothesis.internal.conjecture import providers as hypothesis_providers

from loghls.grids import make_radial_grid, make_sphere_grid
from loghls.specs import RunConfig

EULER_GAMMA = float(np.euler_gamma)

# Hypothesis mixes the literals of every loaded local module into the
# examples it draws, so the examples of a derandomized test depend on
# which modules the run has imported and on every literal in src/ and
# tests/.  An empty pool of local constants makes each derandomized test
# draw the same examples run alone or in the full suite.
if hasattr(hypothesis_providers, "_get_local_constants"):
    hypothesis_providers._get_local_constants = lambda: hypothesis_providers._local_constants


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
