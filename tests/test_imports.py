"""Which scipy modules a command loads.

``import loghls`` loads numpy, scipy.linalg's LAPACK wrappers and
scipy.special.  scipy.optimize is imported at the first manifold search
(``optimizers.minimize``), and scipy.interpolate not at all.  Each check
runs in a fresh interpreter, so no other test's imports count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import loghls

DEFERRED = ("scipy.optimize", "scipy.interpolate")


def loaded_after(code: str) -> list[str]:
    """The DEFERRED modules in sys.modules after ``code`` runs."""
    script = f"import sys\n{code}\nprint(*[m for m in {DEFERRED!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(loghls.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("code", [
    "import loghls",
    "from loghls import cli; cli.main(['eval', 'gaussian:sigma=1'])",
    "from loghls import cli; cli.main(['ks', '8pi*gaussian:sigma=1', '--T', '0.05', "
    "'--samples', '2'])",
], ids=["import", "eval", "ks"])
def test_commands_without_a_manifold_search_load_neither(code):
    assert loaded_after(code) == []


def test_the_first_manifold_search_loads_scipy_optimize():
    code = ("import numpy as np\n"
            "from loghls.grids import make_sphere_grid\n"
            "from loghls.optimizers import nearest_sphere_L1\n"
            "g = make_sphere_grid(16, 32)\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "nearest_sphere_L1(np.ones(g.shape), g)")
    assert loaded_after(code) == ["scipy.optimize"]
