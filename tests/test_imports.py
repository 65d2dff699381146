"""Which scipy modules a command loads.

``import loghls`` loads numpy and scipy.linalg's LAPACK wrappers.
scipy.special is imported where it is used: by the first sphere grid
(``grids.make_sphere_grid``'s Gauss-Legendre rule) and by
``entropy.log_partition``.  So ``ks`` and the radial ``eval`` and
``stability`` commands never load it.  The manifold searches refine in
numpy (``optimizers.minimize``), so scipy.optimize is loaded by no
command, and scipy.interpolate not at all.  Each check runs in a fresh
interpreter, so no other test's imports count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import loghls

DEFERRED = ("scipy.optimize", "scipy.interpolate", "scipy.special")


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
    "from loghls import cli; cli.main(['stability', 'optimizer:s=2'])",
], ids=["import", "eval", "ks", "stability"])
def test_commands_without_a_manifold_search_load_neither(code):
    """Nor scipy.special: no sphere grid is built and no log-partition taken."""
    assert loaded_after(code) == []


def test_a_sphere_stability_run_loads_scipy_special_alone():
    """All three sphere searches, the reverse-entropy and the two L1 ones,
    run without scipy.optimize; the sphere grid loads scipy.special."""
    code = ("from loghls import cli\n"
            "cli.main(['stability', 'band-limited-random:seed=21,L=3,amplitude=0.1'])")
    assert loaded_after(code) == ["scipy.special"]
