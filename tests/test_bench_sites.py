"""Every call site that the benchmark's traced run wraps still exists.

``perfbench/layers.py`` wraps loghls functions under the names their
callers look up, and silently leaves out the metrics of a site that has
gone.  A deleted or renamed name fails here, naming the site, before a
benchmark run reports fewer per-layer metrics.  A traced Keller-Segel
run must also still call each wrapped ``flows`` name, so that every
``flows.*`` metric is reported.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import loghls
from loghls.fields import radial_from_profile
from loghls.flows import KS_R_MAX, KS_R_MIN
from loghls.grids import make_radial_grid

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))
from layers import KS_OTHER, LAYERS, PER_ITEM, Tracer, _resolve  # noqa: E402

SITES = [(stem, site) for stem, (sites, _counter) in LAYERS.items() for site in sites]


def test_loghls_is_the_checkout():
    assert Path(loghls.__file__).resolve().parent == REPO / "src" / "loghls"


@pytest.mark.parametrize("stem, site", SITES, ids=[site for _, site in SITES])
def test_site_resolves(stem, site):
    assert _resolve(site) is not None, f"{stem}: {site} does not resolve"


def test_traced_ks_run_reports_every_flows_metric(monkeypatch):
    for sites, _counter in LAYERS.values():
        for site in sites:
            owner, attr = _resolve(site)
            monkeypatch.setattr(owner, attr, getattr(owner, attr))   # undone at teardown
    tracer = Tracer()
    tracer.install()
    rho = radial_from_profile(make_radial_grid(1e4 * math.exp(-25.0), 1e4, 1024),
                              lambda r: 4.0 * np.exp(-r**2 / 2.0))
    traj, _state = loghls.ks_evolve(rho, T=0.05, n=256, r_min=KS_R_MIN, r_max=KS_R_MAX,
                                    n_samples=64)
    metrics = tracer.metrics({}, 1)
    names = [name for name in PER_ITEM if name.startswith("flows.")] + [KS_OTHER[0]]
    assert [name for name in names if name not in metrics] == []
    steps = traj.diagnostics["steps"]
    assert metrics["flows.ks_steps"] == steps > 0
    assert metrics["flows.ks_free_energy_calls"] == steps + 1
    assert metrics["flows.ks_solve_s"] > 0.0 and metrics["flows.ks_distance_s"] > 0.0
