"""Every call site that the benchmark's traced run wraps still exists.

``perfbench/layers.py`` wraps loghls functions under the names their
callers look up, and silently leaves out the metrics of a site that has
gone.  A deleted or renamed name fails here, naming the site, before a
benchmark run reports fewer per-layer metrics.
"""

import sys
from pathlib import Path

import pytest

import loghls

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))
from layers import LAYERS, _resolve  # noqa: E402

SITES = [(stem, site) for stem, (sites, _counter) in LAYERS.items() for site in sites]


def test_loghls_is_the_checkout():
    assert Path(loghls.__file__).resolve().parent == REPO / "src" / "loghls"


@pytest.mark.parametrize("stem, site", SITES, ids=[site for _, site in SITES])
def test_site_resolves(stem, site):
    assert _resolve(site) is not None, f"{stem}: {site} does not resolve"
