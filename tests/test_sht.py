import numpy as np
import pytest
from numpy.polynomial.legendre import legval
from scipy.special import roots_legendre

from loghls.fields import get_transform
from loghls.grids import make_sphere_grid
from loghls.sht import (SphereTransform, assoc_legendre_single_m,
                        legendre_analyze, normalized_assoc_legendre)


def test_normalized_assoc_legendre_orthonormal():
    z, w = roots_legendre(64)
    Q = normalized_assoc_legendre(40, z)
    for m in range(0, 9):
        B = Q[m:41, m, :]
        G = (B * (w / 2.0)) @ B.T
        assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-12


def test_single_m_matches_table():
    z = np.linspace(-0.99, 0.99, 37)
    Q = normalized_assoc_legendre(20, z)
    for m in (0, 1, 5, 17):
        rows = assoc_legendre_single_m(20, m, z)
        assert np.max(np.abs(rows - Q[m:, m, :])) <= 1e-13


def test_transform_roundtrip_band_limited():
    grid = make_sphere_grid(32, 64)
    tr = SphereTransform(grid, lmax=10)
    rng = np.random.default_rng(5)
    c = np.zeros((11, 11))
    s = np.zeros((11, 11))
    for l in range(11):
        c[l, : l + 1] = rng.normal(size=l + 1)
        s[l, 1: l + 1] = rng.normal(size=l)
    vals = tr.synthesize(c, s)
    c2, s2 = tr.analyze(vals)
    assert np.max(np.abs(c2 - c)) <= 1e-12
    assert np.max(np.abs(s2 - s)) <= 1e-12
    # pointwise evaluation agrees with grid synthesis
    pts_z = np.repeat(grid.z[:, None], grid.n_phi, axis=1)
    pts_phi = np.repeat(grid.phi[None, :], grid.n_z, axis=0)
    again = tr.evaluate(c, s, pts_z, pts_phi)
    assert np.max(np.abs(again - vals)) <= 1e-12


def test_table_holds_the_orders_the_grid_resolves():
    """On 256 x 8 the FFT resolves m <= 3, so the table holds those four
    order columns of the full table, and fields with m <= 3 round-trip."""
    grid = make_sphere_grid(256, 8)
    tr = SphereTransform(grid)
    assert tr.max_m == 3 and tr.Q.shape == (256, 4, 256)
    assert np.array_equal(tr.Q, normalized_assoc_legendre(255, grid.z)[:, :4])
    rng = np.random.default_rng(5)
    c = np.zeros((256, 256))
    s = np.zeros((256, 256))
    for m in range(4):
        c[m:9, m] = rng.normal(size=9 - m)
        s[m:9, m] = rng.normal(size=9 - m) if m else 0.0
    c2, s2 = tr.analyze(tr.synthesize(c, s))
    # on 256 nodes the Gram matrix of the rows Q_l0, l <= 8, against all
    # l <= 255 is the identity only to 1.1e-12, which bounds the round trip
    assert np.max(np.abs(c2 - c)) <= 2e-12
    assert np.max(np.abs(s2 - s)) <= 2e-12


def test_full_table_on_the_default_grid(sphere_grid):
    """On 128 x 256 every order is resolved: the shared transform's table
    is the full degree-127 table."""
    Q = get_transform(sphere_grid).Q
    assert np.array_equal(Q, normalized_assoc_legendre(127, sphere_grid.z))


def test_dirichlet_energy_eigenvalues():
    grid = make_sphere_grid(32, 64)
    tr = SphereTransform(grid, lmax=12)
    vals = np.repeat(grid.z[:, None], grid.n_phi, axis=1)   # u = z
    c, s = tr.analyze(vals)
    assert tr.dirichlet_energy(c, s) == pytest.approx(2.0 / 3.0, abs=1e-13)
    # an orthonormal harmonic has energy l(l+1)
    c = np.zeros((13, 13))
    s = np.zeros((13, 13))
    c[7, 3] = 1.0
    vals = tr.synthesize(c, s)
    c2, s2 = tr.analyze(vals)
    assert tr.dirichlet_energy(c2, s2) == pytest.approx(56.0, rel=1e-12)


def test_legendre_analyze_exact_for_polynomials():
    grid = make_sphere_grid(32, 8)
    coeffs = np.array([1.0, 0.5, 0.0, -0.25])
    vals = legval(grid.z, coeffs)
    back = legendre_analyze(vals, grid, 8)
    assert np.max(np.abs(back[:4] - coeffs)) <= 1e-13
    assert np.max(np.abs(back[4:])) <= 1e-13


def test_analyze_zonal_values_fill_the_m0_column():
    """Zonal values take the m = 0 shortcut: the m > 0 columns are exactly
    0, and c[:, 0] is the plain Legendre a_l over sqrt(2l+1)."""
    grid = make_sphere_grid(32, 64)
    tr = SphereTransform(grid)
    v = np.repeat(np.exp(0.7 * grid.z - 0.2 * grid.z**3)[:, None], grid.n_phi, axis=1)
    c, s = tr.analyze(v)
    assert not np.any(c[:, 1:]) and not np.any(s)
    ell = np.arange(tr.lmax + 1)
    a = legendre_analyze(v[:, 0], grid, tr.lmax)
    assert np.max(np.abs(c[:, 0] - a / np.sqrt(2 * ell + 1))) <= 1e-13
    # one value moved by roundoff sends the field down the FFT path
    w = v.copy()
    w[0, 1] *= 1.0 + 1e-15
    c2, s2 = tr.analyze(w)
    assert np.max(np.abs(c2[:, 0] - c[:, 0])) <= 1e-13
