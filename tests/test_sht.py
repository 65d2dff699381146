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
    Q = normalized_assoc_legendre(40, 40, z)
    for m in range(0, 9):
        B = Q[m:41, m, :]
        G = (B * (w / 2.0)) @ B.T
        assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-12


def test_single_m_matches_table():
    """The table, run for all orders at once, holds the per-order rows
    bit for bit, also when it stops at max_m < lmax; its rows m > l are 0."""
    z = np.linspace(-0.99, 0.99, 37)
    for max_m in (20, 6):
        Q = normalized_assoc_legendre(20, max_m, z)
        assert Q.shape == (21, max_m + 1, 37)
        for m in range(max_m + 1):
            assert np.array_equal(Q[m:, m, :], assoc_legendre_single_m(20, m, z))
            assert not Q[:m, m, :].any()


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
    tr = SphereTransform(grid, 255)
    assert tr.max_m == 3 and tr.Q.shape == (256, 4, 256)
    for m in range(4):
        assert np.array_equal(tr.Q[m:, m], assoc_legendre_single_m(255, m, grid.z))
        assert not tr.Q[:m, m].any()
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
    is the full degree-127 table, each order's rows those of
    assoc_legendre_single_m bit for bit."""
    Q = get_transform(sphere_grid).Q
    assert Q.shape == (128, 128, 128)
    for m in range(128):
        assert np.array_equal(Q[m:, m], assoc_legendre_single_m(127, m, sphere_grid.z))
        assert not Q[:m, m].any()


def _per_order_analyze(tr, values):
    """Reference analysis: one pair of matrix-vector products per order."""
    g, L = tr.grid, tr.lmax
    c, s = np.zeros((L + 1, L + 1)), np.zeros((L + 1, L + 1))
    wh = g.w_z / 2.0
    F = np.fft.rfft(values, axis=1)
    c[:, 0] = tr.Q[:, 0, :] @ (wh * (F[:, 0].real / g.n_phi))
    for m in range(1, tr.max_m + 1):
        qm = tr.Q[m:, m, :]
        c[m:, m] = (qm @ (wh * (2.0 * F[:, m].real / g.n_phi))) / np.sqrt(2.0)
        s[m:, m] = (qm @ (wh * (-2.0 * F[:, m].imag / g.n_phi))) / np.sqrt(2.0)
    return c, s


def _per_order_synthesize(tr, c, s):
    """Reference synthesis: one pair of matrix-vector products per order."""
    g = tr.grid
    F = np.zeros((g.n_z, g.n_phi // 2 + 1), dtype=complex)
    F[:, 0] = (tr.Q[:, 0, :].T @ c[:, 0]) * g.n_phi
    for m in range(1, tr.max_m + 1):
        Am = np.sqrt(2.0) * (tr.Q[m:, m, :].T @ c[m:, m])
        Bm = np.sqrt(2.0) * (tr.Q[m:, m, :].T @ s[m:, m])
        F[:, m] = (Am - 1j * Bm) * (g.n_phi / 2.0)
    return np.fft.irfft(F, n=g.n_phi, axis=1)


@pytest.mark.parametrize("shape, lmax", [((128, 256), 127), ((256, 8), 255), ((128, 256), 8)])
def test_stacked_transform_matches_the_per_order_loop(shape, lmax):
    """One stacked product over the order-major table gives the per-order
    products to rounding, with every order resolved (128 x 256), fewer
    orders than degrees (256 x 8, max_m = 3) and a band-limited lmax; the
    table is stored once, with ``Q`` a view of it.  The coefficients of
    white noise are below 0.1 and agree to 4e-17; its synthesized values
    reach about 3.5 and agree to 9e-16 of that."""
    tr = get_transform(make_sphere_grid(*shape), lmax)
    assert tr.Qm.flags.c_contiguous and np.shares_memory(tr.Q, tr.Qm)
    v = np.random.default_rng(lmax).normal(size=shape)
    c, s = tr.analyze(v)
    c0, s0 = _per_order_analyze(tr, v)
    assert np.max(np.abs(c - c0)) <= 1e-15 and np.max(np.abs(s - s0)) <= 1e-15
    assert not c[:, tr.max_m + 1:].any() and not s[:, tr.max_m + 1:].any()
    ref = _per_order_synthesize(tr, c, s)
    assert np.max(np.abs(tr.synthesize(c, s) - ref)) <= 2e-15 * np.max(np.abs(ref))


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
    tr = SphereTransform(grid, 31)
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
