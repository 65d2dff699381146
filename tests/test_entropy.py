import numpy as np
import pytest
from scipy.special import logsumexp

from loghls import entropy as ent
from loghls.errors import DomainError, NormalizationError

NU2 = np.array([0.5, 0.5])
P = np.array([1.5, 0.5])
Q = np.array([1.0, 1.0])


def xlogx_masked(x):
    """x log x by a boolean gather and scatter, as xlogx once computed it."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def test_xlogx_propagates_nan_and_matches_the_masked_form():
    out = ent.xlogx(np.array([np.nan, -1.0, -0.0, 0.0, 1e-300, np.inf]))
    assert np.isnan(out[0])
    assert np.all(out[1:4] == 0.0)
    assert out[4] == pytest.approx(1e-300 * np.log(1e-300), rel=1e-15)
    assert out[5] == np.inf
    rng = np.random.default_rng(23)
    x = rng.uniform(-1.0, 3.0, 4096)
    x[::5] = 0.0
    assert np.array_equal(ent.xlogx(x), xlogx_masked(x))
    # on x >= 0 the bits agree too (x <= 0 gives -0.0 where x < 0)
    x = np.abs(x)
    assert np.array_equal(ent.xlogx(x).view(np.int64), xlogx_masked(x).view(np.int64))


def test_two_point_worked_values():
    H = ent.relative_entropy(P, Q, NU2)
    assert H == pytest.approx(0.75 * np.log(1.5) + 0.25 * np.log(0.5), abs=1e-14)
    assert H == pytest.approx(0.130812, abs=1e-6)
    pg = ent.pinsker_gap(P, Q, NU2)
    assert pg == pytest.approx(H - 0.125, abs=1e-14)
    assert pg == pytest.approx(0.005812, abs=1e-6)


def test_relative_entropy_basics():
    assert ent.relative_entropy(Q, Q, NU2) == 0.0
    # rho1 charging the null set of rho0 gives +inf
    assert ent.relative_entropy([2.0, 0.0], [0.0, 2.0], NU2) == np.inf
    with pytest.raises(NormalizationError):
        ent.relative_entropy([2.0, 2.0], Q, NU2)
    with pytest.raises(DomainError):
        ent.relative_entropy([-1.0, 3.0], Q, NU2)


@pytest.mark.parametrize("name", ["relative_entropy", "l1_distance", "half_convexity_gap"])
def test_density_errors_name_the_operation(name):
    """Each check names the function that was called, for the density,
    its partner and the measure."""
    fn = getattr(ent, name)
    with pytest.raises(NormalizationError, match=rf"^{name}\(rho1\): density has mass 2\.0"):
        fn([2.0, 2.0], Q, NU2)
    with pytest.raises(DomainError, match=rf"^{name}\(rho0\): density must be nonnegative"):
        fn(Q, [-1.0, 3.0], NU2)
    with pytest.raises(DomainError, match=rf"^{name}: reference measure must be nonnegative"):
        fn(Q, Q, [-0.5, 1.5])


def test_log_partition_and_gibbs():
    nu = NU2
    assert ent.log_partition(np.zeros(2), nu) == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(ent.gibbs_density(np.zeros(2), nu), [1.0, 1.0])
    phi = np.array([np.log(2.0), 0.0])
    lp = ent.log_partition(phi, nu)
    assert lp == pytest.approx(np.log(1.5), abs=1e-14)
    assert lp == pytest.approx(0.405465, abs=1e-6)
    assert np.allclose(ent.gibbs_density(phi, nu), [4.0 / 3.0, 2.0 / 3.0], atol=1e-14)
    with pytest.raises(DomainError):
        ent.log_partition(np.array([np.inf, 0.0]), nu)


def test_strong_young_two_point():
    gap = ent.strong_young_gap(Q, np.array([np.log(2.0), 0.0]), NU2)
    exact = np.log(1.5) - 0.5 * np.log(2.0) - 0.5 / 9.0
    assert gap == pytest.approx(exact, abs=1e-14)
    assert gap == pytest.approx(0.003335, abs=1e-6)
    # equality case: rho = gibbs(phi)
    phi = np.array([0.7, -0.2])
    g = ent.gibbs_density(phi, NU2)
    assert abs(ent.strong_young_gap(g, phi, NU2)) <= 1e-14


def test_half_convexity_reduces_to_pinsker_for_uniform_base():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        nu = rng.dirichlet(np.ones(k))
        p = rng.dirichlet(np.ones(k)) / np.maximum(nu, 1e-300)
        ones = np.ones(k)
        assert ent.half_convexity_gap(p, ones, nu) == pytest.approx(
            ent.pinsker_gap(p, ones, nu), abs=1e-14)


def test_half_convexity_requires_positive_base():
    with pytest.raises(DomainError):
        ent.half_convexity_gap([1.0, 1.0], [2.0, 0.0], NU2)


@pytest.mark.parametrize("gap_fn", ["pinsker", "young", "halfconv"])
def test_gap_nonnegativity_sweeps(gap_fn):
    rng = np.random.default_rng(hash(gap_fn) % 2**31)
    worst = np.inf
    for _ in range(400):
        k = int(rng.integers(2, 9))
        nu = rng.dirichlet(np.ones(k))
        p = rng.dirichlet(np.ones(k)) / np.maximum(nu, 1e-300)
        if gap_fn == "pinsker":
            q = rng.dirichlet(np.ones(k)) / np.maximum(nu, 1e-300)
            worst = min(worst, ent.pinsker_gap(p, q, nu))
        elif gap_fn == "young":
            phi = rng.normal(0, 2, size=k)
            worst = min(worst, ent.strong_young_gap(p, phi, nu))
        else:
            q = rng.dirichlet(np.ones(k)) / np.maximum(nu, 1e-300)
            worst = min(worst, ent.half_convexity_gap(p, q, nu))
    assert worst >= -1e-12


def test_duality_round_trip_brute_force():
    """sup_phi <phi, rho> - log Z(phi) recovers H(rho) at interior points."""
    nu = np.array([0.4, 0.35, 0.25])
    rho = np.array([1.2, 0.9, 0.82]) / np.sum(np.array([1.2, 0.9, 0.82]) * nu)
    H = float(np.sum(nu * ent.xlogx(rho)))
    grid = np.linspace(-6.0, 6.0, 241)
    a, b = np.meshgrid(grid, grid, indexing="ij")  # phi = (a, b, 0) by shift invariance
    phi = np.stack([a.ravel(), b.ravel(), np.zeros(a.size)], axis=1)
    log_Z = logsumexp(phi, b=nu, axis=1)
    vals = phi @ (nu * rho) - log_Z
    k = int(np.argmax(vals))
    assert abs(ent.log_partition(phi[k], nu) - log_Z[k]) <= 1e-14
    assert abs(vals[k] - H) <= 1e-3


def test_small_set_delta():
    delta, degenerate = ent.small_set_delta(0.5, 1.0)
    assert not degenerate
    assert delta == pytest.approx(np.exp(-4.0), abs=1e-15)
    assert delta == pytest.approx(0.018316, abs=1e-6)
    delta0, deg0 = ent.small_set_delta(0.5, 0.0)
    assert deg0 and delta0 == 0.0
    with pytest.raises(DomainError):
        ent.small_set_delta(-0.1, 1.0)
    with pytest.raises(DomainError):
        ent.small_set_delta(0.5, -1.0)


def test_small_set_property_sweep():
    rng = np.random.default_rng(17)
    for _ in range(300):
        k = int(rng.integers(2, 7))
        nu = rng.dirichlet(np.ones(k))
        p = rng.dirichlet(np.ones(k)) / np.maximum(nu, 1e-300)
        q = rng.dirichlet(np.ones(k)) / np.maximum(nu, 1e-300)
        H = ent.relative_entropy(p, q, nu)
        if not np.isfinite(H) or H <= 0:
            continue
        eps = float(rng.uniform(0.05, 0.9))
        delta, degenerate = ent.small_set_delta(eps, H)
        assert not degenerate
        p_mass, q_mass = p * nu, q * nu
        for mask in range(1, 2**k):
            sel = [(mask >> i) & 1 == 1 for i in range(k)]
            if q_mass[sel].sum() <= delta:
                assert p_mass[sel].sum() <= eps + 1e-12
