import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline
from scipy.special import i0

from loghls.errors import (DomainError, NormalizationError, PositivityError,
                           PreconditionError)
from loghls.fields import CircleField, PlanarDensity, SphereField, radial_from_profile
from loghls.functionals import (LOG_PI, MASS_TOL, MEAN_TOL, check_mass, check_mean_zero,
                                dirichlet_energy, entropy_term,
                                half_laplacian_energy, lebedev_milin_functional,
                                log_interaction, onofri_functional, planar_free_energy,
                                planar_free_energy_report, sphere_green_apply,
                                sphere_log_interaction, spherical_free_energy)
from loghls.geometry import lift_T, planar_from_profile, sphere_optimizer_values
from loghls.grids import integrate, make_circle_grid
from loghls.optimizers import (CircleOptimizerParams, PlanarOptimizerParams,
                               circle_optimizer, planar_optimizer_profile)
from loghls.specs import RunConfig, parse_input_spec, realize_planar

EULER_GAMMA = float(np.euler_gamma)
CFG = RunConfig()


def _gaussian(sigma: float):
    """The unit-mass Gaussian of scale sigma on the run's radial grid."""
    return realize_planar(parse_input_spec(f"gaussian:sigma={sigma!r}"), CFG)


# ----------------------------------------------------------------------
# planar interaction / free energy
# ----------------------------------------------------------------------

def test_angular_mean_identity_oracle():
    """Numeric azimuthal mean of log|x - x'| equals log max(|x|, |x'|)."""
    rng = np.random.default_rng(4)
    theta = 2 * np.pi * np.arange(4096) / 4096
    for _ in range(20):
        r1, r2 = rng.uniform(0.1, 5.0, size=2)
        if abs(r1 - r2) < 0.05:
            r2 = r1 + 0.5
        d2 = r1**2 + r2**2 - 2 * r1 * r2 * np.cos(theta)
        mean = float(np.mean(0.5 * np.log(d2)))
        assert abs(mean - np.log(max(r1, r2))) <= 1e-8


def test_gaussian_values():
    rho = _gaussian(1.0)
    inter = log_interaction(rho)
    assert inter == pytest.approx(np.log(2.0) - EULER_GAMMA / 2.0, abs=1e-8)
    rep = planar_free_energy_report(rho)
    assert rep.entropy == pytest.approx(-np.log(2 * np.pi) - 1.0, abs=1e-8)
    assert rep.total == pytest.approx(np.log(2.0) - EULER_GAMMA, abs=1e-6)


def test_gaussian_dilation_invariance():
    """H(gaussian) does not depend on sigma: the log-r trapezoid rule
    converges exponentially on these integrands (spread 1.3e-13 over 41
    values of sigma in [0.3, 3])."""
    vals = [planar_free_energy(_gaussian(float(s))) for s in np.geomspace(0.3, 3.0, 9)]
    assert max(vals) - min(vals) <= 1e-12


def test_optimizer_family_values(radial_fine):
    h = radial_from_profile(radial_fine, lambda r: (1 / np.pi) * (1 + r**2) ** -2)
    assert log_interaction(h) == pytest.approx(0.5, abs=1e-6)
    assert entropy_term(h) == pytest.approx(-LOG_PI - 2.0, abs=1e-6)
    for s in (0.5, 1.0, 2.0):
        rho = radial_from_profile(radial_fine, planar_optimizer_profile(PlanarOptimizerParams(s)))
        assert abs(planar_free_energy(rho)) <= 1e-6


@pytest.mark.parametrize("x0", ["(1,-1)", "(4,0)", "(30,0)"])
def test_lift_free_energy_offcenter(x0):
    rho = realize_planar(parse_input_spec(f"optimizer:s=1,x0={x0}"), RunConfig())
    assert abs(planar_free_energy(rho)) <= 1e-6


def test_lift_matches_radial_for_gaussian(sphere_grid):
    rho_r = _gaussian(1.0)
    for shift in ((0.0, 0.0), (0.3, -0.2)):
        rho_l = planar_from_profile(
            sphere_grid, lambda x, y: np.exp(-(x**2 + y**2) / 2) / (2 * np.pi),
            shift).normalized()
        assert log_interaction(rho_l) == pytest.approx(log_interaction(rho_r), abs=1e-8)
        assert entropy_term(rho_l) == pytest.approx(entropy_term(rho_r), abs=1e-8)


def test_lift_parts_of_the_optimizer(sphere_grid):
    """The lifted parts of an off-center optimizer s^-2 h(x/s - x0) match
    their exact values -log(pi s^2) - 2 and 1/2 + log s, with the lift's
    south-pole value taken from its callable or, without one, from the ring
    nearest the pole."""
    cfg = RunConfig()
    cases = [(planar_from_profile(sphere_grid,
                                  lambda x, y: (1 / np.pi) * (1 + x**2 + y**2) ** -2,
                                  (0.5, 0.5)), 1.0)]
    cases += [(realize_planar(parse_input_spec(text), cfg), s)
              for text, s in (("optimizer:s=2,x0=(1,-1)", 2.0),
                              ("optimizer:s=1,x0=(30,0)", 1.0))]
    for rho, s in cases:
        bare = PlanarDensity(SphereField(rho.lifted.grid, rho.lifted.values), rho.shift)
        for h in (rho, bare):
            assert entropy_term(h) == pytest.approx(-LOG_PI - 2.0 - 2.0 * np.log(s), abs=1e-6)
            assert log_interaction(h) == pytest.approx(0.5 + np.log(s), abs=1e-6)
            assert abs(planar_free_energy(h)) <= 1e-12


def test_radial_interaction_consistent_with_double_sum(radial_fine):
    """The cumulative-mass evaluation agrees with the plain product-rule
    double sum built from the same angular-mean identity (the double sum
    itself carries an O(n^-2) diagonal-kink error, hence the tolerance)."""
    rho = _gaussian(1.0)
    m = radial_fine.weights * rho.values
    logr = np.log(radial_fine.nodes)
    S1 = np.cumsum(m)
    S2 = np.concatenate((np.cumsum((m * logr)[::-1])[::-1][1:], [0.0]))
    brute = float(np.sum(m * (logr * S1 + S2)))
    assert log_interaction(rho) == pytest.approx(brute, abs=1e-5)


def test_free_energy_mass_precondition(radial_fine):
    rho = radial_from_profile(radial_fine, lambda r: 2 * np.exp(-r**2) / np.pi)
    with pytest.raises(NormalizationError):
        planar_free_energy(rho)


def test_each_precondition_holds_its_own_tolerance():
    """The unit-mass check accepts a mass inside MASS_TOL and refuses one
    outside it, the mean-zero check accepts a mean at MEAN_TOL and refuses
    one an ulp past it, both refuse NaN, and a mass error is a precondition
    error too."""
    for expected in (1.0, 8.0 * np.pi):
        check_mass("m", expected + MASS_TOL / 2, expected)
        for bad in (expected + 2 * MASS_TOL, expected - 2 * MASS_TOL, np.nan):
            with pytest.raises(NormalizationError, match=r"^m = "):
                check_mass("m", bad, expected)
    check_mean_zero("f", MEAN_TOL)
    check_mean_zero("f", -MEAN_TOL)
    for bad in (np.nextafter(MEAN_TOL, 1.0), np.nan):
        with pytest.raises(PreconditionError, match=r"^f = (nan|1\.0000000000000002e-08), "):
            check_mean_zero("f", bad)
    assert issubclass(NormalizationError, PreconditionError)


def test_divergent_log_moment_rejected(radial_fine):
    heavy = radial_from_profile(radial_fine, lambda r: 1.0 / (1.0 + r**2))
    with pytest.raises(DomainError):
        log_interaction(heavy)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(spec=st.sampled_from(("gaussian:sigma={s!r}",
                             "perturbed-optimizer:eps=0.3,mode=2,s={s!r}")),
       scale=st.floats(0.3, 3.0))
def test_free_energy_is_dilation_invariant(spec, scale):
    """H(rho) does not change under rho -> s^-2 rho(x/s)."""
    cfg = RunConfig()
    H = planar_free_energy(realize_planar(parse_input_spec(spec.format(s=scale)), cfg))
    H1 = planar_free_energy(realize_planar(parse_input_spec(spec.format(s=1.0)), cfg))
    assert abs(H - H1) <= 1e-6


# ----------------------------------------------------------------------
# sphere
# ----------------------------------------------------------------------

def test_spherical_free_energy_zero_field(sphere_grid):
    f = SphereField(sphere_grid, np.zeros(sphere_grid.shape), axisymmetric=True)
    rep = spherical_free_energy(f)
    assert rep.total == 0.0 and rep.entropy == 0.0 and rep.interaction == 0.0


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_spherical_free_energy_on_optimizers(sphere_grid, t):
    vals = np.exp(sphere_optimizer_values(t, np.array([0, 0, 1.0]), sphere_grid.points()))
    f = SphereField(sphere_grid, vals - 1.0, axisymmetric=True)
    assert abs(spherical_free_energy(f).total) <= 1e-5


def test_spherical_free_energy_tilted_optimizer(sphere_grid):
    n = np.array([0.6, 0.0, 0.8])
    vals = np.exp(sphere_optimizer_values(1.0, n, sphere_grid.points()))
    f = SphereField(sphere_grid, vals - 1.0)
    assert abs(spherical_free_energy(f).total) <= 1e-4


def sphere_log_interaction_zkernel(f: SphereField) -> float:
    """The interaction of an axisymmetric mean-zero field through the
    azimuthal mean identity (1/2pi) int log|w-w'| dphi' =
    (1/2) log[(1+max z)(1-min z)]: an independent reference for the
    harmonic-coefficient route of ``sphere_log_interaction``."""
    assert f.axisymmetric and abs(f.mean()) <= 1e-8
    g = f.grid
    vals = f.values[:, 0]
    F = CubicSpline(g.z, vals / 2.0).antiderivative()(g.z)
    G = CubicSpline(g.z, vals * np.log1p(-g.z) / 2.0).antiderivative()(g.z)
    zonal = vals * (np.log1p(g.z) * F + G)
    return integrate(np.broadcast_to(zonal[:, None], g.shape), g)


def test_sphere_interaction_zkernel_cross_check(sphere_grid):
    lifted = lift_T(_gaussian(1.0))
    f = SphereField(lifted.grid, lifted.values - lifted.mean(), axisymmetric=True)
    a = sphere_log_interaction(f)
    b = sphere_log_interaction_zkernel(f)
    assert a == pytest.approx(b, abs=1e-5)


def test_sphere_interaction_degree_one(sphere_grid):
    f = SphereField.from_zonal(sphere_grid, lambda z: z)
    # f = z has the orthonormal coefficient 1/sqrt(3): value -1/2 * (1/3) / 2
    assert sphere_log_interaction(f) == pytest.approx(-1.0 / 12.0, abs=1e-12)
    # the z-kernel oracle has an O(n_z^-2) endpoint-log quadrature error
    assert sphere_log_interaction_zkernel(f) == pytest.approx(-1.0 / 12.0, abs=1e-4)


def test_spherical_free_energy_preconditions(sphere_grid):
    with pytest.raises(PreconditionError):
        spherical_free_energy(SphereField.from_zonal(sphere_grid, lambda z: 0.1 + 0 * z))
    bad = SphereField.from_zonal(sphere_grid, lambda z: 1.5 * z)  # f+1 < 0 somewhere
    with pytest.raises(PositivityError):
        spherical_free_energy(bad)


def test_green_function_eigenvalues(sphere_small):
    for ell, eig in ((1, 2.0), (2, 6.0), (3, 12.0)):
        coeffs = np.zeros(ell + 1)
        coeffs[ell] = 1.0
        f = SphereField.from_zonal(sphere_small,
                                   lambda z, _c=coeffs: np.polynomial.legendre.legval(z, _c))
        g = sphere_green_apply(f)
        assert np.max(np.abs(g.values - f.values / eig)) <= 1e-4
    with pytest.raises(PreconditionError):
        sphere_green_apply(SphereField.from_zonal(sphere_small, lambda z: 1.0 + z))


def test_onofri_functional_values(sphere_grid):
    zero = SphereField(sphere_grid, np.zeros(sphere_grid.shape), axisymmetric=True)
    assert onofri_functional(zero) == pytest.approx(0.0, abs=1e-14)
    u1 = SphereField.from_fn(sphere_grid,
                             lambda p: sphere_optimizer_values(1.0, np.array([0, 0, 1.0]), p),
                             axisymmetric=True)
    assert abs(onofri_functional(u1)) <= 1e-6
    assert u1.mean() == pytest.approx(2.0 - 2.0 / np.tanh(1.0), abs=1e-12)
    assert dirichlet_energy(u1) == pytest.approx(8.0 / np.tanh(1.0) - 8.0, abs=1e-10)


def test_onofri_constant_invariance(sphere_grid):
    u = SphereField.from_zonal(sphere_grid, lambda z: 0.4 * z - 0.2 * z**2)
    J = onofri_functional(u)
    for c in (1.0, -3.5, 100.0):
        assert onofri_functional(u.shifted(c)) == pytest.approx(J, abs=1e-10)


def test_onofri_small_perturbation_series(sphere_grid):
    eps = 0.1
    u = SphereField.from_zonal(sphere_grid, lambda z: eps * z)
    J = onofri_functional(u)
    exact = eps**2 / 6.0 - np.log(np.sinh(eps) / eps)
    assert J == pytest.approx(exact, abs=1e-12)
    assert J == pytest.approx(eps**4 / 180.0, rel=2e-3)


# ----------------------------------------------------------------------
# circle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kmax,n", [(64, 8), (64, 100), (64, 512), (4096, 512)])
def test_circle_values_match_the_dense_sum(kmax, n):
    """The FFT evaluation agrees with u = c_0 + 2 Re sum c_k e^{ik theta},
    also when the grid is coarser than the field (kmax >= n / 2)."""
    rng = np.random.default_rng(kmax + n)
    k = np.arange(1, kmax + 1)
    coeffs = np.r_[0.3, (rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)) / k]
    grid = make_circle_grid(n)
    dense = coeffs[0].real + 2.0 * (np.exp(1j * np.outer(grid.theta, k)) @ coeffs[1:]).real
    got = CircleField(coeffs).values(grid)
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_circle_zero_field():
    u = CircleField(np.zeros(8, dtype=complex))
    assert half_laplacian_energy(u) == 0.0
    assert lebedev_milin_functional(u, CFG.circle_grid()) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
def test_poisson_kernel_values(r):
    u = circle_optimizer(CircleOptimizerParams(r, 0.3))
    assert half_laplacian_energy(u) == pytest.approx(-2.0 * np.log1p(-r * r), abs=1e-12)
    assert u.mean() == pytest.approx(np.log1p(-r * r), abs=1e-15)
    assert abs(lebedev_milin_functional(u, CFG.circle_grid())) <= 1e-8


def test_poisson_half_energy_value():
    u = circle_optimizer(CircleOptimizerParams(0.5, 0.0))
    assert half_laplacian_energy(u) == pytest.approx(0.575364, abs=1e-6)
    assert u.mean() == pytest.approx(-0.287682, abs=1e-6)


def test_cos_field_energy_and_lm():
    for eps in (0.1, 0.3):
        coeffs = np.zeros(8, dtype=complex)
        coeffs[1] = eps / 2.0
        u = CircleField(coeffs)
        assert half_laplacian_energy(u) == pytest.approx(eps**2 / 2.0, abs=1e-15)
        lm = lebedev_milin_functional(u, CFG.circle_grid())
        assert lm == pytest.approx(eps**2 / 4.0 - np.log(i0(eps)), abs=1e-10)
