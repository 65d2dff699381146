import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loghls.errors import DomainError, PreconditionError
from loghls import optimizers, stability, suite
from loghls.fields import SphereField, get_transform, radial_from_profile
from loghls.functionals import (dirichlet_energy, onofri_functional,
                                sphere_log_interaction, spherical_free_energy)
from loghls.geometry import lift_T, sphere_optimizer_values
from loghls.grids import integrate, make_sphere_grid
from loghls.optimizers import (LOG_S_BOX, PlanarOptimizerParams, SphereOptimizerParams,
                               planar_optimizer_profile, recenter,
                               sphere_optimizer)
from loghls.specs import (RunConfig, parse_input_spec, realize_circle, realize_planar,
                          realize_sphere)
from loghls.stability import (ORACLE_SWEEP, ConvexPairSpec, _radial_oracle_distance,
                              circle_stability_certificate, onofri_stability_certificates,
                              planar_stability_certificate, sphere_stability_certificates,
                              spherical_stability_certificate, toy_duality_demo)

EULER_GAMMA = float(np.euler_gamma)


def _gaussian():
    """The unit-mass Gaussian of scale 1 on the run's radial grid."""
    return realize_planar(parse_input_spec("gaussian:sigma=1"), RunConfig())


def test_planar_certificate_on_manifold(radial_fine):
    rho = radial_from_profile(radial_fine, planar_optimizer_profile(PlanarOptimizerParams(1.3)))
    cert = planar_stability_certificate(rho)
    assert cert.passed
    assert abs(cert.value) <= 1e-6
    assert cert.distance <= 1e-4
    assert abs(cert.gap) <= 1e-6
    assert cert.search["evaluations"] > 0 and not cert.search["boundary_hit"]


def test_planar_certificate_gaussian():
    cert = planar_stability_certificate(_gaussian())
    assert cert.passed
    assert cert.value == pytest.approx(np.log(2.0) - EULER_GAMMA, abs=1e-6)
    assert cert.gap == pytest.approx(cert.value - cert.distance**2 / 8.0, abs=1e-15)
    assert cert.gap > 0.09


def test_planar_certificate_oracle_agrees(radial_small):
    rho = radial_from_profile(
        radial_small,
        lambda r: 0.5 * (1 / np.pi) * (1 + r**2) ** -2
        + 0.5 * (1 / (9 * np.pi)) * (1 + (r / 3.0) ** 2) ** -2)
    cert = planar_stability_certificate(rho)
    assert cert.passed
    assert _radial_oracle_distance(rho) == pytest.approx(cert.distance, abs=1e-4)


def test_radial_oracle_is_the_profile_sweep():
    """The oracle sweeps the search's objective over ORACLE_SWEEP log s;
    it equals a sweep of the optimizer profile, and the search's distance
    lies at or below it."""
    rho = realize_planar(parse_input_spec(
        "mixture:weights=(0.5,0.5),components=(optimizer:s=0.2|optimizer:s=5)"), RunConfig())
    cert = planar_stability_certificate(rho)
    oracle = _radial_oracle_distance(rho)
    sweep = min(integrate(np.abs(rho.values - planar_optimizer_profile(
                    PlanarOptimizerParams(float(np.exp(ls))))(rho.grid.nodes)), rho.grid)
                for ls in np.linspace(-LOG_S_BOX, LOG_S_BOX, ORACLE_SWEEP))
    assert abs(oracle - sweep) <= 1e-14 * sweep
    assert cert.distance <= oracle + 1e-12


@pytest.mark.parametrize("spec", ["optimizer:s=1e-3", "optimizer:s=2e-3", "gaussian:sigma=1e-3",
                                  "optimizer:s=1e-5"])
def test_planar_certificate_refuses_an_optimum_on_the_box_edge(spec):
    """Centered densities narrower than the searched range s >= e^-6 fit the
    radial grid, but their search stops on the range's edge (distance 0.85
    and gap -0.090 for s = 1e-3, distance 0.944 for sigma = 1e-3 against
    0.3595 at sigma = 3e-3).  They raise, naming the range, instead of
    certifying."""
    rho = realize_planar(parse_input_spec(spec), RunConfig())
    with pytest.raises(DomainError, match=r"searched range s in \[e\^-6, e\^6\]"):
        planar_stability_certificate(rho)


def test_spherical_certificate_matches_planar():
    rho = _gaussian()
    pc = planar_stability_certificate(rho)
    lifted = lift_T(rho)
    f = SphereField(lifted.grid, lifted.values - lifted.mean(), axisymmetric=True)
    sc = spherical_stability_certificate(f)
    assert sc.passed
    assert sc.value == pytest.approx(pc.value, abs=1e-3)
    assert sc.distance == pytest.approx(pc.distance, abs=1e-3)


def test_spherical_certificate_on_manifold(sphere_grid):
    vals = np.exp(sphere_optimizer_values(1.0, np.array([0, 0, 1.0]), sphere_grid.points()))
    f = SphereField(sphere_grid, vals - integrate(vals, sphere_grid), axisymmetric=True)
    cert = spherical_stability_certificate(f)
    assert cert.passed
    assert abs(cert.value) <= 1e-5
    assert cert.distance <= 1e-3
    assert cert.search["evaluations"] > 0 and not cert.search["boundary_hit"]


def test_onofri_certificates_on_manifold(sphere_grid):
    u = sphere_optimizer(SphereOptimizerParams(1.0, (0, 0, 1.0)), sphere_grid)
    for cert in onofri_stability_certificates(u):
        assert cert.passed
        assert abs(cert.gap) <= 3e-6
        assert cert.search["evaluations"] > 0 and not cert.search["boundary_hit"]


def test_onofri_certificates_perturbation(sphere_grid):
    base = SphereField.from_zonal(sphere_grid, lambda z: 0.3 * z)
    u0 = base.shifted(-float(np.log(base.exp_integral())))
    res = recenter(u0)
    ca, cb, cc = onofri_stability_certificates(res.field)
    for cert in (ca, cb, cc):
        assert cert.passed
        assert cert.gap > 0.0
    # monotone consistency: at the entropy-nearest v, Pinsker transports
    # the entropy certificate into the L1 certificate
    U = res.field
    t, n = cb.search["t"], np.array(cb.search["n"])
    v = sphere_optimizer_values(t, n, sphere_grid.points())
    H = float(integrate(np.exp(v) * (v - U.values), sphere_grid))
    l1 = float(integrate(np.abs(np.exp(U.values) - np.exp(v)), sphere_grid))
    assert 0.5 * H >= 0.25 * l1**2 - 1e-12


def test_onofri_certificates_need_normalization(sphere_grid):
    u = SphereField.from_zonal(sphere_grid, lambda z: 0.4 * z)
    with pytest.raises(PreconditionError):
        onofri_stability_certificates(u)


# the sphere specs of the CI's package step
CI_SPHERE_SPECS = ("band-limited-random:seed=21,L=3,amplitude=0.1",
                   "band-limited-random:seed=7,L=6,amplitude=0.25")


@pytest.mark.parametrize("spec", CI_SPHERE_SPECS)
def test_sphere_certificates_share_one_L1_search(spec, monkeypatch):
    """The joint pass returns the Onofri certificates unchanged and the
    log-HLS certificate of f = e^u - int e^u from the same L1 search."""
    u = realize_sphere(parse_input_spec(spec), RunConfig())
    calls, real = [], stability.nearest_sphere_L1
    monkeypatch.setattr(stability, "nearest_sphere_L1",
                        lambda *args: calls.append(args) or real(*args))
    *onofri, cert = sphere_stability_certificates(u)
    assert len(calls) == 1
    assert tuple(onofri) == onofri_stability_certificates(u)
    fvals = np.exp(u.values)
    fvals -= integrate(fvals, u.grid)
    alone = spherical_stability_certificate(SphereField(u.grid, fvals))
    assert cert.value == alone.value
    assert cert.distance == pytest.approx(alone.distance, rel=1e-14, abs=0.0)
    assert cert.search == onofri[2].search
    assert cert.gap == cert.value - 0.125 * cert.distance**2


@pytest.mark.parametrize("spec", CI_SPHERE_SPECS)
def test_onofri_certificates_share_one_smooth_search(spec, monkeypatch):
    """The gradient and entropy forms come from one reverse-entropy search:
    the Onofri certificates make 2 minimize calls (it and the L1 search),
    the joint pass with the log-HLS certificate 2 as well, and the
    gradient form's ``search`` is the entropy form's."""
    u = realize_sphere(parse_input_spec(spec), RunConfig())
    calls, real = [], optimizers.minimize
    monkeypatch.setattr(optimizers, "minimize",
                        lambda *args, **kw: calls.append(kw["method"]) or real(*args, **kw))
    grad, entropy, _ = onofri_stability_certificates(u)
    assert calls == ["BFGS", "Nelder-Mead"]
    calls.clear()
    sphere_stability_certificates(u)
    assert calls == ["BFGS", "Nelder-Mead"]
    assert grad.search == entropy.search
    assert grad.gap >= 0.0 and entropy.gap >= 0.0


def test_sphere_certificates_take_the_log_hls_distance_of_f_plus_1(sphere_grid):
    """With int e^u = 1 + 5e-7, inside MASS_TOL, the log-HLS distance is
    ||(f+1) - e^{u_{t,n}}||_1 at the shared (t, n), not the Onofri one."""
    base = SphereField.from_zonal(sphere_grid, lambda z: 0.3 * z + 0.2 * z**2)
    u = base.shifted(math.log(1.0 + 5e-7) - math.log(base.exp_integral()))
    *_, l1, cert = sphere_stability_certificates(u)
    t, n = cert.search["t"], np.array(cert.search["n"])
    ev = np.exp(sphere_optimizer_values(t, n, sphere_grid.points()))
    f_plus_1 = np.exp(u.values) - integrate(np.exp(u.values), sphere_grid) + 1.0
    dist = integrate(np.abs(f_plus_1 - ev), sphere_grid)
    assert cert.distance == pytest.approx(dist, rel=1e-13, abs=0.0)
    assert l1.distance != pytest.approx(dist, rel=1e-9, abs=0.0)    # 2e-6 apart


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_sphere_certificates_near_the_manifold(sphere_grid, eps):
    """u = eps P_2, normalized: the second-order closed forms J/eps^2 -> 1/5,
    E_inf/eps^2 -> 6/5, H_inf/eps^2 -> 1/10, H_S/eps^2 -> 1/15 and both L1
    distances / eps -> ||P_2||_1 = 2/(3 sqrt 3), each to O(eps).

    The measured departures are 0.0095 eps in the values, 2e-13 in E_inf,
    and 0.095 eps + 9.5e-5 relative in the distances; the last is the
    quadrature error of ||P_2||_1, whose |.| kinks at z = +-1/sqrt 3."""
    p2 = SphereField.from_zonal(sphere_grid, lambda z: eps * 0.5 * (3.0 * z * z - 1.0))
    u = p2.shifted(-math.log(p2.exp_integral()))
    grad, entropy, l1, log_hls = sphere_stability_certificates(u)
    e2, value_tol = eps**2, 0.02 * eps + 1e-12
    assert grad.value / e2 == pytest.approx(1 / 5, abs=value_tol)
    assert grad.distance**2 / e2 == pytest.approx(6 / 5, abs=value_tol)
    assert entropy.distance**2 / e2 == pytest.approx(1 / 10, abs=value_tol)
    assert log_hls.value / e2 == pytest.approx(1 / 15, abs=value_tol)
    for cert in (l1, log_hls):
        assert cert.distance / eps == pytest.approx(2 / (3 * math.sqrt(3)),
                                                    rel=0.2 * eps + 2e-4)


@settings(max_examples=5, derandomize=True, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=14, max_size=14).filter(
    lambda a: sum(x * x for x in a) >= 1.0))
def test_sphere_certificates_near_the_manifold_on_even_fields(sphere_grid, coeffs):
    """u = eps f, normalized, with f of degrees 2 and 4 and random
    coefficients: each certificate matches its second-order closed form
    (ROADMAP 15), with ||f_l|| the L2 norm of f's degree-l part:
    J/eps^2 -> sum (l(l+1)/4 - 1/2) ||f_l||^2, E_inf/eps^2 ->
    sum l(l+1) ||f_l||^2, H_inf/eps^2 -> sum ||f_l||^2 / 2, H_S/eps^2 ->
    sum (1/2 - 1/(l(l+1))) ||f_l||^2, and both L1 distances / eps ->
    ||f||_1, taken on a 256 x 512 grid.

    On these draws the values depart by at most 1.13 eps relative and the
    distances by 0.79 eps, which holds the L1 quadrature error (up to
    3.1e-5 at 128 x 256 on 20 other such fields).  An even f makes the
    reverse entropy even in v, so its search stays at its t = 0 start,
    and E_inf is E(u) within 8.7e-14."""
    c, s = np.zeros((5, 5)), np.zeros((5, 5))
    c[2, :3], s[2, 1:3], c[4, :], s[4, 1:] = np.split(np.array(coeffs), [3, 5, 10])
    norms = {l: float(c[l] @ c[l] + s[l] @ s[l]) for l in (2, 4)}
    l1 = integrate(np.abs(get_transform(_FINE, lmax=4).synthesize(c, s)), _FINE)
    f = get_transform(sphere_grid, lmax=4).synthesize(c, s)
    for eps in (1e-1, 1e-2, 1e-3):
        u = SphereField(sphere_grid, eps * f)
        u = u.shifted(-math.log(u.exp_integral()))
        grad, entropy, l1_cert, log_hls = sphere_stability_certificates(u)
        e2, tol = eps**2, 3.0 * eps
        assert grad.value / e2 == pytest.approx(
            sum((0.25 * l * (l + 1) - 0.5) * n for l, n in norms.items()), rel=tol)
        assert grad.distance**2 / e2 == pytest.approx(
            sum(l * (l + 1) * n for l, n in norms.items()), rel=1e-12)
        assert entropy.distance**2 / e2 == pytest.approx(0.5 * sum(norms.values()), rel=tol)
        assert log_hls.value / e2 == pytest.approx(
            sum((0.5 - 1.0 / (l * (l + 1))) * n for l, n in norms.items()), rel=tol)
        for cert in (l1_cert, log_hls):
            assert cert.distance / eps == pytest.approx(l1, rel=1.5 * eps + 1e-4)


_FINE = make_sphere_grid(256, 512)


def _constrained_onofri_gap(u: SphereField) -> float:
    """(1/8) int |grad u|^2 - log int e^u + int u, which the improved
    constant 1/8 keeps >= 0 when the barycenter of e^u vanishes."""
    return onofri_functional(u) - dirichlet_energy(u) / 8.0


def test_constrained_onofri_gap(sphere_grid):
    zero = SphereField(sphere_grid, np.zeros(sphere_grid.shape), axisymmetric=True)
    assert _constrained_onofri_gap(zero) == pytest.approx(0.0, abs=1e-12)
    # u = c P_2 normalized is barycenter-free; gap ~ c^2/20 for small c
    c = 0.02
    base = SphereField.from_zonal(sphere_grid, lambda z: c * 0.5 * (3 * z**2 - 1))
    u = base.shifted(-float(np.log(base.exp_integral())))
    assert np.linalg.norm(u.barycenter()) <= 1e-8
    gap = _constrained_onofri_gap(u)
    assert gap > 0.0
    assert gap == pytest.approx(c**2 / 20.0, rel=0.05)


def test_constrained_gap_on_recentered_fields():
    cfg = RunConfig()
    for seed in (0, 1):
        u = realize_sphere(parse_input_spec(
            f"band-limited-random:seed={seed},L=4,amplitude=0.3"), cfg)
        res = recenter(u)
        assert np.linalg.norm(res.field.barycenter()) <= 1e-8
        assert _constrained_onofri_gap(res.field) >= -1e-9


def test_circle_certificate():
    cfg = RunConfig()
    cert = circle_stability_certificate(
        realize_circle(parse_input_spec("circle-poisson:r=0.5,alpha=1"), cfg), cfg.circle_grid())
    assert cert.passed and abs(cert.gap) <= 1e-10
    assert cert.search["evaluations"] > 0 and not cert.search["boundary_hit"]
    pert = realize_circle(parse_input_spec("circle-cos:eps=0.3"), cfg)
    cert = circle_stability_certificate(pert, cfg.circle_grid())
    assert cert.passed and cert.gap > 0.0
    assert cert.constant == 0.25
    assert cert.grid == "circle n=512"


def test_circle_functions_use_the_run_circle_grid(monkeypatch):
    """A circle grid finer than the default reaches the certificate and
    every circle call of A12."""
    cfg = RunConfig(circle_n=1024)
    u = realize_circle(parse_input_spec("circle-cos:eps=0.3"), cfg)
    assert circle_stability_certificate(u, cfg.circle_grid()).grid == "circle n=1024"
    seen = []

    def spy(fn):
        def call(u, grid):
            seen.append(grid.n)
            return fn(u, grid)
        return call

    for name in ("lebedev_milin_functional", "circle_stability_certificate"):
        monkeypatch.setattr(suite, name, spy(getattr(suite, name)))
    assert suite.run_all(cfg, ["A12"])[0].passed
    assert seen == [1024] * (3 + 4 + 10)


# ----------------------------------------------------------------------
# duality demonstrator
# ----------------------------------------------------------------------

def test_duality_1d_quadratic():
    spec = ConvexPairSpec(dim=1, E=lambda x: (x**2).sum(axis=1),
                          F=lambda x: 2.0 * (x**2).sum(axis=1), C=1.0, lam=0.25)
    rep = toy_duality_demo(spec)
    assert rep.passed
    assert rep.mu == 1.0
    Y = rep.details["Y"][:, 0]
    assert np.max(np.abs(rep.details["Estar"] - Y**2 / 4.0)) <= 2e-2
    assert np.max(np.abs(rep.details["Fstar"] - Y**2 / 8.0)) <= 2e-2
    # transferred bound holds with equality here
    assert np.max(np.abs(rep.details["Estar"] - rep.details["Fstar"] - Y**2 / 8.0)) <= 2e-2
    assert rep.young_min_slack >= -1e-12
    assert rep.young_equality_consistent


def test_duality_identical_pair():
    spec = ConvexPairSpec(dim=1, E=lambda x: (x**2).sum(axis=1),
                          F=lambda x: (x**2).sum(axis=1), C=1.0, lam=0.25)
    rep = toy_duality_demo(spec)
    assert rep.passed
    assert rep.dual_order_max_violation <= 1e-12
    # the equality set is the whole box, so the transfer bound is trivial
    assert rep.details["E0"].shape[0] == rep.details["Y"].shape[0]


def test_duality_2d_anisotropic():
    spec = ConvexPairSpec(dim=2,
                          E=lambda x: x[:, 0]**2 + 2.0 * x[:, 1]**2,
                          F=lambda x: 2.0 * x[:, 0]**2 + 3.0 * x[:, 1]**2,
                          C=1.0, lam=0.125)
    rep = toy_duality_demo(spec)
    assert rep.passed
    assert rep.mu == pytest.approx(0.5)
    Y = rep.details["Y"]
    exact_E = Y[:, 0]**2 / 4.0 + Y[:, 1]**2 / 8.0
    exact_F = Y[:, 0]**2 / 8.0 + Y[:, 1]**2 / 12.0
    assert np.max(np.abs(rep.details["Estar"] - exact_E)) <= 2e-2
    assert np.max(np.abs(rep.details["Fstar"] - exact_F)) <= 2e-2
    assert rep.transfer_min_slack >= -2e-2


def test_duality_pair_dimension_is_one_or_two():
    """The demo's grids are sized for dimensions 1 and 2, the two that
    ``duality-demo --dim`` offers."""
    with pytest.raises(DomainError):
        ConvexPairSpec(dim=3, E=lambda x: (x**2).sum(axis=1),
                       F=lambda x: 2.0 * (x**2).sum(axis=1), C=1.0, lam=0.25)


def test_duality_premise_violation():
    spec = ConvexPairSpec(dim=1, E=lambda x: 2.0 * (x**2).sum(axis=1),
                          F=lambda x: (x**2).sum(axis=1), C=1.0, lam=0.25)
    with pytest.raises(DomainError):
        toy_duality_demo(spec)


# ----------------------------------------------------------------------
# transfer proof chain, term by term
# ----------------------------------------------------------------------

def test_transfer_proof_chain():
    """The three-line derivation of the spherical stability bound holds
    numerically term by term for a lifted Gaussian."""
    lifted = lift_T(_gaussian())
    f = SphereField(lifted.grid, lifted.values - lifted.mean(), axisymmetric=True)
    grid = f.grid
    # a competitor u on the manifold (not the optimal one)
    u = sphere_optimizer_values(0.3, np.array([0, 0, 1.0]), grid.points())
    eu = np.exp(u)

    E_u = float(np.log(integrate(eu, grid))) - float(integrate(u, grid))
    Estar_f = spherical_free_energy(f).entropy
    pairing = float(integrate(u * f.values, grid))
    B = float(integrate(np.abs(f.values - (eu - 1.0)), grid))
    # strong Young (Legendre pair of the entropy on the sphere)
    t1 = E_u + Estar_f - pairing - 0.5 * B**2
    assert t1 >= -1e-9

    # Onofri L1 stability at the L1-nearest manifold point
    uf = SphereField(grid, u, axisymmetric=True)
    Ju = onofri_functional(uf)
    from loghls.optimizers import nearest_sphere_L1
    _, A, _ = nearest_sphere_L1(eu, grid)
    t2 = Ju - 0.25 * A**2
    assert t2 >= -1e-9

    # F*(f) = <f, G f> dominates the pairing minus the Dirichlet part
    Fstar_f = -2.0 * sphere_log_interaction(f)
    t3 = Fstar_f - (pairing - 0.25 * dirichlet_energy(uf))
    assert t3 >= -1e-9

    # chain: H_S(f) >= 1/4 (A^2 + B^2) >= 1/8 (A+B)^2 >= 1/8 dist^2
    HS = Estar_f - Fstar_f
    assert HS >= 0.25 * (A**2 + B**2) - 1e-8
    assert 0.25 * (A**2 + B**2) >= 0.125 * (A + B) ** 2 - 1e-12
    cert = spherical_stability_certificate(f)
    assert 0.125 * (A + B) ** 2 >= 0.125 * cert.distance**2 - 1e-8
