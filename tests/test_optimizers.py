import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize as scipy_minimize

import loghls.optimizers as optimizers
from loghls.errors import DomainError, NormalizationError
from loghls.fields import CircleField, RadialDensity, SphereField, radial_from_profile
from loghls.functionals import dirichlet_energy, planar_free_energy
from loghls.geometry import T_CAP, ConformalParams, conformal_push, sphere_optimizer_values
from loghls.grids import integrate, make_circle_grid, make_sphere_grid
from loghls.optimizers import (_SPHERE_DIRS, CIRCLE_MAX_MODES, CIRCLE_MAX_R, LOG_S_BOX,
                               CircleOptimizerParams, PlanarOptimizerParams,
                               SphereOptimizerParams, _at_v,
                               _gradient_energy, _l1_objective, _manifold_minimize,
                               _pushed_barycenter, _reverse_entropy_objective, _scan_starts,
                               _SphereFamily,
                               circle_optimizer, golden_section, nearest_circle_L1,
                               nearest_planar_L1, nearest_sphere_gradient, nearest_sphere_L1,
                               nearest_sphere_reverse_entropy, planar_optimizer_profile,
                               radial_L1_objective, recenter, sphere_optimizer)
from loghls.specs import (RunConfig, parse_input_spec, realize_circle, realize_planar,
                          realize_sphere)
from loghls.stability import (circle_stability_certificate, onofri_stability_certificates,
                              pass_tolerance)

GAUSSIAN_NEAREST_DISTANCE = 0.35954192       # frozen from a 10^4-point log-s sweep
CFG = RunConfig()                              # shared, so its grids are built once


def test_golden_section_quadratic():
    x, f = golden_section(lambda x: (x - 0.7) ** 2 + 1.0, -2.0, 3.0, tol=1e-12)
    assert x == pytest.approx(0.7, abs=1e-6)
    assert f == pytest.approx(1.0, abs=1e-15)


def test_planar_optimizer_radial(radial_fine):
    rho = radial_from_profile(radial_fine, planar_optimizer_profile(PlanarOptimizerParams(1.0)))
    assert abs(rho.mass - 1.0) <= 1e-6
    rho2 = radial_from_profile(radial_fine, planar_optimizer_profile(PlanarOptimizerParams(2.0)))
    assert abs(rho2.mass - 1.0) <= 1e-6
    assert rho2.profile(0.0) == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-15)
    assert abs(planar_free_energy(rho2)) <= 1e-6
    with pytest.raises(DomainError):
        PlanarOptimizerParams(-1.0)


def test_nearest_planar_recovers_member(radial_fine):
    rho = radial_from_profile(radial_fine, planar_optimizer_profile(PlanarOptimizerParams(1.7)))
    params, dist, diag = nearest_planar_L1(rho)
    assert params.s == pytest.approx(1.7, abs=1e-6)
    assert dist <= 1e-5
    assert not diag.boundary_hit


def test_nearest_planar_gaussian_oracle(radial_fine):
    rho = realize_planar(parse_input_spec("gaussian:sigma=1"), CFG)
    params, dist, _ = nearest_planar_L1(rho)
    assert dist == pytest.approx(GAUSSIAN_NEAREST_DISTANCE, abs=1e-4)
    # dense-sweep oracle on the same grid, 2001 points around the optimum
    w, r = radial_fine.weights, radial_fine.nodes
    best = np.inf
    for ls in np.linspace(np.log(params.s) - 0.5, np.log(params.s) + 0.5, 2001):
        s = np.exp(ls)
        prof = (1.0 / (np.pi * s * s)) * (1.0 + (r / s) ** 2) ** -2
        best = min(best, float(np.sum(w * np.abs(rho.values - prof))))
    assert dist <= best + 1e-10
    assert abs(dist - best) <= 1e-4


@settings(max_examples=20, derandomize=True, deadline=None)
@given(spec=st.sampled_from(("gaussian:sigma={s!r}",
                             "perturbed-optimizer:eps=0.3,mode=1,s={s!r}",
                             "perturbed-optimizer:eps=0.3,mode=2,s={s!r}")),
       scale=st.floats(0.3, 3.0))
def test_centered_planar_distance_is_dilation_invariant(spec, scale):
    """d(rho) = inf_s ||rho - h_s||_1 does not change under rho -> s^-2 rho(x/s).
    The L1 integrand has kinks where rho crosses h_s, so the radial rule
    is second order on it: the relative spread over 41 scales in [0.3, 3]
    is 1.6e-5."""
    d = nearest_planar_L1(realize_planar(parse_input_spec(spec.format(s=scale)), CFG))[1]
    d1 = nearest_planar_L1(realize_planar(parse_input_spec(spec.format(s=1.0)), CFG))[1]
    assert abs(d - d1) <= 3e-5 * d1


def test_radial_L1_objective_matches_the_profile_formula(radial_fine):
    """The in-place kernel is integrate(|rho - h_s|) with h_s from the
    profile formula, at 200 values of log s across the search box."""
    rho = realize_planar(parse_input_spec("gaussian:sigma=1"), CFG)
    values = rho.values.copy()
    r = radial_fine.nodes
    l1 = radial_L1_objective(rho.values, radial_fine)
    for ls in np.linspace(-LOG_S_BOX, LOG_S_BOX, 200):
        s = np.exp(ls)
        prof = (1.0 / (np.pi * s * s)) * (1.0 + (r / s) ** 2) ** -2
        assert abs(l1(ls) - integrate(np.abs(rho.values - prof), radial_fine)) <= 1e-15
    assert np.array_equal(rho.values, values)


def _mixture(weights, scales, offset=(0.0, 0.0)) -> str:
    """Mixture of optimizers s^-2 h(x/s - x0), all centered at offset."""
    comps = "|".join(f"optimizer:s={s!r},x0=({offset[0] / s!r},{offset[1] / s!r})"
                     for s in scales)
    return f"mixture:weights=({','.join(repr(w) for w in weights)}),components=({comps})"


def _radial_mixture(weights, scales):
    """The unit-mass mixture of centered optimizers on the run's radial
    grid, built as realize_planar builds it, also at scales near e^5 that
    hold more than 1% of their mass in the grid's top tenth (which
    realize_planar refuses as invalid input)."""
    profiles = [planar_optimizer_profile(PlanarOptimizerParams(s)) for s in scales]
    rho = radial_from_profile(CFG.radial_grid(),
                              lambda r: sum(w * p(r) for w, p in zip(weights, profiles)))
    return rho if abs(rho.mass - 1.0) <= 1e-9 else rho.normalized()


def _five_bracket_search(rho):
    """The reference rule: golden section on all five brackets of the box
    (255 evaluations), ties within 1e-12 to the smallest s.  Returns
    (s, distance, boundary_hit)."""
    l1 = radial_L1_objective(rho.values, rho.grid)
    edges = np.linspace(-LOG_S_BOX, LOG_S_BOX, 6)
    candidates = [golden_section(l1, a, b) for a, b in zip(edges[:-1], edges[1:])]
    best = min(c[1] for c in candidates)
    ls, val = min((c for c in candidates if c[1] <= best + 1e-12), key=lambda c: c[0])
    return float(np.exp(ls)), float(val), abs(abs(ls) - LOG_S_BOX) < 1e-6


def _assert_matches_five_brackets(rho):
    params, dist, diag = nearest_planar_L1(rho)
    assert (params.s, dist, diag.boundary_hit) == _five_bracket_search(rho)
    assert diag.scan_evaluations == 16
    assert (diag.evaluations - 16) % 49 == 0          # 49 more per refined bracket
    return diag


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(-5.0, 5.0)),
                min_size=1, max_size=3))
def test_planar_search_matches_the_five_bracket_rule(components):
    """Refining only the brackets that hold a sampled minimum gives the
    five-bracket rule's s, distance and boundary flag bit for bit."""
    total = sum(w for w, _ in components)
    weights = [w / total for w, _ in components]
    weights[-1] = 1.0 - sum(weights[:-1])
    scales = [float(np.exp(ls)) for _, ls in components]
    _assert_matches_five_brackets(_radial_mixture(weights, scales))


@pytest.mark.parametrize("spec,evaluations", [
    ("optimizer:s=1.7", 65),                     # log s = 0.53 inside bracket [-1.2, 1.2]
    ("gaussian:sigma=1", 114),                   # and the box's end e^6: mass lost past r_max
    (_mixture((0.5, 0.5), (0.05, 20.0)), 212),   # two minima, one bracket each, and the
                                                 # outer brackets their samples do not bound
    (_mixture((0.5, 0.5), (0.2, 5.0)), 163),     # minima on two edges: three brackets
    (_mixture((0.5, 0.5), (20.09, 1.284)), 114), # a minimum between samples that fall
], ids=["optimizer", "gaussian", "bimodal-0.05-20", "bimodal-0.2-5", "hidden-minimum"])
def test_planar_search_refines_the_brackets_of_sampled_minima(spec, evaluations):
    diag = _assert_matches_five_brackets(realize_planar(parse_input_spec(spec), CFG))
    assert diag.evaluations == evaluations


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_radial_density_rejects_non_finite_values(radial_small, bad):
    values = np.ones(radial_small.n)
    values[100] = bad
    with pytest.raises(DomainError, match="finite"):
        RadialDensity(radial_small, values, profile=lambda r: np.ones_like(r))


def test_nearest_planar_bimodal_lift():
    mix = realize_planar(parse_input_spec(
        "mixture:weights=(0.5,0.5),components=(optimizer:s=1|optimizer:s=1,x0=(4,0))"), CFG)
    params, dist, diag = nearest_planar_L1(mix)
    assert diag.evaluations > 0 and not diag.boundary_hit
    # coarse lattice oracle, ||rho - h_{s,(cx,0)}||_1 summed on the lift
    f = mix.lifted
    pts = f.grid.points()
    x = pts[..., 0] / (1.0 + pts[..., 2]) + mix.shift[0]
    y = pts[..., 1] / (1.0 + pts[..., 2]) + mix.shift[1]
    lift_weight = 4.0 * np.pi / (1.0 + pts[..., 2]) ** 2
    best = np.inf
    for s in np.geomspace(0.5, 3.0, 24):
        for cx in np.linspace(-1.0, 5.0, 25):
            g = (1.0 / (np.pi * s * s)) * (1.0 + ((x - cx) / s) ** 2 + (y / s) ** 2) ** -2
            best = min(best, float(np.sum(f.grid.weights * np.abs(f.values - lift_weight * g))))
    assert dist <= best + 1e-6
    # the center lands between the lobes or on one of them
    cx_phys = params.s * params.x0[0]
    assert -0.5 <= cx_phys <= 4.5
    assert abs(params.s * params.x0[1]) <= 0.5


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(np.log(0.5), np.log(3.0))),
                min_size=1, max_size=3),
       st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
def test_lift_matches_centered_radial(components, offset):
    """A mixture of optimizers translated by one offset has the free energy
    and the manifold distance of its centered (radial) copy."""
    total = sum(w for w, _ in components)
    weights = [w / total for w, _ in components]
    weights[-1] = 1.0 - sum(weights[:-1])
    scales = [float(np.exp(ls)) for _, ls in components]
    centered = realize_planar(parse_input_spec(_mixture(weights, scales)), CFG)
    moved = realize_planar(parse_input_spec(_mixture(weights, scales, offset)), CFG)
    assert abs(planar_free_energy(moved) - planar_free_energy(centered)) <= 1e-6
    _, d_moved, _ = nearest_planar_L1(moved)
    _, d_centered, _ = nearest_planar_L1(centered)
    assert abs(d_moved - d_centered) <= 1e-4


def test_sphere_optimizer_basics(sphere_grid):
    u0 = sphere_optimizer(SphereOptimizerParams(0.0), sphere_grid)
    assert np.max(np.abs(u0.values)) == 0.0
    u1 = sphere_optimizer(SphereOptimizerParams(1.0), sphere_grid)
    assert abs(u1.exp_integral() - 1.0) <= 1e-8
    assert u1.mean() == pytest.approx(2.0 - 2.0 / np.tanh(1.0), abs=1e-10)
    # u_{t,n} = u_{-t,-n}: the defining formula is even under (t, n) -> (-t, -n)
    pts = sphere_grid.points()
    n = np.array([0.0, 0.6, 0.8])
    direct = sphere_optimizer_values(0.7, n, pts)
    flipped = -2.0 * np.log(np.cosh(-0.7) + np.sinh(-0.7) * (pts @ -n))
    assert np.max(np.abs(direct - flipped)) <= 1e-14
    with pytest.raises(DomainError):
        SphereOptimizerParams(21.0)


def test_nearest_sphere_entropy_recovers_member(sphere_grid):
    """The entropy search (H(e^{u_{t,n}} | e^u), the reverse direction)
    finds a member of the family at zero entropy."""
    n = np.array([0.0, 0.6, 0.8])
    u = sphere_optimizer(SphereOptimizerParams(0.8, tuple(n)), sphere_grid)
    params, H, diag = nearest_sphere_reverse_entropy(u)
    assert H <= 1e-8
    assert params.t == pytest.approx(0.8, abs=1e-3)
    assert np.dot(params.axis, n) == pytest.approx(1.0, abs=1e-4)
    assert not diag.boundary_hit
    assert diag.evaluations > 0
    assert diag.scan_evaluations == 1 + 8 * 34 and diag.iterations > 0


def test_nearest_sphere_entropy_constant_field(sphere_grid):
    zero = SphereField(sphere_grid, np.zeros(sphere_grid.shape),
                       fn=lambda p: np.zeros(p.shape[:-1]), axisymmetric=True)
    params, H, _ = nearest_sphere_reverse_entropy(zero)
    assert abs(H) <= 1e-12
    assert params.t <= 1e-4


def test_nearest_sphere_entropy_vs_grid_oracle(sphere_grid):
    # normalized small zonal perturbation: minimizer is axisymmetric
    base = SphereField.from_zonal(sphere_grid, lambda z: 0.3 * z)
    u = base.shifted(-float(np.log(base.exp_integral())))
    params, H, _ = nearest_sphere_reverse_entropy(u)
    w, pts = sphere_grid.weights, sphere_grid.points()
    best = np.inf
    for t in np.linspace(0.0, 0.5, 501):
        for n in (np.array([0, 0, 1.0]), np.array([0, 0, -1.0])):
            v = sphere_optimizer_values(t, n, pts)
            best = min(best, float(np.sum(w * np.exp(v) * (v - u.values))))
    assert H <= best + 1e-10
    assert abs(H - best) <= 1e-3


def test_nearest_sphere_requires_normalization(sphere_grid):
    u = SphereField.from_zonal(sphere_grid, lambda z: 0.5 * z)   # int e^u != 1
    for search in (nearest_sphere_reverse_entropy, nearest_sphere_gradient):
        with pytest.raises(NormalizationError):
            search(u)


@pytest.mark.parametrize("spec", ["band-limited-random:seed=21,L=3,amplitude=0.1",
                                  "band-limited-random:seed=7,L=6,amplitude=0.25",
                                  "band-limited-random:seed=3,L=8,amplitude=0.5"])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.floats(0.0, 1.0), st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda n: np.linalg.norm(n) >= 0.1))
def test_gradient_form_is_the_reverse_entropy_plus_a_constant(spec, t, n):
    """E(u - u_{t,n}) = E(u) + 4 int u + 4 H(e^{u_{t,n}} | e^u) at every
    (t, n): E by its definition (spectral) against the identity with H
    from the search's objective (quadrature).  Measured within 5.9e-14
    relative over 160 random (t <= 1, n) on four fields; the bound is
    5e-13."""
    u = realize_sphere(parse_input_spec(spec), CFG)
    n = np.array(n) / np.linalg.norm(n)
    H = _reverse_entropy_objective(_SphereFamily(u.grid), u.values)(t, n)[0]
    E = _gradient_energy(u, SphereOptimizerParams(t, tuple(n)))
    assert E == pytest.approx(dirichlet_energy(u) + 4.0 * u.mean() + 4.0 * H, rel=5e-13, abs=0.0)


@pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.0, 0.6, 0.8)])
def test_gradient_form_vanishes_on_exact_optimizers(sphere_grid, axis):
    """The gradient form of u_{t,n}, taken at the reverse-entropy search's
    optimum by its definition, is at most 1e-14 up to t = 3 (measured
    1.03e-15).  Its old quadrature objective read 2.35e-8 at t = 3."""
    for t in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        u = sphere_optimizer(SphereOptimizerParams(t, axis), sphere_grid)
        params, E, _ = nearest_sphere_gradient(u)
        assert 0.0 <= E <= 1e-14
        assert params.t == pytest.approx(t, abs=1e-6)


def test_recenter_fixed_point(sphere_grid):
    zero = SphereField(sphere_grid, np.zeros(sphere_grid.shape),
                       fn=lambda p: np.zeros(p.shape[:-1]), axisymmetric=True)
    res = recenter(zero)
    assert res.iterations == 0
    assert res.field is zero


def test_recenter_pulls_optimizer_back(sphere_grid):
    u = sphere_optimizer(SphereOptimizerParams(1.0, (0.0, 0.6, 0.8)), sphere_grid)
    res = recenter(u)
    assert res.barycenter_norm <= 1e-10
    assert np.max(np.abs(res.field.values)) <= 1e-8


def test_recenter_band_limited_and_idempotence(sphere_grid):
    cfg = RunConfig()
    u = realize_sphere(parse_input_spec("band-limited-random:seed=3,L=5,amplitude=0.3"), cfg)
    res = recenter(u)
    assert res.barycenter_norm <= 1e-10
    assert res.iterations <= 50
    again = recenter(res.field)
    assert np.max(np.abs(again.field.values - res.field.values)) <= 1e-8


# six band-limited probe fields and the Newton iterations recenter takes on each
RECENTER_PROBES = [("band-limited-random:seed=7,L=6,amplitude=0.25", 5),
                   ("band-limited-random:seed=1,L=3,amplitude=1", 8),
                   ("band-limited-random:seed=21,L=3,amplitude=0.1", 5),
                   ("band-limited-random:seed=2,L=5,amplitude=0.25", 6),
                   ("band-limited-random:seed=3,L=5,amplitude=0.3", 6),
                   ("band-limited-random:seed=7,L=8,amplitude=0.3", 5)]


@pytest.mark.parametrize("spec, iterations", RECENTER_PROBES)
def test_recenter_iteration_counts(spec, iterations):
    """recenter takes a fixed number of Newton iterations on each probe
    field and ends within RECENTER_TOL."""
    res = recenter(realize_sphere(parse_input_spec(spec), CFG))
    assert res.iterations == iterations
    assert res.barycenter_norm <= optimizers.RECENTER_TOL


def test_recenter_pushes_the_original_field_once(monkeypatch):
    """recenter scores its candidates by change of variables and composes
    its steps into one matrix: it pushes the original field once, that
    push calls u.fn once, and the result's callable calls it once."""
    u0 = realize_sphere(parse_input_spec("band-limited-random:seed=3,L=6,amplitude=0.25"), CFG)
    calls = []
    u = SphereField(u0.grid, u0.values, fn=lambda p: calls.append(1) or u0.fn(p))
    pushes = []
    push = optimizers.conformal_push
    monkeypatch.setattr(optimizers, "conformal_push",
                        lambda f, g: pushes.append(f) or push(f, g))
    res = recenter(u)
    assert res.iterations >= 3 and len(res.steps) == res.iterations
    assert len(pushes) == 1 and pushes[0] is u
    assert len(calls) == 1
    calls.clear()
    values = res.field.fn(u.grid.points())
    assert len(calls) == 1
    assert np.array_equal(values, res.field.values)


_UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


@settings(max_examples=15, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**16), L=st.integers(1, 5), amplitude=st.floats(0.05, 0.25),
       ta=st.floats(0.0, 1.5), na=_UNIT, tb=st.floats(0.0, 1.5), nb=_UNIT)
def test_pushed_barycenter_matches_the_push(seed, L, amplitude, ta, na, tb, nb):
    """The barycenter recenter scores by change of variables, on the
    original grid, is that of the pushed field, for a boost and for a
    product of two."""
    spec = f"band-limited-random:seed={seed},L={L},amplitude={amplitude!r}"
    u = realize_sphere(parse_input_spec(spec), CFG)
    barycenter = _pushed_barycenter(u)
    a = ConformalParams(ta, tuple(np.asarray(na) / np.linalg.norm(na)))
    b = ConformalParams(tb, tuple(np.asarray(nb) / np.linalg.norm(nb)))
    for G in (a.matrix, a.matrix @ b.matrix):
        assert np.max(np.abs(barycenter(G) - conformal_push(u, G).barycenter())) <= 1e-12


def test_recenter_stationarity_condition(sphere_grid):
    """At the recentered field, d/dt H(e^U | e^{u_{t,n}}) at t = 0 vanishes
    for every axis (finite differences at 1e-4)."""
    cfg = RunConfig()
    u = realize_sphere(parse_input_spec("band-limited-random:seed=5,L=4,amplitude=0.3"), cfg)
    res = recenter(u)
    U = res.field
    w = U.grid.weights * np.exp(U.values)
    pts = U.grid.points()
    base = float(np.sum(w * U.values))
    h = 1e-4
    for n in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])):
        Hp = base - float(np.sum(w * sphere_optimizer_values(h, n, pts)))
        Hm = base - float(np.sum(w * sphere_optimizer_values(h, -n, pts)))
        assert abs(Hp - Hm) / (2 * h) <= 1e-6


@pytest.mark.parametrize("r", [0.0, 0.01, 0.4, 0.95])
def test_nearest_circle_recovers_poisson(r):
    """Every Poisson kernel is found at distance 0, including one whose
    coarse scan is best at r = 0 (r = 0.01)."""
    u = circle_optimizer(CircleOptimizerParams(r, 2.5))
    params, dist, diag = nearest_circle_L1(u, CFG.circle_grid())
    assert dist <= 1e-8
    assert not diag.boundary_hit
    assert diag.scan_evaluations == 1 + 8 * 16 and diag.iterations > 0
    assert params.r == pytest.approx(r, abs=1e-5)
    if r > 0.0:
        assert params.alpha == pytest.approx(2.5, abs=1e-4)
    with pytest.raises(DomainError):
        CircleOptimizerParams(1.0)


def test_circle_near_one_certifies():
    """r = 0.999 needs 39,980 modes to truncate at r^k < e^-40 and is
    found at distance 0; a kernel past the mode cap is refused by name."""
    cert = circle_stability_certificate(circle_optimizer(CircleOptimizerParams(0.999, 0.0)),
                                        CFG.circle_grid())
    assert cert.passed and cert.distance <= 1e-8
    r = np.exp(-40.0 / CIRCLE_MAX_MODES) + 1e-5
    with pytest.raises(DomainError, match="cap"):
        circle_optimizer(CircleOptimizerParams(r, 0.0))
    # the bound the message names is within the cap, and the next 7-digit r is not
    circle_optimizer(CircleOptimizerParams(CIRCLE_MAX_R, 0.0))
    with pytest.raises(DomainError, match=f"r <= {CIRCLE_MAX_R}"):
        circle_optimizer(CircleOptimizerParams(CIRCLE_MAX_R + 1e-7, 0.0))


def test_nearest_circle_near_zero_field_oracle():
    """A field near the uniform density, whose nearest kernel has r = 0.0104:
    the search is no farther than a dense (r, alpha) lattice of Poisson
    kernels.  The lattice stops at r = 0.05, since ||P_r - 1||_1 >= 0.063
    there, so those kernels lie more than 0.063 - ||e^u - 1||_1 away."""
    coeffs = np.zeros(65, dtype=complex)
    coeffs[1], coeffs[2] = 0.01 * np.exp(-3j), 0.01
    grid = make_circle_grid(512)
    coeffs[0] = -np.log(integrate(np.exp(CircleField(coeffs).values(grid)), grid))
    u = CircleField(coeffs)
    params, dist, diag = nearest_circle_L1(u, grid)
    assert not diag.boundary_hit
    eu = np.exp(u.values(grid))
    assert 0.063 - np.mean(np.abs(eu - 1.0)) > dist
    cos = np.cos(grid.theta[None, :] - np.linspace(0.0, 2.0 * np.pi, 720,
                                                   endpoint=False)[:, None])
    oracle = min(float(np.min(np.mean(np.abs(eu - (1 - r * r) / (1 - 2 * r * cos + r * r)),
                                      axis=1)))
                 for r in np.linspace(0.0, 0.05, 101))
    assert dist <= oracle + 1e-9


def test_nearest_planar_rotation_symmetry():
    """L1 distance to the manifold is invariant under a quarter rotation
    of the density about the origin."""
    a = realize_planar(parse_input_spec(
        "mixture:weights=(0.5,0.5),components=(optimizer:s=1|optimizer:s=1,x0=(3,0))"), CFG)
    b = realize_planar(parse_input_spec(
        "mixture:weights=(0.5,0.5),components=(optimizer:s=1|optimizer:s=1,x0=(0,-3))"), CFG)
    _, da, _ = nearest_planar_L1(a)
    _, db, _ = nearest_planar_L1(b)
    assert da == pytest.approx(db, abs=1e-6)


def test_nearest_planar_boundary_warning(radial_small):
    """A density far narrower than the search box pins the minimizer to
    the boundary of [e^-6, e^6] and sets the warning flag."""
    s2 = 5e-4**2
    rho = radial_from_profile(radial_small, lambda r: np.exp(-r**2 / (2 * s2)) / (2 * np.pi * s2))
    params, dist, diag = nearest_planar_L1(rho)
    assert diag.boundary_hit
    assert params.s == pytest.approx(np.exp(-6.0), rel=1e-4)


@pytest.mark.parametrize("spec, distance", [
    pytest.param("band-limited-random:seed=21,L=3,amplitude=0.1", 0.090689, id="seed21"),
    pytest.param("band-limited-random:seed=2,L=5,amplitude=0.25", 0.295497, id="seed2"),
])
def test_sphere_search_leaves_t_zero(spec, distance):
    """A field whose coarse scan is best at t = 0 still finds the nearer
    optimizer at small t, and certifies as its recentered image does."""
    u = realize_sphere(parse_input_spec(spec), CFG)
    grad, entropy, l1 = onofri_stability_certificates(u)
    assert grad.search["t"] > 0.0
    assert grad.distance == pytest.approx(distance, abs=2e-6)
    assert grad.gap >= -pass_tolerance(grad.value)
    rec = onofri_stability_certificates(recenter(u).field)
    for c, r in zip((grad, entropy, l1), rec):
        assert c.distance == pytest.approx(r.distance, rel=1e-4)


def _objectives(u: SphereField):
    """(search, its arguments, objective builder, its arguments, smooth) for
    each sphere search; a smooth objective returns (value, gradient,
    Hessian)."""
    eu = np.exp(u.values)
    return [
        (nearest_sphere_reverse_entropy, (u,), _reverse_entropy_objective, (u.values,), True),
        (nearest_sphere_L1, (eu, u.grid), _l1_objective, (eu,), False),
    ]


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.5, 3.0, 15.0])
def test_sphere_objectives_match_closed_forms(t):
    """Each in-place objective agrees with its closed form on both poles
    and three other axes.  Up to t = 3 the closed form goes through
    sphere_optimizer_values, np.exp and np.sum, within 1e-12 relative.

    At t = 15, q = cosh t + sinh t n.w cancels to about e^-15 near -n, so
    a float64 reference only pins one rounding of q.  There the reference
    is q = (e^t |n+w|^2 + e^-t |n-w|^2) / 4 in long double, which does not
    cancel.  Against it the reverse entropy errs by up to 2.1e-12 relative
    with q from the point matmul, and by up to 2.9e-12 with q from the
    rank-2 product of grids.affine_values; the bound is 5e-12.
    """
    u = realize_sphere(parse_input_spec("band-limited-random:seed=3,L=5,amplitude=0.3"), CFG)
    g = u.grid
    cancels = t > 3.0
    real = np.longdouble if cancels else float
    w, pts, uv = (a.astype(real) for a in (g.weights, g.points(), u.values))
    eu = np.exp(uv)
    fam = _SphereFamily(g)
    reverse, l1 = (objective(fam, *args) for _, _, objective, args, _ in _objectives(u))
    for n in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
              [1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0], [-0.48, 0.64, -0.6]):
        n = np.array(n)
        if cancels:
            tl = real(t)
            q = (np.exp(tl) * np.sum((n + pts) ** 2, axis=-1)
                 + np.exp(-tl) * np.sum((n - pts) ** 2, axis=-1)) / 4.0
            v = -2.0 * np.log(q)
        else:
            v = sphere_optimizer_values(t, n, pts)
        ev = np.exp(v)
        for val, closed in ((reverse(t, n)[0], np.sum(w * ev * (v - uv))),
                            (l1(t, n), np.sum(w * np.abs(eu - ev)))):
            assert val == pytest.approx(float(closed), rel=5e-12 if cancels else 1e-12, abs=0.0)


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.5, 3.0, 15.0])
def test_smooth_objective_gradients_match_central_differences(t):
    """The gradient in v = t n of the smooth objective agrees with central
    differences (h = 1e-6) of its value in v, within 1e-6 of
    max(|grad|, 1), and its Hessian, which is symmetric, with central
    differences (h = 1e-5) of the gradient, within 1e-6 of max(|Hessian|, 1)
    (measured up to 5.5e-8, at t = 3), on both poles and three other axes."""
    u = realize_sphere(parse_input_spec("band-limited-random:seed=7,L=6,amplitude=0.25"), CFG)
    fam = _SphereFamily(u.grid)
    smooth = [objective(fam, *args) for _, _, objective, args, _ in _objectives(u)[:1]]

    def central(fun, v, h, k):
        """Central differences of output k of fun at v, along each axis."""
        return np.array([(_at_v(fun, v + h * e, np.inf)[k] - _at_v(fun, v - h * e, np.inf)[k])
                         / (2.0 * h) for e in np.eye(3)])

    for n in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
              [1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0], [-0.48, 0.64, -0.6]):
        n = np.array(n)
        for fun in smooth:
            _, grad, hess = fun(t, n)
            fd = central(fun, t * n, 1e-6, 0)
            assert np.max(np.abs(grad - fd)) <= 1e-6 * max(np.max(np.abs(grad)), 1.0)
            assert np.array_equal(hess, hess.T)
            fd = central(fun, t * n, 1e-5, 1)
            assert np.max(np.abs(hess - fd)) <= 1e-6 * max(np.max(np.abs(hess)), 1.0)


SCAN_FIELDS = ["band-limited-random:seed=21,L=3,amplitude=0.1",
               "band-limited-random:seed=2,L=5,amplitude=0.25"]


def _direct_table(fun, smooth: bool):
    """fun's value at every start of the sphere scan: the direct scan."""
    values = [_at_v(fun, v, T_CAP) for v in _scan_starts(_SPHERE_DIRS)]
    return np.array([val[0] for val in values] if smooth else values)


def _search_tables(monkeypatch, u: SphereField):
    """The scan table that each search of _objectives(u) hands to
    _manifold_minimize, and the searches' results."""
    tables = []

    def spy(fun, dirs, t_max, table, smooth, _real=optimizers._manifold_minimize):
        tables.append(table)
        return _real(fun, dirs, t_max, table, smooth)

    monkeypatch.setattr(optimizers, "_manifold_minimize", spy)
    results = [search(*args) for search, args, _, _, _ in _objectives(u)]
    return tables, results


@pytest.mark.parametrize("spec", SCAN_FIELDS)
def test_spectral_scan_reaches_the_direct_optimum(spec):
    """Every search, started from its spectral scan, reaches the optimum
    that the same search reaches from the direct scan on the full grid."""
    u = realize_sphere(parse_input_spec(spec), CFG)
    for search, search_args, objective, args, smooth in _objectives(u):
        params, val, diag = search(*search_args)
        full = objective(_SphereFamily(u.grid), *args)
        ref, t, _, ref_diag = _manifold_minimize(full, _SPHERE_DIRS, T_CAP,
                                                 _direct_table(full, smooth), smooth)
        assert val == pytest.approx(ref, rel=1e-10)
        assert params.t == pytest.approx(t, abs=1e-6)
        assert diag.scan_evaluations == ref_diag.scan_evaluations == 1 + 8 * 34


def test_kappa_closed_forms():
    """kappa_0 = 1 and kappa_1 = t / sinh^2 t - coth t; every kappa_l,
    l <= 127, agrees with Gauss quadrature of (1/2) int P_l K_t dz in
    s = log q (400 nodes, where the integrand has no pole)."""
    t = np.array(optimizers._COARSE_T)
    kappa = optimizers._kappa(127)
    assert np.max(np.abs(kappa[:, 0] - 1.0)) <= 1e-12
    assert np.max(np.abs(kappa[:, 1] - (t / np.sinh(t) ** 2 - 1.0 / np.tanh(t)))) <= 1e-12
    x, w = np.polynomial.legendre.leggauss(400)
    s = t[:, None] * x                             # q = e^s, dz = q ds / sinh t
    z = np.clip((np.exp(s) - np.cosh(t)[:, None]) / np.sinh(t)[:, None], -1.0, 1.0)
    P = np.polynomial.legendre.legvander(z, 127)
    quad = np.einsum("tn,tnl->tl", w * t[:, None] * np.exp(-s) / (2.0 * np.sinh(t)[:, None]), P)
    assert np.max(np.abs(kappa - quad)) <= 1e-12


@pytest.mark.parametrize("spec", SCAN_FIELDS + ["band-limited-random:seed=7,L=8,amplitude=0.3"])
def test_spectral_integrals_match_quadrature(spec):
    """C(t, n) = int u q^-2 dsigma from u's coefficients agrees with
    quadrature at all 273 starts: within 1e-11 of max |C| against a
    256 x 512 grid, where the quadrature has converged.  On the search's
    own 128 x 256 grid the quadrature itself errs by up to about 7e-11 at
    t = 3."""
    u = realize_sphere(parse_input_spec(spec), CFG)
    C = optimizers._scan_integrals(u.grid, u.coeffs())
    fine = make_sphere_grid(256, 512)
    fam, values = _SphereFamily(fine), u.fn(fine.points())
    quad = np.array([integrate(_at_v(lambda t, n: fam.density(t, n) * values, v, T_CAP), fine)
                     for v in _scan_starts(_SPHERE_DIRS)])
    assert C.shape == (1 + 8 * 34,)
    assert np.max(np.abs(C - quad)) <= 1e-11 * np.max(np.abs(quad))


@pytest.mark.parametrize("spec", SCAN_FIELDS)
def test_smooth_scan_tables_match_their_objectives(spec, monkeypatch):
    """The entropy-form scan table equals its objective at all 273 starts
    within 1e-10 relative, on a 256 x 512 grid where the quadrature has
    converged.  (On the search's own 128 x 256 grid, quadrature of
    int e^v v errs by up to 6.1e-9 at t = 3.)"""
    u = realize_sphere(parse_input_spec(spec), CFG)
    tables, _ = _search_tables(monkeypatch, u)
    fine = make_sphere_grid(256, 512)
    objective = _reverse_entropy_objective(_SphereFamily(fine), u.fn(fine.points()))
    assert tables[0] == pytest.approx(_direct_table(objective, True), rel=1e-10)


@pytest.mark.parametrize("spec", SCAN_FIELDS + ["band-limited-random:seed=7,L=8,amplitude=0.3"])
def test_smooth_searches_end_at_or_below_their_scan(spec, monkeypatch):
    """The oracle of the spectral scan: the smooth search's value is at
    most the least value of its scan table, plus 1e-10."""
    u = realize_sphere(parse_input_spec(spec), CFG)
    tables, results = _search_tables(monkeypatch, u)
    assert results[0][1] <= np.min(tables[0]) + 1e-10


@pytest.mark.parametrize("spec", SCAN_FIELDS)
def test_searches_count_the_scan_and_one_refinement(spec, monkeypatch):
    """The two sphere searches and the circle search each make one
    minimize call.  Its nfev counts every call of the objective, and the
    search's evaluations are its scan's entries plus that nfev.  The
    search returns no more than the objective at the scan's start."""
    calls = []

    def spy(fun, x0, smooth, _real=optimizers.minimize):
        count = [0]

        def counted(v):
            count[0] += 1
            return fun(v)

        res = _real(counted, x0, smooth)
        start = fun(x0)
        calls.append((res, count[0], start[0] if smooth else start))
        return res

    monkeypatch.setattr(optimizers, "minimize", spy)
    u = realize_sphere(parse_input_spec(spec), CFG)
    searches = [(search, args) for search, args, _, _, _ in _objectives(u)]
    circle = realize_circle(parse_input_spec("circle-cos:eps=0.3"), CFG)
    searches.append((nearest_circle_L1, (circle, CFG.circle_grid())))
    for search, args in searches:
        _, val, diag = search(*args)
        (res, count, start), = calls
        calls.clear()
        assert res.nfev == count
        assert diag.evaluations == diag.scan_evaluations + res.nfev
        assert val <= start


def _small_grid_target():
    g = make_sphere_grid(16, 32)
    f = np.exp(sphere_optimizer_values(0.7, np.array([0.6, 0.0, 0.8]), g.points()))
    return g, 0.5 * (f + 1.0)


def test_small_grid_scans_on_full_grid():
    """A 16x32 grid gets its own degree-15 tables, and the L1 search's L2
    scan picks the direct scan's start: the search is the direct-scan
    search, evaluation for evaluation."""
    g, f = _small_grid_target()
    params, val, diag = nearest_sphere_L1(f, g)
    fun = _l1_objective(_SphereFamily(g), f)
    ref, t, n, ref_diag = _manifold_minimize(fun, _SPHERE_DIRS, T_CAP,
                                             _direct_table(fun, False), False)
    assert (val, params.t, params.n) == (ref, t, tuple(n))
    assert diag == ref_diag


def test_scan_only_picks_the_start():
    """A table that reads 1 below the objective picks the same start; the
    refinement evaluates it on the grid, and the search returns the
    objective's own minimum after the same evaluations."""
    g, f = _small_grid_target()
    fun = _l1_objective(_SphereFamily(g), f)
    table = _direct_table(fun, False)
    ref = _manifold_minimize(fun, _SPHERE_DIRS, T_CAP, table, False)
    low = _manifold_minimize(fun, _SPHERE_DIRS, T_CAP, table - 1.0, False)
    assert low[:2] == ref[:2] and np.array_equal(low[2], ref[2])
    assert low[3] == ref[3]
    assert low[3].scan_evaluations == 1 + 8 * 34


# ----------------------------------------------------------------------
# the refiners against scipy.optimize, which only the tests import
# ----------------------------------------------------------------------

CI_SPHERE_SPECS = ("band-limited-random:seed=21,L=3,amplitude=0.1",
                   "band-limited-random:seed=7,L=6,amplitude=0.25")
SPHERE_CASES = [pytest.param(spec, recentered, id=f"{spec}-{'recentered' if recentered else 'as is'}")
                for spec in CI_SPHERE_SPECS for recentered in (False, True)]


def _sphere_case(spec: str, recentered: bool) -> SphereField:
    u = realize_sphere(parse_input_spec(spec), CFG)
    return recenter(u).field if recentered else u


def _refinement(monkeypatch, search, *args):
    """(objective, start, result) of the one minimize call ``search`` makes."""
    calls = []

    def spy(fun, x0, smooth, _real=optimizers.minimize):
        res = _real(fun, x0, smooth)
        calls.append((fun, x0, res))
        return res

    monkeypatch.setattr(optimizers, "minimize", spy)
    search(*args)
    monkeypatch.undo()
    (call,) = calls
    return call


def _l1_search(spec, recentered):
    u = _sphere_case(spec, recentered)
    return nearest_sphere_L1, (np.exp(u.values), u.grid)


def _circle_search(spec):
    return nearest_circle_L1, (realize_circle(parse_input_spec(spec), CFG), CFG.circle_grid())


@pytest.mark.parametrize("case", [pytest.param((_l1_search, *p.values), id=p.id)
                                  for p in SPHERE_CASES]
                         + [pytest.param((_circle_search, spec), id=spec)
                            for spec in ("circle-cos:eps=0.3", "circle-poisson:r=0.9")])
def test_nelder_mead_is_scipys(case, monkeypatch):
    """The numpy Nelder-Mead returns scipy.optimize.minimize's x, fun,
    nfev and nit bit for bit, from the same simplex and stops, on the
    sphere L1 objective of the CI sphere fields (as they are and
    recentered) and on the circle objective."""
    build, *args = case
    search, search_args = build(*args)
    fun, x0, res = _refinement(monkeypatch, search, *search_args)
    simplex = x0 + np.vstack([np.zeros(x0.size), optimizers._SIMPLEX_STEP * np.eye(x0.size)])
    ref = scipy_minimize(fun, x0, method="Nelder-Mead",
                         options={"initial_simplex": simplex, "xatol": optimizers.NM_XATOL,
                                  "fatol": optimizers.NM_FATOL, "maxiter": optimizers.NM_MAX_ITER})
    assert np.array_equal(res.x, ref.x)
    assert (res.fun, res.nfev, res.nit) == (ref.fun, ref.nfev, ref.nit)


@pytest.mark.parametrize("spec, recentered", SPHERE_CASES)
def test_newton_agrees_with_bfgs(spec, recentered, monkeypatch):
    """Newton on the closed-form Hessian reaches the value that scipy's
    BFGS (gtol 1e-10) reaches from the same start on the objective's value
    and gradient, within 1e-12 relative (measured up to 4.5e-13: Newton stops
    where a step promises less than the values' rounding), in fewer
    evaluations (2-3 against BFGS's 7-82)."""
    fun, x0, res = _refinement(monkeypatch, nearest_sphere_reverse_entropy,
                               _sphere_case(spec, recentered))
    ref = scipy_minimize(lambda v: fun(v)[:2], x0, method="BFGS", jac=True,
                         options={"gtol": 1e-10})
    assert res.fun == pytest.approx(ref.fun, rel=1e-12, abs=0.0)
    assert res.nfev < ref.nfev


def test_newton_leaves_t_zero(monkeypatch):
    """The field whose reverse-entropy scan is best at t = 0 (once a
    stuck-at-t = 0 fault): Newton starts at v = 0 and leaves it, to a
    lower value."""
    u = realize_sphere(parse_input_spec(CI_SPHERE_SPECS[0]), CFG)
    fun, x0, res = _refinement(monkeypatch, nearest_sphere_reverse_entropy, u)
    assert not np.any(x0)
    assert np.linalg.norm(res.x) > 0.0 and res.fun < fun(x0)[0]
    assert res.nit > 0


def test_newton_walks_down_negative_curvature():
    """On f = x^2 - y^2 + y^4 from (0.1, 0.1), where the Hessian is
    indefinite, a plain Newton step heads for the saddle at the origin;
    with the eigenvalues taken in absolute value every step descends, and
    Newton reaches the minimum (0, 1/sqrt 2), f = -1/4."""
    def fun(p):
        x, y = p
        return (x * x - y * y + y**4, np.array([2.0 * x, -2.0 * y + 4.0 * y**3]),
                np.diag([2.0, -2.0 + 12.0 * y * y]))

    res = optimizers._newton(fun, np.array([0.1, 0.1]))
    assert res.x == pytest.approx([0.0, 2.0**-0.5], abs=1e-8)
    assert res.fun == pytest.approx(-0.25, abs=1e-15)
