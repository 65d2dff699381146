import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from loghls.errors import DimensionMismatchError, DomainError
from loghls.fields import radial_from_profile
from loghls.flows import KS_N, KS_R_MAX, KS_R_MIN, ks_initial_state
from loghls.geometry import T_CAP
from loghls.grids import (affine_values, integrate, make_circle_grid, make_radial_grid,
                          make_sphere_grid, moments)
from loghls.specs import RunConfig, parse_input_spec, realize_planar


def trapezoid_constant_mass(g):
    """What the trapezoid rule in x = log r gives for the constant 1:
    pi (r_max^2 - r_min^2) h coth h, with h the step in x."""
    h = g.dx
    return np.pi * (g.nodes[-1] ** 2 - g.nodes[0] ** 2) * h / math.tanh(h)


def test_radial_uniform_constant_mass():
    g = make_radial_grid(1e-2, 10.0, 256)
    total = integrate(np.ones(g.n), g)
    assert abs(total - trapezoid_constant_mass(g)) <= 1e-8
    # the rule is not exact for constants: h coth h = 1 + h^2/3 + ...
    assert total - np.pi * (100.0 - 1e-4) > 1e-4


def test_radial_invariants():
    g = make_radial_grid(1e-2, 50.0, 512)
    assert np.all(g.weights > 0)
    assert np.all(np.diff(g.nodes) > 0) and g.nodes[0] > 0
    assert np.all(np.diff(g.x) > 0) and np.allclose(np.diff(g.x), g.dx, rtol=1e-12, atol=0.0)
    assert np.allclose(g.nodes, np.exp(g.x), rtol=1e-15, atol=0.0)
    total = integrate(np.ones(g.n), g)
    target = trapezoid_constant_mass(g)
    assert abs(total - target) <= 1e-10 * target


def test_radial_log_uniform_inner_node():
    r_min = 1000.0 * np.exp(-25.0)
    g = make_radial_grid(r_min, 1000.0, 4096)
    # the nodes run from r_min to r_max
    assert g.nodes[0] == pytest.approx(r_min, rel=1e-15)
    assert g.nodes[-1] == pytest.approx(1000.0, rel=1e-15)


def test_radial_gaussian_integral():
    g = make_radial_grid(1e-6, 8.0, 256)
    val = integrate(np.exp(-g.nodes**2), g)
    # int of e^{-r^2} over 1e-6 < |x| < 8: pi (e^{-1e-12} - e^{-64})
    assert abs(val - np.pi * (np.exp(-1e-12) - np.exp(-64.0))) <= 1e-13


def test_optimizer_profile_mass_at_rmax_1e3():
    g = make_radial_grid(1000.0 * np.exp(-25.0), 1000.0, 4096)
    h = (1.0 / np.pi) * (1.0 + g.nodes**2) ** -2
    mass = integrate(h, g)
    # h's mass inside r_max is 1 - 1/(1 + r_max^2); the inner disc holds 2e-16
    assert abs(mass - (1.0 - 1.0 / (1.0 + 1000.0**2))) <= 1e-10


def test_radial_preconditions():
    with pytest.raises(DomainError):
        make_radial_grid(1e-2, 10.0, 8)
    with pytest.raises(DomainError):
        make_radial_grid(-1.0, 10.0, 256)
    with pytest.raises(DomainError):
        make_radial_grid(10.0, 10.0, 256)
    with pytest.raises(DomainError):
        make_radial_grid(1e-2, np.inf, 256)


# Equal bit for bit with scipy 1.17.1 on the inputs below; summed in any
# other order, the interval constants would differ by up to 4.6e-15.
SPLINE_TOL = 1e-14


def assert_matches_scipy_spline(g, values, xq):
    """g.mass_antiderivative(values) against CubicSpline's antiderivative,
    the same not-a-knot spline: at xq relative to the total mass, and on
    the first interval, whose masses are 1e-13 of it or less, relative to
    its own.  Returns the reference."""
    M = g.mass_antiderivative(values)
    ref = CubicSpline(g.x, 2.0 * np.pi * g.nodes**2 * values).antiderivative()
    assert M(g.x[:1])[0] == 0.0
    err = np.max(np.abs(M(xq) - ref(xq)))
    assert err <= SPLINE_TOL * ref(g.x[-1]), err / ref(g.x[-1])
    first = np.linspace(g.x[0], g.x[1], 9)
    err = np.max(np.abs(M(first) - ref(first)))
    assert err <= SPLINE_TOL * ref(g.x[1]), err / ref(g.x[1])
    return ref


@pytest.mark.parametrize("text", [
    "gaussian:sigma=1",
    "optimizer:s=2",
    "mixture:weights=(0.5,0.5),components=(optimizer:s=0.05|optimizer:s=20)",
])
def test_mass_antiderivative_is_scipy_not_a_knot_spline(text):
    """At the knots, halfway between them, and across the last interval."""
    rho = realize_planar(parse_input_spec(text), RunConfig())
    g = rho.grid
    xq = np.concatenate([g.x, 0.5 * (g.x[1:] + g.x[:-1]), np.linspace(g.x[-2], g.x[-1], 9)])
    assert_matches_scipy_spline(g, rho.values, xq)


def test_ks_initial_mass_is_scipy_not_a_knot_spline():
    """ks_initial_state reads its fine grid's mass antiderivative at the
    flow grid's x, which fall between the fine grid's knots."""
    fine = make_radial_grid(KS_R_MIN * math.exp(-25.0), KS_R_MAX, 8 * KS_N + 1)
    rho0 = radial_from_profile(fine, lambda r: 4.0 * np.exp(-r**2 / 2.0))   # 8 pi, sigma = 1
    flow_x = make_radial_grid(KS_R_MIN, KS_R_MAX, KS_N).x
    ref = assert_matches_scipy_spline(fine, rho0.values, flow_x)
    state = ks_initial_state(rho0, KS_N, KS_R_MIN, KS_R_MAX)
    assert np.max(np.abs(state.M - ref(flow_x))) <= SPLINE_TOL * ref(fine.x[-1])


def test_sphere_grid_normalization_and_exactness():
    g = make_sphere_grid(16, 8)
    ones = np.ones(g.shape)
    assert integrate(ones, g) == pytest.approx(1.0, abs=1e-14)
    z2 = np.repeat((g.z**2)[:, None], g.n_phi, axis=1)
    assert integrate(z2, g) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # Gauss-Legendre exactness up to degree 2*n_z - 1 = 31
    z30 = np.repeat((g.z**30)[:, None], g.n_phi, axis=1)
    assert integrate(z30, g) == pytest.approx(1.0 / 31.0, rel=1e-12)


def test_sphere_moments_are_exact_for_low_degrees():
    """moments weights [1, omega] like integrate: int (1 + a.omega) omega
    dsigma = a / 3, and the zeroth moment is integrate's value."""
    g = make_sphere_grid(16, 8)
    pts = g.points()
    a = np.array([0.3, -0.2, 0.5])
    vals = 1.0 + pts @ a
    m = moments(vals, g)
    assert m[0] == pytest.approx(integrate(vals, g), abs=1e-15)
    assert np.max(np.abs(m - np.concatenate([[1.0], a / 3.0]))) <= 1e-14
    with pytest.raises(DimensionMismatchError):
        moments(vals[:, :4], g)


_POLES = st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
_AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(shape=st.sampled_from([(16, 32), (128, 256), (20, 60)]),
       t=st.sampled_from([0.0, 1e-3, 3.0, T_CAP]), axis=st.one_of(_POLES, _AXES))
def test_affine_values_match_the_node_product(shape, t, axis):
    """affine_values(cosh t, sinh t n) writes a0 + a.omega into its buffer:
    within 4 ulps of |a0| + |a| of a0 + points() @ a, bit for bit on the
    zonal rows of a pole, and exactly 1 at t = 0."""
    g = make_sphere_grid(*shape)
    n = np.asarray(axis) / np.linalg.norm(axis)
    a0, a = np.cosh(t), np.sinh(t) * n
    out = np.empty(g.shape)
    assert affine_values(a0, a, g, out) is out
    ref = a0 + g.points() @ a
    assert np.max(np.abs(out - ref)) <= 4.0 * np.finfo(float).eps * (a0 + np.linalg.norm(a))
    if n[0] == n[1] == 0.0:
        assert np.array_equal(out, np.broadcast_to((a0 + a[2] * g.z)[:, None], g.shape))
    if t == 0.0:
        assert np.all(out == 1.0)


def test_circle_grid_weights_exact():
    g = make_circle_grid(360)
    assert g.weight * g.n == 1.0
    assert integrate(np.ones(g.n), g) == pytest.approx(1.0, abs=1e-15)


def test_integrate_is_bit_deterministic():
    g = make_radial_grid(1e-3, 30.0, 512)
    rng = np.random.default_rng(3)
    vals = rng.normal(size=g.n)
    a = integrate(vals, g)
    b = integrate(vals.copy(), g)
    assert a == b


def test_integrate_shape_errors():
    g = make_radial_grid(1e-2, 10.0, 64)
    with pytest.raises(DimensionMismatchError):
        integrate(np.ones(65), g)
    sg = make_sphere_grid(8, 8)
    with pytest.raises(DimensionMismatchError):
        integrate(np.ones((8, 9)), sg)


def test_shared_grids_are_read_only():
    g = make_radial_grid(1e-2, 20.0, 128)
    assert make_radial_grid(1e-2, 20.0, 128) is g
    assert make_radial_grid(2e-2, 20.0, 128) is not g
    c = make_circle_grid(96)
    assert make_circle_grid(96) is c
    for a in (g.x, g.nodes, g.weights):
        with pytest.raises(ValueError):
            a[0] = 1.0
    with pytest.raises(ValueError):
        c.theta[0] = 1.0
    with pytest.raises(ValueError):
        make_sphere_grid(8, 8).w_z[0] = 1.0


def test_sphere_points_are_built_once_and_read_only():
    g = make_sphere_grid(8, 16)
    pts = g.points()
    assert g.points() is pts and pts.shape == (8, 16, 3)
    assert np.allclose(np.linalg.norm(pts, axis=2), 1.0, rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError):
        pts[0, 0, 0] = 1.0


def test_sphere_zonal_rows_integrate_without_copy():
    g = make_sphere_grid(16, 8)
    z2 = np.broadcast_to((g.z**2)[:, None], g.shape)
    assert not z2.flags.writeable and z2.strides[1] == 0
    assert integrate(z2, g) == integrate(np.repeat((g.z**2)[:, None], g.n_phi, axis=1), g)
