import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

import loghls.suite as suite
from loghls.errors import DomainError
from loghls.fields import SphereField, radial_from_profile
from loghls.functionals import dirichlet_energy, onofri_functional
from loghls.geometry import ConformalParams, conformal_push, lift_T, sphere_optimizer_values
from loghls.grids import integrate, make_radial_grid
from loghls.optimizers import sphere_optimizer
from loghls.sht import SphereTransform
from loghls.specs import RunConfig, parse_input_spec, realize_planar, realize_sphere

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def test_lift_T_maps_optimizer_to_one(radial_fine):
    h = radial_from_profile(radial_fine, lambda r: (1 / np.pi) * (1 + r**2) ** -2)
    lifted = lift_T(h)
    assert np.max(np.abs(lifted.values - 1.0)) <= 1e-12
    # linearity: 2h lifts to the constant 2
    h2 = radial_from_profile(radial_fine, lambda r: (2 / np.pi) * (1 + r**2) ** -2)
    assert np.max(np.abs(lift_T(h2).values - 2.0)) <= 1e-12


def test_lift_T_preserves_mass():
    rho = realize_planar(parse_input_spec("gaussian:sigma=1.2"), RunConfig())
    lifted = lift_T(rho)
    assert abs(lifted.mean() - rho.mass) <= 1e-6


def test_lift_T_default_grid_is_the_run_grid():
    """One grid per shape: the default lift shares the run's grid, and so
    its transform tables."""
    cfg = RunConfig()
    rho = realize_planar(parse_input_spec("gaussian:sigma=1"), cfg)
    assert lift_T(rho).grid is cfg.sphere_grid()


def test_zonal_fields_take_one_node_per_row(sphere_grid):
    """An axisymmetric field (radial lifts, a zonal profile, the optimizer
    on the pole axis) is evaluated on one node per Gauss row and repeated
    across the azimuth: the values are those of its callable at every
    node, bit for bit.  An axis off the pole, by however little, is not
    axisymmetric, because its values vary across the row."""
    cfg = RunConfig()
    zonal = [lift_T(realize_planar(parse_input_spec(spec), cfg), sphere_grid)
             for spec in ("gaussian:sigma=1", "optimizer:s=2",
                          "mixture:weights=(0.3,0.7),components=(optimizer:s=0.5|gaussian:sigma=3)")]
    zonal += [SphereField.from_zonal(sphere_grid, lambda z: np.exp(0.7 * z) * (1.0 - z * z)),
              sphere_optimizer(ConformalParams(1.3), sphere_grid)]
    for f in zonal:
        assert f.axisymmetric
        assert np.array_equal(f.values, f.fn(sphere_grid.points()))
    tilted = sphere_optimizer(ConformalParams(1.3, (1e-17, 0.0, 1.0)), sphere_grid)
    assert not tilted.axisymmetric
    assert np.array_equal(tilted.values, tilted.fn(sphere_grid.points()))
    assert np.any(tilted.values != tilted.values[:, :1])


def test_transfer_identity_follows_the_config_grid(monkeypatch):
    """A10 lifts onto the run's sphere grid and passes at 64 x 128."""
    grids = []
    real = suite.lift_T
    monkeypatch.setattr(suite, "lift_T",
                        lambda rho, grid=None: grids.append(grid) or real(rho, grid))
    cfg = RunConfig(sphere_nz=64, sphere_nphi=128)
    [result] = suite.run_all(cfg, ["A10"])
    assert result.passed, "\n".join(result.lines)
    assert len(grids) == 5 and all(g is cfg.sphere_grid() and g.n_z == 64 for g in grids)


def test_conformal_push_of_zero_is_optimizer(sphere_grid):
    zero = SphereField(sphere_grid, np.zeros(sphere_grid.shape),
                       fn=lambda p: np.zeros(p.shape[:-1]))
    n = np.array([0.0, 0.6, 0.8])
    pushed = conformal_push(zero, ConformalParams(0.7, tuple(n)))
    exact = sphere_optimizer_values(0.7, n, sphere_grid.points())
    assert np.max(np.abs(pushed.values - exact)) <= 1e-13


def test_conformal_push_identity_and_cap(sphere_grid):
    u = SphereField.from_zonal(sphere_grid, lambda z: 0.2 * z)
    assert conformal_push(u, ConformalParams(0.0, (0, 0, 1.0))) is u
    with pytest.raises(DomainError):
        ConformalParams(25.0, (0.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        ConformalParams(1.0, (0.0, 0.0, 1.1))


def test_conformal_params_matrix_is_a_lorentz_boost():
    n = np.array([0.48, -0.6, 0.64])
    G = ConformalParams(1.3, tuple(n)).matrix
    assert np.max(np.abs(G.T @ ETA @ G - ETA)) <= 1e-13
    assert G[0, 0] == pytest.approx(np.cosh(1.3))
    # x = (1, omega) goes to (G x)_0 = cosh t + sinh t n.omega
    omega = np.array([0.0, 0.6, 0.8])
    assert (G @ np.r_[1.0, omega])[0] == pytest.approx(np.cosh(1.3) + np.sinh(1.3) * (n @ omega))
    assert np.array_equal(ConformalParams(0.0, (0.0, 0.0, 1.0)).matrix, np.eye(4))


def test_conformal_push_rejects_non_lorentz(sphere_grid):
    u = SphereField.from_zonal(sphere_grid, lambda z: 0.2 * z)
    G = ConformalParams(0.5, (0.0, 0.0, 1.0)).matrix
    for bad in (-G, 2.0 * np.eye(4), np.eye(3), G + 1e-6):
        with pytest.raises(DomainError):
            conformal_push(u, bad)
    assert conformal_push(u, np.eye(4)) is u


def _band_limited(seed, L, amplitude):
    spec = f"band-limited-random:seed={seed},L={L},amplitude={amplitude!r}"
    return realize_sphere(parse_input_spec(spec), RunConfig())


_UNIT = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


def _unit(v):
    return tuple(np.asarray(v) / np.linalg.norm(v))


@settings(max_examples=15, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**16), L=st.integers(1, 5), amplitude=st.floats(0.05, 0.25),
       t=st.floats(0.0, 1.5), axis=_UNIT, rotvec=st.tuples(*[st.floats(-3.0, 3.0)] * 3))
def test_onofri_conformal_and_rotation_invariance(seed, L, amplitude, t, axis, rotvec):
    """J is invariant under boosts, rotations and their products."""
    u = _band_limited(seed, L, amplitude)
    J = onofri_functional(u)
    boost = ConformalParams(t, _unit(axis))
    R = Rotation.from_rotvec(rotvec).as_matrix()
    rotation = np.eye(4)
    rotation[1:, 1:] = R
    for moved in (conformal_push(u, boost), conformal_push(u, rotation),
                  conformal_push(u, rotation @ boost.matrix)):
        assert abs(onofri_functional(moved) - J) <= 1e-10


@settings(max_examples=15, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**16), L=st.integers(1, 5), amplitude=st.floats(0.05, 0.25),
       ta=st.floats(0.0, 1.5), na=_UNIT, tb=st.floats(0.0, 1.5), nb=_UNIT)
def test_conformal_push_group_law(seed, L, amplitude, ta, na, tb, nb):
    """Pushing by a, then by b, is pushing once by a.matrix @ b.matrix."""
    u = _band_limited(seed, L, amplitude)
    a, b = ConformalParams(ta, _unit(na)), ConformalParams(tb, _unit(nb))
    twice = conformal_push(conformal_push(u, a), b)
    once = conformal_push(u, a.matrix @ b.matrix)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-12


def test_conformal_push_preserves_exp_integral(sphere_grid):
    tr = SphereTransform(sphere_grid, lmax=6)
    rng = np.random.default_rng(7)
    c = np.zeros((7, 7))
    s = np.zeros((7, 7))
    for l in range(1, 7):
        c[l, : l + 1] = 0.1 * rng.normal(size=l + 1)
        s[l, 1: l + 1] = 0.1 * rng.normal(size=l)
    u = SphereField(sphere_grid, tr.synthesize(c, s),
                    fn=lambda p: tr.evaluate(c, s, np.clip(p[..., 2], -1, 1),
                                             np.arctan2(p[..., 1], p[..., 0])))
    before = integrate(np.exp(u.values), sphere_grid)
    pushed = conformal_push(u, ConformalParams(1.0, (0.6, 0.0, 0.8)))
    after = integrate(np.exp(pushed.values), sphere_grid)
    assert abs(after - before) <= 1e-6


def test_dirichlet_invariance_under_rotation(sphere_grid):
    tr = SphereTransform(sphere_grid, lmax=5)
    rng = np.random.default_rng(9)
    c = np.zeros((6, 6))
    s = np.zeros((6, 6))
    for l in range(1, 6):
        c[l, : l + 1] = 0.2 * rng.normal(size=l + 1)
        s[l, 1: l + 1] = 0.2 * rng.normal(size=l)
    u = SphereField(sphere_grid, tr.synthesize(c, s),
                    fn=lambda p: tr.evaluate(c, s, np.clip(p[..., 2], -1, 1),
                                             np.arctan2(p[..., 1], p[..., 0])))
    # the rotation taking the unit vector (0.48, -0.6, 0.64) to the north pole
    axis = np.cross([0.48, -0.6, 0.64], [0.0, 0.0, 1.0])
    rotation = np.eye(4)
    rotation[1:, 1:] = Rotation.from_rotvec(
        np.arccos(0.64) * axis / np.linalg.norm(axis)).as_matrix()
    rotated = conformal_push(u, rotation)
    assert dirichlet_energy(rotated) == pytest.approx(dirichlet_energy(u), abs=1e-6)


def test_plane_sphere_onofri_correspondence():
    """The planar form of the Onofri energy matches the spherical form
    minus the south-pole boundary term, for an axisymmetric band-limited u.

    The boundary term enters with a minus sign: integrating
    2 grad(u o S^-1) . grad(phi) by parts leaves the flux
    phi'(R) * 2 pi R -> -8 pi u(omega_0) at infinity.
    """
    # u(z) = 0.3 P_1 + 0.1 P_2
    U = lambda z: 0.3 * z + 0.1 * 0.5 * (3 * z**2 - 1)
    Up = lambda z: 0.3 + 0.3 * z
    g = make_radial_grid(1e3 * np.exp(-20.0), 1e3, 2048)
    r = g.nodes
    z = (1.0 - r**2) / (1.0 + r**2)
    zp = -4.0 * r / (1.0 + r**2) ** 2
    gp = Up(z) * zp                      # d/dr of u o S^-1
    php = -4.0 * r / (1.0 + r**2)        # phi'
    # (1/16pi) int (|grad f|^2 - |grad phi|^2) dx; grid weights carry 2 pi r dr
    lhs = (1.0 / (16.0 * np.pi)) * float(np.sum(g.weights * (gp**2 + 2.0 * gp * php)))
    E = 2.0 * 0.3**2 / 3.0 + 6.0 * 0.1**2 / 5.0
    rhs = 0.25 * E + 0.0 - U(-1.0)
    assert abs(lhs - rhs) <= 1e-3


_PLANAR_FAMILIES = ("gaussian:sigma={s!r}", "optimizer:s={s!r}",
                    "perturbed-optimizer:eps=0.3,mode=1,s={s!r}")


@settings(max_examples=20, derandomize=True, deadline=None)
@given(spec=st.sampled_from(_PLANAR_FAMILIES), scale=st.floats(0.3, 3.0))
def test_lift_is_an_L1_isometry(spec, scale):
    """||T rho||_1 on the run's sphere grid is ||rho||_1 on its radial grid."""
    cfg = RunConfig()
    rho = realize_planar(parse_input_spec(spec.format(s=scale)), cfg)
    assert abs(lift_T(rho, cfg.sphere_grid()).mean() - rho.mass) <= 1e-6
