import numpy as np
import pytest

from loghls.errors import DomainError, ParseError
from loghls.fields import PlanarDensity, RadialDensity
from loghls.grids import (CIRCLE_N, SPHERE_NPHI, SPHERE_NZ, integrate, make_circle_grid,
                          make_sphere_grid)
from loghls.specs import (RunConfig, format_input_spec, parse_input_spec, read_config_file,
                          realize_circle, realize_planar, realize_sphere, spec_domain)

CANONICAL = [
    "gaussian:sigma=1",
    "gaussian:sigma=0.75",
    "optimizer:s=2,x0=(1,-1)",
    "optimizer:s=1,x0=(0,0)",
    "mixture:weights=(0.5,0.5),components=(optimizer:s=1,x0=(0,0)|optimizer:s=3,x0=(0,0))",
    "perturbed-optimizer:eps=0.3,mode=1,s=1",
    "sphere-optimizer:t=1,n=(0,0,1)",
    "band-limited-random:seed=7,L=6,amplitude=0.25",
    "circle-poisson:r=0.5,alpha=0",
    "circle-cos:eps=0.3",
    "legendre:c0=1,c1=0.5",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_round_trip_identity(text):
    spec = parse_input_spec(text)
    assert format_input_spec(spec) == text
    assert format_input_spec(parse_input_spec(format_input_spec(spec))) == text


def test_non_canonical_normalizes():
    spec = parse_input_spec("optimizer:x0=(1,-1),s=2")
    assert format_input_spec(spec) == "optimizer:s=2,x0=(1,-1)"
    spec = parse_input_spec("gaussian:")
    assert format_input_spec(spec) == "gaussian:sigma=1"


def test_legendre_shorthand():
    spec = parse_input_spec("1+0.5*P1")
    assert spec.kind == "legendre"
    assert format_input_spec(spec) == "legendre:c0=1,c1=0.5"
    assert format_input_spec(parse_input_spec("1-0.3*P2")) == "legendre:c0=1,c2=-0.3"


@pytest.mark.parametrize("bad", [
    "bad:spec",
    "gaussian:sigma=-1",
    "gaussian:sig=1",
    "optimizer:s=1,x0=(1,2,3)",
    "mixture:weights=(0.5,0.6),components=(gaussian:sigma=1|gaussian:sigma=2)",
    "mixture:weights=(0.5,0.5),components=(gaussian:sigma=1)",
    "sphere-optimizer:t=1,n=(1,1,1)",
    "sphere-optimizer:t=30",
    "circle-poisson:r=1.0",
    "optimizer:s=1,s=2",
    "optimizer:s=(1",
    "legendre:q0=1",
    "nokind",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_input_spec(bad)


def test_spec_domains():
    assert spec_domain(parse_input_spec("gaussian:sigma=1")) == "plane"
    assert spec_domain(parse_input_spec("sphere-optimizer:t=1")) == "sphere"
    assert spec_domain(parse_input_spec("circle-poisson:r=0.2")) == "circle"
    assert spec_domain(parse_input_spec("1+0.5*P1")) == "sphere"


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(radial_n=1024, sphere_nz=64, sphere_nphi=128)


def test_realize_planar_radial(cfg):
    rho = realize_planar(parse_input_spec("gaussian:sigma=1"), cfg)
    assert isinstance(rho, RadialDensity)
    assert abs(rho.mass - 1.0) <= 1e-9
    mix = realize_planar(parse_input_spec(
        "mixture:weights=(0.5,0.5),components=(gaussian:sigma=1|optimizer:s=1)"), cfg)
    assert isinstance(mix, RadialDensity)
    assert abs(mix.mass - 1.0) <= 1e-9
    pert = realize_planar(parse_input_spec("perturbed-optimizer:eps=0.3,mode=2"), cfg)
    assert np.all(pert.values >= 0)


def test_realize_planar_lift(cfg):
    rho = realize_planar(parse_input_spec("optimizer:s=1,x0=(1,-1)"), cfg)
    assert isinstance(rho, PlanarDensity)
    assert rho.lifted.grid is cfg.sphere_grid()
    assert abs(rho.mass - 1.0) <= 1e-12
    assert rho.shift == (1.0, -1.0)               # the first moment
    assert np.max(np.abs(rho.lifted.values - 1.0)) <= 1e-12
    mix = realize_planar(parse_input_spec(
        "mixture:weights=(0.25,0.75),components=(optimizer:s=2,x0=(1,0)|gaussian:sigma=1)"), cfg)
    assert abs(mix.mass - 1.0) <= 1e-12
    assert mix.shift == (0.5, 0.0)
    # lobes 20 scales apart are too narrow for the grid: an error, not a wrong H
    with pytest.raises(DomainError):
        realize_planar(parse_input_spec(
            "mixture:weights=(0.5,0.5),components=(optimizer:s=1|optimizer:s=1,x0=(20,0))"), cfg)


def test_realize_sphere_normalized(cfg):
    u = realize_sphere(parse_input_spec("band-limited-random:seed=2,L=4,amplitude=0.3"), cfg)
    assert abs(u.exp_integral() - 1.0) <= 1e-12
    # exact callable agrees with grid values
    pts = u.grid.points()
    assert np.max(np.abs(u.fn(pts) - u.values)) <= 1e-12
    # determinism: same seed, same field
    v = realize_sphere(parse_input_spec("band-limited-random:seed=2,L=4,amplitude=0.3"), cfg)
    assert np.array_equal(u.values, v.values)


def test_realize_circle_normalized(cfg):
    u = realize_circle(parse_input_spec("circle-cos:eps=0.3"), cfg)
    grid = make_circle_grid(512)
    assert abs(integrate(np.exp(u.values(grid)), grid) - 1.0) <= 1e-12


def test_runconfig_default_grids_are_the_grid_constants():
    cfg = RunConfig()
    assert cfg.sphere_grid() is make_sphere_grid(SPHERE_NZ, SPHERE_NPHI)
    assert cfg.circle_grid() is make_circle_grid(CIRCLE_N)


def test_runconfig_validation_and_file(tmp_path):
    with pytest.raises(DomainError):
        RunConfig(radial_n=4)
    stale = tmp_path / "stale.cfg"
    stale.write_text("tol = 1e-6\n")             # the pass tolerance is not configurable
    with pytest.raises(ParseError):
        RunConfig.from_strings(read_config_file(str(stale)))
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nradial_n = 512\nsphere_nz = 64\ncircle_n = 1024\nks_dt = none\n")
    cfg = RunConfig.from_strings(read_config_file(str(path)))
    assert cfg.radial_n == 512
    assert cfg.sphere_nz == 64
    assert cfg.circle_n == 1024
    assert cfg.ks_dt is None
    for key in ("nonsense", "cart_n", "cart_L", "oracle", "seed"):
        with pytest.raises(ParseError):
            RunConfig.from_strings({key: "1"})
