"""The functionals of the laboratory.

Planar side: the free energy

    H(rho) = int rho log rho dx
             + 2 * int int rho(x) log|x-x'| rho(x') dx dx'
             + 1 + log(pi),

nonnegative on unit-mass densities and zero exactly on the optimizer
family.  Spherical side: the free energy H_S, the Onofri functional and
the Green operator of -Laplacian.  Circle side: the half-Laplacian
energy and the Lebedev-Milin functional.

Interaction kernels
-------------------
* Radial densities use the angular mean identity
  (1/2pi) int log|x - x'| dtheta = log max(|x|, |x'|), which collapses
  the double integral to J = 2 int f(r) M(r) log r dr with f the radial
  mass density and M its cumulative integral; M is obtained from a
  spline antiderivative in x = log r, so the evaluation never sees the
  diagonal kink.
* Off-center densities are held as their stereographic lift T rho on a
  sphere grid (see ``geometry.planar_from_profile``).  The stereographic
  identities dx = pi (1+|x|^2)^2 dsigma and
  log|x-x'| = log|w-w'| - log 2 + (1/2) log(1+|x|^2) + (1/2) log(1+|x'|^2)
  turn both planar parts into sphere integrals, and their sum into
  H(rho) = H_S(T rho - 1), with no tail cut off.
* Sphere fields, zonal or not, use the harmonic coefficients of their
  grid's one transform: log|w - w'| acts on mean-zero fields as
  -(1/2) / (l(l+1)) per degree.  The tests cross-check it on zonal
  fields against the azimuthal mean identity
  (1/2pi) int log|w-w'| dphi' = (1/2) log[(1+max z)(1-min z)].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import xlogx
from .errors import (DomainError, NormalizationError, PositivityError,
                     PreconditionError)
from .fields import CircleField, PlanarDensity, RadialDensity, SphereField, get_transform
from .grids import CIRCLE_N, CircleGrid, integrate, make_circle_grid
from .sht import legendre_analyze  # noqa: F401  perfbench wraps this name here until ROADMAP 3(b)

__all__ = [
    "FreeEnergyReport",
    "log_interaction",
    "entropy_term",
    "planar_free_energy",
    "planar_free_energy_report",
    "sphere_log_interaction",
    "spherical_free_energy",
    "sphere_green_apply",
    "dirichlet_energy",
    "onofri_functional",
    "half_laplacian_energy",
    "lebedev_milin_functional",
    "radial_grid_misfit",
    "LOG_PI",
]

LOG_PI = float(np.log(np.pi))
LOG_2 = float(np.log(2.0))
MASS_TOL = 1e-6          # unit-mass (and critical-mass) preconditions, absolute
GRID_MASS_SHARE = 1e-2   # mass share a radial grid may miss, or hold in its top tenth
MEAN_TOL = 1e-8          # mean-zero preconditions of the sphere functionals


@dataclass(frozen=True)
class FreeEnergyReport:
    """Free energy split into its entropy and interaction parts."""

    entropy: float
    interaction: float
    total: float
    domain: str


# ----------------------------------------------------------------------
# planar interaction
# ----------------------------------------------------------------------

def radial_grid_misfit(rho: RadialDensity, mass: float) -> str | None:
    """Why the radial density ``rho`` of true mass ``mass`` does not fit its
    grid, or None: the grid must hold all but GRID_MASS_SHARE of the mass,
    and at most that share in the top tenth of its log radii, which stands
    in for the large-r tail whose log moment the grid cannot represent."""
    g, vals = rho.grid, rho.values
    where = f"on the radial grid [{g.nodes[0]:.6g}, {g.nodes[-1]:.6g}]"
    held = integrate(vals, g)
    if not abs(held - mass) <= GRID_MASS_SHARE * mass:
        return f"has mass {held!r} {where}, not {mass!r} within {GRID_MASS_SHARE} of it"
    outer = g.x > g.x[-1] - 0.1 * (g.x[-1] - g.x[0])
    tail = integrate(np.where(outer, vals, 0.0), g)
    if tail > GRID_MASS_SHARE * held:
        return (f"holds {tail!r} of its mass {held!r} in the top tenth of the log radii "
                f"{where}, more than {GRID_MASS_SHARE} of it")
    return None


def _radial_interaction(rho: RadialDensity) -> float:
    g, vals = rho.grid, rho.values
    misfit = radial_grid_misfit(rho, rho.mass)
    if misfit is not None:
        raise DomainError(
            f"log_interaction: the density {misfit}; its log moment is not converged there")
    M = g.mass_antiderivative(vals)(g.x)
    return 2.0 * integrate(vals * M * g.x, g)


def _lift_log_weight(rho: PlanarDensity) -> float:
    """int T rho log(1 + omega_3) dsigma, i.e. int rho log(2/(1+|x|^2)) dx.

    The log is singular at the south pole, where the lift g of an r^-4 tail
    is nonzero, so the quadrature takes g - g_S, and the pole value g_S (the
    callable's at 1 + omega_3 = 1e-12, else the mean over the ring nearest
    the pole) is added back times int log(1 + omega_3) dsigma = log 2 - 1.
    """
    f, g = rho.lifted, rho.lifted.grid
    if f.fn is not None:
        e = 1e-12
        g_S = float(f.fn(np.array([[np.sqrt(e * (2.0 - e)), 0.0, e - 1.0]]))[0])
    else:
        g_S = float(np.mean(f.values[np.argmin(g.z)]))
    return (integrate((f.values - g_S) * np.log1p(g.z)[:, None], g)
            + g_S * (LOG_2 - 1.0))


def log_interaction(rho: RadialDensity | PlanarDensity) -> float:
    """The logarithmic interaction  int int rho(x) log|x-x'| rho(x') dx dx'.

    A lifted density g = T rho of mass m uses
    log|x-x'| = log|w-w'| - log 2 + (1/2) log(1+|x|^2) + (1/2) log(1+|x'|^2)
    and int int log|w-w'| dsigma dsigma' = log 2 - 1/2, which give
    I_S(g - m) + m^2 (log 2 - 1/2) - m int g log(1 + omega_3) dsigma.
    """
    if isinstance(rho, RadialDensity):
        return _radial_interaction(rho)
    if isinstance(rho, PlanarDensity):
        f, m = rho.lifted, rho.mass
        return (sphere_log_interaction(SphereField(f.grid, f.values - m))
                + m * m * (LOG_2 - 0.5) - m * _lift_log_weight(rho))
    raise DomainError(f"log_interaction: unsupported density type {type(rho).__name__}")


def entropy_term(rho: RadialDensity | PlanarDensity) -> float:
    """int rho log rho dx with 0 log 0 = 0.

    A lifted density g = T rho of mass m uses dx = pi (1+|x|^2)^2 dsigma
    with 1 + |x|^2 = 2/(1 + omega_3):
    int g log g dsigma - m log(4 pi) + 2 int g log(1 + omega_3) dsigma.
    """
    if isinstance(rho, RadialDensity):
        return integrate(xlogx(rho.values), rho.grid)
    if isinstance(rho, PlanarDensity):
        f = rho.lifted
        return (integrate(xlogx(f.values), f.grid) - rho.mass * (LOG_PI + 2.0 * LOG_2)
                + 2.0 * _lift_log_weight(rho))
    raise DomainError(f"entropy_term: unsupported density type {type(rho).__name__}")


def planar_free_energy_report(rho: RadialDensity | PlanarDensity) -> FreeEnergyReport:
    mass = rho.mass
    if abs(mass - 1.0) > MASS_TOL:
        raise NormalizationError(
            f"planar_free_energy: density mass {mass!r} violates the unit-mass "
            f"precondition (tolerance {MASS_TOL}); normalize the input")
    work = rho if mass == 1.0 else rho.normalized()
    ent = entropy_term(work)
    inter = log_interaction(work)
    return FreeEnergyReport(entropy=ent, interaction=inter,
                            total=ent + 2.0 * inter + 1.0 + LOG_PI,
                            domain="plane")


def planar_free_energy(rho: RadialDensity | PlanarDensity) -> float:
    """H(rho) for a unit-mass density; >= 0 up to quadrature error."""
    return planar_free_energy_report(rho).total


# ----------------------------------------------------------------------
# sphere
# ----------------------------------------------------------------------

def sphere_log_interaction(f: SphereField) -> float:
    """int int f log|w-w'| f dsigma dsigma' for a mean-zero field."""
    mean = f.mean()
    if abs(mean) > MEAN_TOL:
        raise PreconditionError(
            f"sphere_log_interaction: field mean {mean!r} violates the "
            f"mean-zero precondition (tolerance {MEAN_TOL})")
    tr = get_transform(f.grid)
    c, s = f.coeffs()
    return tr.log_kernel_quadratic(c, s)


def spherical_free_energy(f: SphereField):
    """H_S(f) = int (f+1) log(f+1) dsigma + 2 * int int f log|.| f."""
    mean = f.mean()
    if abs(mean) > MEAN_TOL:
        raise PreconditionError(
            f"spherical_free_energy: int f dsigma = {mean!r}, not 0 within {MEAN_TOL}")
    dens = f.values + 1.0
    if np.min(dens) < -1e-9:
        raise PositivityError(
            f"spherical_free_energy: f + 1 has min {np.min(dens)!r} < 0")
    ent = integrate(xlogx(np.clip(dens, 0.0, None)), f.grid)
    inter = sphere_log_interaction(f)
    return FreeEnergyReport(entropy=ent, interaction=inter,
                            total=ent + 2.0 * inter, domain="sphere")


def sphere_green_apply(f: SphereField) -> SphereField:
    """G f with G the Green function of -Laplacian on S^2 (kernel -2 log|w-w'|).

    Acts on degree-l harmonics as multiplication by 1/(l(l+1)).
    """
    if abs(f.mean()) > MEAN_TOL:
        raise PreconditionError("sphere_green_apply: field must have zero mean")
    tr = get_transform(f.grid)
    c, s = tr.green_coeffs(*f.coeffs())
    return SphereField(f.grid, tr.synthesize(c, s))


def dirichlet_energy(u: SphereField) -> float:
    """int |grad u|^2 dsigma (not quartered): sum l(l+1)|coef|^2."""
    tr = get_transform(u.grid)
    return tr.dirichlet_energy(*u.coeffs())


def onofri_functional(u: SphereField) -> float:
    """J(u) = (1/4) int |grad u|^2 - log int e^u + int u, all against sigma.

    The normalization step subtracts the quadrature mean before
    exponentiating, which makes the value invariant under u -> u + c up
    to roundoff and immune to overflow for large constants.
    """
    ubar = u.mean()
    shifted = u.values - ubar
    log_int = float(np.log(integrate(np.exp(shifted), u.grid)))
    return 0.25 * dirichlet_energy(u) - log_int


# ----------------------------------------------------------------------
# circle
# ----------------------------------------------------------------------

def half_laplacian_energy(u: CircleField) -> float:
    """||(-Delta)^{1/4} u||_2^2 = sum_k |k| |u_hat(k)|^2."""
    k = np.arange(1, u.coeffs.size, dtype=float)
    return float(2.0 * np.sum(k * np.abs(u.coeffs[1:]) ** 2))


def _circle_grid_for(u: CircleField, grid: CircleGrid) -> CircleGrid:
    """``grid`` when it has at least 4 points per mode of u, or else the
    circle grid that resolves u: CIRCLE_N points or 4 per mode."""
    need = 4 * max(u.kmax, 1)
    return grid if grid.n >= need else make_circle_grid(max(CIRCLE_N, need))


def lebedev_milin_functional(u: CircleField, grid: CircleGrid) -> float:
    """LM(u) = (1/2) sum |k||u_hat|^2 - log int e^u dsigma + int u dsigma,
    on ``grid`` or else the circle grid that resolves u."""
    grid = _circle_grid_for(u, grid)
    vals = u.values(grid) - u.mean()       # exact mean via the Fourier coefficient
    log_int = float(np.log(integrate(np.exp(vals), grid)))
    return 0.5 * half_laplacian_energy(u) - log_int
