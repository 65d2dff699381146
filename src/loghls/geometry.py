"""The L^1 isometry of the plane onto the sphere, and conformal
transformations of S^2.

The isometry rests on the stereographic projection
S(omega) = (omega_1, omega_2) / (1 + omega_3), based at the south pole
(0, 0, -1): the north pole maps to the origin and the equator is fixed.
With z = omega_3 the radius satisfies |S(omega)|^2 = (1 - z)/(1 + z).
``lift_T`` and ``planar_from_profile`` evaluate the projection inline, at
the grid points of the sphere.

Conformal maps of S^2 are 4x4 orthochronous Lorentz matrices G
(G^T eta G = eta with eta = diag(-1, 1, 1, 1), G_00 > 0).  A point omega
is the null vector x = (1, omega); G maps it to
tau(omega) = (G x)_{1:3} / (G x)_0 with log-Jacobian -2 log (G x)_0.
The boost along n with rapidity t has (G x)_0 = cosh t + sinh t n.omega,
so its log-Jacobian is the optimizer u_{t,n}; a rotation R is
diag(1, R), with Jacobian 1.  Pushes compose by matrix product:
pushing by A and then by B is pushing once by A @ B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .fields import PlanarDensity, RadialDensity, SphereField
from .grids import SPHERE_NPHI, SPHERE_NZ, SphereGrid, make_sphere_grid

__all__ = [
    "ConformalParams",
    "lift_T",
    "planar_from_profile",
    "sphere_optimizer_values",
    "conformal_push",
    "T_CAP",
]

T_CAP = 20.0   # cosh(t) stays far from overflow and minimizers live at bounded t
_ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class ConformalParams:
    """The boost with rapidity 0 <= t <= T_CAP along a unit axis n, whose
    log-Jacobian is the optimizer u_{t,n}."""

    t: float
    n: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise DomainError(f"ConformalParams: |n| = {np.linalg.norm(n)!r} is not 1 within 1e-12")
        if self.t < 0:
            raise DomainError(f"ConformalParams: t must be >= 0, got {self.t}")
        if self.t > T_CAP:
            raise DomainError(f"ConformalParams: t = {self.t} exceeds the cap {T_CAP}")

    @property
    def axis(self) -> np.ndarray:
        return np.asarray(self.n, dtype=float)

    @property
    def matrix(self) -> np.ndarray:
        """The Lorentz boost along n with rapidity t."""
        n = self.axis
        c, s = np.cosh(self.t), np.sinh(self.t)
        G = np.empty((4, 4))
        G[0, 0] = c
        G[0, 1:] = G[1:, 0] = s * n
        G[1:, 1:] = np.eye(3) + (c - 1.0) * np.outer(n, n)
        return G


def _radius_from_z(z: np.ndarray) -> np.ndarray:
    zc = np.clip(z, -1.0 + 1e-300, 1.0)
    return np.sqrt((1.0 - zc) / (1.0 + zc))


def lift_T(rho: RadialDensity | PlanarDensity, grid: SphereGrid | None = None) -> SphereField:
    """The isometry T from L^1(R^2) onto L^1(S^2).

    T rho (omega) = pi * rho(S(omega)) * (1 + |S(omega)|^2)^2, so mass and
    sign are preserved: int |T rho| dsigma = int |rho| dx and the
    optimizer profile lifts to the constant density 1.  A radial density
    is lifted onto ``grid`` (the default SPHERE_NZ x SPHERE_NPHI grid when
    none is given) through its exact profile, so the lift never interpolates;
    a planar density already holds its lift (of the density translated by
    -rho.shift) on its own grid.
    """
    if isinstance(rho, PlanarDensity):
        if grid is not None and grid is not rho.lifted.grid:
            raise DomainError("lift_T: a planar density is already lifted on another grid")
        return rho.lifted
    if isinstance(rho, RadialDensity):
        def fn(points, _p=rho.profile):
            z = points[..., 2]
            r = _radius_from_z(z)
            return 4.0 * np.pi * _p(r) / (1.0 + np.clip(z, -1.0 + 1e-300, 1.0))**2

        grid = make_sphere_grid(SPHERE_NZ, SPHERE_NPHI) if grid is None else grid
        return SphereField.from_fn(grid, fn, axisymmetric=True)
    raise DomainError(f"lift_T: unsupported density type {type(rho).__name__}")


def planar_from_profile(grid: SphereGrid, fn: Callable,
                        shift: tuple[float, float]) -> PlanarDensity:
    """The planar density fn(x, y) as the lift of fn(. + shift) on ``grid``.

    With 1 + |x|^2 = 2/(1 + omega_3) the lift is
    4 pi fn(x + shift) / (1 + omega_3)^2 at x = S(omega).  Choosing
    ``shift`` near the center of mass keeps the lifted field smooth.
    """
    a, b = float(shift[0]), float(shift[1])

    def lifted(points, _f=fn, _a=a, _b=b):
        z = np.clip(points[..., 2], -1.0 + 1e-300, 1.0)
        return (4.0 * np.pi * _f(points[..., 0] / (1.0 + z) + _a,
                                 points[..., 1] / (1.0 + z) + _b) / (1.0 + z)**2)

    return PlanarDensity(SphereField.from_fn(grid, lifted), (a, b))


def sphere_optimizer_values(t: float, n: np.ndarray, points: np.ndarray) -> np.ndarray:
    """u_{t,n}(omega) = -2 log(cosh t + sinh t n.omega) at the given points."""
    n = np.asarray(n, dtype=float)
    return -2.0 * np.log(np.cosh(t) + np.sinh(t) * (points @ n))


def conformal_push(u: SphereField, g: ConformalParams | np.ndarray) -> SphereField:
    """Conformal action U = u o tau + log J_tau of a Lorentz matrix G.

    ``g`` is a ConformalParams (its boost) or any 4x4 orthochronous Lorentz
    matrix.  With x = (1, omega): tau(omega) = (G x)_{1:3} / (G x)_0 and
    log J_tau = -2 log (G x)_0, so pushing the zero field by a boost gives
    u_{t,n}.  int e^U dsigma = int e^u dsigma (change of variables), which
    callers verify by quadrature.  U's callable evaluates u once, at tau.
    """
    G = g.matrix if isinstance(g, ConformalParams) else np.asarray(g, dtype=float)
    # rounding moves G^T eta G off eta by about eps * G_00^2
    if G.shape != (4, 4) or not G[0, 0] > 0.0 or (
            np.max(np.abs(G.T @ _ETA @ G - _ETA)) > 1e-10 * G[0, 0] ** 2):
        raise DomainError("conformal_push: g must be a 4x4 orthochronous Lorentz matrix")
    if np.array_equal(G, np.eye(4)):
        return u

    def fn(points, _u=u, _G=G):
        x0 = _G[0, 0] + points @ _G[0, 1:]
        moved = (_G[1:, 0] + points @ _G[1:, 1:].T) / x0[..., None]
        return _u.evaluate(moved) - 2.0 * np.log(x0)

    return SphereField(u.grid, fn(u.grid.points()), fn=fn)
