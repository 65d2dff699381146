"""Stereographic projection, the L^1 isometry onto the sphere, and
conformal transformations of S^2.

The projection is based at the south pole (0, 0, -1): the north pole
maps to the origin and the equator is fixed.  With z = omega_3 the
radius satisfies |S(omega)|^2 = (1 - z)/(1 + z).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError
from .fields import PlanarDensity, RadialDensity, SphereField
from .grids import SphereGrid

__all__ = [
    "ConformalParams",
    "stereo_forward",
    "stereo_inverse",
    "chordal_identity_check",
    "stereonorm_residual",
    "lift_T",
    "planar_from_profile",
    "sphere_optimizer_values",
    "conformal_push",
    "rotate_field",
    "rotation_to_pole",
    "T_CAP",
]

T_CAP = 20.0   # cosh(t) stays far from overflow and minimizers live at bounded t


@dataclass(frozen=True)
class ConformalParams:
    """Dilation parameter t >= 0 along a unit axis n."""

    t: float
    n: tuple[float, float, float]

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


def _check_unit(omega: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    norms = np.sqrt(np.sum(omega**2, axis=-1))
    if np.any(np.abs(norms - 1.0) > tol):
        raise DomainError(
            f"stereo_forward: input must lie on S^2 within {tol} (max deviation "
            f"{np.max(np.abs(norms - 1.0)):.2e})")
    return omega


def stereo_forward(omega: np.ndarray) -> np.ndarray:
    """South-pole stereographic projection S: S^2 -> R^2.

    Returns (omega_1, omega_2) / (1 + omega_3); the south pole itself maps
    to the infinity marker (inf, inf).
    """
    omega = _check_unit(omega)
    z = omega[..., 2]
    out = np.empty(omega.shape[:-1] + (2,))
    with np.errstate(divide="ignore", invalid="ignore"):
        out[..., 0] = omega[..., 0] / (1.0 + z)
        out[..., 1] = omega[..., 1] / (1.0 + z)
    at_pole = np.isclose(z, -1.0, atol=1e-14)
    out[at_pole] = np.inf
    return out


def stereo_inverse(x: np.ndarray) -> np.ndarray:
    """Inverse projection: x -> (2 x_1, 2 x_2, 1 - |x|^2) / (1 + |x|^2)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x**2, axis=-1)
    out = np.empty(x.shape[:-1] + (3,))
    out[..., 0] = 2.0 * x[..., 0] / (1.0 + r2)
    out[..., 1] = 2.0 * x[..., 1] / (1.0 + r2)
    out[..., 2] = (1.0 - r2) / (1.0 + r2)
    return out


def stereonorm_residual(omega: np.ndarray) -> float:
    """Residual of |S(omega)|^2 * (1 + omega_3) - (1 - omega_3).

    This is the radius identity consistent with the south-pole
    projection used here: z = omega_3 = (1 - |x|^2)/(1 + |x|^2).
    """
    omega = _check_unit(omega)
    x = stereo_forward(omega)
    r2 = np.sum(x**2, axis=-1)
    z = omega[..., 2]
    return float(np.max(np.abs(r2 * (1.0 + z) - (1.0 - z))))


def chordal_identity_check(x: np.ndarray, xp: np.ndarray) -> float:
    """| |S^-1 x - S^-1 x'|^2 - 4 |x - x'|^2 / ((1+|x|^2)(1+|x'|^2)) |."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xp))):
        raise DomainError("chordal_identity_check: points must be finite")
    a = stereo_inverse(x)
    b = stereo_inverse(xp)
    lhs = np.sum((a - b)**2, axis=-1)
    rhs = 4.0 * np.sum((x - xp)**2, axis=-1) / ((1.0 + np.sum(x**2, axis=-1))
                                                * (1.0 + np.sum(xp**2, axis=-1)))
    return float(np.max(np.abs(lhs - rhs)))


def _radius_from_z(z: np.ndarray) -> np.ndarray:
    zc = np.clip(z, -1.0 + 1e-300, 1.0)
    return np.sqrt((1.0 - zc) / (1.0 + zc))


def lift_T(rho: RadialDensity | PlanarDensity) -> SphereField:
    """The isometry T from L^1(R^2) onto L^1(S^2).

    T rho (omega) = pi * rho(S(omega)) * (1 + |S(omega)|^2)^2, so mass and
    sign are preserved: int |T rho| dsigma = int |rho| dx and the
    optimizer profile lifts to the constant density 1.  A planar density
    already holds its lift (of the density translated by -rho.shift).
    """
    if isinstance(rho, PlanarDensity):
        return rho.lifted
    if isinstance(rho, RadialDensity):
        prof = rho.profile
        if prof is None:
            prof = _spline_profile(rho)

        def fn(points, _p=prof):
            z = points[..., 2]
            r = _radius_from_z(z)
            return 4.0 * np.pi * _p(r) / (1.0 + np.clip(z, -1.0 + 1e-300, 1.0))**2

        return SphereField.from_fn(_lift_grid(rho), fn, axisymmetric=True)
    raise DomainError(f"lift_T: unsupported density type {type(rho).__name__}")


def planar_from_profile(grid: SphereGrid, fn: Callable,
                        shift: tuple[float, float] = (0.0, 0.0)) -> PlanarDensity:
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


_LIFT_GRIDS: dict[tuple[int, int], SphereGrid] = {}


def _lift_grid(rho, n_z: int = 128, n_phi: int = 256) -> SphereGrid:
    from .grids import make_sphere_grid
    key = (n_z, n_phi)
    if key not in _LIFT_GRIDS:
        _LIFT_GRIDS[key] = make_sphere_grid(n_z, n_phi)
    return _LIFT_GRIDS[key]


def _spline_profile(rho: RadialDensity) -> Callable:
    """Monotone-grid spline fallback for grid-only radial densities."""
    r = rho.grid.nodes
    spl = CubicSpline(np.log(r), rho.values, extrapolate=False)

    def prof(rr):
        rr = np.asarray(rr, dtype=float)
        out = spl(np.log(np.clip(rr, r[0], r[-1])))
        out = np.where(rr > r[-1], 0.0, out)
        return np.clip(out, 0.0, None)

    return prof


def sphere_optimizer_values(t: float, n: np.ndarray, points: np.ndarray) -> np.ndarray:
    """u_{t,n}(omega) = -2 log(cosh t + sinh t n.omega) at the given points."""
    n = np.asarray(n, dtype=float)
    return -2.0 * np.log(np.cosh(t) + np.sinh(t) * (points @ n))


def _mobius_map(points: np.ndarray, t: float, n: np.ndarray) -> np.ndarray:
    """Conformal dilation along axis n: z -> (z cosh t + sinh t)/(cosh t + z sinh t),
    tangential direction preserved."""
    n = np.asarray(n, dtype=float)
    z = points @ n
    c, s = np.cosh(t), np.sinh(t)
    zp = (z * c + s) / (c + z * s)
    tang = points - z[..., None] * n
    t2 = np.clip(1.0 - z**2, 0.0, None)
    tp2 = np.clip(1.0 - zp**2, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(t2 > 0, np.sqrt(tp2 / np.where(t2 > 0, t2, 1.0)), 0.0)
    return zp[..., None] * n + scale[..., None] * tang


def conformal_push(u: SphereField, params: ConformalParams) -> SphereField:
    """Conformal action U = u o tau + log J_tau with log J_tau = u_{t,n}.

    Pushing the zero field yields exactly the optimizer u_{t,n}; the
    integral of e^U over sigma equals that of e^u (change of variables),
    which callers verify by quadrature.
    """
    t = float(params.t)
    n = params.axis
    if t == 0.0:
        return u
    grid = u.grid

    def fn(points, _u=u, _t=t, _n=n):
        moved = _mobius_map(points, _t, _n)
        return _u.evaluate(moved) + sphere_optimizer_values(_t, _n, points)

    values = fn(grid.points())
    return SphereField(grid, values, fn=fn, axisymmetric=False)


def rotation_to_pole(n: np.ndarray) -> np.ndarray:
    """A rotation matrix R with R n = e_3 (deterministic choice)."""
    n = np.asarray(n, dtype=float)
    e3 = np.array([0.0, 0.0, 1.0])
    v = np.cross(n, e3)
    c = float(n @ e3)
    if np.linalg.norm(v) < 1e-14:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def rotate_field(u: SphereField, R: np.ndarray) -> SphereField:
    """u o R (a measure-preserving conformal map, Jacobian 1)."""
    R = np.asarray(R, dtype=float)
    if np.max(np.abs(R @ R.T - np.eye(3))) > 1e-10:
        raise DomainError("rotate_field: R must be orthogonal")
    grid = u.grid

    def fn(points, _u=u, _R=R):
        return _u.evaluate(points @ _R.T)

    return SphereField(grid, fn(grid.points()), fn=fn, axisymmetric=False)
