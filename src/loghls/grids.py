"""Quadrature grids on R^2 (radial), S^2 and S^1.

Off-center planar densities have no grid of their own: they live on a
sphere grid as their stereographic lift (see ``geometry.lift_T``).

Each ``make_*_grid`` returns one shared grid per argument tuple, with
read-only arrays.  :func:`integrate` is the one rule that weights a
grid's values; its reduction order is fixed by the grid's shape, so
repeated calls are bit-identical.

Conventions
-----------
* Radial weights absorb the full planar area measure:
  ``integrate(phi(r), g) ~ int_{R^2} phi(|x|) dx``, as ``values @ weights``.
* Sphere and circle grids carry the uniform probability measure sigma.
  On the sphere each Gauss row is summed and the row sums are dotted
  with the row weights ``w_z / (2 n_phi)``; on the circle it is the
  plain mean.  :func:`moments` weights a sphere grid's values against
  [1, omega] by the same row weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import roots_legendre

from .errors import DimensionMismatchError, DomainError

__all__ = [
    "RadialGrid",
    "SphereGrid",
    "CircleGrid",
    "make_radial_grid",
    "make_sphere_grid",
    "make_circle_grid",
    "integrate",
    "moments",
]


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Quadrature nodes/weights for radial integrands on the plane.

    ``nodes`` are strictly increasing radii in ``(0, r_max)`` and
    ``weights`` include the 2*pi*r area factor.  ``ref_nodes`` and
    ``ref_weights`` are the underlying Gauss-Legendre rule on [-1, 1] in
    the mapped variable (linear in r for the "uniform" scheme, linear in
    log r for "log-uniform"); they are what cumulative-mass evaluations
    need.
    """

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float
    scheme: str
    span: float
    ref_nodes: np.ndarray
    ref_weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        if np.any(w <= 0):
            raise DomainError("RadialGrid: all quadrature weights must be positive")
        if np.any(np.diff(self.nodes) <= 0) or self.nodes[0] <= 0:
            raise DomainError("RadialGrid: nodes must be strictly increasing with r_1 > 0")
        target = np.pi * self.r_max**2
        total = float(np.sum(w))
        if abs(total - target) > 1e-10 * target:
            raise DomainError(
                "RadialGrid: weights integrate the constant 1 to "
                f"{total!r}, expected pi*r_max^2 = {target!r} within 1e-10 relative"
            )

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def shape(self) -> tuple[int]:
        return self.nodes.shape

    def mass_antiderivative(self, values: np.ndarray) -> CubicSpline:
        """The cumulative mass of ``values`` as a function of the reference
        variable: the spline antiderivative of the mass per unit of it,
        ``weights * values / ref_weights``, so that its value at xi less its
        value at -1 is the mass inside the radius that xi maps to."""
        dm_dxi = self.weights * values / self.ref_weights
        return CubicSpline(self.ref_nodes, dm_dxi).antiderivative()


_RADIAL_GRIDS: dict[tuple[float, int, str, float], RadialGrid] = {}


def make_radial_grid(r_max: float, n: int, scheme: str = "log-uniform",
                     span: float = 25.0) -> RadialGrid:
    """The one shared, read-only radial quadrature grid of these arguments.

    Parameters
    ----------
    r_max : outer radius of the represented disk.
    n : number of nodes (>= 16).
    scheme : "uniform" lays the Gauss-Legendre rule out linearly in r on
        (0, r_max); "log-uniform" lays it out in log r over
        [log r_max - span, log r_max], which resolves heavy power-law
        tails (the optimizer profile decays like r^-4) and near-origin
        structure simultaneously.
    span : width of the log-radius window for the log-uniform scheme;
        the innermost node sits near r_max * exp(-span).
    """
    key = (float(r_max), int(n), scheme, float(span))
    if key in _RADIAL_GRIDS:
        return _RADIAL_GRIDS[key]
    if r_max <= 0:
        raise DomainError(f"make_radial_grid: r_max must be positive, got {r_max}")
    if n < 16:
        raise DomainError(f"make_radial_grid: n must be at least 16, got {n}")
    if span <= 0:
        raise DomainError(f"make_radial_grid: span must be positive, got {span}")
    xi, w = roots_legendre(n)
    if scheme == "uniform":
        r = (xi + 1.0) * (r_max / 2.0)
        weights = 2.0 * np.pi * r * (r_max / 2.0) * w
    elif scheme == "log-uniform":
        y = (np.log(r_max) - span) + (xi + 1.0) * (span / 2.0)
        r = np.exp(y)
        weights = 2.0 * np.pi * r**2 * (span / 2.0) * w
    else:
        raise DomainError(f"make_radial_grid: unknown scheme {scheme!r}")
    _read_only(r, weights, xi, w)
    grid = RadialGrid(nodes=r, weights=weights, r_max=key[0], scheme=scheme,
                      span=key[3], ref_nodes=xi, ref_weights=w)
    _RADIAL_GRIDS[key] = grid
    return grid


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Gauss-Legendre x uniform-azimuth product grid on S^2.

    Weights are normalized so the total measure is 1 (the uniform
    probability measure sigma).  ``z`` holds the Gauss-Legendre nodes in
    (-1, 1); exactness holds for polynomials in z up to degree
    2*n_z - 1 and for azimuthal modes up to n_phi - 1.
    """

    n_z: int
    n_phi: int
    z: np.ndarray
    w_z: np.ndarray          # Gauss-Legendre weights, sum to 2
    phi: np.ndarray

    def __post_init__(self):
        total = float(np.sum(self.w_z)) / 2.0
        if abs(total - 1.0) > 1e-12:
            raise DomainError("SphereGrid: weights must sum to 1 within 1e-12")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_z, self.n_phi)

    @property
    def weights(self) -> np.ndarray:
        """Full (n_z, n_phi) weight array for the probability measure."""
        return np.repeat(self.w_z[:, None] / (2.0 * self.n_phi), self.n_phi, axis=1)

    def points(self) -> np.ndarray:
        """Cartesian coordinates of the grid nodes, shape (n_z, n_phi, 3)."""
        s = np.sqrt(np.clip(1.0 - self.z**2, 0.0, None))
        cp, sp = np.cos(self.phi), np.sin(self.phi)
        pts = np.empty((self.n_z, self.n_phi, 3))
        pts[:, :, 0] = s[:, None] * cp[None, :]
        pts[:, :, 1] = s[:, None] * sp[None, :]
        pts[:, :, 2] = self.z[:, None]
        return pts

    @cached_property
    def moment_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The tables of :func:`moments`: [1, cos phi, sin phi] by column
        (n_phi x 3) and the row weights times [1, sin theta, sin theta, z]
        (n_z x 4)."""
        azimuth = np.stack([np.ones(self.n_phi), np.cos(self.phi), np.sin(self.phi)], axis=1)
        s = np.sqrt(np.clip(1.0 - self.z**2, 0.0, None))
        rows = (self.w_z / (2.0 * self.n_phi))[:, None] * np.stack(
            [np.ones(self.n_z), s, s, self.z], axis=1)
        _read_only(azimuth, rows)
        return azimuth, rows


_SPHERE_GRIDS: dict[tuple[int, int], SphereGrid] = {}


def make_sphere_grid(n_z: int = 128, n_phi: int = 256) -> SphereGrid:
    """The one shared, read-only grid of each shape, so its transform
    tables (``fields.get_transform``) are built once."""
    key = (int(n_z), int(n_phi))
    if key not in _SPHERE_GRIDS:
        if n_z < 4 or n_phi < 4:
            raise DomainError(f"make_sphere_grid: grid too small ({n_z} x {n_phi})")
        z, w_z = roots_legendre(n_z)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        _read_only(z, w_z, phi)
        _SPHERE_GRIDS[key] = SphereGrid(*key, z=z, w_z=w_z, phi=phi)
    return _SPHERE_GRIDS[key]


@dataclass(frozen=True, eq=False)
class CircleGrid:
    """Equispaced angles on S^1 with the normalized measure (weight 1/n)."""

    n: int
    theta: np.ndarray

    @property
    def weight(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)


_CIRCLE_GRIDS: dict[int, CircleGrid] = {}


def make_circle_grid(n: int = 512) -> CircleGrid:
    """The one shared, read-only circle grid of ``n`` points."""
    n = int(n)
    if n not in _CIRCLE_GRIDS:
        if n < 8:
            raise DomainError(f"make_circle_grid: n must be at least 8, got {n}")
        theta = 2.0 * np.pi * np.arange(n) / n
        _read_only(theta)
        _CIRCLE_GRIDS[n] = CircleGrid(n=n, theta=theta)
    return _CIRCLE_GRIDS[n]


def integrate(values: np.ndarray, grid) -> float:
    """Quadrature of point values against a grid's measure.

    ``values`` has the grid's shape; a zonal row vector v on a sphere grid
    is passed as ``np.broadcast_to(v[:, None], grid.shape)``.
    """
    if not isinstance(grid, (SphereGrid, RadialGrid, CircleGrid)):
        raise DomainError(f"integrate: unsupported grid type {type(grid).__name__}")
    v = np.asarray(values, dtype=float)
    if v.shape != grid.shape:
        raise DimensionMismatchError(
            f"integrate: got {v.shape} values for a {type(grid).__name__} of {grid.shape}")
    if isinstance(grid, SphereGrid):
        return float(v.sum(axis=1) @ (grid.w_z / (2.0 * grid.n_phi)))
    if isinstance(grid, RadialGrid):
        return float(v @ grid.weights)
    return float(np.mean(v))


def moments(values: np.ndarray, grid: SphereGrid) -> np.ndarray:
    """[int v, int v omega_1, int v omega_2, int v omega_3] dsigma.

    Each Gauss row is summed against [1, cos phi, sin phi], and the row
    sums are dotted with the row weights of :func:`integrate` times
    [1, sin theta, sin theta, z].
    """
    v = np.asarray(values, dtype=float)
    if v.shape != grid.shape:
        raise DimensionMismatchError(
            f"moments: got {v.shape} values for a sphere grid of {grid.shape}")
    azimuth, rows = grid.moment_tables
    sums = v @ azimuth
    return np.einsum("ij,ij->j", sums[:, [0, 1, 2, 0]], rows)
