"""Quadrature grids on R^2 (radial), S^2 and S^1.

Off-center planar densities have no grid of their own: they live on a
sphere grid as their stereographic lift (see ``geometry.lift_T``).

All grids are immutable after construction and integration is a pure
function with a fixed pairwise reduction order, so repeated calls are
bit-identical.

Conventions
-----------
* Radial weights absorb the full planar area measure:
  ``sum(w_i * phi(r_i)) ~ int_{R^2} phi(|x|) dx``.
* Sphere and circle weights are normalized probability measures
  (``sum(w) == 1``), matching the uniform measure sigma used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .errors import DimensionMismatchError, DomainError

__all__ = [
    "pairwise_sum",
    "RadialGrid",
    "SphereGrid",
    "CircleGrid",
    "make_radial_grid",
    "make_sphere_grid",
    "make_circle_grid",
    "integrate",
]


def pairwise_sum(values: np.ndarray) -> float:
    """Sum ``values`` with a fixed binary-tree (pairwise) reduction.

    The reduction order depends only on the length of the input, so the
    result is reproducible bit-for-bit across runs and platforms with
    IEEE-754 doubles, and the accumulated rounding error grows like
    O(log n) rather than O(n).
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        return 0.0
    while x.size > 1:
        if x.size % 2:
            x = np.append(x, 0.0)
        x = x[0::2] + x[1::2]
    return float(x[0])


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
        total = pairwise_sum(w)
        if abs(total - target) > 1e-10 * target:
            raise DomainError(
                "RadialGrid: weights integrate the constant 1 to "
                f"{total!r}, expected pi*r_max^2 = {target!r} within 1e-10 relative"
            )

    @property
    def n(self) -> int:
        return self.nodes.size


def make_radial_grid(r_max: float, n: int, scheme: str = "log-uniform",
                     span: float = 25.0) -> RadialGrid:
    """Build a radial quadrature grid.

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
    return RadialGrid(nodes=r, weights=weights, r_max=float(r_max),
                      scheme=scheme, span=float(span), ref_nodes=xi, ref_weights=w)


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
        total = pairwise_sum(self.w_z) / 2.0
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
        for a in (z, w_z, phi):
            a.flags.writeable = False
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


def make_circle_grid(n: int = 512) -> CircleGrid:
    if n < 8:
        raise DomainError(f"make_circle_grid: n must be at least 8, got {n}")
    return CircleGrid(n=int(n), theta=2.0 * np.pi * np.arange(n) / n)


def integrate(values: np.ndarray, grid) -> float:
    """Quadrature of point values against a grid's measure.

    Deterministic: the product values*weights is reduced by
    :func:`pairwise_sum` in a fixed order.
    """
    v = np.asarray(values, dtype=float)
    if isinstance(grid, RadialGrid):
        if v.shape != grid.nodes.shape:
            raise DimensionMismatchError(
                f"integrate: got {v.shape} values for a radial grid of {grid.nodes.shape}")
        return pairwise_sum(v * grid.weights)
    if isinstance(grid, SphereGrid):
        if v.shape != grid.shape:
            raise DimensionMismatchError(
                f"integrate: got {v.shape} values for a sphere grid of {grid.shape}")
        return pairwise_sum(v * grid.weights)
    if isinstance(grid, CircleGrid):
        if v.shape != grid.theta.shape:
            raise DimensionMismatchError(
                f"integrate: got {v.shape} values for a circle grid of {grid.theta.shape}")
        return pairwise_sum(v) / grid.n
    raise DomainError(f"integrate: unsupported grid type {type(grid).__name__}")
