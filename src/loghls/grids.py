"""Quadrature grids on R^2 (radial), S^2 and S^1.

Off-center planar densities have no grid of their own: they live on a
sphere grid as their stereographic lift (see ``geometry.lift_T``).

Each ``make_*_grid`` returns one shared grid per argument tuple, with
read-only arrays.  :func:`integrate` is the one rule that weights a
grid's values; its reduction order is fixed by the grid's shape, so
repeated calls are bit-identical.

Conventions
-----------
* Radial grids are the trapezoid rule in x = log r, whose weights absorb
  the full planar area measure:
  ``integrate(phi(r), g) ~ int_{r_min < |x| < r_max} phi(|x|) dx``, the
  dot of the weights with the values.  The plane's radial densities and
  the Keller-Segel flow share this one rule.
* Sphere and circle grids carry the uniform probability measure sigma.
  On the sphere each Gauss row is summed and the row sums are dotted
  with the row weights ``w_z / (2 n_phi)``; on the circle it is the
  plain mean.  :func:`moments` weights a sphere grid's values against
  [1, omega] by the same row weights, :func:`second_moments` against
  [1, omega] [1, omega]^T, and the dual of the first,
  :func:`affine_values`, writes a0 + a.omega at a sphere grid's nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

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
    "second_moments",
    "affine_values",
]

SPHERE_NZ = 128          # Gauss rows of the default sphere grid
SPHERE_NPHI = 256        # its azimuth columns
CIRCLE_N = 512           # points of the default circle grid


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """The trapezoid rule in x = log r for radial integrands on the plane.

    ``x`` holds equispaced log radii from log r_min to log r_max, ``nodes``
    the radii e^x and ``weights`` the trapezoid weights 2 pi r^2 dx, halved
    at both ends; their dot with the values of phi(|x|) approximates its
    integral over the annulus r_min <= |x| <= r_max.  On integrands that
    are smooth in x and decay at both ends the rule converges
    exponentially in n (Trefethen-Weideman, SIAM Review 2014); it does not
    integrate constants exactly.
    """

    x: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        r, w, h = self.nodes, self.weights, self.dx
        if np.any(w <= 0):
            raise DomainError("RadialGrid: all quadrature weights must be positive")
        if np.any(np.diff(r) <= 0) or r[0] <= 0:
            raise DomainError("RadialGrid: nodes must be strictly increasing with r_1 > 0")
        # the rule integrates 2 pi e^{2x} to pi (r_max^2 - r_min^2) h coth h
        target = np.pi * (r[-1] ** 2 - r[0] ** 2) * h / math.tanh(h)
        total = float(np.sum(w))
        if abs(total - target) > 1e-10 * target:
            raise DomainError(
                "RadialGrid: weights integrate the constant 1 to "
                f"{total!r}, expected pi (r_max^2 - r_min^2) h coth h = {target!r} "
                "within 1e-10 relative")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def shape(self) -> tuple[int]:
        return self.nodes.shape

    @property
    def dx(self) -> float:
        """The step h of the rule in x = log r."""
        return float(self.x[1] - self.x[0])

    def mass_antiderivative(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The cumulative mass of ``values`` as a function of x = log r,
        defined on [log r_min, log r_max] and 0 at x = log r_min.

        It is the antiderivative of the not-a-knot cubic spline through the
        mass per unit of x, y = 2 pi r^2 values, at the grid's x: what
        ``scipy.interpolate.CubicSpline(x, y).antiderivative()`` returns,
        built in numpy.  The knot slopes solve scipy's tridiagonal system
        by the LAPACK routine it calls, ``dgtsv``, and each interval's
        quartic starts from the summed integrals of the intervals before
        it, summed in scipy's order.
        """
        x = self.x
        y = 2.0 * np.pi * self.nodes**2 * values
        h = np.diff(x)
        slope = np.diff(y) / h
        # rows 1..n-2 match the first derivatives of neighbouring cubics;
        # rows 0 and n-1 match the third derivatives at x_1 and x_{n-2}
        diag = np.empty(x.size)
        diag[1:-1] = 2.0 * (h[:-1] + h[1:])
        diag[0], diag[-1] = h[1], h[-2]
        upper = np.concatenate(([x[2] - x[0]], h[:-1]))
        lower = np.concatenate((h[1:], [x[-1] - x[-3]]))
        rhs = np.empty(x.size)
        rhs[1:-1] = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
        d = x[2] - x[0]
        rhs[0] = ((h[0] + 2.0 * d) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        rhs[-1] = (h[-1] ** 2 * slope[-2] + (2.0 * d + h[-1]) * h[-2] * slope[-1]) / d
        *_, dydx, info = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)
        if info != 0:
            raise DomainError(f"mass_antiderivative: the spline system is singular (info {info})")
        # on [x_i, x_{i+1}] the spline is y_i + dydx_i s + b_i s^2 + a_i s^3 with
        # s = x - x_i, and q holds its antiderivative's coefficients of s^4 .. s
        t = (dydx[:-1] + dydx[1:] - 2.0 * slope) / h
        a, b = t / h, (slope - dydx[:-1]) / h - t
        q = (a / 4.0, b / 3.0, dydx[:-1] / 2.0, y[:-1])

        def terms(i, s: np.ndarray) -> tuple[np.ndarray, ...]:
            """The quartic's terms on interval i at s, lowest power first:
            the order in which scipy's PPoly adds them to the constant."""
            s2 = s * s
            return q[3][i] * s, q[2][i] * s2, q[1][i] * (s2 * s), q[0][i] * (s2 * s * s)

        # one sequential sum runs through the four terms of each interval in turn
        running = np.cumsum(np.stack(terms(slice(None), h), axis=1))
        start = np.concatenate(([0.0], running[3::4][:-1]))

        def mass(xq: np.ndarray) -> np.ndarray:
            i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
            t1, t2, t3, t4 = terms(i, xq - x[i])
            return start[i] + t1 + t2 + t3 + t4

        return mass


@cache
def make_radial_grid(r_min: float, r_max: float, n: int) -> RadialGrid:
    """The one shared, read-only radial grid: n nodes uniform in log r on
    [log r_min, log r_max], which resolves heavy power-law tails (the
    optimizer profile decays like r^-4) and near-origin structure at once.
    """
    if not 0.0 < r_min < r_max < math.inf:
        raise DomainError(
            f"make_radial_grid: need 0 < r_min < r_max < inf, got {r_min}, {r_max}")
    if n < 16:
        raise DomainError(f"make_radial_grid: n must be at least 16, got {n}")
    x = np.linspace(math.log(r_min), math.log(r_max), int(n))
    r = np.exp(x)
    weights = 2.0 * np.pi * r**2 * float(x[1] - x[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    _read_only(x, r, weights)
    return RadialGrid(x=x, nodes=r, weights=weights)


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
        """Cartesian coordinates of the grid nodes, shape (n_z, n_phi, 3),
        built once per grid and read-only."""
        return self._points

    @cached_property
    def _points(self) -> np.ndarray:
        s = np.sqrt(np.clip(1.0 - self.z**2, 0.0, None))
        cp, sp = np.cos(self.phi), np.sin(self.phi)
        pts = np.empty((self.n_z, self.n_phi, 3))
        pts[:, :, 0] = s[:, None] * cp[None, :]
        pts[:, :, 1] = s[:, None] * sp[None, :]
        pts[:, :, 2] = self.z[:, None]
        _read_only(pts)
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

    @cached_property
    def second_moment_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The tables of :func:`second_moments`: [1, cos phi, sin phi,
        cos^2 phi, cos phi sin phi, sin^2 phi] by column (n_phi x 6) and
        the row weights times the sin theta and z factors of the ten
        entries of x x^T, x = (1, omega), on and above the diagonal
        (n_z x 10)."""
        c, s = np.cos(self.phi), np.sin(self.phi)
        azimuth = np.stack([np.ones(self.n_phi), c, s, c * c, c * s, s * s], axis=1)
        st = np.sqrt(np.clip(1.0 - self.z**2, 0.0, None))
        one, z = np.ones(self.n_z), self.z
        rows = (self.w_z / (2.0 * self.n_phi))[:, None] * np.stack(
            [one, st, st, z, st * st, st * st, st * z, st * st, st * z, z * z], axis=1)
        _read_only(azimuth, rows)
        return azimuth, rows

    @cached_property
    def affine_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The tables of :func:`affine_values`: [z, sin theta] by row
        (n_z x 2) and [cos phi, sin phi] by column (2 x n_phi)."""
        rows = np.stack([self.z, np.sqrt(np.clip(1.0 - self.z**2, 0.0, None))], axis=1)
        azimuth = np.stack([np.cos(self.phi), np.sin(self.phi)])
        _read_only(rows, azimuth)
        return rows, azimuth


@cache
def make_sphere_grid(n_z: int, n_phi: int) -> SphereGrid:
    """The one shared, read-only grid of each shape, so its transform
    tables (``fields.get_transform``) are built once."""
    if n_z < 4 or n_phi < 4:
        raise DomainError(f"make_sphere_grid: grid too small ({n_z} x {n_phi})")
    # imported here, so commands that build no sphere grid never load scipy.special
    from scipy.special import roots_legendre
    z, w_z = roots_legendre(n_z)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    _read_only(z, w_z, phi)
    return SphereGrid(int(n_z), int(n_phi), z=z, w_z=w_z, phi=phi)


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


@cache
def make_circle_grid(n: int) -> CircleGrid:
    """The one shared, read-only circle grid of ``n`` points."""
    if n < 8:
        raise DomainError(f"make_circle_grid: n must be at least 8, got {n}")
    theta = 2.0 * np.pi * np.arange(n) / n
    _read_only(theta)
    return CircleGrid(n=int(n), theta=theta)


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
        return float(grid.weights.dot(v))
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


# the azimuth column of second_moment_tables that each of the ten upper
# entries of x x^T takes, in np.triu_indices(4) order
_SECOND_MOMENT_COLUMNS = [0, 1, 2, 0, 3, 4, 1, 5, 2, 0]


def second_moments(values: np.ndarray, grid: SphereGrid) -> np.ndarray:
    """int v x x^T dsigma with x = (1, omega): the symmetric 4 x 4 matrix
    of the zeroth, first and second moments of v.

    Each Gauss row is summed against [1, cos phi, sin phi, cos^2 phi,
    cos phi sin phi, sin^2 phi], and the row sums are dotted with the row
    weights of :func:`integrate` times each entry's sin theta and z
    factors, as in :func:`moments`.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != grid.shape:
        raise DimensionMismatchError(
            f"second_moments: got {v.shape} values for a sphere grid of {grid.shape}")
    azimuth, rows = grid.second_moment_tables
    sums = v @ azimuth
    upper = np.einsum("ij,ij->j", sums[:, _SECOND_MOMENT_COLUMNS], rows)
    out = np.empty((4, 4))
    i, j = np.triu_indices(4)
    out[i, j] = out[j, i] = upper
    return out


def affine_values(a0: float, a: np.ndarray, grid: SphereGrid, out: np.ndarray) -> np.ndarray:
    """a0 + a.omega at every node of a sphere grid, written into ``out``
    (the grid's shape) and returned.

    At the node (sin theta_j cos phi_k, sin theta_j sin phi_k, z_j) it is
    A_j + B_j C_k, with A = a0 + a_3 z and B = sin theta by row and
    C = a_1 cos phi + a_2 sin phi by column, so the whole grid is one
    (n_z x 2) @ (2 x n_phi) product of [A, B] with [1, C].
    """
    rows, azimuth = grid.affine_tables
    left = rows * (a[2], 1.0)              # [a_3 z, sin theta]
    left[:, 0] += a0
    right = np.empty((2, grid.n_phi))      # [1, a_1 cos phi + a_2 sin phi]
    right[0] = 1.0
    np.dot(a[:2], azimuth, out=right[1])
    return np.matmul(left, right, out=out)
