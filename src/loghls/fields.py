"""Field and density containers shared by the functional/flow modules.

A field carries its grid, its point values, and (when available) an
exact callable so that conformal changes of variables never have to
interpolate.  A sphere field is expanded by its grid's one
``SphereTransform``; zonal fields take its m = 0 shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable
import weakref

import numpy as np

from .errors import DimensionMismatchError, DomainError, NormalizationError
from .grids import CircleGrid, RadialGrid, SphereGrid, integrate
from .sht import SphereTransform
from .sht import legendre_analyze  # noqa: F401  perfbench wraps this name here until ROADMAP 3(b)

__all__ = [
    "RadialDensity",
    "PlanarDensity",
    "SphereField",
    "CircleField",
    "get_transform",
    "gaussian_radial",
    "radial_from_profile",
]

_TRANSFORMS: "weakref.WeakKeyDictionary[SphereGrid, dict]" = weakref.WeakKeyDictionary()


def get_transform(grid: SphereGrid, lmax: int | None = None) -> SphereTransform:
    """Shared per-grid transform cache (the Legendre tables are heavy)."""
    if lmax is None:
        lmax = grid.n_z - 1
    per_grid = _TRANSFORMS.setdefault(grid, {})
    if lmax not in per_grid:
        per_grid[lmax] = SphereTransform(grid, lmax)
    return per_grid[lmax]


@dataclass(eq=False)
class RadialDensity:
    """Nonnegative radial density rho(|x|) sampled on a RadialGrid.

    ``profile`` is the exact radial function when known; operations that
    need off-grid values (the sphere lift) prefer it over interpolation.
    """

    grid: RadialGrid
    values: np.ndarray
    profile: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes.shape:
            raise DimensionMismatchError(
                f"RadialDensity: {self.values.shape} values on {self.grid.nodes.shape} nodes")
        if np.any(self.values < 0):
            raise DomainError("RadialDensity: values must be nonnegative")

    @property
    def mass(self) -> float:
        return integrate(self.values, self.grid)

    def normalized(self) -> "RadialDensity":
        m = self.mass
        if m <= 0:
            raise NormalizationError("RadialDensity.normalized: zero mass")
        prof = None
        if self.profile is not None:
            p = self.profile
            prof = lambda r, _p=p, _m=m: _p(r) / _m
        return RadialDensity(self.grid, self.values / m, prof)


@dataclass(eq=False)
class PlanarDensity:
    """Nonnegative planar density carried on the sphere as its lift.

    ``lifted`` is T[rho(. + shift)], the L^1 isometry of the density
    translated by -``shift``.  The free energy and the distance to the
    optimizer family are translation invariant, so they are computed on
    the lift; a nearest optimizer found there is translated back by
    ``shift``.
    """

    lifted: SphereField
    shift: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if np.any(self.lifted.values < 0):
            raise DomainError("PlanarDensity: values must be nonnegative")

    @property
    def mass(self) -> float:
        """int rho dx, which the lift preserves as the sigma-mean."""
        return self.lifted.mean()

    def normalized(self) -> "PlanarDensity":
        m = self.mass
        if m <= 0:
            raise NormalizationError("PlanarDensity.normalized: zero mass")
        f = self.lifted
        fn = None if f.fn is None else (lambda p, _f=f.fn, _m=m: _f(p) / _m)
        return PlanarDensity(SphereField(f.grid, f.values / m, fn=fn), self.shift)


def radial_from_profile(grid: RadialGrid, fn: Callable) -> RadialDensity:
    return RadialDensity(grid, fn(grid.nodes), profile=fn)


def gaussian_radial(grid: RadialGrid, sigma: float = 1.0) -> RadialDensity:
    """Unit-mass centered Gaussian with scale sigma."""
    if sigma <= 0:
        raise DomainError(f"gaussian_radial: sigma must be positive, got {sigma}")
    s2 = sigma * sigma

    def fn(r):
        return np.exp(-np.asarray(r) ** 2 / (2 * s2)) / (2 * np.pi * s2)

    return radial_from_profile(grid, fn)


@dataclass(eq=False)
class SphereField:
    """Real function on S^2: grid values and an optional exact callable.

    ``axisymmetric`` marks a field that depends on omega_3 alone; only the
    independent zonal cross-check reads it.
    """

    grid: SphereGrid
    values: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    axisymmetric: bool = False
    _coeffs: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise DimensionMismatchError(
                f"SphereField: {self.values.shape} values on {self.grid.shape} grid")

    # constructors -----------------------------------------------------
    @classmethod
    def from_fn(cls, grid: SphereGrid, fn: Callable,
                axisymmetric: bool = False) -> "SphereField":
        return cls(grid, fn(grid.points()), fn=fn, axisymmetric=axisymmetric)

    @classmethod
    def from_zonal(cls, grid: SphereGrid, zfn: Callable) -> "SphereField":
        """Axisymmetric field u(omega) = zfn(omega_3)."""
        return cls.from_fn(grid, lambda p: zfn(p[..., 2]), axisymmetric=True)

    # evaluation -------------------------------------------------------
    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values at arbitrary unit vectors (shape (..., 3)).

        Uses the exact callable when present; otherwise synthesizes from
        the spherical-harmonic expansion of the grid values (spectral
        interpolation, exact for band-limited fields).
        """
        points = np.asarray(points, dtype=float)
        if self.fn is not None:
            return self.fn(points)
        tr = get_transform(self.grid)
        c, s = self.coeffs()
        z = np.clip(points[..., 2], -1.0, 1.0)
        phi = np.arctan2(points[..., 1], points[..., 0])
        return tr.evaluate(c, s, z, phi)

    def coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """Real spherical-harmonic coefficients of the grid values."""
        if self._coeffs is None:
            tr = get_transform(self.grid)
            self._coeffs = tr.analyze(self.values)
        return self._coeffs

    # basic integrals ----------------------------------------------------
    def mean(self) -> float:
        return integrate(self.values, self.grid)

    def exp_integral(self) -> float:
        """int e^u dsigma, evaluated without normalization tricks."""
        return integrate(np.exp(self.values), self.grid)

    def barycenter(self) -> np.ndarray:
        """int e^u omega dsigma (the sphere barycenter of the density e^u)."""
        eu = np.exp(self.values)
        pts = self.grid.points()
        return np.array([integrate(eu * pts[..., i], self.grid) for i in range(3)])

    def shifted(self, c: float) -> "SphereField":
        fn = None
        if self.fn is not None:
            f = self.fn
            fn = lambda p, _f=f, _c=c: _f(p) + _c
        return SphereField(self.grid, self.values + c, fn=fn,
                           axisymmetric=self.axisymmetric)


@dataclass(eq=False)
class CircleField:
    """Real function on S^1 stored as half-spectrum Fourier coefficients.

    ``coeffs[k]`` is the coefficient of e^{i k theta} for k = 0..K; the
    negative-frequency coefficients are the conjugates (the field is
    real by construction), so u(theta) = c_0 + 2 Re sum_{k>=1} c_k e^{i k theta}.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise DimensionMismatchError("CircleField: coeffs must be a 1d array")
        if abs(self.coeffs[0].imag) > 1e-12 * max(1.0, abs(self.coeffs[0])):
            raise DomainError("CircleField: mean coefficient must be real")

    @property
    def kmax(self) -> int:
        return self.coeffs.size - 1

    def values(self, grid: CircleGrid) -> np.ndarray:
        k = np.arange(1, self.coeffs.size)
        phase = np.exp(1j * np.outer(grid.theta, k))
        return self.coeffs[0].real + 2.0 * (phase @ self.coeffs[1:]).real

    def mean(self) -> float:
        return float(self.coeffs[0].real)
