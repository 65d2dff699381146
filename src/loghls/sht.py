"""Real spherical-harmonic analysis/synthesis on Gauss-Legendre x FFT grids.

Every sphere field is expanded by one transform, against the real basis
that is orthonormal for the uniform *probability* measure sigma:

    Ytilde_{l,0}        = Q_{l,0}(z)
    Ytilde_{l,m}^{cos}  = sqrt(2) Q_{l,m}(z) cos(m phi)
    Ytilde_{l,m}^{sin}  = sqrt(2) Q_{l,m}(z) sin(m phi)

where Q_{l,m} are normalized associated Legendre functions with
(1/2) int_{-1}^{1} Q_{l,m}^2 dz = 1.  The Laplace-Beltrami operator acts
as multiplication by -l(l+1), which is all the energy functionals need.

A transform tabulates only the orders its grid resolves, order by order
(``SphereTransform.Qm``), so analysis is one real FFT along each Gauss
row and one stacked matrix product of every order's table block with
that order's Fourier column; synthesis is the transposed product and one
inverse FFT.  Zonal input
(every grid row constant) fills the m = 0 column alone, the plain
Legendre a_l of u(z) = sum a_l P_l(z) times 1/sqrt(2l+1);
``legendre_analyze`` computes the a_l directly, a reference for that
shortcut.  The heat flow keeps its states in these (c, s) coefficients.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import DimensionMismatchError
from .grids import SphereGrid

__all__ = [
    "legendre_rows",
    "normalized_assoc_legendre",
    "legendre_analyze",
    "SphereTransform",
]


def assoc_legendre_single_m(lmax: int, m: int, z: np.ndarray) -> np.ndarray:
    """Rows Q_{l,m}(z) for one order m, l = m..lmax; shape (lmax+1-m, n).

    Normalization (1/2) int Q_{l,m}^2 dz = 1, no Condon-Shortley phase:
    a sectoral seed Q_{m,m} and the stable three-term recurrence in l,
    accurate for the moderate degrees (l <= few hundred) used here.
    O(L n) memory, for pointwise synthesis at many points.
    """
    z = np.asarray(z, dtype=float)
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    out = np.zeros((lmax + 1 - m, z.size))
    qmm = np.ones_like(z)
    for j in range(1, m + 1):
        qmm = np.sqrt((2 * j + 1) / (2.0 * j)) * s * qmm
    out[0] = qmm
    if lmax >= m + 1:
        out[1] = np.sqrt(2 * m + 3.0) * z * qmm
    for l in range(m + 2, lmax + 1):
        a = np.sqrt((4.0 * l * l - 1.0) / ((l - m) * (l + m)))
        b = np.sqrt((2.0 * l + 1.0) * (l + m - 1.0) * (l - m - 1.0)
                    / ((2.0 * l - 3.0) * (l - m) * (l + m)))
        out[l - m] = a * z * out[l - 1 - m] - b * out[l - 2 - m]
    return out


def legendre_rows(lmax: int, max_m: int, z: np.ndarray) -> Iterator[np.ndarray]:
    """Q_{l,m}(z) for m <= min(l, max_m), one degree l = 0..lmax at a time.

    Each row block has shape (min(l, max_m) + 1, len(z)).  The recurrence
    is :func:`assoc_legendre_single_m`'s, run for all orders at once: the
    three-term step in l for m <= l - 2, Q_{l,l-1} from the sectoral
    Q_{l-1,l-1}, and the sectoral Q_{l,l}.  Every entry takes the same
    floating-point operations in the same order, so the values are
    bit-identical to the per-order rows.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    # the three-term coefficients for every (l, m), read where m <= l - 2
    d, m = np.arange(lmax + 1)[:, None], np.arange(max_m + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * d * d - 1.0) / ((d - m) * (d + m)))[:, :, None]
        b = np.sqrt((2.0 * d + 1.0) * (d + m - 1.0) * (d - m - 1.0)
                    / ((2.0 * d - 3.0) * (d - m) * (d + m)))[:, :, None]
    prev, row = None, np.ones((1, z.size))
    yield row
    for l in range(1, lmax + 1):
        k = min(l - 2, max_m) + 1
        parts = [a[l, :k] * z * row[:k] - b[l, :k] * prev[:k]] if k > 0 else []
        if l - 1 <= max_m:
            parts.append(np.sqrt(2 * (l - 1) + 3.0) * z * row[l - 1:l])
        if l <= max_m:
            parts.append(np.sqrt((2 * l + 1) / (2.0 * l)) * s * row[l - 1:l])
        prev, row = row, np.concatenate(parts)
        yield row


def normalized_assoc_legendre(lmax: int, max_m: int, z: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre functions Q[l, m] at points z.

    Normalization: (1/2) * int_{-1}^1 Q_{l,m}(z)^2 dz = 1 (no
    Condon-Shortley phase).  Returned array has shape
    (lmax+1, max_m+1, len(z)); entries with m > l are zero.  It is the
    transposed view of an order-major (max_m+1, lmax+1, len(z)) array, in
    which each order's block is contiguous.  Each column m holds the rows
    of :func:`assoc_legendre_single_m`, bit for bit (:func:`legendre_rows`).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    Qm = np.zeros((max_m + 1, lmax + 1, z.size))
    for l, row in enumerate(legendre_rows(lmax, max_m, z)):
        Qm[:row.shape[0], l] = row
    return Qm.transpose(1, 0, 2)


def legendre_analyze(values_z: np.ndarray, grid: SphereGrid, lmax: int) -> np.ndarray:
    """Plain Legendre coefficients a_l of an axisymmetric field.

    ``values_z`` holds u at the grid's z nodes; the expansion is
    u(z) = sum_l a_l P_l(z) with a_l = (2l+1)/2 * int u P_l dz, exact for
    polynomial u of degree <= 2*n_z - 1 - lmax.
    """
    v = np.asarray(values_z, dtype=float)
    if v.shape != grid.z.shape:
        raise DimensionMismatchError(
            f"legendre_analyze: got {v.shape} values for {grid.z.shape} z-nodes")
    V = npleg.legvander(grid.z, lmax)                 # (n_z, lmax+1)
    raw = V.T @ (grid.w_z * v)                        # int u P_l dz
    return (2 * np.arange(lmax + 1) + 1) / 2.0 * raw


class SphereTransform:
    """Forward/inverse real spherical-harmonic transform on one grid.

    The transform object precomputes the normalized associated Legendre
    table at the grid's z nodes, for the orders m <= max_m = min(lmax,
    n_phi/2 - 1) that the grid resolves, and is reused by every field bound
    to that grid.  The table is stored order-major, ``Qm[m, l] = Q_{l,m}``
    of shape (max_m+1, lmax+1, n_z), so analysis and synthesis are each one
    FFT and one stacked matrix product over all orders; ``Q`` is the
    (lmax+1, max_m+1, n_z) view of the same storage.  Coefficients are
    stored as a pair of (lmax+1, lmax+1) arrays ``c`` (m=0 column plus
    cosine modes) and ``s`` (sine modes, m >= 1); their columns m > max_m
    stay 0.
    """

    def __init__(self, grid: SphereGrid, lmax: int):
        if lmax > grid.n_z - 1:
            raise DimensionMismatchError(
                f"SphereTransform: lmax {lmax} exceeds n_z-1 = {grid.n_z - 1}")
        max_m = min(lmax, grid.n_phi // 2 - 1)
        self.grid = grid
        self.lmax = int(lmax)
        self.max_m = int(max_m)
        self.Q = normalized_assoc_legendre(lmax, max_m, grid.z)
        self.Qm = self.Q.transpose(1, 0, 2)
        ell = np.arange(lmax + 1)
        self.eigs = ell * (ell + 1.0)

    def analyze(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid values (n_z, n_phi) -> coefficient arrays (c, s).

        The cosine and sine parts of each order's Fourier column, weighted
        by the Gauss rows, are the two right-hand columns of that order's
        product with its table block.  Zonal values (every row constant)
        fill the m = 0 column alone, with no FFT; the other columns are
        then exactly 0.
        """
        g = self.grid
        v = np.asarray(values, dtype=float)
        if v.shape != g.shape:
            raise DimensionMismatchError(
                f"SphereTransform.analyze: got {v.shape}, expected {g.shape}")
        L, M = self.lmax, self.max_m
        c = np.zeros((L + 1, L + 1))
        s = np.zeros((L + 1, L + 1))
        wh = g.w_z / 2.0
        if np.all(v == v[:, :1]):
            c[:, 0] = self.Q[:, 0, :] @ (wh * v[:, 0])
            return c, s
        # (M+1, n_z, 2): each order's Fourier column as (real, imag) pairs
        F = np.fft.rfft(v, axis=1).view(float).reshape(g.n_z, -1, 2)[:, :M + 1]
        rhs = F.transpose(1, 0, 2) / g.n_phi
        rhs[1:] *= 2.0
        rhs *= wh[:, None]
        out = np.matmul(self.Qm, rhs)                     # (M+1, L+1, 2)
        out[1:] /= np.sqrt(2.0)
        c[:, :M + 1] = out[:, :, 0].T
        s[:, 1:M + 1] = -out[1:, :, 1].T
        return c, s

    def synthesize(self, c: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Coefficients -> grid values (n_z, n_phi)."""
        g = self.grid
        M, nphi = self.max_m, g.n_phi
        cs = np.stack([c[:, :M + 1].T, -s[:, :M + 1].T], axis=2)  # (M+1, L+1, 2)
        A = np.matmul(self.Qm.transpose(0, 2, 1), cs)             # (M+1, n_z, 2)
        A[0] *= nphi
        A[1:] *= np.sqrt(2.0) * (nphi / 2.0)
        # the rfft half spectrum as (real, imag) pairs, orders above M left 0;
        # irfft discards the imaginary part at m = 0, where s has no mode
        F = np.zeros((g.n_z, nphi // 2 + 1, 2))
        F[:, :M + 1] = A.transpose(1, 0, 2)
        return np.fft.irfft(F.view(complex)[:, :, 0], n=nphi, axis=1)

    def evaluate(self, c: np.ndarray, s: np.ndarray,
                 z: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Pointwise synthesis at arbitrary (z, phi) arrays (same shape).

        Streams one azimuthal order at a time so memory stays O(L n)
        even for large point sets; orders with no coefficient mass are
        skipped.
        """
        z = np.asarray(z, dtype=float)
        phi = np.asarray(phi, dtype=float)
        shape = z.shape
        zf = z.ravel()
        pf = phi.ravel()
        out = np.zeros(zf.shape)
        for m in range(0, self.max_m + 1):
            cm = c[m:, m]
            sm = s[m:, m] if m >= 1 else np.zeros(0)
            if not (np.any(cm) or np.any(sm)):
                continue
            lmax_m = m + max(int(np.max(np.nonzero(cm)[0], initial=0)),
                             int(np.max(np.nonzero(sm)[0], initial=0)) if m >= 1 else 0)
            Qm = assoc_legendre_single_m(lmax_m, m, zf)
            if m == 0:
                out += Qm.T @ cm[: lmax_m + 1]
            else:
                Am = np.sqrt(2.0) * (Qm.T @ cm[: lmax_m - m + 1])
                Bm = np.sqrt(2.0) * (Qm.T @ sm[: lmax_m - m + 1])
                out += Am * np.cos(m * pf) + Bm * np.sin(m * pf)
        return out.reshape(shape)

    def dirichlet_energy(self, c: np.ndarray, s: np.ndarray) -> float:
        """int |grad u|^2 dsigma = sum l(l+1) |coef|^2."""
        per_l = (c * c).sum(axis=1) + (s * s).sum(axis=1)
        return float(np.sum(self.eigs * per_l))

    def green_coeffs(self, c: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply the Green operator of -Laplacian: divide by l(l+1), kill l=0."""
        inv = np.zeros(self.lmax + 1)
        inv[1:] = 1.0 / self.eigs[1:]
        return c * inv[:, None], s * inv[:, None]

    def log_kernel_quadratic(self, c: np.ndarray, s: np.ndarray) -> float:
        """int int f log|w-w'| f dsigma dsigma' for a mean-zero field.

        Equals -1/2 * sum_{l>=1} |coef|^2 / (l(l+1)); the l=0 row is
        ignored (callers enforce the mean-zero precondition).
        """
        per_l = (c * c).sum(axis=1) + (s * s).sum(axis=1)
        return float(-0.5 * np.sum(per_l[1:] / self.eigs[1:]))
