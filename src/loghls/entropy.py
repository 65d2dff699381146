"""Relative entropy, Pinsker's inequality, the Legendre pair (H, H*),
the strong Young inequality and the small-set absolute-continuity bound.

All operations work on a finite (or quadrature-discretized) probability
space described by a weight vector ``nu`` with ``sum(nu) == 1``.  Every
function of densities or potentials takes ``nu`` as its last argument,
and the densities and potentials as arrays of its shape.  The
convention 0*log 0 = 0 is applied throughout, and relative entropy is
+inf when the first density charges the null set of the second.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NormalizationError

__all__ = [
    "xlogx",
    "relative_entropy",
    "l1_distance",
    "pinsker_gap",
    "log_partition",
    "gibbs_density",
    "strong_young_gap",
    "half_convexity_gap",
    "small_set_delta",
]

_MASS_TOL = 1e-8


def _as_measure(nu, name: str) -> np.ndarray:
    nu = np.asarray(nu, dtype=float)
    if np.any(nu < 0):
        raise DomainError(f"{name}: reference measure must be nonnegative")
    if abs(nu.sum() - 1.0) > _MASS_TOL:
        raise NormalizationError(
            f"{name}: reference measure has total {nu.sum()!r}, expected 1 within {_MASS_TOL}")
    return nu


def _check_density(rho, nu, name: str) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if rho.shape != np.shape(nu):
        raise DomainError(f"{name}: density and measure shapes differ")
    if np.any(rho < 0):
        raise DomainError(f"{name}: density must be nonnegative")
    mass = float(np.sum(rho * nu))
    if abs(mass - 1.0) > _MASS_TOL:
        raise NormalizationError(
            f"{name}: density has mass {mass!r}, expected 1 within {_MASS_TOL}")
    return rho


def xlogx(x: np.ndarray) -> np.ndarray:
    """x log x with the 0 log 0 = 0 convention; every x <= 0 gives (signed)
    zero and NaN propagates."""
    x = np.asarray(x, dtype=float)
    return x * np.log(np.where(x > 0, x, 1.0))


def _unpack(rho1, rho0, nu, name: str):
    """rho1, rho0 and nu, checked; errors name the operation ``name``."""
    nu = _as_measure(nu, name)
    return (_check_density(rho1, nu, f"{name}(rho1)"),
            _check_density(rho0, nu, f"{name}(rho0)"), nu)


def relative_entropy(rho1, rho0, nu) -> float:
    """H(rho1 | rho0) = int rho1 (log rho1 - log rho0) dnu, in [0, +inf].

    Returns +inf when rho1 puts mass where rho0 vanishes.
    """
    r1, r0, nu = _unpack(rho1, rho0, nu, "relative_entropy")
    bad = (r0 == 0) & (r1 * nu > 0)
    if np.any(bad):
        return float("inf")
    sup = (r1 > 0) & (nu > 0)
    return float(np.sum(nu[sup] * r1[sup] * (np.log(r1[sup]) - np.log(r0[sup]))))


def l1_distance(rho1, rho0, nu) -> float:
    r1, r0, nu = _unpack(rho1, rho0, nu, "l1_distance")
    return float(np.sum(np.abs(r1 - r0) * nu))


def pinsker_gap(rho1, rho0, nu) -> float:
    """H(rho1|rho0) - (1/2) ||rho1 - rho0||_1^2, nonnegative by Pinsker."""
    H = relative_entropy(rho1, rho0, nu)
    if np.isinf(H):
        return float("inf")
    return H - 0.5 * l1_distance(rho1, rho0, nu) ** 2


def log_partition(phi, nu) -> float:
    """H*(phi) = log int e^phi dnu for bounded phi."""
    nu = _as_measure(nu, "log_partition")
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise DomainError("log_partition: potential must be finite (L^inf)")
    # imported here, so commands that take no log-partition never load scipy.special
    from scipy.special import logsumexp
    pos = nu > 0
    return float(logsumexp(phi[pos], b=nu[pos]))


def gibbs_density(phi, nu) -> np.ndarray:
    """grad H*(phi) = e^phi / int e^phi dnu, a probability density."""
    nu = _as_measure(nu, "gibbs_density")
    phi = np.asarray(phi, dtype=float)
    return np.exp(phi - log_partition(phi, nu))


def strong_young_gap(rho, phi, nu) -> float:
    """H(rho) + H*(phi) - <phi, rho> - (1/2) ||rho - grad H*(phi)||_1^2.

    Nonnegative for every density/potential pair; zero exactly at
    rho = gibbs(phi) where Young's inequality saturates.
    """
    nu = _as_measure(nu, "strong_young_gap")
    rho = _check_density(rho, nu, "strong_young_gap(rho)")
    H = float(np.sum(nu * xlogx(rho)))
    Hstar = log_partition(phi, nu)
    pairing = float(np.sum(nu * np.asarray(phi, dtype=float) * rho))
    g = gibbs_density(phi, nu)
    return H + Hstar - pairing - 0.5 * float(np.sum(np.abs(rho - g) * nu)) ** 2


def half_convexity_gap(rho1, rho0, nu) -> float:
    """Gap in the 1/2-convexity of H along the chord rho0 -> rho1:

        H(rho1) - H(rho0) - int (rho1-rho0) log rho0 dnu
        - (1/2) ||rho1 - rho0||_1^2  >=  0.

    Requires rho0 > 0 wherever nu does.
    """
    r1, r0, nu = _unpack(rho1, rho0, nu, "half_convexity_gap")
    if np.any((r0 <= 0) & (nu > 0)):
        raise DomainError("half_convexity_gap: rho0 must be strictly positive")
    H1 = float(np.sum(nu * xlogx(r1)))
    H0 = float(np.sum(nu * xlogx(r0)))
    lin = float(np.sum(nu * (r1 - r0) * np.log(r0)))
    return H1 - H0 - lin - 0.5 * float(np.sum(np.abs(r1 - r0) * nu)) ** 2


def small_set_delta(eps: float, H: float) -> tuple[float, bool]:
    """The (delta, degenerate) pair of the small-set bound.

    With a = 2H/eps and delta = (a eps / 2) e^{-a} = H e^{-2H/eps}, any
    set A with rho0-mass <= delta has rho1-mass <= eps whenever
    H(rho1|rho0) <= H.  For H = 0 the construction collapses (a = 0);
    delta = 0 is returned with the degenerate flag set, and callers may
    substitute plain absolute continuity.
    """
    if eps <= 0:
        raise DomainError(f"small_set_delta: eps must be positive, got {eps}")
    if H < 0:
        raise DomainError(f"small_set_delta: H must be nonnegative, got {H}")
    if H == 0.0:
        return 0.0, True
    a = 2.0 * H / eps
    return (a * eps / 2.0) * np.exp(-a), False
