"""Optimizer manifolds and nearest-point searches.

The planar manifold is { s^-2 h(x/s - x0) } with h the squared Cauchy
profile, the sphere manifold is { u_{t,n} = -2 log(cosh t + sinh t n.w) },
and the circle family is { e^v = (cosh t + sinh t n.w)^-1 } on S^1, the
normalized Poisson kernels of radius tanh(t/2).  Searches are
deterministic and return (params, value, SearchDiagnostics): for radial
densities a fixed 16-point scan in log s, then golden section on the
brackets where it finds a local minimum (on ``radial_L1_objective``,
which the Keller-Segel distance shares), and one scan of fixed starts
+ refinement over v = t n in R^3 or R^2 for the sphere and circle
families.  Off-center planar densities are searched on the sphere
through their lift, where the planar family is e^{u_{t,n}}.

A sphere objective takes e^{u_{t,n}} in closed form as q^-2 with
q = cosh t + sinh t n.w (no exp; the reverse-entropy objective takes
one log for u_{t,n} = -2 log q), written into three buffers built once
per search.  On the Gauss x azimuth grid q is A_j + B_j C_k, with
A = cosh t + sinh t n_3 z and B = sin theta by row and
C = sinh t (n_1 cos phi + n_2 sin phi) by column, so it is one rank-2
product of tables cached on the grid (``grids.affine_values``).  The
reverse-entropy objective is smooth in v and returns its value with its
exact gradient, the moments of g'(q) through the chain rule of
_SphereFamily.gradient, so BFGS refines it; the L1 objectives, whose
quadrature gradient has kinks, return their value and are refined by
Nelder-Mead.  All integrate with ``grids.integrate`` and
``grids.moments`` on their grid.  The gradient form is taken at the
reverse-entropy optimum (nearest_sphere_gradient).

A sphere search's scan is not evaluated on the grid.  Each of its 273
start values needs C(t, n) = int f e^{u_{t,n}} dsigma for one field f,
and by the Funk-Hecke formula C(t, .) is sum_l kappa_l(t) f_l, with f_l
the degree-l part of f and kappa_l(t) = (1/2) int P_l(z)
(cosh t + sinh t z)^-2 dz.  So the whole table is one product of f's
harmonic coefficients with tables built once per transform shape
(_FunkHecke): the reverse entropy's table is exact, and the L1
searches rank their starts by the L2 distance to the family, which needs
no log.  The scan only picks the start: the refinement evaluates it on
the grid first and never returns a larger value, so a search costs the
table's entries plus the refiner's evaluations.  The circle search
evaluates its objective at each start.

``recenter`` scores its candidate pushes by change of variables on the
original grid, whose weight 1 / (H_00 + H_{0,1:4}.w) takes the same
product, and pushes the field once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, NormalizationError
from .fields import CircleField, PlanarDensity, RadialDensity, SphereField, get_transform
from .functionals import MASS_TOL, _circle_grid_for, dirichlet_energy
from .geometry import _ETA, ConformalParams, T_CAP, conformal_push, sphere_optimizer_values
from .grids import CircleGrid, RadialGrid, SphereGrid, affine_values, integrate, moments
from .sht import legendre_rows

__all__ = [
    "PlanarOptimizerParams",
    "SphereOptimizerParams",
    "CircleOptimizerParams",
    "planar_optimizer_profile",
    "sphere_optimizer",
    "circle_optimizer",
    "golden_section",
    "radial_L1_objective",
    "nearest_planar_L1",
    "nearest_sphere_gradient",
    "nearest_sphere_reverse_entropy",
    "nearest_sphere_L1",
    "nearest_circle_L1",
    "SearchDiagnostics",
    "RecenterResult",
    "recenter",
    "LOG_S_BOX",
]

LOG_S_BOX = 6.0          # searches cover s in [e^-6, e^6]
RECENTER_TOL = 1e-10     # recenter stops at |barycenter| <= this
RECENTER_MAX_ITER = 50
RECENTER_STEP = 1.5      # Newton step t = RECENTER_STEP |b| (capped at 2)
CIRCLE_MAX_MODES = 65_536  # Poisson kernel modes: r^k < e^-40 holds up to r = e^(-40/65536)
# that bound rounded down to the 7 digits messages print: 0.9993898
CIRCLE_MAX_R = math.floor(math.exp(-40.0 / CIRCLE_MAX_MODES) * 1e7) / 1e7
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class PlanarOptimizerParams:
    s: float
    x0: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.s <= 0:
            raise DomainError(f"PlanarOptimizerParams: s must be positive, got {self.s}")


# the optimizer u_{t,n} is the log-Jacobian of the boost ConformalParams(t, n)
SphereOptimizerParams = ConformalParams


@dataclass(frozen=True)
class CircleOptimizerParams:
    r: float
    alpha: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.r < 1.0):
            raise DomainError(f"CircleOptimizerParams: r must lie in [0, 1), got {self.r}")


# ----------------------------------------------------------------------
# manifold members
# ----------------------------------------------------------------------

def planar_optimizer_profile(p: PlanarOptimizerParams):
    """Radial profile r -> s^-2 h(r/s) (centered members only)."""
    s = p.s

    def prof(r):
        rr = np.asarray(r, dtype=float) / s
        return (1.0 / (np.pi * s * s)) * (1.0 + rr * rr) ** -2

    return prof


def sphere_optimizer(p: SphereOptimizerParams, grid: SphereGrid) -> SphereField:
    """u_{t,n} as a SphereField with exact callable; int e^u dsigma = 1."""
    n = p.axis
    axi = n[0] == 0.0 and n[1] == 0.0
    fn = lambda pts, _t=p.t, _n=p.axis: sphere_optimizer_values(_t, _n, pts)
    return SphereField.from_fn(grid, fn, axisymmetric=axi)


def circle_optimizer(p: CircleOptimizerParams) -> CircleField:
    """log of the normalized Poisson kernel: e^u = (1-r^2)/(1-2r cos(th-a)+r^2),
    truncated where r^k < e^-40, with 64 to CIRCLE_MAX_MODES modes."""
    r, alpha = p.r, p.alpha
    kmax = 64 if r == 0 else max(64, math.ceil(-40.0 / math.log(r)))
    if kmax > CIRCLE_MAX_MODES:
        raise DomainError(
            f"circle_optimizer: r = {r!r} needs {kmax} modes to truncate at r^k < e^-40, "
            f"more than the cap of {CIRCLE_MAX_MODES} (r <= {CIRCLE_MAX_R!r})")
    coeffs = np.zeros(kmax + 1, dtype=complex)
    coeffs[0] = np.log1p(-r * r)
    k = np.arange(1, kmax + 1)
    coeffs[1:] = (r ** k / k) * np.exp(-1j * k * alpha)
    return CircleField(coeffs)


# ----------------------------------------------------------------------
# searches
# ----------------------------------------------------------------------

def golden_section(f, a: float, b: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section minimization of a unimodal f on [a, b]."""
    a, b = min(a, b), max(a, b)
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    for _ in range(n - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)


@dataclass
class SearchDiagnostics:
    """Objective evaluations of a search, and whether its optimum lies on
    the boundary of the parameter box.

    ``evaluations`` counts every distinct evaluation; ``scan_evaluations``
    those of the scan (the radial search's 16 samples, the entries of a
    manifold search's start table) and ``iterations`` the refinement's
    iterations (BFGS ``nit`` for the reverse-entropy objective, Nelder-Mead
    ``nit`` for the L1 ones) of a manifold search (0 for the radial
    golden-section search).  A manifold search's ``evaluations`` is its
    ``scan_evaluations`` plus the refiner's ``nfev``: the refiner's first
    evaluation is the scan's start.
    """

    evaluations: int = 0
    boundary_hit: bool = False
    iterations: int = 0
    scan_evaluations: int = 0


def radial_L1_objective(values: np.ndarray, grid: RadialGrid) -> Callable[[float], float]:
    """log s -> integrate(|values - h_s|, grid), for the centered optimizer
    profile h_s(r) = (1/(pi s^2)) / (1 + r^2/s^2)^2 at the grid's nodes.

    r^2 is taken once.  Each evaluation writes h_s, then |values - h_s|,
    into one work buffer by in-place multiply, add, divide, subtract and
    abs, and integrates the buffer.
    """
    values = np.asarray(values, dtype=float)
    r2 = np.square(grid.nodes)
    buf = np.empty_like(r2)

    def l1(ls: float) -> float:
        s = math.exp(ls)
        np.multiply(r2, 1.0 / (s * s), out=buf)
        np.add(buf, 1.0, out=buf)
        np.multiply(buf, buf, out=buf)
        np.divide(1.0 / (math.pi * s * s), buf, out=buf)
        np.subtract(values, buf, out=buf)
        np.abs(buf, out=buf)
        return integrate(buf, grid)

    return l1


def nearest_planar_L1(rho: RadialDensity | PlanarDensity):
    """Minimize ||rho - h_{s,x0}||_1 over the optimizer manifold.

    Radial densities pin x0 = 0 and search log s in [-LOG_S_BOX, LOG_S_BOX],
    split into five brackets, on ``radial_L1_objective`` over the density's
    grid.  A scan samples the six bracket edges and each bracket's golden
    first pair (16 evaluations); golden section at tol 1e-10 then refines
    the brackets that hold a sampled local minimum (a sample <= both its
    neighbours: an interior sample marks its bracket, an edge the brackets
    beside it), reusing their first pairs.  It also refines any other
    bracket whose samples do not bound its minimum above the best of
    those: on the grid the objective changes by at most
    1 + 8 dx / (3 sqrt 3) per unit of log s (the trapezoid sum of
    int |d h_s / d log s| dx = 1, whose integrand in x has total variation
    8 / (3 sqrt 3)), which bounds it below between neighbouring samples.
    That is 65 evaluations for one bracket, 114 for two (a minimum sampled
    on an edge), and 49 more for each further bracket.  The skipped
    brackets cannot hold the result, so refining all five brackets
    (255 evaluations) gives the same result bit for bit, as the tests
    check.  Ties within 1e-12 resolve to the smallest s.

    A lifted density is searched on the sphere (T is an L^1 isometry
    onto the family e^{u_{t,n}}), and the optimizer found there maps back
    in closed form:
    s = 1/(cosh t - n_3 sinh t), center shift - s sinh t (n_1, n_2).

    Returns (params, distance, diagnostics).
    """
    if isinstance(rho, RadialDensity):
        diag = SearchDiagnostics()
        l1 = radial_L1_objective(rho.values, rho.grid)
        memo: dict[float, float] = {}

        def obj(ls: float) -> float:
            if ls not in memo:
                memo[ls] = l1(ls)
            return memo[ls]

        edges = np.linspace(-LOG_S_BOX, LOG_S_BOX, 6)      # five brackets
        brackets = list(zip(edges[:-1], edges[1:]))
        # samples in order: the edges and, between them, golden_section's first pair
        xs = [edges[0]]
        for a, b in brackets:
            h = b - a
            xs += [a + _INV_PHI2 * h, a + _INV_PHI * h, b]
        ys = [obj(x) for x in xs]
        diag.scan_evaluations = len(memo)
        keep = set()
        for i, y in enumerate(ys):       # refine the brackets that hold a sampled minimum
            if (i == 0 or y <= ys[i - 1]) and (i == len(ys) - 1 or y <= ys[i + 1]):
                k = i // 3
                # samples 3k + 1 and 3k + 2 lie in bracket k; edge 3k borders k - 1 and k
                keep.update((k,) if i % 3 else (k - 1, k))
        keep &= set(range(len(brackets)))
        candidates = [golden_section(obj, *brackets[k]) for k in sorted(keep)]
        # and the others whose samples do not bound their minimum above the best
        best = min(c[1] for c in candidates)
        slope = 1.0 + 8.0 * rho.grid.dx / (3.0 * math.sqrt(3.0))
        for k in sorted(set(range(len(brackets))) - keep):
            floor = min(ys[i] + ys[i + 1] - slope * (xs[i + 1] - xs[i])
                        for i in range(3 * k, 3 * k + 3)) / 2.0
            if floor <= best + 1e-12:
                candidates.append(golden_section(obj, *brackets[k]))
        diag.evaluations = len(memo)
        best = min(c[1] for c in candidates)
        ls, val = min((c for c in candidates if c[1] <= best + 1e-12),
                      key=lambda c: c[0])
        diag.boundary_hit = abs(abs(ls) - LOG_S_BOX) < 1e-6
        return PlanarOptimizerParams(float(np.exp(ls))), float(val), diag

    if isinstance(rho, PlanarDensity):
        f = rho.lifted
        params, val, diag = nearest_sphere_L1(f.values, f.grid)
        t, (n1, n2, n3) = params.t, (float(c) for c in params.n)
        s = 1.0 / (math.cosh(t) - n3 * math.sinh(t))
        cx = rho.shift[0] - s * math.sinh(t) * n1
        cy = rho.shift[1] - s * math.sinh(t) * n2
        # s^-2 h(x/s - x0): the parameter center satisfies x_phys = s * x0
        return PlanarOptimizerParams(s, (cx / s, cy / s)), val, diag
    raise DomainError(f"nearest_planar_L1: unsupported density {type(rho).__name__}")


def _fibonacci_directions(k: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors (Fibonacci sphere)."""
    i = np.arange(k) + 0.5
    z = 1.0 - 2.0 * i / k
    phi = np.pi * (1.0 + math.sqrt(5.0)) * i
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


_COARSE_T = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
_SIMPLEX_STEP = 0.1
# scan axes: 32 Fibonacci directions and the poles on S^2, 16 equispaced on S^1
_SPHERE_DIRS = np.vstack([_fibonacci_directions(32), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
_CIRCLE_DIRS = np.stack([np.cos(np.pi * np.arange(16) / 8.0),
                         np.sin(np.pi * np.arange(16) / 8.0)], axis=1)
_CIRCLE_T_MAX = 2.0 * math.atanh(1.0 - 1e-6)    # caps r = tanh(t/2) at 1 - 1e-6


def _scan_starts(dirs: np.ndarray) -> np.ndarray:
    """The scan's start points v = t n in table order: v = 0 once (every
    axis names the same point there), then each t of _COARSE_T on every
    axis of ``dirs``; shape (1 + 8 len(dirs), d)."""
    d = dirs.shape[1]
    t = np.array(_COARSE_T)[:, None, None]
    return np.vstack([np.zeros((1, d)), (t * dirs).reshape(-1, d)])


def _per_start(fn: Callable[[float], float]) -> np.ndarray:
    """fn(t) at each start of the sphere scan, in table order."""
    counts = [1] + [len(_SPHERE_DIRS)] * len(_COARSE_T)
    return np.repeat([fn(t) for t in (0.0,) + _COARSE_T], counts)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported at the first call.  Only the
    manifold searches refine with it, and importing scipy.optimize costs
    about 0.1 s, so commands that run no such search never load it.
    _manifold_minimize calls it by this module-global name."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def _at_v(fun, v: np.ndarray, t_max: float):
    """fun(t, n) at v = t n: t = |v| capped at t_max, n = v / |v|, and the
    last axis at v = 0."""
    t = float(np.linalg.norm(v))
    return fun(0.0, np.eye(v.size)[-1]) if t == 0.0 else fun(min(t, t_max), v / t)


def _manifold_minimize(fun, dirs: np.ndarray, t_max: float, table: np.ndarray, smooth: bool):
    """Minimize fun(t, n) over [0, t_max] x S^{d-1}: the best start of a
    scan, then BFGS if ``smooth`` and Nelder-Mead otherwise.  A smooth
    ``fun`` returns (value, d fun / d v) at v = t n, any other the value.

    ``table`` holds one value for each start of _scan_starts(dirs).  It
    only has to rank the starts, so it may be ``fun``'s own values or a
    cheaper stand-in.  Its least entry (the first, on ties) is the start.
    Both refiners evaluate the start first and never return a larger
    value (it is a vertex of Nelder-Mead's initial simplex, and BFGS only
    accepts steps that lower the value), so their result is the search's.
    The refinement runs over v = t n in R^d with t = |v| capped at t_max:
    the family is smooth in v through v = 0, so a search that starts at
    t = 0 can leave it along any axis.  Past the cap, BFGS sees the value
    at the cap and its gradient with the radial part projected out,
    scaled by t_max / |v|.

    Returns (value, t, n, diagnostics); the boundary is t = t_max.
    ``scan_evaluations`` counts the table's entries, and ``evaluations``
    those and the refiner's evaluations of ``fun`` (its ``nfev``).
    """
    d = dirs.shape[1]

    def at(v: np.ndarray):
        t = float(np.linalg.norm(v))
        if not smooth or t <= t_max:
            return _at_v(fun, v, t_max)
        n = v / t
        val, grad = fun(t_max, n)
        return val, (t_max / t) * (grad - (grad @ n) * n)

    start = _scan_starts(dirs)[int(np.argmin(table))]
    if smooth:
        search = {"method": "BFGS", "jac": True, "options": {"gtol": 1e-10}}
    else:
        simplex = start + np.vstack([np.zeros(d), _SIMPLEX_STEP * np.eye(d)])
        search = {"method": "Nelder-Mead",
                  "options": {"initial_simplex": simplex, "xatol": 1e-9,
                              "fatol": 1e-14, "maxiter": 2000}}
    res = minimize(at, start, **search)
    t = float(np.linalg.norm(res.x))
    diag = SearchDiagnostics(evaluations=len(table) + int(res.nfev),
                             boundary_hit=t >= t_max - 1e-6, iterations=int(res.nit),
                             scan_evaluations=len(table))
    return float(res.fun), min(t, t_max), (res.x / t if t > 0.0 else np.eye(d)[-1]), diag


def _kappa(lmax: int) -> np.ndarray:
    """kappa_l(t) = (1/2) int_{-1}^{1} P_l(z) (cosh t + sinh t z)^-2 dz for
    each t of _COARSE_T and l <= lmax; shape (8, lmax + 1).

    With x = coth t the kernel is sinh^-2 t (x + z)^-2, and the Legendre
    function of the second kind, Q_l(x) = (1/2) int P_l(z) / (x - z) dz,
    gives kappa_l = (-1)^{l+1} Q_l'(x) / sinh^2 t.  Since
    (x^2 - 1) Q_l' = l (x Q_l - Q_{l-1}) and (x^2 - 1) sinh^2 t = 1, that is
    kappa_l = (-1)^{l+1} l (x Q_l - Q_{l-1}) for l >= 1, and kappa_0 = 1.
    Q_0(x) = artanh(1/x) = t.  Q_l decays like coth(t/2)^-l, the minimal
    solution of its three-term recurrence, so its ratios
    r_l = Q_l / Q_{l-1} = l / ((2l + 1) x - (l + 1) r_{l+1}) are run
    downward from r = 0, far enough above lmax that the start's error,
    which shrinks by coth(t/2)^-2 a step, is below e^-40.
    """
    kappa = np.ones((len(_COARSE_T), lmax + 1))
    l = np.arange(1, lmax + 1)
    sign = np.where(l % 2 == 1, 1.0, -1.0)
    for i, t in enumerate(_COARSE_T):
        x = 1.0 / math.tanh(t)
        r, q = 0.0, np.empty(lmax + 1)
        for k in range(lmax + math.ceil(20.0 / math.log(1.0 / math.tanh(0.5 * t))), 0, -1):
            r = k / ((2 * k + 1) * x - (k + 1) * r)
            if k <= lmax:
                q[k] = r
        q[0] = t
        q = np.cumprod(q)
        kappa[i, 1:] = sign * l * (x * q[1:] - q[:-1])
    return kappa


class _FunkHecke:
    """The scan's integrals C(t, n) = int f(w) K_t(n.w) dsigma(w) of a
    sphere field f against the family's densities K_t(z) =
    (cosh t + sinh t z)^-2, at every start of _scan_starts(_SPHERE_DIRS),
    from f's harmonic coefficients.

    By the Funk-Hecke formula, int Ytilde_lm(w) K(n.w) dsigma(w) =
    kappa_l Ytilde_lm(n), so C(t, n) = sum_l kappa_l(t) sum_m f_lm
    Ytilde_lm(n) (:func:`_kappa`).  The tables belong to one transform
    shape (lmax, max_m): ``Q[m]`` holds Q_lm, l = m..lmax, at the 34 axes,
    and ``cos`` and ``sin`` the azimuthal factors of Ytilde_lm there.  The
    sum runs one order m at a time, one matrix product for all 8 x 34
    starts each, which keeps the tables at half the size of a table of
    Ytilde_lm itself.
    """

    def __init__(self, lmax: int, max_m: int):
        dirs = _SPHERE_DIRS
        orders = np.arange(max_m + 1)
        # the rows l = m..lmax of each order m, one block after another
        start = np.concatenate([[0], np.cumsum(lmax + 1 - orders)])
        packed = np.empty((start[-1], len(dirs)))
        for l, row in enumerate(legendre_rows(lmax, max_m, dirs[:, 2])):
            k = row.shape[0]
            packed[start[:k] + l - orders[:k]] = row
        self.Q = [packed[start[m]:start[m + 1]] for m in orders]
        mphi = orders[:, None] * np.arctan2(dirs[:, 1], dirs[:, 0])
        self.cos, self.sin = np.cos(mphi), math.sqrt(2.0) * np.sin(mphi)
        self.cos[1:] *= math.sqrt(2.0)
        self.kappa = _kappa(lmax)

    def integrals(self, c: np.ndarray, s: np.ndarray) -> np.ndarray:
        """C at each start, in table order; C = f_00 = int f at t = 0."""
        C = np.zeros((len(_COARSE_T), len(_SPHERE_DIRS)))
        cs = np.stack([c, s])[:, None]
        for m, q in enumerate(self.Q):
            # sum_l kappa_l(t) (c_lm, s_lm) Q_lm at every axis: shape (2, 8, 34)
            parts = (cs[:, :, m:, m] * self.kappa[:, m:]) @ q
            C += parts[0] * self.cos[m] + parts[1] * self.sin[m]
        return np.concatenate([[c[0, 0]], C.ravel()])


_FUNK_HECKE: dict[tuple[int, int], _FunkHecke] = {}


def _scan_integrals(grid: SphereGrid, coeffs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """_FunkHecke.integrals of the coefficients of a field on ``grid``; the
    tables are built on the first search on a transform of their shape."""
    tr = get_transform(grid)
    key = (tr.lmax, tr.max_m)
    if key not in _FUNK_HECKE:
        _FUNK_HECKE[key] = _FunkHecke(*key)
    return _FUNK_HECKE[key].integrals(*coeffs)


class _SphereFamily:
    """The family e^{u_{t,n}} = q^-2, q = cosh t + sinh t n.w, on a sphere
    grid.

    q is one rank-2 product of the grid's row and column tables
    (:func:`grids.affine_values`): cosh t + sinh t n_3 z and sin theta by
    row, against 1 and sinh t (n_1 cos phi + n_2 sin phi) by column.
    Every evaluation writes into the same three grid-sized buffers, so an
    objective allocates no grid-sized temporaries; objectives integrate
    them with ``integrate(values, family.grid)``.
    """

    def __init__(self, grid: SphereGrid):
        self.grid = grid
        self.q = np.empty(grid.shape)
        self.work = np.empty(grid.shape)
        self.spare = np.empty(grid.shape)

    def base(self, t: float, n: np.ndarray) -> np.ndarray:
        """q = cosh t + sinh t n.w, in the first buffer
        (:func:`grids.affine_values`)."""
        return affine_values(np.cosh(t), np.sinh(t) * n, self.grid, self.q)

    def density(self, t: float, n: np.ndarray) -> np.ndarray:
        """e^{u_{t,n}} = q^-2, in the first buffer."""
        q = self.base(t, n)
        np.square(q, out=q)
        return np.reciprocal(q, out=q)

    def gradient(self, t: float, n: np.ndarray, dg: np.ndarray) -> np.ndarray:
        """d/dv int g(q) dsigma at v = t n, given dg = g'(q) on the grid.

        With q = cosh t + (sinh t / t) v.w the chain rule reads
        dq/dv = sinh t n + (cosh t - sinh t / t)(n.w) n + (sinh t / t) w,
        which is w at v = 0; it is taken against the moments [int g',
        int g' w] of :func:`grids.moments`.
        """
        m = moments(dg, self.grid)
        sinc = math.sinh(t) / t if t > 0.0 else 1.0
        radial = math.sinh(t) * m[0] + (math.cosh(t) - sinc) * float(n @ m[1:])
        return radial * n + sinc * m[1:]


def _sphere_search(fun, table: np.ndarray, smooth: bool):
    """Search the sphere family from the start ``table`` picks:
    (params, value, diagnostics)."""
    val, t, n, diag = _manifold_minimize(fun, _SPHERE_DIRS, T_CAP, table, smooth)
    return SphereOptimizerParams(t, tuple(n)), val, diag


def _check_normalized_exp(u: SphereField, who: str):
    m = u.exp_integral()
    if abs(m - 1.0) > MASS_TOL:
        raise NormalizationError(
            f"{who}: int e^u dsigma = {m!r}, expected 1 within {MASS_TOL}")


def _reverse_entropy_objective(fam: _SphereFamily, u: np.ndarray):
    """(t, n) -> (H(e^{u_{t,n}} | e^u), its gradient in v = t n):
    H = int q^-2 A with A = -2 log q - u, g'(q) = -2 q^-3 (A + 1)."""

    def fun(t, n):
        q = fam.base(t, n)
        dg = np.log(q, out=fam.work)
        dg *= -2.0
        dg -= u
        r = np.reciprocal(q, out=q)
        r2 = np.square(r, out=fam.spare)
        dg *= r2
        val = integrate(dg, fam.grid)
        dg += r2
        dg *= r
        return val, -2.0 * fam.gradient(t, n, dg)

    return fun


def nearest_sphere_reverse_entropy(u: SphereField):
    """Minimize H(e^{u_{t,n}} | e^u) = int e^{u_{t,n}} (u_{t,n} - u) dsigma.

    The optimizer comes first: this is the direction of the entropy form
    of the Onofri stability bound, the only sphere entropy search.
    Requires int e^u dsigma = 1.  The scan table is
    int e^v v dsigma - int u e^v dsigma, where int e^v v dsigma =
    2 t coth t - 2 = E(u_{t,n}) / 4 (0 at t = 0) and the last integral
    comes from u's coefficients (_FunkHecke).
    """
    _check_normalized_exp(u, who="nearest_sphere_reverse_entropy")
    fun = _reverse_entropy_objective(_SphereFamily(u.grid), u.values)
    table = (_per_start(lambda t: 2.0 * t / math.tanh(t) - 2.0 if t > 0.0 else 0.0)
             - _scan_integrals(u.grid, u.coeffs()))
    return _sphere_search(fun, table, smooth=True)


def _gradient_energy(u: SphereField, params: SphereOptimizerParams) -> float:
    """E(u - u_{t,n}) = int |grad u - grad u_{t,n}|^2 dsigma, by its definition."""
    return dirichlet_energy(SphereField(u.grid, u.values - sphere_optimizer(params, u.grid).values))


def nearest_sphere_gradient(u: SphereField):
    """Minimize E(u - u_{t,n}) = int |grad u - grad u_{t,n}|^2 dsigma.

    By -Delta u_{t,n} = 2 (e^{u_{t,n}} - 1) and int e^v v dsigma = E(v) / 4,
    E(u - u_{t,n}) = E(u) + 4 int u dsigma + 4 H(e^{u_{t,n}} | e^u), so this
    is the reverse-entropy search (int e^u dsigma = 1 required), with E
    taken at its optimum by its definition: the identity's terms cancel
    to about 1e-11 near the manifold."""
    params, _, diag = nearest_sphere_reverse_entropy(u)
    return params, _gradient_energy(u, params), diag


def _l1_objective(fam: _SphereFamily, f_plus_1: np.ndarray):
    """||(f+1) - e^{u_{t,n}}||_1."""

    def fun(t, n):
        ev = fam.density(t, n)
        np.subtract(f_plus_1, ev, out=ev)
        return integrate(np.abs(ev, out=ev), fam.grid)

    return fun


def nearest_sphere_L1(f_plus_1: np.ndarray, grid: SphereGrid):
    """Minimize ||(f+1) - e^{u_{t,n}}||_1 over the manifold.

    The scan ranks its starts by the L2 distance instead, from one
    analysis of rho = f + 1: ||rho - e^v||_2^2 = ||rho||_2^2
    - 2 int rho e^v dsigma + sinh 3t / (3 sinh t), with the integral from
    rho's coefficients (_FunkHecke) and the constant ||rho||_2^2 dropped.
    It takes no log, so densities with zeros are scanned too.
    """
    rho = np.asarray(f_plus_1, dtype=float)
    fun = _l1_objective(_SphereFamily(grid), rho)
    # int e^{2v} dsigma = sinh 3t / (3 sinh t) = 1 + (4/3) sinh^2 t
    table = (_per_start(lambda t: 1.0 + 4.0 / 3.0 * math.sinh(t) ** 2)
             - 2.0 * _scan_integrals(grid, get_transform(grid).analyze(rho)))
    return _sphere_search(fun, table, smooth=False)


def nearest_circle_L1(u: CircleField, grid: CircleGrid):
    """Minimize ||e^u - e^{v_{r,alpha}}||_1 over normalized Poisson kernels,
    on ``grid`` or else the circle grid that resolves u.

    The kernel is e^v = (cosh t + sinh t n.w)^-1 with r = tanh(t/2) and
    n = -(cos alpha, sin alpha), searched over v = t n with r <= 1 - 1e-6.
    """
    grid = _circle_grid_for(u, grid)
    eu = np.exp(u.values(grid))
    pts = np.stack([np.cos(grid.theta), np.sin(grid.theta)], axis=1)

    def fun(t, n):
        pk = 1.0 / (math.cosh(t) + math.sinh(t) * (pts @ n))
        return integrate(np.abs(eu - pk), grid)

    table = np.array([_at_v(fun, v, _CIRCLE_T_MAX) for v in _scan_starts(_CIRCLE_DIRS)])
    val, t, n, diag = _manifold_minimize(fun, _CIRCLE_DIRS, _CIRCLE_T_MAX, table, smooth=False)
    alpha = math.atan2(-n[1], -n[0]) % (2.0 * math.pi)
    return CircleOptimizerParams(math.tanh(0.5 * t), alpha), val, diag


# ----------------------------------------------------------------------
# conformal recentering
# ----------------------------------------------------------------------

@dataclass
class RecenterResult:
    field: SphereField
    steps: list[ConformalParams] = field(default_factory=list)
    barycenter_norm: float = 0.0
    iterations: int = 0


def _pushed_barycenter(u: SphereField):
    """G -> the barycenter of conformal_push(u, G), without the push.

    By change of variables it is int tau_{G^-1}(eta) e^{u(eta)} dsigma(eta)
    on u's own grid.  With H = G^-1 = eta G^T eta and x = (1, eta),
    tau_H(eta) = (H x)_{1:3} / (H x)_0, so it is H_{1:4} applied to the
    moments of e^u / (H x)_0, where (H x)_0 = H_00 + H_{0,1:4}.eta is one
    :func:`grids.affine_values` product into a buffer built once.
    """
    eu = np.exp(u.values)
    buf = np.empty(u.grid.shape)

    def barycenter(G: np.ndarray) -> np.ndarray:
        H = _ETA @ G.T @ _ETA
        x0 = affine_values(H[0, 0], H[0, 1:], u.grid, buf)
        return H[1:] @ moments(np.divide(eu, x0, out=x0), u.grid)

    return barycenter


def recenter(u: SphereField) -> RecenterResult:
    """Find the conformal push whose image of e^u has its sphere barycenter
    within RECENTER_TOL, and push u by it once.

    Pushing along axis n moves mass toward -n and changes a small
    barycenter b by about -(2/3) t n, so the damped Newton step
    t = 1.5 |b| along n = b/|b| contracts quadratically near the fixed
    point; steps are halved whenever |b| fails to decrease.  The steps
    compose into one Lorentz matrix G <- G @ boost.  A candidate G is
    scored without pushing: by change of variables the barycenter of
    conformal_push(u, G) is int tau_{G^-1}(eta) e^{u(eta)} dsigma(eta),
    taken on u's own grid.  The accepted G pushes u once, and |b| of the
    pushed field is checked against RECENTER_TOL.
    """
    _check_normalized_exp(u, who="recenter")
    barycenter = _pushed_barycenter(u)
    steps: list[ConformalParams] = []
    G = np.eye(4)
    b = barycenter(G)
    bn = float(np.linalg.norm(b))
    while bn > RECENTER_TOL:
        if len(steps) == RECENTER_MAX_ITER:
            raise ConvergenceError(
                f"recenter: |b| = {bn:.3e} > {RECENTER_TOL} after {RECENTER_MAX_ITER} iterations")
        t_step = min(RECENTER_STEP * bn, 2.0)
        axis = tuple(b / bn)
        for _ in range(10):
            params = ConformalParams(t_step, axis)
            G_new = G @ params.matrix
            b_new = barycenter(G_new)
            bn_new = float(np.linalg.norm(b_new))
            if bn_new < bn or bn_new <= RECENTER_TOL:
                break
            t_step /= 2.0
        else:
            raise ConvergenceError(
                f"recenter: barycenter stalled at |b| = {bn:.3e} after {len(steps)} iterations")
        steps.append(params)
        G, b, bn = G_new, b_new, bn_new
    pushed = conformal_push(u, G)
    bn_pushed = float(np.linalg.norm(pushed.barycenter()))
    if bn_pushed > RECENTER_TOL:
        raise ConvergenceError(
            f"recenter: the pushed field has |b| = {bn_pushed:.3e} > {RECENTER_TOL}, "
            f"where its pull-back gave {bn:.3e}")
    return RecenterResult(pushed, steps, bn_pushed, len(steps))
