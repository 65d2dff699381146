"""Entropy-dissipating flows: the heat semigroup on S^2 (spectral, in
Legendre coefficients) and the critical-mass radial Keller-Segel flow
(cumulative-mass finite differences on a log-radius grid).

A heat state keeps the plain Legendre a_l of rho(z) = sum a_l P_l(z).
Its grid's ``SphereTransform`` synthesizes rho from the m = 0 column
a_l / sqrt(2l+1) and gives int |grad log rho|^2 as the Dirichlet energy
of log rho, as ``onofri_entropy_form_gap`` does.

Keller-Segel reduction
----------------------
For radial solutions of the parabolic-elliptic system
rho_t = div(grad rho - rho grad c), -Delta c = rho, the cumulative mass
M(r) = int_{|x|<r} rho satisfies

    M_t = M_rr - M_r / r + M M_r / (2 pi r),

which in x = log r becomes M_t = (M_xx - 2 M_x + M M_x / (2 pi)) / r^2.
Mass conservation is structural (Dirichlet condition at r_max) and the
steady states are exactly M(r) = 8 pi r^2 / (s^2 + r^2).  Interior
stencils are fourth order, so the discrete steady state stays within
~1e-6 of the continuum profile at n = 1024.

Diffusion and transport are both linearly implicit, in variable-step
SBDF2 (Ascher-Ruuth-Spiteri 1997): the transport velocity M / (2 pi r^2)
is extrapolated to the new time level, so each step is one banded solve
whose matrix changes with it (LAPACK gbtrf, then gbtrs).  No CFL bound
limits the step.  Steps target min(DT_CAP, 8 dx / max velocity), the
time scale of the aggregate, and split each sample interval evenly, so
sample times are hit exactly.  A discrete steady state of the equation
is a fixed point of the scheme.  The free energy includes the disc
|x| < r_min in closed form: the inner boundary condition
M = M_0 (r/r_min)^2 makes rho constant there, so H stays dilation
invariant when the aggregate approaches r_min.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .entropy import xlogx
from .errors import (ConvergenceError, DimensionMismatchError, DomainError,
                     MassConservationError, NormalizationError, PositivityError,
                     StepSizeError)
from .fields import RadialDensity, SphereField, get_transform
from .functionals import dirichlet_energy
from .grids import SphereGrid, make_sphere_grid

__all__ = [
    "HeatState",
    "heat_state",
    "heat_evolve",
    "reverse_entropy",
    "entropy_dissipation_rate",
    "dissipation_check",
    "DecayReport",
    "decay_check",
    "FlowTrajectory",
    "KSState",
    "ks_initial_state",
    "ks_evolve",
    "ks_free_energy",
    "ks_distance",
    "RateFit",
    "ks_rate_fit",
    "KS_MASS",
]

KS_MASS = 8.0 * np.pi
DT_CAP = 2e-2           # the largest Keller-Segel step
STEP_BUDGET = 100       # a Keller-Segel run may take this many times T / DT_CAP + n_samples steps


# ----------------------------------------------------------------------
# heat semigroup on S^2
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HeatState:
    """Axisymmetric density on S^2 as plain Legendre a_l, one per z node at most."""

    grid: SphereGrid
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if abs(c[0] - 1.0) > 1e-12:
            raise NormalizationError(
                f"HeatState: a_0 = {c[0]!r}, unit mass requires a_0 = 1")
        if c.size > self.grid.n_z:
            raise DimensionMismatchError(
                f"HeatState: {c.size} coefficients need n_z >= {c.size}, "
                f"the grid has {self.grid.n_z}")
        object.__setattr__(self, "coeffs", c)

    def density_values(self) -> np.ndarray:
        """rho at the grid's z nodes, synthesized from the m = 0 column
        c_l0 = a_l / sqrt(2l+1) of the grid's transform."""
        tr = get_transform(self.grid)
        c = np.zeros((tr.lmax + 1, tr.lmax + 1))
        c[: self.coeffs.size, 0] = self.coeffs / np.sqrt(2.0 * np.arange(self.coeffs.size) + 1.0)
        return tr.synthesize(c, np.zeros_like(c))[:, 0]


def heat_state(coeffs, grid: SphereGrid | None = None, time: float = 0.0) -> HeatState:
    """A heat state; the default grid is max(256, len(coeffs)) x 8."""
    if grid is None:
        grid = make_sphere_grid(max(256, len(coeffs)), 8)
    return HeatState(grid, coeffs, time)


def _evolved_coeffs(coeffs: np.ndarray, t: float) -> np.ndarray:
    ell = np.arange(coeffs.size, dtype=float)
    return coeffs * np.exp(-ell * (ell + 1.0) * t)


def heat_evolve(state: HeatState, t: float) -> HeatState:
    """e^{t Delta}: each mode decays by exp(-l(l+1)t); mass is exact."""
    if t < 0:
        raise DomainError(f"heat_evolve: t must be >= 0, got {t}")
    return HeatState(state.grid, _evolved_coeffs(state.coeffs, t), state.time + t)


def _log_density(state: HeatState, who: str) -> SphereField:
    """log rho as a zonal field on the state's grid."""
    rho = state.density_values()
    if np.min(rho) <= 0.0:
        raise PositivityError(
            f"{who}: reconstructed density has min {np.min(rho)!r} <= 0; "
            "entropy diagnostics need a positive density")
    return SphereField(state.grid, np.broadcast_to(np.log(rho)[:, None], state.grid.shape))


def reverse_entropy(state: HeatState) -> float:
    """H(1 || rho) = - int log rho dsigma."""
    return -_log_density(state, "reverse_entropy").mean()


def entropy_dissipation_rate(state: HeatState) -> float:
    """int |grad log rho|^2 dsigma: the Dirichlet energy of log rho."""
    return dirichlet_energy(_log_density(state, "entropy_dissipation_rate"))


def dissipation_check(state: HeatState, dt: float = 1e-3) -> tuple[float, float, float]:
    """Entropy-production identity along the heat flow.

    lhs: centered difference of H(1||rho(t)) over dt,
    rhs: -int |grad log rho(t)|^2 dsigma,
    residual |lhs - rhs| = O(dt^2) for smooth positive densities.
    """
    if dt <= 0:
        raise DomainError(f"dissipation_check: dt must be positive, got {dt}")
    active = np.nonzero(np.abs(state.coeffs) > 1e-13)[0]
    lmax_active = int(active.max()) if active.size else 0
    if lmax_active * (lmax_active + 1) * dt > 5.0:
        raise StepSizeError(
            f"dissipation_check: dt = {dt} too large for the band limit "
            f"l = {lmax_active} (backward step would amplify noise)")
    fwd = HeatState(state.grid, _evolved_coeffs(state.coeffs, dt), state.time + dt)
    bwd = HeatState(state.grid, _evolved_coeffs(state.coeffs, -dt), state.time - dt)
    lhs = (reverse_entropy(fwd) - reverse_entropy(bwd)) / (2.0 * dt)
    rhs = -entropy_dissipation_rate(state)
    return lhs, rhs, abs(lhs - rhs)


@dataclass(frozen=True)
class DecayReport:
    times: np.ndarray
    entropies: np.ndarray
    bounds: np.ndarray
    passed: bool


def decay_check(state0: HeatState, times, slack: float = 1e-8) -> DecayReport:
    """H(1||rho(t)) <= e^{-4t} H(1||rho(0)) + slack for each requested t."""
    H0 = reverse_entropy(state0)
    ts = np.asarray(list(times), dtype=float)
    Hs = np.array([reverse_entropy(heat_evolve(state0, float(t))) for t in ts])
    bounds = np.exp(-4.0 * ts) * H0
    return DecayReport(ts, Hs, bounds, bool(np.all(Hs <= bounds + slack)))


# ----------------------------------------------------------------------
# Keller-Segel
# ----------------------------------------------------------------------

@dataclass
class FlowTrajectory:
    """Sampled diagnostics of a flow run.

    Columns (fixed CSV order): t, free_energy, distance_L1, dissipation,
    mass_error.
    """

    times: np.ndarray
    free_energy: np.ndarray
    distance_L1: np.ndarray
    dissipation: np.ndarray
    mass_error: np.ndarray
    diagnostics: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("FlowTrajectory: sample times must be strictly increasing")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "free_energy", "distance_L1", "dissipation", "mass_error"])
            for row in zip(self.times, self.free_energy, self.distance_L1,
                           self.dissipation, self.mass_error):
                w.writerow([repr(float(v)) for v in row])

    def to_json(self) -> dict:
        return _jsonable({
            "t": self.times,
            "free_energy": self.free_energy,
            "distance_L1": self.distance_L1,
            "dissipation": self.dissipation,
            "mass_error": self.mass_error,
            "diagnostics": self.diagnostics,
        })

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True, allow_nan=False)


def _jsonable(obj):
    """``obj`` with numpy values as Python ones and every non-finite float
    as None, which strict JSON writes as null."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass
class KSState:
    """Cumulative-mass state of the radial Keller-Segel flow.

    ``weights`` are the trapezoid weights 2 pi r^2 dx in x, so that
    sum(weights * rho) = int rho over r_min <= |x| <= r_max, and
    ``inv_2pir2`` is 1 / (2 pi r^2); both depend on the grid alone.
    """

    x: np.ndarray            # log-radius nodes, uniform
    r: np.ndarray
    M: np.ndarray
    time: float
    dt: float
    mass_total: float
    weights: np.ndarray = dc_field(init=False, repr=False, compare=False)
    inv_2pir2: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.inv_2pir2 = 1.0 / (2.0 * np.pi * self.r**2)
        self.weights = 2.0 * np.pi * self.r**2 * self.dx
        self.weights[0] *= 0.5
        self.weights[-1] *= 0.5

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def check_invariants(self, mono_tol: float = 1e-10) -> None:
        if np.any(np.diff(self.M) < -mono_tol * self.mass_total):
            raise PositivityError(
                f"KSState: cumulative mass not monotone at t = {self.time:.4f} "
                "(density went negative)")
        if abs(self.M[-1] - self.mass_total) > 1e-8 * self.mass_total:
            raise MassConservationError(
                f"KSState: M(r_max) = {self.M[-1]!r} drifted from {self.mass_total!r}")

    def density(self) -> np.ndarray:
        """rho = M_x / (2 pi r^2) with fourth-order centered differences."""
        return _dx4(self.M, self.dx) * self.inv_2pir2


def _dx4(M: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(M)
    out[2:-2] = (M[:-4] - 8.0 * M[1:-3] + 8.0 * M[3:-1] - M[4:]) / (12.0 * dx)
    out[1] = (M[2] - M[0]) / (2.0 * dx)
    out[-2] = (M[-1] - M[-3]) / (2.0 * dx)
    out[0] = (-3.0 * M[0] + 4.0 * M[1] - M[2]) / (2.0 * dx)
    out[-1] = (3.0 * M[-1] - 4.0 * M[-2] + M[-3]) / (2.0 * dx)
    return out


def _cumulative_mass(rho: RadialDensity, r_nodes: np.ndarray) -> np.ndarray:
    """M(r_i) = int_{|x|<r_i} rho dx, via a fine log-radius spline."""
    if rho.profile is not None:
        a = math.log(r_nodes[0]) - 25.0
        b = math.log(r_nodes[-1])
        xf = np.linspace(a, b, 8 * r_nodes.size + 1)
        rf = np.exp(xf)
        integrand = 2.0 * np.pi * rf**2 * np.asarray(rho.profile(rf), dtype=float)
        anti = CubicSpline(xf, integrand).antiderivative()
        return np.asarray(anti(np.log(r_nodes)) - anti(a), dtype=float)
    g = rho.grid
    anti = g.mass_antiderivative(rho.values)
    if g.scheme == "log-uniform":
        lo = math.log(g.r_max) - g.span
        xi = 2.0 * (np.log(r_nodes) - lo) / g.span - 1.0
    else:
        xi = 2.0 * r_nodes / g.r_max - 1.0
    return np.asarray(anti(np.clip(xi, -1.0, 1.0)) - anti(-1.0), dtype=float)


def ks_initial_state(rho0: RadialDensity, n: int = 1024, r_min: float = 1e-2,
                     r_max: float = 1e3, mass_tol: float = 1e-6) -> KSState:
    mass = rho0.mass
    if abs(mass - KS_MASS) > mass_tol:
        raise NormalizationError(
            f"ks_initial_state: mass {mass!r} is not the critical 8*pi within {mass_tol}")
    x = np.linspace(math.log(r_min), math.log(r_max), n)
    r = np.exp(x)
    M = _cumulative_mass(rho0, r)
    return KSState(x=x, r=r, M=M, time=0.0, dt=0.0, mass_total=float(M[-1]))


# (inner 5-point, edge 3-point) stencils of dx d_x (those of _dx4) and dx^2 d_xx
_D1 = (np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, np.array([-0.5, 0.0, 0.5]))
_D2 = (np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, np.array([1.0, -2.0, 1.0]))


def _stencil_band(n: int, inner: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """The n x n matrix with the stencil ``inner`` on rows 2..n-3 and
    ``edge`` on rows 1 and n-2, in the band layout of LAPACK gbtrf with
    kl = ku = 2: element (i, j) sits at [4 + i - j, j], and rows 0-1 are
    room for the fill-in.  Rows 0 and n-1 are left to the boundary
    conditions."""
    band = np.zeros((7, n))
    rows = np.arange(2, n - 2)
    for o in (-2, -1, 0, 1, 2):
        band[4 - o, rows + o] = inner[o + 2]
        if abs(o) <= 1:
            band[4 - o, [1 + o, n - 2 + o]] = edge[o + 1]
    return band


class _KSOperator(NamedTuple):
    """The grid's part of every step matrix, in gbtrf's band layout: -L for
    L = (d_xx - 2 d_x)/r^2, the derivative D of ``_dx4``, and the matrix
    row of each band entry (clipped where it lies outside)."""

    minus_L: np.ndarray
    D: np.ndarray
    rows: np.ndarray
    dx: float

    @classmethod
    def build(cls, r: np.ndarray, dx: float) -> "_KSOperator":
        n = r.size
        rows = np.clip(np.arange(n) + np.arange(-4, 3)[:, None], 0, n - 1)
        D = _stencil_band(n, *_D1) / dx
        minus_L = (2.0 * D - _stencil_band(n, *_D2) / dx**2) / r[rows] ** 2
        return cls(minus_L, D, rows, dx)

    def system(self, step: float, a0: float, V: np.ndarray) -> np.ndarray:
        """a0 I - step (L + diag(V) D) with the boundary-condition rows."""
        ab = step * (self.minus_L - V[self.rows] * self.D)
        ab[4] += a0
        n = ab.shape[1]
        # inner BC: M ~ C e^{2x} near the origin -> M_0 = e^{-2 dx} M_1
        ab[4, 0], ab[3, 1], ab[2, 2] = 1.0, -math.exp(-2.0 * self.dx), 0.0
        # outer BC: M_{n-1} = total mass
        ab[4, n - 1], ab[5, n - 2], ab[6, n - 3] = 1.0, 0.0, 0.0
        return ab


def solve_banded(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the system ``ab`` (gbtrf's band layout, kl = ku = 2) M = rhs,
    overwriting ``ab``: LAPACK gbtrf, then gbtrs.

    The result is bit-identical to ``scipy.linalg.solve_banded((2, 2),
    ab[2:], rhs)``, whose gbsv is the same two calls.  ``ks_evolve`` calls
    this once per time step, by this module-level name: the traced
    benchmark run (``perfbench/layers.py``) wraps it and reports its calls
    as ``flows.ks_steps`` and its time as ``flows.ks_solve_s``.
    """
    lu, piv, info = dgbtrf(ab, 2, 2, overwrite_ab=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"ks_evolve: the step matrix is singular (gbtrf info {info})")
    x, _info = dgbtrs(lu, 2, 2, rhs, piv)
    return x


def ks_free_energy(state: KSState) -> float:
    """H(rho(t) / mass): entropy + 2*interaction + 1 + log pi, on the flow grid.

    Uses trapezoid weights in x and the cumulative-mass form of the
    radial interaction (J = 2 int M f log r dr), consistent across steps
    so the gradient-flow monotonicity is visible at the 1e-8 level.  On
    the disc |x| < r_min the inner boundary condition M = M_0 (r/r_min)^2
    makes rho constant, so with f_0 = M_0 / mass the disc adds the
    entropy f_0 log(f_0 / (pi r_min^2)) and the interaction
    f_0^2 (log r_min - 1/4) exactly.
    """
    Mx = _dx4(state.M, state.dx)
    mass = state.mass_total
    rho = Mx * state.inv_2pir2 / mass
    ent = float(np.sum(state.weights * xlogx(np.clip(rho, 0.0, None))))
    g = (2.0 / mass**2) * state.M * state.x * Mx          # 2 M_n log r (M_n)_x
    inter = float((np.sum(g) - 0.5 * g[0] - 0.5 * g[-1]) * state.dx)
    f0 = float(state.M[0]) / mass
    if f0 > 0.0:
        ent += f0 * math.log(f0 / (np.pi * float(state.r[0]) ** 2))
    inter += f0**2 * (float(state.x[0]) - 0.25)
    return ent + 2.0 * inter + 1.0 + float(np.log(np.pi))


def ks_distance(state: KSState) -> tuple[float, float]:
    """d = inf_s || rho - mass * h_s ||_1 on the flow grid, and the argmin s."""
    from .optimizers import golden_section
    rho = state.density() / state.mass_total
    wq = state.weights
    r = state.r

    def obj(ls: float) -> float:
        s = math.exp(ls)
        g = (1.0 / (np.pi * s * s)) * (1.0 + (r / s) ** 2) ** -2
        return float(np.sum(wq * np.abs(rho - g)))

    ls, d = golden_section(obj, -6.0, 6.0, tol=1e-9)
    return d * state.mass_total, math.exp(ls)


def ks_evolve(rho0: RadialDensity, dt: float | None = None, T: float = 50.0,
              n: int = 1024, r_min: float = 1e-2, r_max: float = 1e3,
              n_samples: int = 64,
              mono_tol: float = 1e-10) -> tuple[FlowTrajectory, KSState]:
    """Run the critical-mass flow to time T with per-step diagnostics.

    Each step is linearly-implicit, variable-step SBDF2: with w = h_n /
    h_{n-1}, a0 = (1 + 2w)/(1 + w) and V* = (1 + w) V^n - w V^{n-1},
    V = M / (2 pi r^2), it solves

        (a0 I - h (L + diag(V*) D)) M^{n+1} = (1 + w) M^n - w^2/(1 + w) M^{n-1},

    where D is the derivative of ``_dx4``; the first step is backward Euler
    (a0 = 1, V* = V^0).  The matrix changes with V*, so each step factors
    it once (``solve_banded``).

    dt = None targets h* = min(DT_CAP, 8 dx / max V), the time scale of the
    aggregate rather than the CFL bound of explicit transport, and at most
    t_1 / 8 before the first sample t_1.  An explicit dt in (0, DT_CAP]
    replaces h*; any other raises StepSizeError.  Each step splits what is
    left of the current sample interval evenly into ceil(left / h*) steps,
    so sample times are hit exactly and consecutive steps change smoothly.
    More than STEP_BUDGET times the cap-limited count T / DT_CAP +
    n_samples of steps raises ConvergenceError.

    The diagnostics hold the number of ``steps`` and ``dt_min``, the
    smallest h* met (without the t_1 / 8 bound and the even split).
    """
    if not 0.0 < T < math.inf:
        raise DomainError(f"ks_evolve: T must be a finite number > 0, got {T}")
    if dt is not None and not 0.0 < dt <= DT_CAP:
        raise StepSizeError(f"ks_evolve: dt = {dt} lies outside (0, DT_CAP = {DT_CAP}]")
    state = ks_initial_state(rho0, n=n, r_min=r_min, r_max=r_max)
    dx = state.dx
    op = _KSOperator.build(state.r, dx)

    sample_times = np.unique(np.concatenate((
        [0.0], np.geomspace(max(T * 1e-3, 10 * (dt or 1e-3)), T, n_samples - 1))))
    sample_times = sample_times[sample_times <= T]
    if sample_times[-1] < T:
        sample_times = np.append(sample_times, T)

    times, fes, dists, diss, merr = [], [], [], [], []
    max_fe_increase = 0.0
    fe_prev_step = ks_free_energy(state)
    fe_prev_sample = fe_prev_step
    t_prev_sample = 0.0
    M0_end = state.M[-1]

    def record(t: float, fe: float):
        d, _s = ks_distance(state)
        times.append(t)
        fes.append(fe)
        dists.append(d)
        nonlocal fe_prev_sample, t_prev_sample
        if t > t_prev_sample:
            diss.append(-(fe - fe_prev_sample) / (t - t_prev_sample))
        else:
            diss.append(0.0)
        merr.append(abs(state.M[-1] - M0_end))
        fe_prev_sample, t_prev_sample = fe, t

    record(0.0, fe_prev_step)
    budget = STEP_BUDGET * (T / DT_CAP + n_samples)
    next_sample = 1
    t = 0.0
    steps = 0
    dt_min = math.inf
    V = state.M * state.inv_2pir2
    M_prev = V_prev = None
    while t < T:
        if steps >= budget:
            raise ConvergenceError(
                f"ks_evolve: {steps} steps reach t = {t:.6g} of T = {T} (budget {budget:.0f}); "
                f"dt_min = {dt_min:.3e}, the aggregate is outrunning the grid")
        target = sample_times[next_sample]
        h_star = dt if dt is not None else min(DT_CAP, 8.0 * dx / max(float(np.max(V)), 1e-12))
        dt_min = min(dt_min, h_star)
        if dt is None and next_sample == 1:
            h_star = min(h_star, target / 8.0)
        # the 1e-9 keeps rounding in t from adding a step to the split
        parts = math.ceil((target - t) / h_star * (1.0 - 1e-9))
        step = (target - t) / parts
        if M_prev is None:
            a0, V_star, rhs = 1.0, V, state.M.copy()
        else:
            w = step / state.dt
            a0, V_star = (1.0 + 2.0 * w) / (1.0 + w), (1.0 + w) * V - w * V_prev
            rhs = (1.0 + w) * state.M - (w * w / (1.0 + w)) * M_prev
        rhs[0] = 0.0
        rhs[-1] = state.mass_total
        M_prev, V_prev = state.M, V
        state.M = solve_banded(op.system(step, a0, V_star), rhs)
        t = target if parts == 1 else t + step
        state.time = t
        state.dt = step
        steps += 1
        state.check_invariants(mono_tol)
        V = state.M * state.inv_2pir2
        fe_now = ks_free_energy(state)
        if fe_now > fe_prev_step:
            max_fe_increase = max(max_fe_increase, fe_now - fe_prev_step)
        fe_prev_step = fe_now
        if parts == 1:
            record(t, fe_now)
            next_sample += 1

    mass_drift = abs(state.M[-1] - M0_end)
    if mass_drift > 1e-6 * state.mass_total:
        raise MassConservationError(
            f"ks_evolve: mass drifted by {mass_drift!r} over the run")
    traj = FlowTrajectory(
        times=np.asarray(times), free_energy=np.asarray(fes),
        distance_L1=np.asarray(dists), dissipation=np.asarray(diss),
        mass_error=np.asarray(merr),
        diagnostics={
            "max_free_energy_increase_per_step": max_fe_increase,
            "n": n, "r_min": r_min, "r_max": r_max, "T": T,
            "dt": "adaptive" if dt is None else dt,
            "mass_total": state.mass_total,
            "steps": steps, "dt_min": dt_min,
        })
    return traj, state


@dataclass(frozen=True)
class RateFit:
    slope_free_energy: float
    slope_distance: float
    bound_flag_free_energy: bool
    bound_flag_distance: bool
    defined: bool
    window: tuple[float, float]


def ks_rate_fit(traj: FlowTrajectory, t_min: float = 1.0,
                headroom: float = 1.05) -> RateFit:
    """Least-squares log-log slopes of the free energy and the manifold
    distance, plus consistency flags for the t^{-1/8} / t^{-1/16} upper
    bounds (report-only: the underlying results are upper bounds with an
    unspecified constant, not exact rates).

    The fit needs at least 4 samples at t >= t_min, the last at or after
    10 t_min.  The flags assert that H(t) t^{1/8} and d(t) t^{1/16} do not
    grow beyond their value at the start of the fit window.
    """
    sel = (traj.times >= t_min) & (traj.free_energy > 0) & (traj.distance_L1 > 0)
    ts = traj.times[sel]
    H = traj.free_energy[sel]
    d = traj.distance_L1[sel]
    window = (float(ts[0]), float(ts[-1])) if ts.size else (0.0, 0.0)
    # too few samples, too short a span, or a stationary run: no defined rate
    if (ts.size < 4 or ts[-1] < 10.0 * t_min
            or (H.max() - H.min()) / max(abs(H.max()), 1e-300) < 1e-6):
        return RateFit(float("nan"), float("nan"), False, False, False, window)
    sH = float(np.polyfit(np.log(ts), np.log(H), 1)[0])
    sd = float(np.polyfit(np.log(ts), np.log(d), 1)[0])
    qH = H * ts ** 0.125
    qd = d * ts ** 0.0625
    return RateFit(sH, sd,
                   bool(np.max(qH) <= headroom * qH[0]),
                   bool(np.max(qd) <= headroom * qd[0]),
                   True, window)
