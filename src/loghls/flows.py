"""Entropy-dissipating flows: the heat semigroup on S^2 (spectral, in the
harmonic coefficients of the sphere transform) and the critical-mass
radial Keller-Segel flow (cumulative-mass finite differences on a
log-radius grid).

A heat state is a positive density rho on a sphere grid, held as the
(c, s) coefficients of that grid's ``SphereTransform``; e^{t Delta}
multiplies degree l by e^{-l(l+1)t}, and the values are their synthesis.
Along the flow the reverse entropy H(1 || rho) = -int log rho dsigma
dissipates at the rate int |grad log rho|^2 dsigma, the Dirichlet energy
of log rho.  Onofri's inequality applied to u = log rho (int e^u = 1)
bounds that rate below by 4 H(1 || rho) for every such density, zonal or
not, so H(1 || rho(t)) <= e^{-4t} H(1 || rho(0)).

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
Tolerances are module constants, and the critical mass of the initial
data is checked to ``functionals.MASS_TOL``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .entropy import xlogx
from .errors import (ConvergenceError, DomainError,
                     MassConservationError, NormalizationError, PositivityError,
                     StepSizeError)
from .fields import RadialDensity, SphereField, get_transform
from .functionals import MASS_TOL, dirichlet_energy
from .grids import RadialGrid, integrate, make_radial_grid
from .optimizers import LOG_S_BOX, golden_section, radial_L1_objective

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
KS_N = 1024             # the Keller-Segel grid's nodes, uniform in log r
KS_R_MIN = 1e-2         # its inner radius
KS_R_MAX = 1e3          # its outer radius
DT_CAP = 2e-2           # the largest Keller-Segel step
STEP_BUDGET = 100       # a Keller-Segel run may take this many times T / DT_CAP + n_samples steps
DECAY_SLACK = 1e-8      # slack of the heat flow's entropy decay bound
DISSIPATION_DT = 1e-3   # the step of the heat flow's dissipation check in heatflow and A09
BAND_FLOOR = 1e-12      # the dissipation check's band ignores coefficients this small: analysis
                        # of 1 or 1 + 0.5z leaves up to 2.0e-13 on 128 x 256, 2.7e-13 on 256 x 8
MONO_TOL = 1e-10        # largest decrease of M between nodes, relative to the mass
RATE_T_MIN = 1.0        # the rate fit's window starts here
RATE_HEADROOM = 1.05    # growth of H t^{1/8} and d t^{1/16} the rate fit's flags allow
# acceptance bounds of a Keller-Segel run, for the CLI and the suite:
DISTANCE_SLACK = 1e-4   # d(t) <= 8 pi sqrt(8 H(t)) + DISTANCE_SLACK at every sample
FE_STEP_TOL = 1e-8      # the largest increase of H over one step


# ----------------------------------------------------------------------
# heat semigroup on S^2
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HeatState:
    """A density rho on S^2 at ``time``, held as its grid transform's (c, s):
    the cached ``coeffs()`` of the field ``rho``, whose values they synthesize
    (``heat_state``, ``heat_evolve``)."""

    rho: SphereField
    time: float = 0.0

    def __post_init__(self):
        c00 = self.rho.coeffs()[0][0, 0]
        if abs(c00 - 1.0) > 1e-12:
            raise NormalizationError(
                f"HeatState: int rho dsigma = {c00!r}, unit mass requires 1")

    @cached_property
    def log_rho(self) -> SphereField:
        """log rho; a density <= 0 at some node raises PositivityError."""
        rho = self.rho.values
        if not np.min(rho) > 0.0:
            raise PositivityError(f"HeatState: the density at t = {self.time:.6g} has min "
                                  f"{float(np.min(rho))!r} <= 0; log rho needs rho > 0")
        return SphereField(self.rho.grid, np.log(rho))


def heat_state(u: SphereField) -> HeatState:
    """The heat state at t = 0 of the density e^u on u's grid."""
    return heat_evolve(HeatState(SphereField(u.grid, np.exp(u.values))), 0.0)


def _evolved(state: HeatState, t: float, band: int) -> HeatState:
    """e^{t Delta}, for either sign of t, on the degrees l <= band; the rest are dropped."""
    tr = get_transform(state.rho.grid)
    decay = np.where(tr.eigs <= band * (band + 1.0), np.exp(-tr.eigs * t), 0.0)[:, None]
    c, s = (part * decay for part in state.rho.coeffs())
    return HeatState(SphereField(tr.grid, tr.synthesize(c, s), _coeffs=(c, s)), state.time + t)


def heat_evolve(state: HeatState, t: float) -> HeatState:
    """e^{t Delta}: each mode decays by exp(-l(l+1)t); mass is exact."""
    if t < 0:
        raise DomainError(f"heat_evolve: t must be >= 0, got {t}")
    return _evolved(state, t, get_transform(state.rho.grid).lmax)


def reverse_entropy(state: HeatState) -> float:
    """H(1 || rho) = - int log rho dsigma."""
    return -state.log_rho.mean()


def entropy_dissipation_rate(state: HeatState) -> float:
    """int |grad log rho|^2 dsigma: the Dirichlet energy of log rho."""
    return dirichlet_energy(state.log_rho)


def dissipation_check(state: HeatState, dt: float) -> tuple[float, float, float]:
    """Entropy-production identity along the heat flow.

    lhs: centered difference of H(1||rho(t)) over dt,
    rhs: -int |grad log rho(t)|^2 dsigma,
    residual |lhs - rhs| = O(dt^2) for smooth positive densities.

    Both steps evolve the band alone, the degrees up to the top one with a
    coefficient above BAND_FLOOR: the backward step would raise the noise
    beyond it by exp(l(l+1) dt), e^16 at l = 127.  A band with
    l(l+1) dt > 5 raises StepSizeError.
    """
    if not 0.0 < dt < np.inf:
        raise DomainError(f"dissipation_check: dt must be a finite number > 0, got {dt}")
    above = np.any(np.abs(np.hstack(state.rho.coeffs())) > BAND_FLOOR, axis=1)
    band = int(np.nonzero(above)[0].max(initial=0))
    if band * (band + 1) * dt > 5.0:
        raise StepSizeError(
            f"dissipation_check: dt = {dt} too large for the band limit "
            f"l = {band} (backward step would amplify noise)")
    lhs = (reverse_entropy(_evolved(state, dt, band))
           - reverse_entropy(_evolved(state, -dt, band))) / (2.0 * dt)
    rhs = -entropy_dissipation_rate(state)
    return lhs, rhs, abs(lhs - rhs)


@dataclass(frozen=True)
class DecayReport:
    times: np.ndarray
    entropies: np.ndarray
    bounds: np.ndarray
    passed: bool


def decay_check(states) -> DecayReport:
    """H(1||rho(t)) <= e^{-4t} H(1||rho(0)) + DECAY_SLACK at each state after
    the first, rho(0), from which ``heat_evolve`` took them."""
    H0 = reverse_entropy(states[0])
    ts = np.array([st.time - states[0].time for st in states[1:]])
    Hs = np.array([reverse_entropy(st) for st in states[1:]])
    bounds = np.exp(-4.0 * ts) * H0
    return DecayReport(ts, Hs, bounds, bool(np.all(Hs <= bounds + DECAY_SLACK)))


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

    ``grid`` is the radial grid of the flow (``grids.make_radial_grid``):
    M lives at its nodes, uniform in x = log r, and its trapezoid rule in
    x integrates the state's densities.  ``inv_2pir2`` is 1 / (2 pi r^2)
    at the nodes, and ``work`` is a scratch vector of the grid's length,
    which ``check_invariants`` and ``ks_free_energy`` overwrite.
    """

    grid: RadialGrid
    M: np.ndarray
    time: float
    dt: float
    mass_total: float
    inv_2pir2: np.ndarray = dc_field(init=False, repr=False, compare=False)
    work: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.inv_2pir2 = 1.0 / (2.0 * np.pi * self.grid.nodes**2)
        self.work = np.empty(self.grid.shape)

    def check_invariants(self) -> None:
        """Raise unless M is finite, falls by at most MONO_TOL of the mass
        between nodes and holds the mass at r_max to 1e-8; each test is
        written so that a NaN fails it."""
        dM = np.subtract(self.M[1:], self.M[:-1], out=self.work[:-1])
        if not dM.min() >= -MONO_TOL * self.mass_total:
            raise PositivityError(
                f"KSState: cumulative mass not finite and monotone at t = {self.time:.4f} "
                f"(min increment {dM.min()!r}: the density went negative or non-finite)")
        if not abs(self.M[-1] - self.mass_total) <= 1e-8 * self.mass_total:
            raise MassConservationError(
                f"KSState: M(r_max) = {self.M[-1]!r} drifted from {self.mass_total!r} "
                f"at t = {self.time:.4f}")

    def density(self) -> np.ndarray:
        """rho = M_x / (2 pi r^2) with fourth-order centered differences."""
        return _dx4(self.M, self.grid.dx) * self.inv_2pir2


def _dx4(M: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(M)
    out[2:-2] = (M[:-4] - 8.0 * M[1:-3] + 8.0 * M[3:-1] - M[4:]) / (12.0 * dx)
    out[1] = (M[2] - M[0]) / (2.0 * dx)
    out[-2] = (M[-1] - M[-3]) / (2.0 * dx)
    out[0] = (-3.0 * M[0] + 4.0 * M[1] - M[2]) / (2.0 * dx)
    out[-1] = (3.0 * M[-1] - 4.0 * M[-2] + M[-3]) / (2.0 * dx)
    return out


def ks_initial_state(rho0: RadialDensity, n: int, r_min: float, r_max: float) -> KSState:
    """rho0 as the cumulative mass M(r_i) = int_{|x|<r_i} rho0 dx at the
    nodes of ``make_radial_grid(r_min, r_max, n)``: the mass antiderivative
    of its profile on a grid eight times finer that starts at r_min e^-25."""
    mass = rho0.mass
    if abs(mass - KS_MASS) > MASS_TOL:
        raise NormalizationError(
            f"ks_initial_state: mass {mass!r} is not the critical 8*pi within {MASS_TOL}")
    grid = make_radial_grid(r_min, r_max, n)
    fine = make_radial_grid(r_min * math.exp(-25.0), r_max, 8 * n + 1)
    M = fine.mass_antiderivative(rho0.profile(fine.nodes))(grid.x)
    return KSState(grid=grid, M=M, time=0.0, dt=0.0, mass_total=float(M[-1]))


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
    L = (d_xx - 2 d_x)/r^2 and the derivative D of ``_dx4``; and the
    arrays ``system`` writes: the step band, and V padded by its end
    values (4 before, 2 after), whose fixed strided view ``v_rows`` holds
    at each band entry V at that entry's matrix row, clipped where the
    entry lies outside the matrix."""

    minus_L: np.ndarray
    D: np.ndarray
    dx: float
    band: np.ndarray
    v_pad: np.ndarray
    v_rows: np.ndarray

    @classmethod
    def build(cls, r: np.ndarray, dx: float) -> "_KSOperator":
        n = r.size
        rows = np.clip(np.arange(n) + np.arange(-4, 3)[:, None], 0, n - 1)
        D = _stencil_band(n, *_D1) / dx
        minus_L = (2.0 * D - _stencil_band(n, *_D2) / dx**2) / r[rows] ** 2
        v_pad = np.zeros(n + 6)
        # v_rows[k, j] = v_pad[k + j] = V[j + k - 4]: band entry (k, j) lies in row j + k - 4
        v_rows = np.lib.stride_tricks.sliding_window_view(v_pad, n)
        return cls(minus_L, D, dx, np.empty((7, n)), v_pad, v_rows)

    def system(self, step: float, a0: float, V: np.ndarray) -> np.ndarray:
        """a0 I - step (L + diag(V) D) with the boundary-condition rows.

        The band is ``step * (minus_L - V[rows] * D)`` bit for bit, for the
        clipped row index ``rows`` of each entry, but is built without the
        (7, n) gather: V goes into the padded vector, and the multiply,
        subtract and scale write into the operator's own band, so the
        result is overwritten by the next call.
        """
        self.v_pad[4:-2] = V
        self.v_pad[:4] = V[0]
        self.v_pad[-2:] = V[-1]
        ab = np.multiply(self.v_rows, self.D, out=self.band)
        np.subtract(self.minus_L, ab, out=ab)
        ab *= step
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

    Both parts integrate on the state's grid, with the cumulative-mass
    form of the radial interaction (J = 2 int rho M log r dx, as
    ``functionals.log_interaction``), consistent across steps so the
    gradient-flow monotonicity is visible at the 1e-8 level.  On the disc
    |x| < r_min the inner boundary condition M = M_0 (r/r_min)^2 makes rho
    constant, so with f_0 = M_0 / mass the disc adds the entropy
    f_0 log(f_0 / (pi r_min^2)) and the interaction f_0^2 (log r_min - 1/4)
    exactly.

    M_x = ``_dx4(M)`` is taken once; the normalized density goes into the
    state's ``work`` vector, and M log r, then times the density, into
    M_x's.  The entropy integrates ``xlogx`` of the density (0 where it is
    <= 0).
    """
    grid, mass = state.grid, state.mass_total
    Mx = _dx4(state.M, grid.dx)
    rho = np.multiply(Mx, state.inv_2pir2, out=state.work)
    rho /= mass
    ent = integrate(xlogx(rho), grid)
    g = np.multiply(state.M, grid.x, out=Mx)           # M log r
    g *= rho
    inter = (2.0 / mass) * integrate(g, grid)         # 2 int rho_n M_n log r dx
    f0 = float(state.M[0]) / mass
    if f0 > 0.0:
        ent += f0 * math.log(f0 / (np.pi * float(grid.nodes[0]) ** 2))
    inter += f0**2 * (float(grid.x[0]) - 0.25)
    return ent + 2.0 * inter + 1.0 + float(np.log(np.pi))


def ks_distance(state: KSState) -> tuple[float, float]:
    """d = inf_s || rho - mass * h_s ||_1 on the flow grid, and the argmin s.

    One golden section over log s in the box [-LOG_S_BOX, LOG_S_BOX] at
    tol 1e-9, of the radial L1 objective on the state's grid that the
    planar search also uses (``optimizers.radial_L1_objective``).
    """
    rho = state.density()
    rho /= state.mass_total
    l1 = radial_L1_objective(rho, state.grid)
    ls, d = golden_section(l1, -LOG_S_BOX, LOG_S_BOX, tol=1e-9)
    return float(d) * state.mass_total, math.exp(ls)


def ks_evolve(rho0: RadialDensity, *, T: float, n: int, r_min: float, r_max: float,
              n_samples: int, dt: float | None = None) -> tuple[FlowTrajectory, KSState]:
    """Run the critical-mass flow to time T with per-step diagnostics, on
    ``make_radial_grid(r_min, r_max, n)``.

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
    if n_samples < 1:
        raise DomainError(f"ks_evolve: n_samples must be >= 1, got {n_samples}")
    if dt is not None and not 0.0 < dt <= DT_CAP:
        raise StepSizeError(f"ks_evolve: dt = {dt} lies outside (0, DT_CAP = {DT_CAP}]")
    state = ks_initial_state(rho0, n, r_min, r_max)
    dx = state.grid.dx
    op = _KSOperator.build(state.grid.nodes, dx)

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
        h_star = dt if dt is not None else min(DT_CAP, 8.0 * dx / max(float(V.max()), 1e-12))
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
        state.check_invariants()
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


def ks_rate_fit(traj: FlowTrajectory) -> RateFit:
    """Least-squares log-log slopes of the free energy and the manifold
    distance, plus consistency flags for the t^{-1/8} / t^{-1/16} upper
    bounds (report-only: the underlying results are upper bounds with an
    unspecified constant, not exact rates).

    The fit needs at least 4 samples at t >= RATE_T_MIN, the last at or
    after 10 RATE_T_MIN.  The flags assert that H(t) t^{1/8} and d(t)
    t^{1/16} grow to at most RATE_HEADROOM times their value at the start
    of the fit window.
    """
    sel = (traj.times >= RATE_T_MIN) & (traj.free_energy > 0) & (traj.distance_L1 > 0)
    ts = traj.times[sel]
    H = traj.free_energy[sel]
    d = traj.distance_L1[sel]
    window = (float(ts[0]), float(ts[-1])) if ts.size else (0.0, 0.0)
    # too few samples, too short a span, or a stationary run: no defined rate
    if (ts.size < 4 or ts[-1] < 10.0 * RATE_T_MIN
            or (H.max() - H.min()) / max(abs(H.max()), 1e-300) < 1e-6):
        return RateFit(float("nan"), float("nan"), False, False, False, window)
    sH = float(np.polyfit(np.log(ts), np.log(H), 1)[0])
    sd = float(np.polyfit(np.log(ts), np.log(d), 1)[0])
    qH = H * ts ** 0.125
    qd = d * ts ** 0.0625
    return RateFit(sH, sd,
                   bool(np.max(qH) <= RATE_HEADROOM * qH[0]),
                   bool(np.max(qd) <= RATE_HEADROOM * qd[0]),
                   True, window)
