import math

import numpy as np
import pytest
from numpy.polynomial.legendre import legval
from scipy.linalg import solve_banded as scipy_solve_banded

from loghls import flows

from loghls.cli import main
from loghls.errors import (ConvergenceError, DomainError, MassConservationError,
                           NormalizationError, ParseError, PositivityError, StepSizeError)
from loghls.fields import SphereField, radial_from_profile
from loghls.flows import (KS_MASS, KS_R_MAX, KS_R_MIN, FlowTrajectory, HeatState,
                          decay_check, dissipation_check, entropy_dissipation_rate,
                          heat_evolve, heat_state, ks_distance, ks_evolve,
                          ks_free_energy, ks_initial_state, ks_rate_fit,
                          reverse_entropy)
from loghls.grids import make_radial_grid, make_sphere_grid
from loghls.optimizers import LOG_S_BOX, radial_L1_objective
from loghls.specs import RunConfig, parse_input_spec, realize_planar, realize_sphere


def exact_reverse_entropy(a: float) -> float:
    """H(1 || 1 + a z) in closed form."""
    return -0.5 * ((1 + a) * np.log1p(a) - (1 - a) * np.log1p(-a) - 2 * a) / a


# ----------------------------------------------------------------------
# heat semigroup
# ----------------------------------------------------------------------

def heat_of(text: str) -> HeatState:
    """The heat state of a sphere spec's density e^u on the default 128 x 256 grid."""
    return heat_state(realize_sphere(parse_input_spec(text), RunConfig()))


def evolved(st: HeatState, times) -> list:
    return [heat_evolve(st, float(t)) for t in (0.0, *times)]


def test_heat_constant_is_stationary():
    st = heat_of("legendre:c0=1")
    out = heat_evolve(st, 5.0)
    c, s = out.rho.coeffs()
    assert c[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert max(np.abs(c[1:]).max(), np.abs(s).max()) <= 1e-20
    assert reverse_entropy(out) == pytest.approx(0.0, abs=1e-15)
    lhs, rhs, res = dissipation_check(st, 1e-3)
    assert lhs == 0.0 and abs(rhs) <= 1e-18 and res == abs(rhs)


def test_heat_mode_decay_exact():
    st = heat_of("1+0.5*P1")
    out = heat_evolve(st, 0.5)
    # the plain Legendre a_1 = 0.5 is the m = 0 coefficient 0.5 / sqrt(3), up to the
    # analysis error (1.3e-14)
    c1 = st.rho.coeffs()[0][1, 0]
    assert c1 == pytest.approx(0.5 / np.sqrt(3.0), abs=5e-14)
    assert out.rho.coeffs()[0][1, 0] == c1 * np.exp(-1.0)
    assert out.time == 0.5
    with pytest.raises(DomainError):
        heat_evolve(st, -0.1)


def test_heat_entropy_closed_forms():
    st = heat_of("1+0.5*P1")
    assert reverse_entropy(st) == pytest.approx(exact_reverse_entropy(0.5), abs=1e-12)
    assert reverse_entropy(st) == pytest.approx(0.045229, abs=1e-6)
    st5 = heat_evolve(st, 0.5)
    H5 = reverse_entropy(st5)
    assert H5 == pytest.approx(exact_reverse_entropy(0.5 * np.exp(-1.0)), abs=1e-12)
    # the decay bound at t = 0.5 (true value ~0.005697, bound ~0.006121)
    assert H5 <= np.exp(-2.0) * reverse_entropy(st) + 1e-8


def test_decay_check_p1_and_p2():
    rep = decay_check(evolved(heat_of("1+0.5*P1"), [0.1, 0.25, 0.5, 1.0]))
    assert rep.passed
    assert np.array_equal(rep.times, [0.1, 0.25, 0.5, 1.0])
    # pure l=2 mode decays like e^{-12t} at small amplitude
    st2 = heat_of("1+0.3*P2")
    rep2 = decay_check(evolved(st2, [0.1, 0.2]))
    assert rep2.passed
    H0 = reverse_entropy(st2)
    for t, H in zip(rep2.times, rep2.entropies):
        assert H <= np.exp(-11.0 * t) * H0


def test_dissipation_residual_small():
    st = heat_of("1+0.5*P1")
    lhs, rhs, res = dissipation_check(st, dt=1e-3)
    assert res <= 1e-6
    finer = dissipation_check(st, dt=2.5e-4)[2]
    assert finer <= res


def test_dissipation_equality_on_optimizers():
    """rho = e^{u_{t,n}} off the pole axis: Onofri's equality makes the
    rate exactly 4 H(1||rho), and the flow's analyzed state keeps it to
    5e-14 relative."""
    st = heat_of("sphere-optimizer:t=0.8,n=(0,0.6,0.8)")
    assert entropy_dissipation_rate(st) == pytest.approx(4.0 * reverse_entropy(st), rel=1e-12)


def test_non_zonal_density_decays_and_dissipates():
    """The e^{-4t} bound and the dissipation identity hold for a density
    that is not zonal (residual 2.9e-5 at DISSIPATION_DT)."""
    st = heat_of("band-limited-random:seed=7,L=6,amplitude=0.25")
    assert decay_check(evolved(st, [0.1, 0.5, 1.0])).passed
    lhs, rhs, res = dissipation_check(st, dt=flows.DISSIPATION_DT)
    assert res <= 4e-5
    assert dissipation_check(st, dt=flows.DISSIPATION_DT / 2)[2] <= res / 3


def test_band_rule_reads_past_the_analysis_noise():
    """Analysis leaves up to 2e-13 on every degree of 1 + 0.5z, which the
    band rule's floor ignores; a 1e-9 mode at the grid's top degree and a
    field whose band reaches it are still refused."""
    c, _ = heat_of("1+0.5*P1").rho.coeffs()
    assert 1e-14 < np.abs(c[2:]).max() < flows.BAND_FLOOR
    dissipation_check(heat_of("1+0.5*P1"), dt=1e-3)
    for text in ("legendre:c0=1,c127=1e-9", "band-limited-random:seed=1,L=32,amplitude=1"):
        with pytest.raises(StepSizeError):
            dissipation_check(heat_of(text), dt=1e-3)


def test_legendre_spec_is_the_zonal_density():
    """A legendre spec's density e^u is sum a_l P_l(z) on the grid; a degree
    above the grid's lmax is invalid input that names sphere_nz."""
    a = np.zeros(101)
    a[:2] = 1.0, 0.3
    a[100] = 1e-3
    u = realize_sphere(parse_input_spec("legendre:c0=1,c1=0.3,c100=0.001"), RunConfig())
    assert np.max(np.abs(np.exp(u.values) - legval(u.grid.z, a)[:, None])) <= 1e-13
    with pytest.raises(ParseError, match="sphere_nz"):
        realize_sphere(parse_input_spec("legendre:c0=1,c200=0.001"), RunConfig())
    assert main(["heatflow", "legendre:c0=1,c128=0.001"]) == 2


def test_heat_positivity_errors():
    with pytest.raises(PositivityError):      # 1 + 1.5 z < 0 near z = -1
        heat_of("legendre:c0=1,c1=1.5")
    grid = make_sphere_grid(64, 128)
    bad = HeatState(SphereField(grid, np.repeat(1.0 + 1.5 * grid.z[:, None], 128, axis=1)))
    with pytest.raises(PositivityError):
        reverse_entropy(bad)
    with pytest.raises(PositivityError):
        decay_check(evolved(bad, [0.01]))
    with pytest.raises(NormalizationError):
        heat_state(realize_sphere(parse_input_spec("1+0.1*P1"), RunConfig()).shifted(np.log(0.9)))


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
def test_dissipation_check_needs_finite_positive_dt(dt):
    with pytest.raises(DomainError):
        dissipation_check(heat_of("1+0.5*P1"), dt=dt)


# ----------------------------------------------------------------------
# Keller-Segel
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def ks_grid():
    return make_radial_grid(1e4 * math.exp(-25.0), 1e4, 2048)


def h8pi(grid):
    return radial_from_profile(grid, lambda r: 8.0 * (1.0 + r**2) ** -2)


def gauss8pi(grid):
    return radial_from_profile(grid, lambda r: 4.0 * np.exp(-r**2 / 2.0))


def h8pi_scaled(grid, s):
    return radial_from_profile(grid, lambda r: 8.0 / s**2 * (1.0 + (r / s)**2) ** -2)


def ks_state(rho0, n=1024):
    """The Keller-Segel state of rho0 on n nodes of the default flow grid."""
    return ks_initial_state(rho0, n, KS_R_MIN, KS_R_MAX)


def evolve(rho0, **settings):
    """ks_evolve on the radial range of the default flow grid."""
    return ks_evolve(rho0, r_min=KS_R_MIN, r_max=KS_R_MAX, **settings)


def perturbed8pi():
    rho = realize_planar(parse_input_spec("perturbed-optimizer:eps=0.3,mode=1"), RunConfig())
    return radial_from_profile(rho.grid, lambda r: KS_MASS * rho.profile(r))


def test_ks_mass_precondition(ks_grid):
    bad = radial_from_profile(ks_grid, lambda r: np.exp(-r**2 / 2.0) / (2 * np.pi))
    with pytest.raises(NormalizationError):
        ks_state(bad)


def test_ks_initial_state_matches_closed_form(ks_grid):
    st = ks_state(h8pi(ks_grid), n=512)
    r = st.grid.nodes
    exact = KS_MASS * r**2 / (1.0 + r**2)
    assert np.max(np.abs(st.M - exact)) <= 1e-7 * KS_MASS
    st.check_invariants()


@pytest.mark.parametrize("node", [100, -1])
def test_ks_check_invariants_rejects_a_nan_mass(ks_grid, node):
    """A NaN in M, at an interior node or at r_max, fails check_invariants
    with an error that names t."""
    st = ks_state(gauss8pi(ks_grid), n=256)
    st.time = 0.25
    st.M[node] = np.nan
    with pytest.raises((PositivityError, MassConservationError), match="t = 0.2500"):
        st.check_invariants()


@pytest.mark.parametrize("s", [0.05, 0.1, 0.3, 1.0])
def test_ks_free_energy_dilation_invariant(ks_grid, s):
    """H(8 pi h_s) = 0 for every s.  At s = 0.05 the disc |x| < r_min
    holds 2e-2 of the mass; leaving it out made H = -0.17."""
    st = ks_state(h8pi_scaled(ks_grid, s))
    assert abs(ks_free_energy(st)) <= 1e-5


def test_ks_free_energy_gaussian_closed_form(ks_grid):
    st = ks_state(gauss8pi(ks_grid))
    assert ks_free_energy(st) == pytest.approx(np.log(2.0) - np.euler_gamma, abs=1e-7)


def dense_ks_matrix(r, dx, step, a0, V):
    """a0 I - step (L + diag(V) D) with the boundary rows, assembled densely
    from the stencils of L = (d_xx - 2 d_x)/r^2 and of D = ``_dx4``."""
    n = r.size
    D1, D2 = np.zeros((n, n)), np.zeros((n, n))
    for i in range(2, n - 2):
        D1[i, i - 2:i + 3] = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dx)
        D2[i, i - 2:i + 3] = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * dx**2)
    for i in (1, n - 2):
        D1[i, i - 1:i + 2] = np.array([-1.0, 0.0, 1.0]) / (2.0 * dx)
        D2[i, i - 1:i + 2] = np.array([1.0, -2.0, 1.0]) / dx**2
    A = a0 * np.eye(n) - step * ((D2 - 2.0 * D1) / r[:, None] ** 2 + V[:, None] * D1)
    A[0], A[-1] = 0.0, 0.0
    A[0, 0], A[0, 1], A[-1, -1] = 1.0, -np.exp(-2.0 * dx), 1.0
    return A


@pytest.mark.parametrize("omega", [None, 1.0, 0.6], ids=["backward Euler", "omega=1", "omega=0.6"])
def test_ks_sbdf2_band_is_dense_system(omega):
    """The vectorized band of an SBDF2 step is the densely assembled
    a0 I - h (L + diag(V*) D), and its per-step gbtrf + gbtrs solve is
    scipy's gbsv bit for bit."""
    n, step = 256, flows.DT_CAP
    x = np.linspace(np.log(1e-2), np.log(1e3), n)
    r, dx = np.exp(x), float(x[1] - x[0])
    rng = np.random.default_rng(3)
    V, V_prev = (rng.uniform(0.0, 4.0, n) for _ in range(2))
    if omega is None:
        a0, V_star = 1.0, V
    else:
        a0, V_star = (1 + 2 * omega) / (1 + omega), (1 + omega) * V - omega * V_prev
    ab = flows._KSOperator.build(r, dx).system(step, a0, V_star)
    A = dense_ks_matrix(r, dx, step, a0, V_star)
    i, j = np.indices((n, n))
    inside = np.abs(i - j) <= 2
    assert np.all(A[~inside] == 0.0)
    dense_band = np.zeros((7, n))
    dense_band[4 + i[inside] - j[inside], j[inside]] = A[inside]
    assert np.allclose(ab, dense_band, rtol=1e-13, atol=1e-13 * np.max(np.abs(A)))
    for _ in range(3):
        rhs = rng.uniform(0.0, KS_MASS, n)
        ref = scipy_solve_banded((2, 2), ab[2:], rhs)
        assert np.array_equal(flows.solve_banded(ab.copy(), rhs), ref)


def test_ks_system_band_is_the_gather_form():
    """The band ``system`` builds from the padded V and its strided view is
    step * (minus_L - V[rows] * D) with the boundary rows, bit for bit,
    also for the second of two calls that write the operator's one band."""
    n = 256
    x = np.linspace(np.log(1e-2), np.log(1e3), n)
    r, dx = np.exp(x), float(x[1] - x[0])
    op = flows._KSOperator.build(r, dx)
    rows = np.clip(np.arange(n) + np.arange(-4, 3)[:, None], 0, n - 1)

    def gather(step, a0, V):
        ab = step * (op.minus_L - V[rows] * op.D)
        ab[4] += a0
        ab[4, 0], ab[3, 1], ab[2, 2] = 1.0, -math.exp(-2.0 * dx), 0.0
        ab[4, n - 1], ab[5, n - 2], ab[6, n - 3] = 1.0, 0.0, 0.0
        return ab

    rng = np.random.default_rng(11)
    calls = [(flows.DT_CAP, 1.0, rng.uniform(0.0, 4.0, n)),
             (0.37 * flows.DT_CAP, 1.3, rng.uniform(-1.0, 4.0, n))]
    bands = []
    for step, a0, V in calls:
        bands.append(op.system(step, a0, V))
        assert np.array_equal(bands[-1].view(np.int64), gather(step, a0, V).view(np.int64))
    assert bands[0] is bands[1]


def test_ks_minus_L_band_annihilates_steady_state():
    """The band holds -(d_xx - 2 d_x)/r^2 in gbtrf's layout: on the steady
    state M = 8 pi r^2/(1 + r^2), L M balances the transport M M_x/(2 pi r^2)."""
    n = 1024
    x = np.linspace(np.log(1e-2), np.log(1e3), n)
    r, dx = np.exp(x), float(x[1] - x[0])
    band = flows._KSOperator.build(r, dx).minus_L
    M = KS_MASS * r**2 / (1.0 + r**2)
    LM = np.zeros(n)
    for o in (-2, -1, 0, 1, 2):
        i = np.arange(max(0, -o), min(n, n - o))
        LM[i] -= band[4 - o, i + o] * M[i + o]
    Mx = KS_MASS * 2.0 * r**2 / (1.0 + r**2) ** 2
    residual = (LM + M * Mx / (2.0 * np.pi * r**2))[1:-1]
    assert np.max(np.abs(residual * r[1:-1] ** 2)) <= 1e-5


def test_ks_adaptive_steps_follow_step_rule(ks_grid, monkeypatch):
    """Every step of a sharp Gaussian run is at most min(DT_CAP, 8 dx / max V)
    of the state it starts from (and t_1 / 8 before the first sample t_1),
    and splits what is left of its sample interval evenly."""
    vmax, starts, solves = [], [], []
    real_fe, real_solve = flows.ks_free_energy, flows.solve_banded

    def fe(state):
        vmax.append(float(np.max(state.M * state.inv_2pir2)))
        starts.append(state.time)
        return real_fe(state)

    def solve(ab, rhs):
        solves.append(ab.shape)
        return real_solve(ab, rhs)

    monkeypatch.setattr(flows, "ks_free_energy", fe)
    monkeypatch.setattr(flows, "solve_banded", solve)
    sharp = radial_from_profile(ks_grid, lambda r: 16.0 * np.exp(-2.0 * r**2))
    traj, state = evolve(sharp, T=2.0, n=1024, n_samples=8)
    assert len(solves) == traj.diagnostics["steps"] and len(vmax) == len(solves) + 1
    t = np.asarray(starts)
    steps = np.diff(t)
    h_star = np.minimum(flows.DT_CAP, 8.0 * state.grid.dx / np.asarray(vmax[:-1]))
    assert np.any(h_star < flows.DT_CAP)           # the velocity term binds
    assert traj.diagnostics["dt_min"] == np.min(h_star)
    # the sample interval each step ends in, and what was left of it
    target = traj.times[np.searchsorted(traj.times, t[1:] - 1e-12)]
    assert set(traj.times[1:]) <= set(t) and t[-1] == 2.0
    bound = np.where(target <= traj.times[1], np.minimum(h_star, traj.times[1] / 8.0), h_star)
    assert np.all(steps <= bound * (1.0 + 1e-9))
    left = target - t[:-1]
    parts = np.ceil(left / bound * (1.0 - 1e-9))
    assert np.allclose(steps, left / parts, rtol=1e-12, atol=0.0)


def test_ks_stationary_short(ks_grid):
    traj, state = evolve(h8pi(ks_grid), T=1.0, n=512, n_samples=8)
    # the flow's grid is the shared radial grid, with the trapezoid weights 2 pi r^2 dx
    g = state.grid
    assert g is make_radial_grid(KS_R_MIN, KS_R_MAX, 512)
    x = np.linspace(math.log(KS_R_MIN), math.log(KS_R_MAX), 512)
    r = np.exp(x)
    wq = 2.0 * np.pi * r**2 * float(x[1] - x[0])
    wq[0] *= 0.5
    wq[-1] *= 0.5
    assert np.array_equal(g.x, x) and np.array_equal(g.nodes, r) and np.array_equal(g.weights, wq)
    rho_eq = 8.0 * (1.0 + r**2) ** -2
    drift = float(np.sum(wq * np.abs(state.density() - rho_eq)))
    assert drift <= 1e-4
    assert traj.diagnostics["max_free_energy_increase_per_step"] <= 1e-8
    assert np.max(traj.mass_error) == 0.0
    # at the step cap: T / DT_CAP steps, 8 in the first sample interval and
    # at most one more per sample interval for the even split
    diag = traj.diagnostics
    assert diag["dt_min"] == flows.DT_CAP
    assert diag["steps"] <= 1.0 / flows.DT_CAP + 8 + traj.times.size


def test_ks_gaussian_short(ks_grid):
    traj, state = evolve(gauss8pi(ks_grid), T=2.0, n=512, n_samples=12)
    assert np.all(np.diff(traj.free_energy) <= 1e-8)
    bound = KS_MASS * np.sqrt(8.0 * np.clip(traj.free_energy, 0.0, None)) + 1e-4
    assert np.all(traj.distance_L1 <= bound)
    # free energy heads toward 0 and the distance decreases
    assert traj.free_energy[-1] < 0.5 * traj.free_energy[0]
    assert traj.distance_L1[-1] < traj.distance_L1[0]


def test_ks_refinement_consistency(ks_grid):
    """Halving dt and doubling the spatial resolution moves the sampled
    free energies by < 1e-3 relative."""
    t_cmp = 1.0
    traj1, s1 = evolve(gauss8pi(ks_grid), dt=8e-4, T=t_cmp, n=512, n_samples=4)
    traj2, s2 = evolve(gauss8pi(ks_grid), dt=4e-4, T=t_cmp, n=1024, n_samples=4)
    f1, f2 = ks_free_energy(s1), ks_free_energy(s2)
    assert abs(f1 - f2) <= 1e-3 * abs(f2)


def test_ks_explicit_dt_cfl_error(ks_grid):
    """An explicit dt above the step cap DT_CAP raises StepSizeError, as one
    above the explicit-transport CFL bound did."""
    with pytest.raises(StepSizeError, match="DT_CAP"):
        evolve(h8pi(ks_grid), dt=1.0, T=2.0, n=512, n_samples=4)
    traj, _ = evolve(h8pi(ks_grid), dt=1e-3, T=0.1, n=512, n_samples=4)
    assert traj.diagnostics["dt_min"] == 1e-3
    # the sample intervals (0, 0.01], (0.01, 10^-1.5] and (10^-1.5, 0.1]
    # split evenly into 10, 22 and 69 steps
    assert traj.diagnostics["steps"] == 101


def test_ks_second_order_in_time(ks_grid):
    """Halving an explicit dt cuts the error of the final free energy by
    about 4 (SBDF2), not by 2 (first order)."""
    def H_end(dt):
        traj, _ = evolve(gauss8pi(ks_grid), dt=dt, T=1.0, n=512, n_samples=4)
        return traj.free_energy[-1]

    ref = H_end(1.25e-3)
    err = [abs(H_end(dt) - ref) for dt in (1e-2, 5e-3)]
    assert err[0] >= 3.5 * err[1] > 0.0


def test_ks_step_budget(ks_grid, monkeypatch):
    """A run that needs more steps than its budget raises ConvergenceError
    naming T, t and dt_min, instead of stepping on."""
    monkeypatch.setattr(flows, "STEP_BUDGET", 0.1)
    with pytest.raises(ConvergenceError, match=r"t = .* of T = 1\.0.*dt_min = "):
        evolve(gauss8pi(ks_grid), T=1.0, n=256, n_samples=8)


@pytest.mark.parametrize("T", [0.0, -1.0, np.inf, np.nan])
def test_ks_evolve_rejects_a_bad_T(ks_grid, T):
    with pytest.raises(DomainError, match="T must be a finite number > 0"):
        evolve(gauss8pi(ks_grid), T=T, n=256, n_samples=8)


@pytest.mark.parametrize("n_samples", [0, -2])
def test_ks_evolve_rejects_a_bad_sample_count(ks_grid, n_samples):
    with pytest.raises(DomainError, match="n_samples must be >= 1"):
        evolve(gauss8pi(ks_grid), T=1.0, n=256, n_samples=n_samples)


def test_ks_distance_helper(ks_grid):
    st = ks_state(h8pi(ks_grid), n=512)
    d, s = ks_distance(st)
    assert d <= 1e-3 * KS_MASS
    assert s == pytest.approx(1.0, abs=1e-2)


def unfused_ks_free_energy(state):
    """ks_free_energy with np.sum reductions, the masked x log x and the
    interaction as a trapezoid sum of M log r M_x in x."""
    x, dx = state.grid.x, state.grid.dx
    Mx = flows._dx4(state.M, dx)
    mass = state.mass_total
    rho = np.clip(Mx * state.inv_2pir2 / mass, 0.0, None)
    plogp = np.zeros_like(rho)
    plogp[rho > 0] = rho[rho > 0] * np.log(rho[rho > 0])
    ent = float(np.sum(state.grid.weights * plogp))
    g = (2.0 / mass**2) * state.M * x * Mx
    inter = float((np.sum(g) - 0.5 * g[0] - 0.5 * g[-1]) * dx)
    f0 = float(state.M[0]) / mass
    if f0 > 0.0:
        ent += f0 * math.log(f0 / (np.pi * float(state.grid.nodes[0]) ** 2))
    inter += f0**2 * (float(x[0]) - 0.25)
    return ent + 2.0 * inter + 1.0 + math.log(np.pi)


def test_ks_free_energy_matches_the_unfused_sums(ks_grid, monkeypatch):
    """The fused free energy is the np.sum form within 1e-14 at every step
    of a short run."""
    gaps = []
    real_fe = flows.ks_free_energy

    def fe(state):
        H = real_fe(state)
        gaps.append(abs(H - unfused_ks_free_energy(state)))
        return H

    monkeypatch.setattr(flows, "ks_free_energy", fe)
    traj, _ = evolve(gauss8pi(ks_grid), T=0.5, n=1024, n_samples=4)
    assert len(gaps) == traj.diagnostics["steps"] + 1
    assert max(gaps) <= 1e-14


def test_ks_radial_L1_objective_matches_the_profile_formula(ks_grid):
    """On the flow grid, the kernel is sum(weights * |rho - h_s|) at 200
    values of log s across the box."""
    st = ks_state(gauss8pi(ks_grid))
    rho = st.density() / st.mass_total
    r, w = st.grid.nodes, st.grid.weights
    l1 = radial_L1_objective(rho, st.grid)
    for ls in np.linspace(-LOG_S_BOX, LOG_S_BOX, 200):
        s = math.exp(ls)
        g = (1.0 / (np.pi * s * s)) * (1.0 + (r / s) ** 2) ** -2
        assert abs(l1(ls) - float(np.sum(w * np.abs(rho - g)))) <= 1e-15


@pytest.mark.parametrize("start", ["perturbed-optimizer", "gaussian"])
def test_ks_distance_dense_sweep_oracle(ks_grid, start):
    """On a state mid-run, ks_distance lies at or below the minimum of a
    2,001-point sweep of +-0.05 in log s around its s."""
    rho0 = perturbed8pi() if start == "perturbed-optimizer" else gauss8pi(ks_grid)
    _traj, st = evolve(rho0, T=0.5, n=1024, n_samples=4)
    d, s = ks_distance(st)
    rho = st.density() / st.mass_total
    r, w = st.grid.nodes, st.grid.weights
    best = math.inf
    for si in np.exp(np.linspace(math.log(s) - 0.05, math.log(s) + 0.05, 2001)):
        g = (1.0 / (np.pi * si * si)) * (1.0 + (r / si) ** 2) ** -2
        best = min(best, float(np.sum(w * np.abs(rho - g))))
    assert d <= st.mass_total * best + 1e-12


def test_ks_rate_fit_paths(ks_grid):
    # a stationary run is flagged undefined: its samples in [1.39, 10]
    # hold H within 1e-6 relative of each other
    traj, _ = evolve(h8pi(ks_grid), T=10.0, n=256, n_samples=16)
    assert np.sum(traj.times >= 1.0) >= 4
    fit = ks_rate_fit(traj)
    assert not fit.defined
    # a synthetic decaying trajectory spanning two decades fits cleanly
    ts = np.geomspace(0.5, 60.0, 40)
    synth = FlowTrajectory(times=ts, free_energy=0.1 * ts**-0.5,
                           distance_L1=ts**-0.25,
                           dissipation=np.zeros_like(ts),
                           mass_error=np.zeros_like(ts))
    fit = ks_rate_fit(synth)
    assert fit.defined
    assert fit.slope_free_energy == pytest.approx(-0.5, abs=1e-10)
    assert fit.slope_distance == pytest.approx(-0.25, abs=1e-10)
    assert fit.bound_flag_free_energy and fit.bound_flag_distance
    # the span is measured from t_min: samples at 1.08-10 span 10 t_min
    ts = np.geomspace(1.077, 10.0, 21)
    fit = ks_rate_fit(FlowTrajectory(times=ts, free_energy=ts**-1.0, distance_L1=ts**-1.0,
                                     dissipation=np.zeros_like(ts),
                                     mass_error=np.zeros_like(ts)))
    assert fit.defined and fit.slope_free_energy == pytest.approx(-1.0, abs=1e-10)


def test_trajectory_io(tmp_path):
    ts = np.array([0.0, 1.0, 2.0])
    traj = FlowTrajectory(times=ts, free_energy=ts + 1, distance_L1=ts,
                          dissipation=np.zeros(3), mass_error=np.zeros(3),
                          diagnostics={"note": "x"})
    csv_path = tmp_path / "t.csv"
    traj.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,free_energy,distance_L1,dissipation,mass_error"
    assert len(lines) == 4
    import json
    data = json.loads(json.dumps(traj.to_json(), allow_nan=False))
    assert data["t"] == [0.0, 1.0, 2.0]
    with pytest.raises(DomainError):
        FlowTrajectory(times=np.array([0.0, 0.0]), free_energy=np.zeros(2),
                       distance_L1=np.zeros(2), dissipation=np.zeros(2),
                       mass_error=np.zeros(2))
