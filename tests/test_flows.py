import numpy as np
import pytest
from scipy.linalg import solve_banded as scipy_solve_banded

from loghls import flows

from loghls.errors import (ConvergenceError, DimensionMismatchError, DomainError,
                           NormalizationError, PositivityError, StepSizeError)
from loghls.fields import radial_from_profile
from loghls.flows import (KS_MASS, FlowTrajectory, decay_check,
                          dissipation_check, entropy_dissipation_rate,
                          heat_evolve, heat_state, ks_distance, ks_evolve,
                          ks_free_energy, ks_initial_state, ks_rate_fit,
                          reverse_entropy)
from loghls.grids import make_radial_grid, make_sphere_grid
from loghls.sht import legendre_analyze


def exact_reverse_entropy(a: float) -> float:
    """H(1 || 1 + a z) in closed form."""
    return -0.5 * ((1 + a) * np.log1p(a) - (1 - a) * np.log1p(-a) - 2 * a) / a


# ----------------------------------------------------------------------
# heat semigroup
# ----------------------------------------------------------------------

def test_heat_constant_is_stationary():
    st = heat_state([1.0])
    out = heat_evolve(st, 5.0)
    assert np.allclose(out.coeffs, [1.0])
    assert reverse_entropy(out) == pytest.approx(0.0, abs=1e-15)
    lhs, rhs, res = dissipation_check(st, 1e-3)
    assert (lhs, rhs, res) == (0.0, 0.0, 0.0)


def test_heat_mode_decay_exact():
    st = heat_state([1.0, 0.5])
    out = heat_evolve(st, 0.5)
    assert out.coeffs[1] == pytest.approx(0.5 * np.exp(-1.0), abs=1e-16)
    assert out.time == 0.5
    with pytest.raises(DomainError):
        heat_evolve(st, -0.1)


def test_heat_entropy_closed_forms():
    st = heat_state([1.0, 0.5])
    assert reverse_entropy(st) == pytest.approx(exact_reverse_entropy(0.5), abs=1e-12)
    assert reverse_entropy(st) == pytest.approx(0.045229, abs=1e-6)
    st5 = heat_evolve(st, 0.5)
    H5 = reverse_entropy(st5)
    assert H5 == pytest.approx(exact_reverse_entropy(0.5 * np.exp(-1.0)), abs=1e-12)
    # the decay bound at t = 0.5 (true value ~0.005697, bound ~0.006121)
    assert H5 <= np.exp(-2.0) * reverse_entropy(st) + 1e-8


def test_decay_check_p1_and_p2():
    rep = decay_check(heat_state([1.0, 0.5]), [0.1, 0.25, 0.5, 1.0])
    assert rep.passed
    # pure l=2 mode decays like e^{-12t} at small amplitude
    st2 = heat_state([1.0, 0.0, 0.3])
    rep2 = decay_check(st2, [0.1, 0.2])
    assert rep2.passed
    H0 = reverse_entropy(st2)
    for t, H in zip(rep2.times, rep2.entropies):
        assert H <= np.exp(-11.0 * t) * H0


def test_dissipation_residual_small():
    st = heat_state([1.0, 0.5])
    lhs, rhs, res = dissipation_check(st, dt=1e-3)
    assert res <= 1e-4
    finer = dissipation_check(st, dt=2.5e-4)[2]
    assert finer <= res


def test_dissipation_equality_on_optimizers(sphere_grid):
    # rho = e^{u_{t,n}}: Onofri equality gives rate = 4 H(1||rho) exactly
    t = 0.8
    vals = (np.cosh(t) + np.sinh(t) * sphere_grid.z) ** -2.0
    coeffs = legendre_analyze(vals, sphere_grid, min(256, sphere_grid.n_z - 1))
    coeffs[0] = 1.0      # unit mass holds to quadrature accuracy already
    st = heat_state(coeffs, grid=sphere_grid)
    assert entropy_dissipation_rate(st) == pytest.approx(
        4.0 * reverse_entropy(st), abs=1e-6)


def test_heat_grid_holds_the_coefficients():
    """The default grid grows to one z node per coefficient; an explicit
    grid with fewer nodes is refused."""
    a = np.zeros(301)
    a[:2] = 1.0, 0.3
    a[300] = 1e-3
    st = heat_state(a)
    assert st.grid.shape == (301, 8)
    assert np.max(np.abs(st.density_values() - np.polynomial.legendre.legval(st.grid.z, a))) <= 1e-13
    assert heat_state([1.0, 0.5]).grid.shape == (256, 8)
    with pytest.raises(DimensionMismatchError):
        heat_state(np.r_[1.0, np.zeros(39)], grid=make_sphere_grid(32, 8))


def test_heat_positivity_errors():
    bad = heat_state([1.0, 1.5])          # 1 + 1.5 z < 0 near z = -1
    with pytest.raises(PositivityError):
        reverse_entropy(bad)
    with pytest.raises(PositivityError):
        decay_check(bad, [0.01])
    with pytest.raises(NormalizationError):
        heat_state([0.9, 0.1])
    with pytest.raises(StepSizeError):
        dissipation_check(heat_state(np.array([1.0] + [0.0] * 254 + [1e-9])), dt=1e-3)


# ----------------------------------------------------------------------
# Keller-Segel
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def ks_grid():
    return make_radial_grid(1e4, 2048)


def h8pi(grid):
    return radial_from_profile(grid, lambda r: 8.0 * (1.0 + r**2) ** -2)


def gauss8pi(grid):
    return radial_from_profile(grid, lambda r: 4.0 * np.exp(-r**2 / 2.0))


def h8pi_scaled(grid, s):
    return radial_from_profile(grid, lambda r: 8.0 / s**2 * (1.0 + (r / s)**2) ** -2)


def test_ks_mass_precondition(ks_grid):
    bad = radial_from_profile(ks_grid, lambda r: np.exp(-r**2 / 2.0) / (2 * np.pi))
    with pytest.raises(NormalizationError):
        ks_initial_state(bad)


def test_ks_initial_state_matches_closed_form(ks_grid):
    st = ks_initial_state(h8pi(ks_grid), n=512)
    exact = KS_MASS * st.r**2 / (1.0 + st.r**2)
    assert np.max(np.abs(st.M - exact)) <= 1e-7 * KS_MASS
    st.check_invariants()


@pytest.mark.parametrize("s", [0.05, 0.1, 0.3, 1.0])
def test_ks_free_energy_dilation_invariant(ks_grid, s):
    """H(8 pi h_s) = 0 for every s.  At s = 0.05 the disc |x| < r_min
    holds 2e-2 of the mass; leaving it out made H = -0.17."""
    st = ks_initial_state(h8pi_scaled(ks_grid, s))
    assert abs(ks_free_energy(st)) <= 1e-5


def test_ks_free_energy_gaussian_closed_form(ks_grid):
    st = ks_initial_state(gauss8pi(ks_grid))
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
    traj, state = ks_evolve(sharp, T=2.0, n=1024, n_samples=8)
    assert len(solves) == traj.diagnostics["steps"] and len(vmax) == len(solves) + 1
    t = np.asarray(starts)
    steps = np.diff(t)
    h_star = np.minimum(flows.DT_CAP, 8.0 * state.dx / np.asarray(vmax[:-1]))
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
    traj, state = ks_evolve(h8pi(ks_grid), T=1.0, n=512, n_samples=8)
    rho_eq = 8.0 * (1.0 + state.r**2) ** -2
    wq = 2.0 * np.pi * state.r**2 * state.dx
    wq[0] *= 0.5
    wq[-1] *= 0.5
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
    traj, state = ks_evolve(gauss8pi(ks_grid), T=2.0, n=512, n_samples=12)
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
    traj1, s1 = ks_evolve(gauss8pi(ks_grid), dt=8e-4, T=t_cmp, n=512, n_samples=4)
    traj2, s2 = ks_evolve(gauss8pi(ks_grid), dt=4e-4, T=t_cmp, n=1024, n_samples=4)
    f1, f2 = ks_free_energy(s1), ks_free_energy(s2)
    assert abs(f1 - f2) <= 1e-3 * abs(f2)


def test_ks_explicit_dt_cfl_error(ks_grid):
    """An explicit dt above the step cap DT_CAP raises StepSizeError, as one
    above the explicit-transport CFL bound did."""
    with pytest.raises(StepSizeError, match="DT_CAP"):
        ks_evolve(h8pi(ks_grid), dt=1.0, T=2.0, n=512)
    traj, _ = ks_evolve(h8pi(ks_grid), dt=1e-3, T=0.1, n=512, n_samples=4)
    assert traj.diagnostics["dt_min"] == 1e-3
    # the sample intervals (0, 0.01], (0.01, 10^-1.5] and (10^-1.5, 0.1]
    # split evenly into 10, 22 and 69 steps
    assert traj.diagnostics["steps"] == 101


def test_ks_second_order_in_time(ks_grid):
    """Halving an explicit dt cuts the error of the final free energy by
    about 4 (SBDF2), not by 2 (first order)."""
    def H_end(dt):
        traj, _ = ks_evolve(gauss8pi(ks_grid), dt=dt, T=1.0, n=512, n_samples=4)
        return traj.free_energy[-1]

    ref = H_end(1.25e-3)
    err = [abs(H_end(dt) - ref) for dt in (1e-2, 5e-3)]
    assert err[0] >= 3.5 * err[1] > 0.0


def test_ks_step_budget(ks_grid, monkeypatch):
    """A run that needs more steps than its budget raises ConvergenceError
    naming T, t and dt_min, instead of stepping on."""
    monkeypatch.setattr(flows, "STEP_BUDGET", 0.1)
    with pytest.raises(ConvergenceError, match=r"t = .* of T = 1\.0.*dt_min = "):
        ks_evolve(gauss8pi(ks_grid), T=1.0, n=256, n_samples=8)


@pytest.mark.parametrize("T", [0.0, -1.0, np.inf, np.nan])
def test_ks_evolve_rejects_a_bad_T(ks_grid, T):
    with pytest.raises(DomainError, match="T must be a finite number > 0"):
        ks_evolve(gauss8pi(ks_grid), T=T, n=256, n_samples=8)


def test_ks_distance_helper(ks_grid):
    st = ks_initial_state(h8pi(ks_grid), n=512)
    d, s = ks_distance(st)
    assert d <= 1e-3 * KS_MASS
    assert s == pytest.approx(1.0, abs=1e-2)


def test_ks_rate_fit_paths(ks_grid):
    traj, _ = ks_evolve(h8pi(ks_grid), T=1.0, n=256, n_samples=8)
    fit = ks_rate_fit(traj, t_min=0.01)
    assert not fit.defined            # stationary run is flagged undefined
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
    json_path = tmp_path / "t.json"
    traj.write_json(json_path)
    import json
    data = json.loads(json_path.read_text())
    assert data["t"] == [0.0, 1.0, 2.0]
    with pytest.raises(DomainError):
        FlowTrajectory(times=np.array([0.0, 0.0]), free_energy=np.zeros(2),
                       distance_L1=np.zeros(2), dissipation=np.zeros(2),
                       mass_error=np.zeros(2))
