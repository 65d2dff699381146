"""The acceptance matrix: every headline claim of the laboratory as an
executable criterion with its stated tolerance and runtime budget.

Each criterion returns (passed, report lines), which ``run_all`` times
into a CriterionResult; the CLI ``suite`` command and the acceptance
tests drive the same functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import entropy as ent
from .errors import LogHLSError, ParseError
from .fields import CircleField, SphereField, radial_from_profile
from .flows import DISTANCE_SLACK, FE_STEP_TOL, heat_run, ks_evolve, ks_rate_fit, ks_verdict
from .functionals import (half_laplacian_energy, lebedev_milin_functional,
                          onofri_functional, planar_free_energy,
                          sphere_green_apply, spherical_free_energy)
from .geometry import lift_T
from .grids import integrate
from .optimizers import (CircleOptimizerParams, SphereOptimizerParams,
                         circle_optimizer, recenter, sphere_optimizer)
from .specs import RunConfig, parse_input_spec, realize_planar, realize_sphere
from .stability import (DEMO_PAIRS, circle_stability_certificate,
                        onofri_stability_certificates,
                        planar_stability_certificate, toy_duality_demo)
from .sht import normalized_assoc_legendre

EULER_GAMMA = float(np.euler_gamma)
GAUSSIAN_FREE_ENERGY = float(np.log(2.0)) - EULER_GAMMA     # = 0.11593151565841...
CASE_SEED = 0      # the seed of A06's and A12's random cases


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    runtime: float
    budget: float
    lines: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.cid}] {status}  {self.name}  ({self.runtime:.1f}s / budget {self.budget:.0f}s)"


def _power_of_ten(x: float) -> str:
    """A bound such as 1e-4 as written in the report: "1e-4"."""
    return f"1e{round(np.log10(x))}"


def _run(cid, name, budget, fn, config) -> CriterionResult:
    t0 = time.time()
    try:
        passed, lines = fn(config)
    except LogHLSError as exc:
        passed, lines = False, [f"error: {exc}"]
    rt = time.time() - t0
    return CriterionResult(cid, name, passed, rt, budget, lines)


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def _c01_planar_equality(config: RunConfig):
    lines, ok = [], True
    cases = [(f"optimizer:s={s}", f"radial s={s}") for s in (0.5, 1.0, 2.0)]
    cases += [(f"optimizer:s=1,x0={x0}", f"lift s=1 x0={x0}") for x0 in ("(1,-1)", "(30,0)")]
    for text, label in cases:
        H = planar_free_energy(realize_planar(parse_input_spec(text), config))
        good = abs(H) <= 1e-6
        ok &= good
        lines.append(f"{label}: H = {H:+.3e} (|.| <= 1e-6: {good})")
    return ok, lines


def _c02_gaussian_value(config: RunConfig):
    lines = []
    values = {}
    for sig in (0.5, 1.0, 2.0):
        rho = realize_planar(parse_input_spec(f"gaussian:sigma={sig}"), config)
        values[sig] = planar_free_energy(rho)
    err = abs(values[1.0] - GAUSSIAN_FREE_ENERGY)
    spread = max(values.values()) - min(values.values())
    ok = err <= 1e-4 and spread <= 1e-5
    lines.append(f"H(gaussian) = {values[1.0]:.8f}, |err vs log2-gamma| = {err:.2e} (<= 1e-4)")
    lines.append(f"sigma-independence spread = {spread:.2e} (<= 1e-5)")
    return ok, lines


PLANAR_STABILITY_FAMILY = (
    "gaussian:sigma=0.7",
    "gaussian:sigma=1",
    "gaussian:sigma=1.5",
    "optimizer:s=0.8",
    "optimizer:s=1.25",
    "mixture:weights=(0.5,0.5),components=(optimizer:s=1|optimizer:s=3)",
    "mixture:weights=(0.3,0.7),components=(optimizer:s=0.5|optimizer:s=2)",
    "mixture:weights=(0.5,0.5),components=(gaussian:sigma=1|optimizer:s=1)",
    "perturbed-optimizer:eps=0.1,mode=1",
    "perturbed-optimizer:eps=0.3,mode=1",
    "perturbed-optimizer:eps=0.1,mode=2",
    "perturbed-optimizer:eps=0.3,mode=2",
)


def _c03_planar_stability(config: RunConfig):
    lines, ok = [], True
    for text in PLANAR_STABILITY_FAMILY:
        rho = realize_planar(parse_input_spec(text), config)
        cert = planar_stability_certificate(rho)
        good = cert.gap >= -1e-6
        ok &= good
        lines.append(f"{text}: H = {cert.value:.6f}, d = {cert.distance:.6f}, "
                     f"gap = {cert.gap:+.3e} ({good})")
    return ok, lines


def _c04_onofri(config: RunConfig):
    lines, ok = [], True
    grid = config.sphere_grid()
    n_tilt = (0.0, 0.6, 0.8)
    for t in (0.0, 0.5, 1.0, 2.0):
        u = sphere_optimizer(SphereOptimizerParams(t, n_tilt), grid)
        J = onofri_functional(u)
        good = abs(J) <= 1e-6
        ok &= good
        lines.append(f"J(u_{{t={t}, tilted n}}) = {J:+.3e} (|.| <= 1e-6: {good})")
    u1 = sphere_optimizer(SphereOptimizerParams(1.0, (0.0, 0.0, 1.0)), grid)
    mean1 = u1.mean()
    good = abs(mean1 - (-0.626063)) <= 1e-5
    ok &= good
    lines.append(f"int u_1 dsigma = {mean1:.8f} (within 1e-5 of -0.626063: {good})")
    worst = np.inf
    for seed in range(100):
        u = realize_sphere(parse_input_spec(
            f"band-limited-random:seed={seed},L=6,amplitude=0.3"), config)
        worst = min(worst, onofri_functional(u))
    good = worst >= -1e-8
    ok &= good
    lines.append(f"min J over 100 band-limited fields = {worst:+.3e} (>= -1e-8: {good})")
    return ok, lines


def _c05_onofri_stability(config: RunConfig):
    lines, ok = [], True
    n_fields = 20
    worst_gap = np.inf
    max_iters = 0
    max_bnorm = 0.0
    for seed in range(n_fields):
        u = realize_sphere(parse_input_spec(
            f"band-limited-random:seed={seed},L=5,amplitude=0.25"), config)
        res = recenter(u)
        max_iters = max(max_iters, res.iterations)
        max_bnorm = max(max_bnorm, res.barycenter_norm)
        certs = onofri_stability_certificates(res.field)
        for c in certs:
            ok &= c.passed
            worst_gap = min(worst_gap, c.gap)
    good_bary = max_bnorm <= 1e-10 and max_iters <= 50
    ok &= good_bary
    lines.append(f"{n_fields} fields recentered: max |b| = {max_bnorm:.2e} "
                 f"(<= 1e-10), max iterations = {max_iters} (<= 50): {good_bary}")
    lines.append(f"all 3x{n_fields} certificates pass, worst gap = {worst_gap:+.3e}")
    return ok, lines


def _c06_entropy_suite(config: RunConfig):
    lines, ok = [], True
    nu2 = np.array([0.5, 0.5])
    H = ent.relative_entropy([1.5, 0.5], [1.0, 1.0], nu2)
    pg = ent.pinsker_gap([1.5, 0.5], [1.0, 1.0], nu2)
    sy = ent.strong_young_gap(np.array([1.0, 1.0]), np.array([np.log(2.0), 0.0]), nu2)
    vals = {
        "relative_entropy": (H, 0.75 * np.log(1.5) + 0.25 * np.log(0.5)),
        "pinsker_gap": (pg, 0.75 * np.log(1.5) + 0.25 * np.log(0.5) - 0.125),
        "strong_young_gap": (sy, np.log(1.5) - 0.5 * np.log(2.0) - 1.0 / 18.0),
    }
    for name, (got, exact) in vals.items():
        good = abs(got - exact) <= 1e-9
        ok &= good
        lines.append(f"two-point {name} = {got:.9f} (|err| <= 1e-9: {good})")

    rng = np.random.default_rng(CASE_SEED)
    n_cases = 1000
    worst = {"pinsker": np.inf, "young": np.inf, "halfconv": np.inf}
    small_set_ok = True
    for _ in range(n_cases):
        k = int(rng.integers(2, 9))
        nu = rng.dirichlet(np.ones(k))
        p = rng.dirichlet(np.ones(k)) / np.maximum(nu, 1e-300)
        q = rng.dirichlet(np.ones(k)) / np.maximum(nu, 1e-300)
        phi = rng.normal(0.0, 2.0, size=k)
        worst["pinsker"] = min(worst["pinsker"], ent.pinsker_gap(p, q, nu))
        worst["young"] = min(worst["young"], ent.strong_young_gap(p, phi, nu))
        worst["halfconv"] = min(worst["halfconv"], ent.half_convexity_gap(p, q, nu))
        # small-set bound: choose eps, compute delta, check all subsets
        H_pq = ent.relative_entropy(p, q, nu)
        if np.isfinite(H_pq) and H_pq > 0 and k <= 8:
            eps = float(rng.uniform(0.05, 0.9))
            delta, degenerate = ent.small_set_delta(eps, H_pq)
            if not degenerate:
                q_mass = q * nu
                p_mass = p * nu
                for mask in range(1, 2 ** k):
                    sel = [(mask >> i) & 1 == 1 for i in range(k)]
                    if q_mass[sel].sum() <= delta and p_mass[sel].sum() > eps + 1e-12:
                        small_set_ok = False
    for name, w in worst.items():
        good = w >= -1e-12
        ok &= good
        lines.append(f"min {name} gap over {n_cases} cases = {w:+.3e} (>= -1e-12: {good})")
    ok &= small_set_ok
    lines.append(f"small-set absolute-continuity property over {n_cases} cases: {small_set_ok}")
    return ok, lines


def _c07_duality(config: RunConfig):
    lines = []
    rep = toy_duality_demo(DEMO_PAIRS[1])
    Y = rep.details["Y"][:, 0]
    est_err = float(np.max(np.abs(rep.details["Estar"] - Y**2 / 4.0)))
    fst_err = float(np.max(np.abs(rep.details["Fstar"] - Y**2 / 8.0)))
    # transferred bound with mu = 1 should be an equality here
    eq_err = float(np.max(np.abs((rep.details["Estar"] - rep.details["Fstar"])
                                 - Y**2 / 8.0)))
    ok = (rep.passed and est_err <= 2e-2 and fst_err <= 2e-2 and eq_err <= 2e-2)
    lines.append(f"E*(y)=y^2/4 err {est_err:.2e}, F*(y)=y^2/8 err {fst_err:.2e} (<= 2e-2)")
    lines.append(f"transferred bound (lam mu/2) y^2 = y^2/8 equality err {eq_err:.2e}")
    lines.append(f"Lipschitz excess {rep.lipschitz_max_excess:.2e}, "
                 f"Young min slack {rep.young_min_slack:+.1e}, overall {rep.passed}")
    return ok, lines


def _c08_green(config: RunConfig):
    lines, ok = [], True
    grid = config.sphere_grid()
    Q = normalized_assoc_legendre(3, 3, grid.z)
    cases = []
    for ell in (1, 2, 3):
        zonal = SphereField.from_zonal(grid, lambda z, _l=ell: np.polynomial.legendre.legval(
            z, np.eye(_l + 1)[_l]))
        cases.append((ell, f"P_{ell}(z)", zonal))
        m = min(ell, 2)
        vals = Q[ell, m][:, None] * np.sqrt(2.0) * np.cos(m * grid.phi[None, :])
        cases.append((ell, f"Y_{ell}{m}", SphereField(grid, vals)))
    for ell, name, f in cases:
        g = sphere_green_apply(f)
        err = float(np.max(np.abs(g.values - f.values / (ell * (ell + 1.0)))))
        good = err <= 1e-4
        ok &= good
        lines.append(f"G on {name}: sup err vs f/{ell * (ell + 1)} = {err:.2e} (<= 1e-4: {good})")
    return ok, lines


def _c09_heat(config: RunConfig):
    lines, ok = [], True
    run = heat_run(realize_sphere(parse_input_spec("1+0.5*P1"), config), (0.1, 0.25, 0.5, 1.0))
    H = run.trajectory.free_energy
    good = abs(H[0] - 0.045229) <= 1e-6
    ok &= good
    lines.append(f"H(1||1+0.5z) = {H[0]:.9f} (within 1e-6 of 0.045229: {good})")
    ok &= run.decay_pass
    lines.append(f"decay check at t in (0.1,0.25,0.5,1): {run.decay_pass}; "
                 f"t=0.5: {H[3]:.6f} <= {np.exp(-2.0) * H[0]:.6f}")
    d = run.dissipation
    if "error" in d:
        return False, lines + [f"dissipation identity: {d['error']}"]
    good = d["residual"] <= 1e-4
    ok &= good
    lines.append(f"dissipation identity: lhs {d['lhs']:.8f} rhs {d['rhs']:.8f}, "
                 f"residual {d['residual']:.2e} (<= 1e-4: {good})")
    return ok, lines


def _c10_transfer(config: RunConfig):
    lines, ok = [], True
    densities = (
        "gaussian:sigma=0.8",
        "gaussian:sigma=1",
        "gaussian:sigma=1.3",
        "perturbed-optimizer:eps=0.2,mode=1",
        "mixture:weights=(0.5,0.5),components=(optimizer:s=1|optimizer:s=2)",
    )
    for text in densities:
        rho = realize_planar(parse_input_spec(text), config)
        Hp = planar_free_energy(rho)
        lifted = lift_T(rho, config.sphere_grid())
        # subtract the sphere-grid mean so f is mean-zero in quadrature
        f = SphereField(lifted.grid, lifted.values - lifted.mean(), axisymmetric=True)
        Hs = spherical_free_energy(f).total
        err = abs(Hs - Hp)
        good = err <= 1e-3
        ok &= good
        lines.append(f"{text}: |H_S(T rho - 1) - H(rho)| = {err:.2e} (<= 1e-3: {good})")
    return ok, lines


def _c11_keller_segel(config: RunConfig):
    lines, ok = [], True
    grid = config.radial_grid()
    h1 = radial_from_profile(grid, lambda r: 8.0 * (1.0 + r**2) ** -2)
    traj_s, state_s = ks_evolve(h1, T=10.0, n=config.ks_n, r_min=config.ks_rmin,
                                r_max=config.ks_rmax, n_samples=24)
    rho_eq = 8.0 * (1.0 + state_s.grid.nodes**2) ** -2
    drift = integrate(np.abs(state_s.density() - rho_eq), state_s.grid)
    good = drift <= 1e-4
    ok &= good
    lines.append(f"stationary 8*pi*h_1 over t in [0,10]: L1 drift = {drift:.2e} (<= 1e-4: {good})")

    gauss = radial_from_profile(grid, lambda r: 4.0 * np.exp(-r**2 / 2.0))
    traj, state = ks_evolve(gauss, T=config.ks_T, n=config.ks_n,
                            r_min=config.ks_rmin, r_max=config.ks_rmax,
                            n_samples=64)
    mass_err = float(np.max(traj.mass_error))
    good = mass_err <= 1e-6
    ok &= good
    lines.append(f"gaussian start: max mass error = {mass_err:.2e} (<= 1e-6: {good})")
    bound_ok, step_ok = ks_verdict(traj)
    ok &= step_ok and bound_ok
    inc = traj.diagnostics["max_free_energy_increase_per_step"]
    lines.append(f"free energy max per-step increase = {inc:.2e} "
                 f"(<= {_power_of_ten(FE_STEP_TOL)}: {step_ok})")
    lines.append(f"d(t) <= 8pi sqrt(8 H) + {_power_of_ten(DISTANCE_SLACK)} at every sample: "
                 f"{bound_ok}")
    fit = ks_rate_fit(traj)
    good = fit.defined and fit.bound_flag_free_energy and fit.bound_flag_distance
    ok &= good
    lines.append(f"rate fit over t in [{fit.window[0]:.2f}, {fit.window[1]:.0f}]: "
                 f"slope(H) = {fit.slope_free_energy:.3f}, slope(d) = {fit.slope_distance:.3f}; "
                 f"t^-1/8 and t^-1/16 bound flags: {good}")
    return ok, lines


def _c12_circle(config: RunConfig):
    lines, ok = [], True
    grid = config.circle_grid()
    for r in (0.2, 0.5, 0.8):
        u = circle_optimizer(CircleOptimizerParams(r, 0.9))
        lm = lebedev_milin_functional(u, grid)
        good = abs(lm) <= 1e-8
        ok &= good
        lines.append(f"Poisson r={r}: LM = {lm:+.2e} (|.| <= 1e-8: {good})")
    for r in (0.01, 0.2, 0.5, 0.8):
        cert = circle_stability_certificate(circle_optimizer(CircleOptimizerParams(r, 0.9)), grid)
        good = cert.passed and cert.distance <= 1e-8
        ok &= good
        lines.append(f"Poisson r={r}: certificate d = {cert.distance:.1e}, "
                     f"gap = {cert.gap:+.1e} (pass, d <= 1e-8: {good})")
    e_half = half_laplacian_energy(circle_optimizer(CircleOptimizerParams(0.5, 0.0)))
    good = abs(e_half - 0.575364) <= 1e-6
    ok &= good
    lines.append(f"r=1/2 half-Laplacian energy = {e_half:.8f} (within 1e-6 of 0.575364: {good})")

    worst = np.inf
    rng = np.random.default_rng(CASE_SEED)
    for i in range(10):
        coeffs = np.zeros(65, dtype=complex)          # modes 0..64
        eps = 0.1 + 0.04 * i
        coeffs[1] = eps / 2.0
        coeffs[2] = (0.3 * eps) * np.exp(1j * rng.uniform(0, 2 * np.pi)) / 2.0
        cert = circle_stability_certificate(CircleField(coeffs).normalized(grid), grid)
        ok &= cert.passed
        worst = min(worst, cert.gap)
    lines.append(f"10 perturbed fields, constant 1/4: all pass, worst gap = {worst:+.3e}")
    return ok, lines


CRITERIA = (
    ("A01", "planar equality cases", 30.0, _c01_planar_equality),
    ("A02", "Gaussian value and dilation invariance", 5.0, _c02_gaussian_value),
    ("A03", "main stability bound on 12 densities", 120.0, _c03_planar_stability),
    ("A04", "Onofri functional on the manifold and random fields", 60.0, _c04_onofri),
    ("A05", "Onofri stability certificates after recentering", 180.0, _c05_onofri_stability),
    ("A06", "entropy inequality suite", 30.0, _c06_entropy_suite),
    ("A07", "convex duality demonstrator", 10.0, _c07_duality),
    ("A08", "sphere Green function spectral action", 30.0, _c08_green),
    ("A09", "heat flow entropy decay and dissipation", 30.0, _c09_heat),
    ("A10", "plane-sphere transfer identity", 60.0, _c10_transfer),
    ("A11", "critical-mass Keller-Segel", 300.0, _c11_keller_segel),
    ("A12", "circle: Lebedev-Milin and stability", 30.0, _c12_circle),
)


def run_all(config: RunConfig, ids) -> list[CriterionResult]:
    """The criteria of ``ids`` in matrix order, or all of them for None;
    an id that names no criterion is invalid input."""
    unknown = sorted(set(ids or ()) - {c[0] for c in CRITERIA})
    if unknown:
        raise ParseError(f"suite: unknown criterion ids {', '.join(unknown)}")
    return [_run(cid, name, budget, fn, config) for cid, name, budget, fn in CRITERIA
            if ids is None or cid in ids]
