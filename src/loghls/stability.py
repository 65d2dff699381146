"""Stability certificates for every inequality in the laboratory, plus a
finite-dimensional demonstrator of the convex duality transfer.

A certificate records the functional value, the distance to the
optimizer manifold, the explicit constant, and the gap

    gap = value - constant * distance^2,

which the corresponding stability inequality asserts is nonnegative.  The
pass tolerance is PASS_ABS_TOL = 1e-6 absolute plus PASS_REL_TOL = 1e-4
relative to the value (quadrature error dominates at the grids used here).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import DomainError, PreconditionError
from .fields import CircleField, PlanarDensity, RadialDensity, SphereField
from .functionals import (MASS_TOL, _circle_grid_for, dirichlet_energy,
                          lebedev_milin_functional, onofri_functional,
                          planar_free_energy_report, spherical_free_energy)
from .grids import CircleGrid, integrate
from .optimizers import (LOG_S_BOX, _gradient_energy, _l1_objective, _SphereFamily,
                         nearest_circle_L1, nearest_planar_L1, nearest_sphere_L1,
                         nearest_sphere_reverse_entropy, radial_L1_objective)
from .optimizers import nearest_sphere_gradient  # noqa: F401  perfbench wraps it until ROADMAP 3(b)

__all__ = [
    "StabilityCertificate",
    "pass_tolerance",
    "planar_stability_certificate",
    "spherical_stability_certificate",
    "onofri_stability_certificates",
    "sphere_stability_certificates",
    "constrained_onofri_gap",
    "circle_stability_certificate",
    "ConvexPairSpec",
    "DEMO_PAIRS",
    "DualityReport",
    "toy_duality_demo",
]


PASS_ABS_TOL = 1e-6
PASS_REL_TOL = 1e-4
BARY_TOL = 1e-8          # the barycenter precondition of constrained_onofri_gap
ORACLE_SWEEP = 10_000    # log s values of the radial oracle's dense sweep
DUALITY_SLACK = 2e-2     # toy_duality_demo's slack on each of its checks
DUALITY_EQ_TOL = 1e-9    # toy_duality_demo's tolerance for equality


def pass_tolerance(value: float) -> float:
    return PASS_ABS_TOL + PASS_REL_TOL * abs(value)


@dataclass(frozen=True)
class StabilityCertificate:
    inequality: str
    value: float
    constant: float
    distance: float
    gap: float
    passed: bool
    tol: float
    grid: str = ""
    search: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        """The fields by name, ``passed`` as "pass"."""
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def _certificate(name: str, value: float, constant: float, distance: float,
                 grid: str, search: dict) -> StabilityCertificate:
    gap = value - constant * distance**2
    tol = pass_tolerance(value)
    return StabilityCertificate(inequality=name, value=value, constant=constant,
                                distance=distance, gap=gap, passed=gap >= -tol,
                                tol=tol, grid=grid, search=search)


def _search(params, diag) -> dict:
    """A certificate's ``search`` record: the optimizer and its diagnostics."""
    return {**asdict(params), "evaluations": diag.evaluations,
            "scan_evaluations": diag.scan_evaluations, "iterations": diag.iterations,
            "boundary_hit": diag.boundary_hit}


# ----------------------------------------------------------------------
# log HLS certificates
# ----------------------------------------------------------------------

def planar_stability_certificate(rho: RadialDensity | PlanarDensity,
                                 oracle: bool = False) -> StabilityCertificate:
    """H(rho) >= (1/8) inf_g ||rho - g||_1^2 over the planar manifold.

    A radial search whose optimum lies on the edge of its range
    s in [e^-LOG_S_BOX, e^LOG_S_BOX] has not found the infimum, only the
    nearest member in the range, so it raises DomainError instead of
    certifying that distance.
    """
    report = planar_free_energy_report(rho)
    params, dist, diag = nearest_planar_L1(rho)
    if isinstance(rho, RadialDensity) and diag.boundary_hit:
        raise DomainError(
            f"planar_stability_certificate: the search's best s = {params.s:.6g} lies on "
            f"the edge of the searched range s in [e^-{LOG_S_BOX:g}, e^{LOG_S_BOX:g}] = "
            f"[{np.exp(-LOG_S_BOX):.6g}, {np.exp(LOG_S_BOX):.6g}], so the nearest optimizer "
            f"may lie beyond it")
    search = _search(params, diag)
    if oracle and isinstance(rho, RadialDensity):
        search["oracle_distance"] = _radial_oracle_distance(rho)
    if isinstance(rho, RadialDensity):
        grid = f"radial n={rho.grid.n}"
    else:
        grid = f"sphere lift {rho.lifted.grid.n_z}x{rho.lifted.grid.n_phi}"
    return _certificate("log-HLS (plane)", report.total, 0.125, dist, grid, search)


def _radial_oracle_distance(rho: RadialDensity) -> float:
    """min of the search's objective over ORACLE_SWEEP equispaced log s."""
    l1 = radial_L1_objective(rho.values, rho.grid)
    return min(l1(ls) for ls in np.linspace(-LOG_S_BOX, LOG_S_BOX, ORACLE_SWEEP))


def spherical_stability_certificate(f: SphereField) -> StabilityCertificate:
    """H_S(f) >= (1/8) inf ||(f+1) - e^{u_{t,n}}||_1^2."""
    report = spherical_free_energy(f)
    params, dist, diag = nearest_sphere_L1(f.values + 1.0, f.grid)
    return _certificate("log-HLS (sphere)", report.total, 0.125, dist,
                        f"sphere {f.grid.n_z}x{f.grid.n_phi}", _search(params, diag))


# ----------------------------------------------------------------------
# Onofri certificates
# ----------------------------------------------------------------------

def onofri_stability_certificates(u: SphereField) -> tuple[StabilityCertificate, ...]:
    """The three stability certificates for the Onofri functional J(u):

    (a) J >= (1/8) inf int |grad u - grad u_{t,n}|^2,
    (b) J >= (1/2) inf H(e^{u_{t,n}} | e^u),
    (c) J >= (1/4) inf ||e^u - e^{u_{t,n}}||_1^2  (Pinsker applied to (b)).

    (a) is taken at the search of (b), which minimizes it too
    (nearest_sphere_gradient), and that search is its ``search``.
    """
    m = u.exp_integral()
    if abs(m - 1.0) > MASS_TOL:
        raise PreconditionError(
            f"onofri_stability_certificates: int e^u = {m!r}, expected 1 within {MASS_TOL}")
    J = onofri_functional(u)
    gridname = f"sphere {u.grid.n_z}x{u.grid.n_phi}"

    pe, Hinf, diag_e = nearest_sphere_reverse_entropy(u)
    cert_a = _certificate("Onofri gradient form", J, 0.125, float(np.sqrt(_gradient_energy(u, pe))),
                          gridname, _search(pe, diag_e))
    cert_b = _certificate("Onofri entropy form", J, 0.5, float(np.sqrt(max(Hinf, 0.0))),
                          gridname, _search(pe, diag_e))

    pl, dist, diag_l = nearest_sphere_L1(np.exp(u.values), u.grid)
    cert_c = _certificate("Onofri L1 form", J, 0.25, dist, gridname, _search(pl, diag_l))
    return cert_a, cert_b, cert_c


def sphere_stability_certificates(u: SphereField) -> tuple[StabilityCertificate, ...]:
    """The Onofri certificates of u and the log-HLS certificate of f = e^u - int e^u.

    Both L1 certificates measure the distance of e^u to the manifold, so
    the log-HLS distance ||(f+1) - e^{u_{t,n}}||_1 is taken at the Onofri L1
    search's (t, n), and that search is its ``search``: an upper bound of
    the infimum, equal to the search's value when int e^u = 1 to rounding.
    """
    *onofri, l1 = onofri_stability_certificates(u)
    f = np.exp(u.values)
    f -= integrate(f, u.grid)
    dist = _l1_objective(_SphereFamily(u.grid), f + 1.0)(l1.search["t"], np.array(l1.search["n"]))
    H = spherical_free_energy(SphereField(u.grid, f)).total
    return (*onofri, l1,
            _certificate("log-HLS (sphere)", H, 0.125, dist, l1.grid, dict(l1.search)))


def constrained_onofri_gap(u: SphereField) -> float:
    """(1/8) int |grad u|^2 - log int e^u + int u for barycenter-free u.

    Precondition: the sphere barycenter of e^u vanishes within BARY_TOL
    (recenter first); the improved constant 1/8 is valid only there.
    """
    b = float(np.linalg.norm(u.barycenter()))
    if b > BARY_TOL:
        raise PreconditionError(
            f"constrained_onofri_gap: |barycenter| = {b:.3e} exceeds {BARY_TOL}; "
            "recenter the field first")
    return onofri_functional(u) - 0.125 * dirichlet_energy(u)


# ----------------------------------------------------------------------
# circle certificate
# ----------------------------------------------------------------------

def circle_stability_certificate(u: CircleField, grid: CircleGrid) -> StabilityCertificate:
    """LM(u) >= (1/4) inf ||e^u - e^v||_1^2 over normalized Poisson kernels,
    on ``grid`` or else the circle grid that resolves u."""
    grid = _circle_grid_for(u, grid)
    m = integrate(np.exp(u.values(grid)), grid)
    if abs(m - 1.0) > MASS_TOL:
        raise PreconditionError(
            f"circle_stability_certificate: int e^u = {m!r}, expected 1 within {MASS_TOL}")
    value = lebedev_milin_functional(u, grid)
    params, dist, diag = nearest_circle_L1(u, grid)
    return _certificate("Lebedev-Milin (circle)", value, 0.25, dist,
                        f"circle n={grid.n}", _search(params, diag))


# ----------------------------------------------------------------------
# finite-dimensional duality demonstrator
# ----------------------------------------------------------------------

@dataclass
class ConvexPairSpec:
    """A pair of convex functions E <= F on a box, with the constants of
    the quadratic stability bound (C) and the lambda-convexity of E* (lam)."""

    dim: int
    E: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray], np.ndarray]
    C: float
    lam: float
    box: float = 3.0
    n_axis: int | None = None
    name: str = "pair"

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise DomainError(f"ConvexPairSpec: dim must be 1..3, got {self.dim}")
        if self.n_axis is None:
            self.n_axis = {1: 401, 2: 101, 3: 41}[self.dim]
        if self.C <= 0 or self.lam <= 0:
            raise DomainError("ConvexPairSpec: C and lam must be positive")


DEMO_PAIRS = {    # the pairs of ``loghls duality-demo --dim`` (and A07's 1d pair)
    1: ConvexPairSpec(dim=1, E=lambda x: (x**2).sum(axis=1), F=lambda x: 2.0 * (x**2).sum(axis=1),
                      C=1.0, lam=0.25, name="1d quadratic pair"),
    2: ConvexPairSpec(dim=2, E=lambda x: x[:, 0]**2 + 2.0 * x[:, 1]**2,
                      F=lambda x: 2.0 * x[:, 0]**2 + 3.0 * x[:, 1]**2,
                      C=1.0, lam=0.125, name="2d anisotropic pair"),
}


@dataclass
class DualityReport:
    name: str
    mu: float
    premise_max_violation: float
    dual_order_max_violation: float
    young_min_slack: float
    young_equality_consistent: bool
    eq_set_forward_max_dist: float
    eq_set_backward_max_dist: float
    transfer_min_slack: float
    lipschitz_max_excess: float
    slack: float
    passed: bool
    details: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        d = dict(self.__dict__)
        d.pop("details")
        return d


def _grid_points(box: float, n_axis: int, dim: int) -> np.ndarray:
    axis = np.linspace(-box, box, n_axis)
    if dim == 1:
        return axis[:, None]
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _brute_conjugate(points_primal, values_primal, points_dual):
    """E*(y) = max_x <x,y> - E(x) over the primal grid, and the argmax."""
    n_dual = points_dual.shape[0]
    conj = np.empty(n_dual)
    arg = np.empty((n_dual, points_primal.shape[1]))
    for start in range(0, n_dual, 1024):
        sl = slice(start, min(start + 1024, n_dual))
        inner = points_dual[sl] @ points_primal.T - values_primal[None, :]
        idx = np.argmax(inner, axis=1)
        conj[sl] = inner[np.arange(idx.size), idx]
        arg[sl] = points_primal[idx]
    return conj, arg


def toy_duality_demo(spec: ConvexPairSpec) -> DualityReport:
    """Verify the duality-transfer machinery on a low-dimensional pair.

    Checks, all on brute-force grid Legendre transforms:
      (i)   E <= F on the primal box and F* <= E* on the dual box,
      (ii)  Young's inequality with equality exactly on subgradient pairs,
      (iii) the equality sets map onto each other under the subgradients,
      (iv)  the transferred bound E* - F* >= (lam mu / 2) dist(., E0*)^2
            with mu = min(4 C lam, 1),
      (v)   the gradient of E* is Lipschitz with constant 1/(2 lam).
    """
    X = _grid_points(spec.box, spec.n_axis, spec.dim)
    Y = _grid_points(spec.box, spec.n_axis, spec.dim)
    Ev = np.asarray(spec.E(X), dtype=float).ravel()
    Fv = np.asarray(spec.F(X), dtype=float).ravel()

    premise = float(np.max(Ev - Fv))
    if premise > 1e-12:
        raise DomainError(
            f"toy_duality_demo: E <= F violated by {premise:.3e} on the sweep")

    Estar, gradEstar = _brute_conjugate(X, Ev, Y)
    Fstar, _ = _brute_conjugate(X, Fv, Y)
    dual_order = float(np.max(Fstar - Estar))

    # equality sets
    E0_mask = (Fv - Ev) <= DUALITY_EQ_TOL
    E0 = X[E0_mask]
    E0star_mask = (Estar - Fstar) <= DUALITY_SLACK * 1e-2
    E0star = Y[E0star_mask]
    if E0.size == 0 or E0star.size == 0:
        raise DomainError("toy_duality_demo: empty equality set on the grid")

    # forward map: grad E (finite differences) of E0 should land in E0*
    hfd = 1e-6 * spec.box

    def gradE(x):
        g = np.empty(spec.dim)
        for i in range(spec.dim):
            e = np.zeros(spec.dim)
            e[i] = hfd
            hi = np.asarray(spec.E((x + e)[None, :])).ravel()[0]
            lo = np.asarray(spec.E((x - e)[None, :])).ravel()[0]
            g[i] = (hi - lo) / (2 * hfd)
        return g

    fwd = 0.0
    for x in E0:
        gx = gradE(x)
        if np.max(np.abs(gx)) > spec.box:
            continue            # subgradient leaves the dual box; untestable here
        fwd = max(fwd, float(np.min(np.linalg.norm(E0star - gx[None, :], axis=1))))
    # backward map: grad E*(y) (brute argmax) of E0* should land in E0
    back = 0.0
    ge_at_E0star = gradEstar[E0star_mask]
    for gx in ge_at_E0star:
        back = max(back, float(np.min(np.linalg.norm(E0 - gx[None, :], axis=1))))

    # transferred stability bound
    mu = min(4.0 * spec.C * spec.lam, 1.0)
    d2 = np.empty(Y.shape[0])
    for start in range(0, Y.shape[0], 4096):
        sl = slice(start, min(start + 4096, Y.shape[0]))
        diff = Y[sl, None, :] - E0star[None, :, :]
        d2[sl] = np.min(np.sum(diff**2, axis=2), axis=1)
    transfer_slack = float(np.min((Estar - Fstar) - 0.5 * spec.lam * mu * d2))

    # Young's inequality on grid pairs; equality only at subgradients
    h_axis = 2.0 * spec.box / (spec.n_axis - 1)
    young_min = np.inf
    young_eq_ok = True
    for start in range(0, Y.shape[0], 1024):
        sl = slice(start, min(start + 1024, Y.shape[0]))
        gap = Ev[None, :] + Estar[sl, None] - Y[sl] @ X.T
        young_min = min(young_min, float(np.min(gap)))
        eq_pairs = np.argwhere(gap <= DUALITY_EQ_TOL)
        for iy, ix in eq_pairs:
            if np.linalg.norm(X[ix] - gradEstar[sl][iy]) > 2.0 * h_axis:
                young_eq_ok = False

    # Lipschitz bound for grad E*
    if spec.dim == 1:
        yy = Y[:, 0]
        gg = gradEstar[:, 0]
        dy = np.abs(yy[None, :] - yy[:, None])
        dg = np.abs(gg[None, :] - gg[:, None])
        excess = dg - dy / (2.0 * spec.lam)
    else:
        idx = np.linspace(0, Y.shape[0] - 1, 400).astype(int)
        Ys, Gs = Y[idx], gradEstar[idx]
        dy = np.linalg.norm(Ys[None, :, :] - Ys[:, None, :], axis=2)
        dg = np.linalg.norm(Gs[None, :, :] - Gs[:, None, :], axis=2)
        excess = dg - dy / (2.0 * spec.lam)
    lip_excess = float(np.max(excess))

    passed = (dual_order <= DUALITY_SLACK
              and young_min >= -1e-12
              and young_eq_ok
              and fwd <= 2.0 * h_axis + DUALITY_SLACK
              and back <= 2.0 * h_axis + DUALITY_SLACK
              and transfer_slack >= -DUALITY_SLACK
              and lip_excess <= 2.0 * h_axis + DUALITY_SLACK)
    return DualityReport(
        name=spec.name, mu=mu,
        premise_max_violation=premise,
        dual_order_max_violation=dual_order,
        young_min_slack=float(young_min),
        young_equality_consistent=young_eq_ok,
        eq_set_forward_max_dist=fwd,
        eq_set_backward_max_dist=back,
        transfer_min_slack=transfer_slack,
        lipschitz_max_excess=lip_excess,
        slack=DUALITY_SLACK, passed=passed,
        details={"Estar": Estar, "Fstar": Fstar, "Y": Y, "E0": E0, "E0star": E0star})
