"""Command-line interface.

Commands
--------
eval          evaluate the functionals of a density/field spec
stability     stability certificate(s) for a spec
onofri        Onofri functional report for a sphere spec
heatflow      heat semigroup run with entropy diagnostics (flow heat)
ks            critical-mass Keller-Segel run (flow ks)
duality-demo  finite-dimensional duality transfer demonstration
suite         run the acceptance matrix

Exit codes: 0 success, 1 computation failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import LogHLSError, ParseError
from .fields import RadialDensity, SphereField
from .flows import (FlowTrajectory, KS_MASS, _jsonable, decay_check,
                    dissipation_check, entropy_dissipation_rate, heat_evolve,
                    heat_state, ks_evolve, ks_rate_fit, reverse_entropy)
from .functionals import (dirichlet_energy, half_laplacian_energy,
                          lebedev_milin_functional, onofri_functional,
                          planar_free_energy_report)
from .grids import integrate
from .specs import (RunConfig, format_input_spec, parse_input_spec,
                    realize_circle, realize_heat_coeffs, realize_planar,
                    realize_sphere, spec_domain)
from .stability import (circle_stability_certificate,
                        onofri_stability_certificates,
                        planar_stability_certificate,
                        spherical_stability_certificate, ConvexPairSpec,
                        toy_duality_demo)
from .suite import run_all


def _config_from_args(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = RunConfig.from_file(args.config)
    else:
        cfg = RunConfig()
    if getattr(args, "grid_n", None):
        cfg.radial_n = args.grid_n
    if getattr(args, "rmax", None):
        cfg.radial_rmax = args.rmax
    if getattr(args, "oracle", False):
        cfg.oracle = True
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.out = args.out
    cfg.validate()
    return cfg


def _emit(obj, cfg: RunConfig) -> None:
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=1, allow_nan=False)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _meta(cfg: RunConfig, spec=None) -> dict:
    meta = {"config": cfg.metadata()}
    if spec is not None:
        meta["spec"] = format_input_spec(spec)
    return meta


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    spec = parse_input_spec(args.spec)
    domain = spec_domain(spec)
    out = {"domain": domain, **_meta(cfg, spec)}
    if domain == "plane":
        rho = realize_planar(spec, cfg)
        rep = planar_free_energy_report(rho)
        out.update(mass=rho.mass, entropy_term=rep.entropy,
                   interaction_term=rep.interaction, free_energy=rep.total)
    elif domain == "sphere":
        u = realize_sphere(spec, cfg)
        out.update(onofri=onofri_functional(u), dirichlet_energy=dirichlet_energy(u),
                   mean_u=u.mean(), exp_integral=u.exp_integral(),
                   barycenter=list(u.barycenter()))
    elif domain == "circle":
        u = realize_circle(spec, cfg)
        grid = cfg.circle_grid()
        out.update(lebedev_milin=lebedev_milin_functional(u, grid),
                   half_laplacian_energy=half_laplacian_energy(u),
                   mean_u=u.mean(),
                   exp_integral=integrate(np.exp(u.values(grid)), grid))
    else:
        raise ParseError(f"eval: spec domain {domain!r} is not evaluable directly")
    _emit(out, cfg)
    return 0


def cmd_stability(args) -> int:
    cfg = _config_from_args(args)
    spec = parse_input_spec(args.spec)
    domain = spec_domain(spec)
    out = {"domain": domain, **_meta(cfg, spec)}
    if domain == "plane":
        cert = planar_stability_certificate(realize_planar(spec, cfg), oracle=cfg.oracle)
        out["certificate"] = cert.to_json()
        ok = cert.passed
    elif domain == "sphere":
        u = realize_sphere(spec, cfg)
        certs = onofri_stability_certificates(u)
        # density form: f = e^u - 1, mean-adjusted so int f dsigma is 0 in quadrature
        fvals = np.exp(u.values)
        fvals = fvals - integrate(fvals, u.grid)
        scert = spherical_stability_certificate(SphereField(u.grid, fvals))
        out["onofri_certificates"] = [c.to_json() for c in certs]
        out["spherical_certificate"] = scert.to_json()
        ok = all(c.passed for c in certs) and scert.passed
    elif domain == "circle":
        cert = circle_stability_certificate(realize_circle(spec, cfg), cfg.circle_grid())
        out["certificate"] = cert.to_json()
        ok = cert.passed
    else:
        raise ParseError(f"stability: unsupported domain {domain!r}")
    _emit(out, cfg)
    return 0 if ok else 1


def cmd_onofri(args) -> int:
    cfg = _config_from_args(args)
    spec = parse_input_spec(args.spec)
    if spec_domain(spec) != "sphere":
        raise ParseError("onofri: spec must describe a sphere field")
    u = realize_sphere(spec, cfg)
    out = {**_meta(cfg, spec),
           "onofri": onofri_functional(u),
           "dirichlet_energy": dirichlet_energy(u),
           "mean_u": u.mean(),
           "exp_integral": u.exp_integral(),
           "barycenter": list(u.barycenter())}
    if args.certify:
        out["certificates"] = [c.to_json() for c in onofri_stability_certificates(u)]
    _emit(out, cfg)
    return 0


def cmd_heatflow(args) -> int:
    cfg = _config_from_args(args)
    spec = parse_input_spec(args.spec)
    coeffs = realize_heat_coeffs(spec)
    state0 = heat_state(coeffs)
    T = args.T
    times = np.geomspace(max(1e-2, T / 100.0) if T > 1e-2 else T / 100.0, T, args.samples)
    times = np.concatenate(([0.0], times))
    H0 = reverse_entropy(state0)
    rows = []
    for t in times:
        st = heat_evolve(state0, float(t))
        rho = st.density_values()
        H = reverse_entropy(st)
        dist = integrate(np.broadcast_to(np.abs(rho - 1.0)[:, None], st.grid.shape), st.grid)
        rows.append((float(t), H, dist, entropy_dissipation_rate(st), 0.0))
    # columns t, free_energy, distance_L1, dissipation, mass_error
    traj = FlowTrajectory(*np.array(rows).T,
                          diagnostics={"kind": "heat", "H0": H0,
                                       "spec": format_input_spec(spec)})
    decay = decay_check(state0, times[1:])
    lhs, rhs, res = dissipation_check(state0, dt=args.dt)
    out = {**_meta(cfg, spec), "trajectory": traj.to_json(),
           "decay_pass": decay.passed,
           "dissipation": {"lhs": lhs, "rhs": rhs, "residual": res}}
    if args.csv:
        traj.write_csv(args.csv)
    _emit(out, cfg)
    return 0 if decay.passed else 1


def cmd_ks(args) -> int:
    cfg = _config_from_args(args)
    text = args.spec.strip()
    if not text.startswith("8pi*"):
        raise ParseError("ks: spec must be of the form 8pi*<planar spec> "
                         "(the flow runs at the critical mass)")
    spec = parse_input_spec(text[len("8pi*"):])
    rho = realize_planar(spec, cfg)
    if not isinstance(rho, RadialDensity):
        raise ParseError("ks: only radial initial data is supported")
    prof = rho.profile
    scaled = RadialDensity(rho.grid, KS_MASS * rho.values,
                           profile=(lambda r, _p=prof: KS_MASS * _p(r)) if prof else None)
    traj, state = ks_evolve(scaled, dt=cfg.ks_dt, T=cfg.ks_T if args.T is None else args.T,
                            n=cfg.ks_n, r_min=cfg.ks_rmin, r_max=cfg.ks_rmax,
                            n_samples=args.samples)
    fit = ks_rate_fit(traj)
    bound = KS_MASS * np.sqrt(8.0 * np.clip(traj.free_energy, 0.0, None)) + 1e-4
    bound_ok = bool(np.all(traj.distance_L1 <= bound))
    inc = traj.diagnostics["max_free_energy_increase_per_step"]
    out = {**_meta(cfg, spec), "trajectory": traj.to_json(),
           "rate_fit": {"slope_free_energy": fit.slope_free_energy,
                        "slope_distance": fit.slope_distance,
                        "bound_flag_free_energy": fit.bound_flag_free_energy,
                        "bound_flag_distance": fit.bound_flag_distance,
                        "defined": fit.defined},
           "distance_bound_pass": bound_ok,
           "max_free_energy_increase_per_step": inc}
    if args.csv:
        traj.write_csv(args.csv)
    _emit(out, cfg)
    return 0 if (bound_ok and inc <= 1e-8) else 1


def cmd_duality_demo(args) -> int:
    cfg = _config_from_args(args)
    if args.dim == 1:
        spec = ConvexPairSpec(dim=1, E=lambda x: (x**2).sum(axis=1),
                              F=lambda x: 2.0 * (x**2).sum(axis=1),
                              C=1.0, lam=0.25, name="1d quadratic pair")
    else:
        spec = ConvexPairSpec(dim=2,
                              E=lambda x: x[:, 0]**2 + 2.0 * x[:, 1]**2,
                              F=lambda x: 2.0 * x[:, 0]**2 + 3.0 * x[:, 1]**2,
                              C=1.0, lam=0.125, name="2d anisotropic pair")
    rep = toy_duality_demo(spec)
    _emit({**_meta(cfg), "report": rep.to_json()}, cfg)
    return 0 if rep.passed else 1


def cmd_suite(args) -> int:
    cfg = _config_from_args(args)
    ids = args.ids.split(",") if args.ids else None
    results = run_all(cfg, ids)
    all_pass = all(r.passed for r in results)
    if args.json:
        _emit({"config": cfg.metadata(),
               "criteria": [{"id": r.cid, "name": r.name, "pass": r.passed,
                             "runtime_s": r.runtime, "budget_s": r.budget,
                             "lines": r.lines} for r in results],
               "all_pass": all_pass}, cfg)
    else:
        for r in results:
            print(r.summary())
            for line in r.lines:
                print("    " + line)
        n_pass = sum(r.passed for r in results)
        print(f"\n{n_pass}/{len(results)} criteria passed")
    if not all_pass:
        failing = [r.cid for r in results if not r.passed]
        print(f"failing criteria: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _positive_time(text: str) -> float:
    T = float(text)
    if not 0.0 < T < np.inf:
        raise argparse.ArgumentTypeError(f"T must be a finite number > 0, got {text}")
    return T


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="loghls", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--grid-n", type=int, dest="grid_n", help="radial grid size")
        sp.add_argument("--rmax", type=float, help="radial outer radius")
        sp.add_argument("--oracle", action="store_true", help="enable dense-grid oracles")
        sp.add_argument("--seed", type=int, help="seed for randomized inputs")
        sp.add_argument("--out", help="write the JSON report to this path")

    sp = sub.add_parser("eval", help="evaluate functionals of a spec")
    sp.add_argument("spec")
    common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("stability", help="stability certificate for a spec")
    sp.add_argument("spec")
    common(sp)
    sp.set_defaults(fn=cmd_stability)

    sp = sub.add_parser("onofri", help="Onofri report for a sphere spec")
    sp.add_argument("spec")
    sp.add_argument("--certify", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_onofri)

    sp = sub.add_parser("heatflow", help="heat semigroup run (flow heat)")
    sp.add_argument("spec", help='e.g. "1+0.5*P1" or legendre:c0=1,c1=0.5')
    sp.add_argument("--T", type=_positive_time, default=1.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--samples", type=int, default=33)
    sp.add_argument("--csv", help="write the trajectory CSV here")
    common(sp)
    sp.set_defaults(fn=cmd_heatflow)

    sp = sub.add_parser("ks", help="critical-mass Keller-Segel run (flow ks)")
    sp.add_argument("spec", help='e.g. "8pi*optimizer:s=1"')
    sp.add_argument("--T", type=_positive_time, default=None)
    sp.add_argument("--samples", type=int, default=64)
    sp.add_argument("--csv", help="write the trajectory CSV here")
    common(sp)
    sp.set_defaults(fn=cmd_ks)

    sp = sub.add_parser("duality-demo", help="convex duality transfer demo")
    sp.add_argument("--dim", type=int, choices=(1, 2), default=1)
    common(sp)
    sp.set_defaults(fn=cmd_duality_demo)

    sp = sub.add_parser("suite", help="run the acceptance matrix")
    sp.add_argument("--ids", help="comma-separated criterion ids, e.g. A01,A06")
    sp.add_argument("--json", action="store_true", help="machine-readable summary")
    common(sp)
    sp.set_defaults(fn=cmd_suite)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error (invalid input): {exc}", file=sys.stderr)
        return 2
    except LogHLSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
