"""Command-line interface.

Commands
--------
eval          evaluate the functionals of a plane, sphere or circle spec
              (on a sphere spec: the Onofri functional and its parts)
stability     stability certificate(s) for a spec (on a sphere spec: the
              three Onofri certificates and the spherical log-HLS one)
heatflow      heat flow of a sphere spec's density e^u, entropy diagnostics
ks            critical-mass Keller-Segel run (flow ks)
duality-demo  finite-dimensional duality transfer demonstration
suite         run the acceptance matrix

Exit codes: 0 success, 1 computation failure, 2 invalid input (a spec
of the wrong domain for its command included).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .errors import DomainError, LogHLSError, ParseError
from .fields import RadialDensity
from .flows import (DISSIPATION_DT, DISTANCE_SLACK, FE_STEP_TOL, FlowTrajectory, KS_MASS,
                    _jsonable, decay_check, dissipation_check, entropy_dissipation_rate,
                    heat_evolve, heat_state, ks_evolve, ks_rate_fit, reverse_entropy)
from .functionals import (dirichlet_energy, half_laplacian_energy,
                          lebedev_milin_functional, onofri_functional,
                          planar_free_energy_report)
from .grids import integrate
from .specs import (RunConfig, format_input_spec, parse_input_spec, read_config_file,
                    realize_circle, realize_planar, realize_sphere, spec_domain)
from .stability import (DEMO_PAIRS, _radial_oracle_distance, circle_stability_certificate,
                        planar_stability_certificate,
                        sphere_stability_certificates, toy_duality_demo)
from .suite import run_all

_RADIAL = {"radial_n", "radial_rmax", "radial_span"}
_SPHERE = {"sphere_nz", "sphere_nphi"}
_KS = {"ks_n", "ks_rmin", "ks_rmax", "ks_T", "ks_dt"}
COMMAND_CONFIG_KEYS = {     # the RunConfig keys each command reads
    "eval": _RADIAL | _SPHERE | {"circle_n", "out"},
    "stability": _RADIAL | _SPHERE | {"circle_n", "out"},
    "heatflow": _SPHERE | {"out"},
    "ks": _RADIAL | _KS | {"out"},
    "duality-demo": {"out"},
    "suite": (_RADIAL | _SPHERE | _KS | {"circle_n", "out"}) - {"ks_dt"},
}
# the grid keys a spec's domain reads: an off-center plane spec lifts onto the sphere grid
_DOMAIN_KEYS = {"plane": _RADIAL | _SPHERE, "sphere": _SPHERE, "circle": {"circle_n"}}


def _config_from_args(args, domain: str | None) -> RunConfig:
    """The run's configuration.  Invalid input: one that fails validation,
    a config file key the command does not read, and on eval and stability
    a grid flag or key that a spec of ``domain`` does not read."""
    try:
        given = read_config_file(args.config) if args.config else {}
        cfg = RunConfig.from_strings(given)
        unread = sorted(set(given) - COMMAND_CONFIG_KEYS[args.command])
        if unread:
            raise ParseError(f"the config file {args.config} sets {', '.join(map(repr, unread))}, "
                             f"which {args.command} does not read")
        if domain is not None:
            if domain != "plane" and (args.radial_n is not None or args.radial_rmax is not None):
                raise ParseError(f"{args.command}: --grid-n and --rmax size the radial grid of "
                                 f"plane specs, which a {domain} spec does not use")
            unread = sorted(set(given) & (_RADIAL | _SPHERE | {"circle_n"}) - _DOMAIN_KEYS[domain])
            if unread:
                raise ParseError(f"{args.command}: the config file {args.config} sets "
                                 f"{', '.join(map(repr, unread))}, which a {domain} spec does "
                                 "not read")
        for key in ("radial_n", "radial_rmax", "ks_n", "ks_rmax"):   # if given
            if getattr(args, key, None) is not None:
                setattr(cfg, key, getattr(args, key))
        if args.out:
            cfg.out = args.out
        cfg.validate()
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
    return cfg


def _check_oracle_flag(args, what: str) -> None:
    if args.oracle:
        raise ParseError(f"stability: --oracle sweeps the radial search of a centered plane "
                         f"spec, which {what} does not have")


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
    spec = parse_input_spec(args.spec)
    domain = spec_domain(spec)
    cfg = _config_from_args(args, domain)
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
    else:
        u = realize_circle(spec, cfg)
        grid = cfg.circle_grid()
        out.update(lebedev_milin=lebedev_milin_functional(u, grid),
                   half_laplacian_energy=half_laplacian_energy(u),
                   mean_u=u.mean(),
                   exp_integral=integrate(np.exp(u.values(grid)), grid))
    _emit(out, cfg)
    return 0


def cmd_stability(args) -> int:
    spec = parse_input_spec(args.spec)
    domain = spec_domain(spec)
    cfg = _config_from_args(args, domain)
    if domain != "plane":
        _check_oracle_flag(args, f"a {domain} spec")
    out = {"domain": domain, **_meta(cfg, spec)}
    if domain == "plane":
        rho = realize_planar(spec, cfg)
        if not isinstance(rho, RadialDensity):
            _check_oracle_flag(args, "an off-center plane spec")
        cert = planar_stability_certificate(rho)
        out["certificate"] = cert.to_json()
        if args.oracle:
            out["certificate"]["search"]["oracle_distance"] = _radial_oracle_distance(rho)
        ok = cert.passed
    elif domain == "sphere":
        *certs, scert = sphere_stability_certificates(realize_sphere(spec, cfg))
        out["onofri_certificates"] = [c.to_json() for c in certs]
        out["spherical_certificate"] = scert.to_json()
        ok = all(c.passed for c in certs) and scert.passed
    else:
        cert = circle_stability_certificate(realize_circle(spec, cfg), cfg.circle_grid())
        out["certificate"] = cert.to_json()
        ok = cert.passed
    _emit(out, cfg)
    return 0 if ok else 1


def cmd_heatflow(args) -> int:
    spec = parse_input_spec(args.spec)
    if spec_domain(spec) != "sphere":
        raise ParseError(f"heatflow: {format_input_spec(spec)} is not a sphere spec, whose "
                         "density e^u the flow evolves (e.g. 1+0.5*P1)")
    cfg = _config_from_args(args, None)       # its config keys are the sphere domain's
    state0 = heat_state(realize_sphere(spec, cfg))
    T = args.T
    first = max(1e-2, T / 100.0) if T > 1e-2 else T / 100.0
    if args.samples == 1:
        first = T                 # the one sample after t = 0 is T
    states = [heat_evolve(state0, float(t))
              for t in np.concatenate(([0.0], np.geomspace(first, T, args.samples)))]
    decay = decay_check(states)
    # columns t, free_energy, distance_L1, dissipation, mass_error
    rows = [(st.time, reverse_entropy(st), integrate(np.abs(st.rho.values - 1.0), st.rho.grid),
             entropy_dissipation_rate(st), 0.0) for st in states]
    traj = FlowTrajectory(*np.array(rows).T,
                          diagnostics={"kind": "heat", "H0": rows[0][1],
                                       "spec": format_input_spec(spec)})
    lhs, rhs, res = dissipation_check(state0, dt=DISSIPATION_DT)
    out = {**_meta(cfg, spec), "trajectory": traj.to_json(),
           "decay_pass": decay.passed,
           "dissipation": {"lhs": lhs, "rhs": rhs, "residual": res}}
    if args.csv:
        traj.write_csv(args.csv)
    _emit(out, cfg)
    return 0 if decay.passed else 1


def cmd_ks(args) -> int:
    cfg = _config_from_args(args, None)
    text = args.spec.strip()
    if not text.startswith("8pi*"):
        raise ParseError("ks: spec must be of the form 8pi*<planar spec> "
                         "(the flow runs at the critical mass)")
    spec = parse_input_spec(text[len("8pi*"):])
    if spec_domain(spec) != "plane":
        raise ParseError(f"ks: spec {format_input_spec(spec)} is not a planar density")
    rho = realize_planar(spec, cfg)
    if not isinstance(rho, RadialDensity):
        raise ParseError("ks: only radial initial data is supported")
    scaled = RadialDensity(rho.grid, KS_MASS * rho.values,
                           profile=lambda r, _p=rho.profile: KS_MASS * _p(r))
    traj, state = ks_evolve(scaled, dt=cfg.ks_dt, T=cfg.ks_T if args.T is None else args.T,
                            n=cfg.ks_n, r_min=cfg.ks_rmin, r_max=cfg.ks_rmax,
                            n_samples=args.samples)
    fit = ks_rate_fit(traj)
    bound = KS_MASS * np.sqrt(8.0 * np.clip(traj.free_energy, 0.0, None)) + DISTANCE_SLACK
    bound_ok = bool(np.all(traj.distance_L1 <= bound))
    inc = traj.diagnostics["max_free_energy_increase_per_step"]
    out = {**_meta(cfg, spec), "trajectory": traj.to_json(),
           "rate_fit": {k: v for k, v in asdict(fit).items() if k != "window"},
           "distance_bound_pass": bound_ok,
           "max_free_energy_increase_per_step": inc}
    if args.csv:
        traj.write_csv(args.csv)
    _emit(out, cfg)
    return 0 if (bound_ok and inc <= FE_STEP_TOL) else 1


def cmd_duality_demo(args) -> int:
    cfg = _config_from_args(args, None)
    rep = toy_duality_demo(DEMO_PAIRS[args.dim])
    _emit({**_meta(cfg), "report": rep.to_json()}, cfg)
    return 0 if rep.passed else 1


def cmd_suite(args) -> int:
    cfg = _config_from_args(args, None)
    if cfg.out and not args.json:
        raise ParseError("suite: --out and the config key out write the JSON summary, "
                         "which only --json prints")
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


def _finite_positive(name: str):
    """The argparse type of option ``name``: a finite number > 0."""
    def parse(text: str) -> float:
        x = float(text)
        if not 0.0 < x < np.inf:
            raise argparse.ArgumentTypeError(f"{name} must be a finite number > 0, got {text}")
        return x

    parse.__name__ = name
    return parse


def _positive_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"the count must be >= 1, got {text}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="loghls", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, grid=None):    # grid: (RunConfig key prefix, name) for --grid-n, --rmax
        sp.add_argument("--config", help="flat key=value config file")
        if grid is not None:
            prefix, name = grid
            sp.add_argument("--grid-n", type=int, dest=f"{prefix}_n", help=f"nodes in the {name}")
            sp.add_argument("--rmax", type=_finite_positive("rmax"), dest=f"{prefix}_rmax",
                            help=f"outer radius of the {name}")
        sp.add_argument("--out", help="write the JSON report to this path")

    sp = sub.add_parser("eval", help="evaluate functionals of a spec")
    sp.add_argument("spec")
    common(sp, ("radial", "radial grid of plane specs"))
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("stability", help="stability certificate for a spec")
    sp.add_argument("spec")
    sp.add_argument("--oracle", action="store_true",
                    help="on a centered plane spec, add the dense-sweep distance "
                         "oracle_distance to the certificate's search")
    common(sp, ("radial", "radial grid of plane specs"))
    sp.set_defaults(fn=cmd_stability)

    sp = sub.add_parser("heatflow", help="heat semigroup run from a sphere spec's density e^u")
    sp.add_argument("spec", help='a sphere spec, e.g. "1+0.5*P1" or band-limited-random:seed=7')
    sp.add_argument("--T", type=_finite_positive("T"), default=1.0)
    sp.add_argument("--samples", type=_positive_count, default=33)
    sp.add_argument("--csv", help="write the trajectory CSV here")
    common(sp)
    sp.set_defaults(fn=cmd_heatflow)

    sp = sub.add_parser("ks", help="critical-mass Keller-Segel run (flow ks)")
    sp.add_argument("spec", help='e.g. "8pi*optimizer:s=1"')
    sp.add_argument("--T", type=_finite_positive("T"), default=None)
    sp.add_argument("--samples", type=_positive_count, default=64)
    sp.add_argument("--csv", help="write the trajectory CSV here")
    common(sp, ("ks", "Keller-Segel flow grid"))
    sp.set_defaults(fn=cmd_ks)

    sp = sub.add_parser("duality-demo", help="convex duality transfer demo")
    sp.add_argument("--dim", type=int, choices=(1, 2), default=1)
    common(sp)
    sp.set_defaults(fn=cmd_duality_demo)

    sp = sub.add_parser("suite", help="run the acceptance matrix")
    sp.add_argument("--ids", help="comma-separated criterion ids, e.g. A01,A06")
    sp.add_argument("--json", action="store_true", help="machine-readable summary")
    common(sp, ("radial", "radial grid of the planar criteria"))
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
