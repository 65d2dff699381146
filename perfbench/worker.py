"""One benchmark process: import loghls, set up a workload, run its items.

Started by ``run.py``; not meant to be run by hand.  The process prints
``READY`` once set-up is done (the parent times set-up from its spawn to
that line), then, unless ``--setup-only`` is given, runs whole rounds of
items, one at a time, until ``--seconds`` have passed, and prints one
JSON line with the item times, the failures and the peak memory.

The program is called only through names it exports (the ``loghls`` top
level and each module's ``__all__``), the same functions the CLI
commands call, and always by attribute at call time so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import json
import math
import resource
import sys
import traceback

import numpy as np

import checks
from layers import Tracer

T_KS = 10.0             # ks-flow horizon
SPHERE_FAULT = "band-limited-random:seed=21,L=3,amplitude=0.1"
PLANE_FAULT = ((0.5, 0.5), (1.0, 3.0), (1.0, -1.0))     # weights, scales, offset
SWEEP = np.exp(np.linspace(-6.0, 6.0, 1001))            # s of the dense sweep


# ----------------------------------------------------------------------
# inputs: an endless sequence of rounds of (spec, kind), drawn from the
# workload's rng; kind "fault" marks the fixed item of a named fault
# ----------------------------------------------------------------------

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _mixture(weights, scales, offset=(0.0, 0.0)) -> str:
    """Planar mixture of optimizers s^-2 h(x/s - x0), all centered at offset."""
    comps = "|".join(f"optimizer:s={s!r},x0=({offset[0] / s!r},{offset[1] / s!r})"
                     for s in scales)
    return f"mixture:weights=({','.join(repr(w) for w in weights)}),components=({comps})"


def sphere_rounds(rng):
    """Six seeded fields, one of each L in 3..8 with stratified amplitudes
    in [0.1, 0.3], then the fixed field that the t = 0 search fault hits
    every time."""
    while True:
        amps = 0.1 + 0.2 * (rng.permutation(6) + rng.random(6)) / 6.0
        items = [(f"band-limited-random:seed={int(rng.integers(2**31))},L={L},"
                  f"amplitude={float(a)!r}", "seeded")
                 for L, a in zip(rng.permutation(np.arange(3, 9)), amps)]
        yield items + [(SPHERE_FAULT, "fault")]


def plane_rounds(rng):
    """Six seeded mixtures (two each of 1, 2 and 3 components, scales
    log-uniform in [0.5, 3], offsets in [-2, 2]^2), then the fixed
    mixture whose translated copy the Cartesian tail fault hits every
    time."""
    while True:
        items = []
        for k in rng.permutation([1, 1, 2, 2, 3, 3]):
            weights = rng.dirichlet(np.ones(k))
            weights[-1] = 1.0 - float(np.sum(weights[:-1]))
            scales = np.exp(rng.uniform(math.log(0.5), math.log(3.0), k))
            offset = rng.uniform(-2.0, 2.0, 2)
            items.append(((tuple(map(float, weights)), tuple(map(float, scales)),
                           tuple(map(float, offset))), "seeded"))
        yield items + [(PLANE_FAULT, "fault")]


def ks_rounds(rng):
    """Four near-equilibrium starts (two perturbed optimizers, two
    two-scale mixtures, scales in [1.5, 3]) and two Gaussians, in seeded
    order.  The Gaussians' sigma follow a golden-ratio sequence in [1, 2]
    from a seeded start, so every run spreads them evenly over the range
    whatever its length; their cost falls steeply from sigma = 1."""
    start, k = rng.random(), 0
    while True:
        items = []
        for _ in range(2):
            items.append((f"perturbed-optimizer:eps={float(rng.uniform(0.05, 0.3))!r},"
                          f"mode={int(rng.integers(1, 3))},s={float(rng.uniform(1.5, 3.0))!r}",
                          "near-equilibrium"))
            w = float(rng.uniform(0.2, 0.8))
            items.append((_mixture((w, 1.0 - w), tuple(map(float, rng.uniform(1.5, 3.0, 2)))),
                          "near-equilibrium"))
        for _ in range(2):
            items.append((f"gaussian:sigma={1.0 + (start + k * GOLDEN) % 1.0!r}", "gaussian"))
            k += 1
        yield [items[i] for i in rng.permutation(len(items))]


# ----------------------------------------------------------------------
# items: timed program calls, then the benchmark's checks
# ----------------------------------------------------------------------

def sphere_item(lh, cfg, text: str, kind: str):
    t0 = time.perf_counter()
    u = lh.specs.realize_sphere(lh.parse_input_spec(text), cfg)
    # loghls stability: three Onofri certificates, then log-HLS of e^u - 1
    certs = lh.onofri_stability_certificates(u)
    fvals = np.exp(u.values)
    fvals = fvals - lh.integrate(fvals, u.grid)
    scert = lh.spherical_stability_certificate(lh.SphereField(u.grid, fvals))
    # A05: recenter, then the Onofri certificates again
    res = lh.recenter(u)
    recentered = lh.onofri_stability_certificates(res.field)
    elapsed = time.perf_counter() - t0

    w = u.grid.weights
    pts = u.grid.points()
    dens = w * np.exp(res.field.values)
    out = {
        "J": certs[0].value,
        "J_recentered": recentered[0].value,
        "onofri": [(c.inequality, c.distance, c.gap, r.distance, r.gap)
                   for c, r in zip(certs, recentered)],
        "H_S": scert.value,
        "sphere_distance": scert.distance,
        "sphere_gap": scert.gap,
        "barycenter_norm": float(np.linalg.norm([np.sum(dens * pts[..., i]) for i in range(3)])),
        "mass_recentered": float(np.sum(dens)),
        "l1_to_one": float(np.sum(w * np.abs(np.exp(u.values) - 1.0))),
    }
    return elapsed, checks.sphere_checks(out, fault=kind == "fault")


def _sweep_min(rho) -> float:
    """min over SWEEP of ||rho - h_s||_1 on the radial grid."""
    w, r, v = rho.grid.weights, rho.grid.nodes, rho.values
    best = math.inf
    for chunk in np.array_split(SWEEP, 16):
        s = chunk[:, None]
        h = (1.0 / (np.pi * s * s)) * (1.0 + (r[None, :] / s) ** 2) ** -2
        best = min(best, float(np.min(np.sum(w * np.abs(v - h), axis=1))))
    return best


def plane_item(lh, cfg, params, kind: str):
    weights, scales, offset = params
    t0 = time.perf_counter()
    # centered: loghls eval and loghls stability on the radial path
    rho = lh.specs.realize_planar(lh.parse_input_spec(_mixture(weights, scales)), cfg)
    H = lh.planar_free_energy_report(rho).total
    cert = lh.planar_stability_certificate(rho)
    # A10: the lift's transfer identity
    lifted = lh.lift_T(rho)
    f = lh.SphereField(lifted.grid, lifted.values - lifted.mean(), axisymmetric=True)
    H_lift = lh.spherical_free_energy(f).total
    # translated: loghls eval on the off-center (Cartesian) path
    moved = lh.specs.realize_planar(
        lh.parse_input_spec(_mixture(weights, scales, offset)), cfg)
    H_translated = lh.planar_free_energy_report(moved).total
    elapsed = time.perf_counter() - t0

    out = {"H": H, "gap": cert.gap, "distance": cert.distance,
           "sweep_min": _sweep_min(rho), "H_lift": H_lift, "H_translated": H_translated}
    return elapsed, checks.plane_checks(out, fault=kind == "fault")


def ks_item(lh, cfg, text: str, kind: str):
    t0 = time.perf_counter()
    # loghls ks "8pi*<spec>" --T 10 at the CLI defaults
    rho = lh.specs.realize_planar(lh.parse_input_spec(text), cfg)
    mass = lh.flows.KS_MASS
    prof = rho.profile
    scaled = lh.RadialDensity(rho.grid, mass * rho.values,
                              profile=lambda r, _p=prof: mass * _p(r))
    traj, _state = lh.ks_evolve(scaled, dt=cfg.ks_dt, T=T_KS, n=cfg.ks_n,
                                r_min=cfg.ks_rmin, r_max=cfg.ks_rmax, n_samples=64)
    elapsed = time.perf_counter() - t0

    out = {"times": traj.times.tolist(), "free_energy": traj.free_energy.tolist(),
           "distance": traj.distance_L1.tolist(), "mass_error": traj.mass_error.tolist(),
           "T": T_KS,
           "max_fe_increase": traj.diagnostics["max_free_energy_increase_per_step"]}
    return elapsed, checks.ks_checks(out, gaussian=kind == "gaussian")


def setup_sphere(lh, cfg) -> None:
    grid = cfg.sphere_grid()
    lh.fields.get_transform(grid)                 # degree-127 tables
    for L in range(3, 9):                         # band-limited synthesis tables
        lh.fields.get_transform(grid, lmax=L)


def setup_plane(lh, cfg) -> None:
    rho = lh.specs.realize_planar(lh.parse_input_spec(_mixture((1.0,), (1.0,))), cfg)
    lh.lift_T(rho)                                # lift grid
    weights, scales, offset = PLANE_FAULT
    moved = lh.specs.realize_planar(
        lh.parse_input_spec(_mixture(weights, scales, offset)), cfg)
    lh.log_interaction(moved)                     # truncated-kernel FFT cache


def setup_ks(lh, cfg) -> None:
    cfg.radial_grid()


WORKLOADS = {
    "sphere-certify": (setup_sphere, sphere_rounds, sphere_item),
    "plane-certify": (setup_plane, plane_rounds, plane_item),
    "ks-flow": (setup_ks, ks_rounds, ks_item),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    setup, make_rounds, run_item = WORKLOADS[args.workload]

    import loghls as lh
    import_s = time.perf_counter() - _T_START
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    cfg = lh.RunConfig()
    setup(lh, cfg)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    at_setup_end = tracer.snapshot() if tracer else {}
    rounds = make_rounds(np.random.default_rng(args.seed))
    times, failures = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        for spec, kind in next(rounds):
            t_item = time.perf_counter()
            try:
                elapsed, failed = run_item(lh, cfg, spec, kind)
            except Exception as exc:          # an item that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                elapsed, failed = time.perf_counter() - t_item, [f"raised {type(exc).__name__}"]
            times.append(elapsed)
            if failed:
                failures.append({"item": str(spec), "fault": kind == "fault", "failed": failed})

    report = {"times": times, "failures": failures, "import_s": import_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        report["layers"] = tracer.metrics(at_setup_end, len(times))
        report["absent"] = sorted(tracer.absent)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
