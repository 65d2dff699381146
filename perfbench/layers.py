"""Per-layer tracing for the benchmark's traced run.

The benchmark's own files wrap loghls functions under the name their
caller looks up (a module global such as ``loghls.optimizers.minimize``,
a class attribute such as ``SphereTransform.analyze``, or a top-level
``loghls`` name the benchmark itself calls).  Nothing inside loghls is
edited.  Each wrapper adds its call count, its inclusive wall time and,
where named, a count taken from the result.  A site that no longer
exists is recorded as absent and its metrics are left out; the run goes
on.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# stem -> (sites, result counter).  A site is "module:attribute" or
# "module:Class.method".  Several sites of one stem share its totals; a
# call made while another call of the same stem is open is not counted
# twice.
LAYERS = {
    "grids.radial_build": (["loghls.specs:make_radial_grid"], None),
    "sht.transform_build": (["loghls.sht:SphereTransform.__init__"], None),
    "geometry.optimizer_values": (["loghls.optimizers:sphere_optimizer_values",
                                   "loghls.geometry:sphere_optimizer_values"], None),
    "geometry.conformal_push": (["loghls.optimizers:conformal_push"], None),
    "optimizers.sphere_search": (["loghls.stability:nearest_sphere_gradient",
                                  "loghls.stability:nearest_sphere_reverse_entropy",
                                  "loghls.stability:nearest_sphere_L1"], None),
    "optimizers.nelder_mead": (["loghls.optimizers:minimize"], lambda res: res.nfev),
    "optimizers.recenter": (["loghls:recenter"], lambda res: res.iterations),
    "sht.analyze": (["loghls.sht:SphereTransform.analyze"], None),
    "sht.synthesize": (["loghls.sht:SphereTransform.synthesize"], None),
    "functionals.dirichlet_energy": (["loghls.functionals:dirichlet_energy",
                                      "loghls.optimizers:dirichlet_energy"], None),
    "functionals.onofri": (["loghls.stability:onofri_functional"], None),
    "functionals.log_interaction": (["loghls.functionals:log_interaction"], None),
    "functionals.entropy_term": (["loghls.functionals:entropy_term"], None),
    "functionals.spherical_free_energy": (["loghls.stability:spherical_free_energy",
                                           "loghls:spherical_free_energy"], None),
    "specs.realize": (["loghls.specs:realize_planar", "loghls.specs:realize_sphere"], None),
    "optimizers.planar_search": (["loghls.stability:nearest_planar_L1"],
                                 lambda res: res[2].evaluations),
    "geometry.lift": (["loghls:lift_T"], None),
    "sht.legendre_analyze": (["loghls.fields:legendre_analyze",
                              "loghls.functionals:legendre_analyze"], None),
    "stability.onofri_certificates": (["loghls:onofri_stability_certificates"], None),
    "stability.spherical_certificate": (["loghls:spherical_stability_certificate"], None),
    "stability.planar_certificate": (["loghls:planar_stability_certificate"], None),
    "flows.ks_solve": (["loghls.flows:solve_banded"], None),
    "flows.ks_free_energy": (["loghls.flows:ks_free_energy"], None),
    "flows.ks_distance": (["loghls.flows:ks_distance"], None),
    "flows.ks_evolve": (["loghls:ks_evolve"], None),
}

# Built once per process, reported as the total over the process.
PER_PROCESS = {
    "grids.radial_build_s": ("grids.radial_build", "s"),
    "sht.transform_build_s": ("sht.transform_build", "s"),
}

# Reported per timed item.
PER_ITEM = {
    "geometry.optimizer_values_calls": ("geometry.optimizer_values", "calls"),
    "geometry.optimizer_values_s": ("geometry.optimizer_values", "s"),
    "geometry.conformal_push_calls": ("geometry.conformal_push", "calls"),
    "geometry.conformal_push_s": ("geometry.conformal_push", "s"),
    "optimizers.sphere_search_calls": ("optimizers.sphere_search", "calls"),
    "optimizers.sphere_search_s": ("optimizers.sphere_search", "s"),
    "optimizers.nelder_mead_nfev": ("optimizers.nelder_mead", "count"),
    "optimizers.recenter_iterations": ("optimizers.recenter", "count"),
    "optimizers.recenter_s": ("optimizers.recenter", "s"),
    "sht.analyze_calls": ("sht.analyze", "calls"),
    "sht.analyze_s": ("sht.analyze", "s"),
    "sht.synthesize_s": ("sht.synthesize", "s"),
    "functionals.dirichlet_energy_s": ("functionals.dirichlet_energy", "s"),
    "functionals.onofri_s": ("functionals.onofri", "s"),
    "functionals.log_interaction_calls": ("functionals.log_interaction", "calls"),
    "functionals.log_interaction_s": ("functionals.log_interaction", "s"),
    "functionals.entropy_term_s": ("functionals.entropy_term", "s"),
    "functionals.spherical_free_energy_s": ("functionals.spherical_free_energy", "s"),
    "specs.realize_s": ("specs.realize", "s"),
    "optimizers.planar_search_evals": ("optimizers.planar_search", "count"),
    "optimizers.planar_search_s": ("optimizers.planar_search", "s"),
    "geometry.lift_s": ("geometry.lift", "s"),
    "sht.legendre_analyze_s": ("sht.legendre_analyze", "s"),
    "stability.onofri_certificates_s": ("stability.onofri_certificates", "s"),
    "stability.spherical_certificate_s": ("stability.spherical_certificate", "s"),
    "stability.planar_certificate_s": ("stability.planar_certificate", "s"),
    "flows.ks_steps": ("flows.ks_solve", "calls"),
    "flows.ks_solve_s": ("flows.ks_solve", "s"),
    "flows.ks_free_energy_calls": ("flows.ks_free_energy", "calls"),
    "flows.ks_free_energy_s": ("flows.ks_free_energy", "s"),
    "flows.ks_distance_s": ("flows.ks_distance", "s"),
    "flows.ks_evolve_s": ("flows.ks_evolve", "s"),
}

# Self time of ks_evolve: its inclusive time less the wrapped calls inside it.
KS_OTHER = ("flows.ks_other_s", "flows.ks_evolve_s",
            ("flows.ks_solve_s", "flows.ks_free_energy_s", "flows.ks_distance_s"))


def _resolve(site: str):
    """(owner, attribute) of a site, or None when it no longer exists."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Counts and times the wrapped calls of one process."""

    def __init__(self):
        self.totals = defaultdict(float)      # "stem.s", "stem.calls", "stem.count"
        self.absent: set[str] = set()
        self._open = defaultdict(int)

    def install(self) -> None:
        for stem, (sites, counter) in LAYERS.items():
            resolved = [_resolve(site) for site in sites]
            if any(r is None for r in resolved):
                self.absent.add(stem)
                continue
            for owner, attr in resolved:
                setattr(owner, attr, self._wrap(stem, getattr(owner, attr), counter))

    def _wrap(self, stem, original, counter):
        totals, is_open = self.totals, self._open

        def traced(*args, **kwargs):
            if is_open[stem]:
                return original(*args, **kwargs)
            is_open[stem] += 1
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                totals[stem + ".s"] += time.perf_counter() - t0
                is_open[stem] -= 1
            totals[stem + ".calls"] += 1
            if counter is not None:
                totals[stem + ".count"] += counter(result)
            return result

        return traced

    def snapshot(self) -> dict:
        return dict(self.totals)

    def metrics(self, at_setup_end: dict, n_items: int) -> dict:
        """Per-process and per-item metric values; absent layers left out."""
        out = {}
        for name, (stem, field) in PER_PROCESS.items():
            if stem not in self.absent:
                out[name] = self.totals[f"{stem}.{field}"]
        for name, (stem, field) in PER_ITEM.items():
            if stem not in self.absent:
                key = f"{stem}.{field}"
                out[name] = (self.totals[key] - at_setup_end.get(key, 0.0)) / n_items
        name, whole, parts = KS_OTHER
        if whole in out and all(p in out for p in parts):
            out[name] = out[whole] - sum(out[p] for p in parts)
        return out
