"""Each check of the benchmark accepts a value just inside its bound and
rejects one pushed just past it.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402


def sphere_out() -> dict:
    return {
        "J": 0.01,
        "J_recentered": 0.01,
        "onofri": [("gradient", 0.2, 5e-3, 0.2, 5e-3), ("entropy", 0.1, 5e-3, 0.1, 5e-3),
                   ("L1", 0.15, 4e-3, 0.15, 4e-3)],
        "H_S": 0.02,
        "sphere_distance": 0.2,
        "sphere_gap": 0.015,
        "barycenter_norm": 0.0,
        "mass_recentered": 1.0,
        "l1_to_one": 0.3,
    }


def plane_out() -> dict:
    return {"H": 0.02, "gap": 1e-3, "distance": 0.3, "sweep_min": 0.31,
            "H_lift": 0.02, "H_translated": 0.02}


def ks_out() -> dict:
    return {"times": [0.0, 5.0, 10.0], "free_energy": [checks.GAUSSIAN_FREE_ENERGY, 0.05, 0.01],
            "distance": [1.0, 0.5, 0.2], "mass_error": [0.0, 0.0, 0.0], "T": 10.0,
            "max_fe_increase": 0.0}


def _set_list(key, index):
    def setter(out, v):
        out[key][index] = v
    return setter


def _set_onofri(form, field, **fixed):
    """Setter of one field (1 distance, 2 gap, 3 recentered distance, 4
    recentered gap) of one Onofri certificate."""
    def setter(out, v):
        out.update(fixed)
        entry = list(out["onofri"][form])
        entry[field] = v
        out["onofri"][form] = tuple(entry)
    return setter


def _set(**fixed):
    """Setter of one key (the one given as None), other keys set as given."""
    (key,) = [k for k, v in fixed.items() if v is None]

    def setter(out, v):
        out.update({k: val for k, val in fixed.items() if val is not None})
        out[key] = v
    return setter


GAP_TOL = checks.certificate_tolerance(0.01)
H_S_TOL = checks.certificate_tolerance(0.02)
KS_BOUND = checks.KS_MASS * math.sqrt(8.0 * 0.01) + checks.KS_BOUND_SLACK

# (check name, outputs, checker, setter, bound, step past the bound)
CASES = [
    ("gap[gradient, recentered]", sphere_out, checks.sphere_checks, _set_onofri(0, 4),
     -GAP_TOL, -1e-2 * GAP_TOL),
    ("gap[entropy]", sphere_out, checks.sphere_checks, _set_onofri(1, 2),
     -GAP_TOL, -1e-2 * GAP_TOL),
    ("distance conformal invariance[L1]", sphere_out, checks.sphere_checks,
     _set_onofri(2, 3), 0.15 / (1.0 - checks.DISTANCE_REL_TOL),
     1e-2 * checks.DISTANCE_REL_TOL * 0.15),
    # H_S - d^2/8 at the smaller of the two L1 distances, here the recentered one
    ("log-HLS (sphere) inequality", sphere_out, checks.sphere_checks,
     _set_onofri(2, 3, H_S=0.021, sphere_distance=1.0),
     math.sqrt(8.0 * (0.021 + checks.certificate_tolerance(0.021))), 1e-6),
    ("gap[log-HLS (sphere)]", sphere_out, checks.sphere_checks, _set(sphere_gap=None),
     -H_S_TOL, -1e-2 * H_S_TOL),
    ("J>=0", sphere_out, checks.sphere_checks, _set(J=None, J_recentered=0.0), 0.0, -1e-12),
    ("J conformal invariance", sphere_out, checks.sphere_checks,
     _set(J=0.0, J_recentered=None), checks.RECENTER_J_TOL, 1e-2 * checks.RECENTER_J_TOL),
    ("recentered barycenter", sphere_out, checks.sphere_checks, _set(barycenter_norm=None),
     checks.BARYCENTER_TOL, 1e-2 * checks.BARYCENTER_TOL),
    ("recentered mass", sphere_out, checks.sphere_checks, _set(mass_recentered=None),
     1.0 + checks.MASS_TOL, 1e-2 * checks.MASS_TOL),
    ("L1 distance <= ||e^u - 1||_1", sphere_out, checks.sphere_checks,
     _set_onofri(2, 1), 0.3 + checks.SUM_SLACK, 1e-2 * checks.SUM_SLACK),
    ("gap", plane_out, checks.plane_checks, _set(gap=None),
     -checks.PLANAR_GAP_TOL, -1e-2 * checks.PLANAR_GAP_TOL),
    ("distance <= dense sweep", plane_out, checks.plane_checks, _set(distance=None),
     0.31 + checks.SWEEP_TOL, 1e-2 * checks.SWEEP_TOL),
    ("transfer identity", plane_out, checks.plane_checks, _set(H_lift=None, H=0.0),
     checks.TRANSFER_TOL, 1e-2 * checks.TRANSFER_TOL),
    ("translated H >= 0", plane_out, checks.plane_checks, _set(H_translated=None),
     -checks.TRANSLATION_TOL, -1e-2 * checks.TRANSLATION_TOL),
    ("translation invariance", plane_out, checks.plane_checks, _set(H_translated=None, H=0.0),
     checks.TRANSLATION_TOL, 1e-2 * checks.TRANSLATION_TOL),
    ("mass error", ks_out, checks.ks_checks, _set_list("mass_error", 2),
     checks.KS_MASS_TOL, 1e-2 * checks.KS_MASS_TOL),
    ("free energy increase per step", ks_out, checks.ks_checks, _set(max_fe_increase=None),
     checks.KS_FE_INCREASE_TOL, 1e-2 * checks.KS_FE_INCREASE_TOL),
    ("H>=0", ks_out, checks.ks_checks, _set_list("free_energy", 2), 0.0, -1e-12),
    ("d <= 8pi sqrt(8H)", ks_out, checks.ks_checks, _set_list("distance", 2),
     KS_BOUND, 1e-2 * checks.KS_BOUND_SLACK),
    ("reached T", ks_out, checks.ks_checks, _set_list("times", 2), 10.0 - 1e-12, -1e-13),
    ("gaussian H(0)", ks_out, checks.ks_checks, _set_list("free_energy", 0),
     checks.GAUSSIAN_FREE_ENERGY + checks.GAUSSIAN_H_TOL, 1e-2 * checks.GAUSSIAN_H_TOL),
]


def _run(make, checker, setter, value):
    out = make()
    setter(out, value)
    if checker is checks.ks_checks:
        return checker(out, gaussian=True)
    return checker(out, fault=True)


def test_passing_items_pass():
    assert checks.sphere_checks(sphere_out(), fault=True) == []
    assert checks.plane_checks(plane_out(), fault=True) == []
    assert checks.ks_checks(ks_out(), gaussian=True) == []


@pytest.mark.parametrize("name,make,checker,setter,bound,step", CASES,
                         ids=[c[0] for c in CASES])
def test_check_rejects_value_just_past_bound(name, make, checker, setter, bound, step):
    assert name not in _run(make, checker, setter, bound - step)
    assert name in _run(make, checker, setter, bound + step)


def test_fault_checks_run_only_on_fault_items():
    out = sphere_out()
    out["onofri"][0] = ("gradient", 0.5, -1.0, 0.2, 5e-3)
    out["sphere_gap"] = -1.0
    assert checks.sphere_checks(out, fault=False) == []
    out = plane_out()
    out["H_translated"] = 0.05
    assert checks.plane_checks(out, fault=False) == []
    out = ks_out()
    out["free_energy"][0] = 0.5
    assert checks.ks_checks(out, gaussian=False) == []


def test_nan_is_rejected():
    out = ks_out()
    out["free_energy"][1] = math.nan
    assert "H>=0" in checks.ks_checks(out, gaussian=False)
    out = plane_out()
    out["H_lift"] = math.nan
    assert "transfer identity" in checks.plane_checks(out, fault=False)
