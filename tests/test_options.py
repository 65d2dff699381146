"""The surface of the library: every parameter with a default, every
command-line flag, every configuration key and every public name.

A default is a setting some caller may change by keyword, so a tolerance
or limit given one would let any caller loosen it unseen.  Tolerances
and iteration limits are named module constants instead, and this test
pins the defaulted parameters that remain.  The same rule holds for the
flags and the ``RunConfig`` keys: each one changes the output of a
command that accepts it, and a setting with one value in use is a
constant.  A name the package exports is one that a command, an
acceptance criterion or the benchmark enters.
"""

import argparse
import ast
from dataclasses import fields
from pathlib import Path

import loghls
from loghls.cli import COMMAND_CONFIG_KEYS, build_parser

SRC = Path(loghls.__file__).parent

DEFAULTED = {
    "cli._meta(spec)",
    "cli.main(argv)",
    "fields.get_transform(lmax)",
    "fields.SphereField.from_fn(axisymmetric)",
    "flows.ks_evolve(dt)",
    "geometry.lift_T(grid)",
    "optimizers.golden_section(tol)",
}


def _defaulted(body, prefix: str):
    """``prefix + function(param)`` for each defaulted parameter of the
    functions and methods in ``body``; nested functions are not scanned."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            names = [p.arg for p in positional[len(positional) - len(a.defaults):]]
            names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            yield from (f"{prefix}{node.name}({name})" for name in names)
        elif isinstance(node, ast.ClassDef):
            yield from _defaulted(node.body, f"{prefix}{node.name}.")


def test_defaulted_parameters_are_pinned():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_defaulted(ast.parse(path.read_text()).body, f"{path.stem}."))
    assert found == DEFAULTED, (
        f"added: {sorted(found - DEFAULTED)}, removed: {sorted(DEFAULTED - found)}.  "
        "A new option needs two callers outside the tests that need different "
        "values; a value that one caller uses is a module constant.  Update "
        "DEFAULTED only for such an option, or for one that is gone.")


FLAGS = {
    "eval": {"--config", "--grid-n", "--rmax", "--out"},
    "stability": {"--config", "--grid-n", "--rmax", "--oracle", "--out"},
    "heatflow": {"--T", "--samples", "--csv", "--config", "--out"},
    "ks": {"--T", "--samples", "--csv", "--config", "--grid-n", "--rmax", "--out"},
    "duality-demo": {"--dim", "--config", "--out"},
    "suite": {"--ids", "--json", "--config", "--grid-n", "--rmax", "--out"},
}

CONFIG_KEYS = {
    "radial_n", "radial_rmax", "radial_span", "sphere_nz", "sphere_nphi", "circle_n",
    "ks_n", "ks_rmin", "ks_rmax", "ks_T", "ks_dt", "out",
}


def test_command_flags_are_pinned():
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    found = {name: {flag for action in sp._actions for flag in action.option_strings
                    if flag not in ("-h", "--help")}
             for name, sp in commands.choices.items()}
    assert found == FLAGS, (
        "A flag must change the output of every command that accepts it; "
        "update FLAGS only for such a flag, or for one that is gone.")


_RADIAL = {"radial_n", "radial_rmax", "radial_span"}
COMMAND_KEYS = {
    "eval": _RADIAL | {"sphere_nz", "sphere_nphi", "circle_n", "out"},
    "stability": _RADIAL | {"sphere_nz", "sphere_nphi", "circle_n", "out"},
    "heatflow": {"sphere_nz", "sphere_nphi", "out"},
    "ks": _RADIAL | {"ks_n", "ks_rmin", "ks_rmax", "ks_T", "ks_dt", "out"},
    "duality-demo": {"out"},
    "suite": CONFIG_KEYS - {"ks_dt"},
}


def test_config_keys_are_pinned():
    found = {f.name for f in fields(loghls.RunConfig)}
    assert found == CONFIG_KEYS, (
        f"added: {sorted(found - CONFIG_KEYS)}, removed: {sorted(CONFIG_KEYS - found)}.  "
        "A configuration key needs a command or criterion that reads it with "
        "more than one value in use; update CONFIG_KEYS only for such a key.")


def test_each_command_config_keys_are_pinned():
    """The keys a command's config file may set are the keys it reads, and
    every key is read by some command."""
    assert COMMAND_CONFIG_KEYS == COMMAND_KEYS, (
        "A command accepts a config key only if it reads it; update COMMAND_KEYS "
        "only for a key a command has begun or stopped reading.")
    assert set().union(*COMMAND_KEYS.values()) == CONFIG_KEYS
    assert set(COMMAND_KEYS) == set(FLAGS)


PUBLIC = {
    "gibbs_density", "half_convexity_gap", "log_partition", "pinsker_gap",
    "relative_entropy", "small_set_delta", "strong_young_gap",
    "LogHLSError",
    "CircleField", "PlanarDensity", "RadialDensity", "SphereField", "radial_from_profile",
    "HeatState", "KSState", "FlowTrajectory", "decay_check", "dissipation_check",
    "heat_evolve", "heat_state", "ks_evolve", "ks_rate_fit", "reverse_entropy",
    "dirichlet_energy", "half_laplacian_energy", "lebedev_milin_functional",
    "log_interaction", "onofri_functional", "planar_free_energy",
    "planar_free_energy_report", "sphere_green_apply", "spherical_free_energy",
    "ConformalParams", "conformal_push", "lift_T", "planar_from_profile",
    "CircleGrid", "RadialGrid", "SphereGrid", "integrate",
    "make_circle_grid", "make_radial_grid", "make_sphere_grid",
    "CircleOptimizerParams", "PlanarOptimizerParams", "SearchDiagnostics",
    "SphereOptimizerParams", "circle_optimizer", "nearest_planar_L1", "recenter",
    "sphere_optimizer",
    "RunConfig", "format_input_spec", "parse_input_spec",
    "ConvexPairSpec", "StabilityCertificate", "circle_stability_certificate",
    "onofri_stability_certificates", "planar_stability_certificate",
    "spherical_stability_certificate", "toy_duality_demo",
}


def test_public_names_are_pinned():
    tree = ast.parse((SRC / "__init__.py").read_text())
    found = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert found == PUBLIC, (
        f"added: {sorted(found - PUBLIC)}, removed: {sorted(PUBLIC - found)}.  "
        "The package exports a name only if a command, an acceptance criterion "
        "or the benchmark enters it; a function only the tests call belongs "
        "in the tests.  Update PUBLIC only for such a name, or for one that is gone.")
