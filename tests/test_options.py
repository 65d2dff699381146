"""The option surface of the library: every parameter with a default,
every command-line flag and every configuration key.

A default is a setting some caller may change by keyword, so a tolerance
or limit given one would let any caller loosen it unseen.  Tolerances
and iteration limits are named module constants instead, and this test
pins the defaulted parameters that remain.  The same rule holds for the
flags and the ``RunConfig`` keys: each one changes the output of a
command that accepts it, and a setting with one value in use is a
constant.
"""

import argparse
import ast
from dataclasses import fields
from pathlib import Path

import loghls
from loghls.cli import build_parser

SRC = Path(loghls.__file__).parent

DEFAULTED = {
    "cli._meta(spec)",
    "cli.main(argv)",
    "fields.get_transform(lmax)",
    "fields.SphereField.from_fn(axisymmetric)",
    "flows.ks_evolve(dt)",
    "geometry.lift_T(grid)",
    "optimizers.golden_section(tol)",
    "stability.planar_stability_certificate(oracle)",
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


def test_config_keys_are_pinned():
    found = {f.name for f in fields(loghls.RunConfig)}
    assert found == CONFIG_KEYS, (
        f"added: {sorted(found - CONFIG_KEYS)}, removed: {sorted(CONFIG_KEYS - found)}.  "
        "A configuration key needs a command or criterion that reads it with "
        "more than one value in use; update CONFIG_KEYS only for such a key.")
