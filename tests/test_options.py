"""The option surface of the library: every parameter with a default.

A default is a setting some caller may change by keyword, so a tolerance
or limit given one would let any caller loosen it unseen.  Tolerances
and iteration limits are named module constants instead, and this test
pins the defaulted parameters that remain.
"""

import ast
from pathlib import Path

import loghls

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
