"""Input mini-language and run configuration.

Specs are flat ``kind:key=value,key=value`` strings; values are numbers,
number tuples ``(a,b)``, or for mixtures a ``|``-separated list of
sub-specs inside parentheses.  Formatting is canonical, so
format(parse(s)) is idempotent and diffable in test fixtures.

Examples::

    gaussian:sigma=1
    optimizer:s=2,x0=(1,-1)
    mixture:weights=(0.5,0.5),components=(optimizer:s=1|optimizer:s=3)
    perturbed-optimizer:eps=0.3,mode=1
    sphere-optimizer:t=1,n=(0,0,1)
    band-limited-random:seed=7,L=6,amplitude=0.25
    circle-poisson:r=0.5,alpha=0
    legendre:c0=1,c1=0.5        (the zonal density 1 + 0.5 P_1(z); "1+0.5*P1" also parses)
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields as dc_fields

import numpy as np
from numpy.polynomial.legendre import legval

from .errors import DomainError, ParseError, PositivityError
from .fields import CircleField, SphereField, get_transform, radial_from_profile
from .flows import DT_CAP, KS_N, KS_R_MAX, KS_R_MIN
from .functionals import MASS_TOL, radial_grid_misfit
from .geometry import planar_from_profile
from .grids import (CIRCLE_N, SPHERE_NPHI, SPHERE_NZ, make_circle_grid, make_radial_grid,
                    make_sphere_grid)
from .optimizers import (CircleOptimizerParams, PlanarOptimizerParams,
                         SphereOptimizerParams, circle_optimizer,
                         planar_optimizer_profile, sphere_optimizer)

__all__ = ["InputSpec", "parse_input_spec", "format_input_spec", "RunConfig",
           "read_config_file", "realize_planar", "realize_sphere", "realize_circle",
           "spec_domain"]

_KINDS = {      # kind: (domain, its keys in canonical order with their defaults)
    "gaussian": ("plane", {"sigma": 1.0}),
    "optimizer": ("plane", {"s": 1.0, "x0": (0.0, 0.0)}),
    "mixture": ("plane", {"weights": None, "components": None}),    # None: required
    "perturbed-optimizer": ("plane", {"eps": 0.1, "mode": 1, "s": 1.0}),
    "sphere-optimizer": ("sphere", {"t": 1.0, "n": (0.0, 0.0, 1.0)}),
    "band-limited-random": ("sphere", {"seed": 0, "L": 6, "amplitude": 0.3}),
    "circle-poisson": ("circle", {"r": 0.5, "alpha": 0.0}),
    "circle-cos": ("circle", {"eps": 0.3}),
    "legendre": ("sphere", None),       # c0, c1, ... in index order
}
_PARAMS = {     # the kinds whose ranges are those of their optimizer's parameter type
    "sphere-optimizer": SphereOptimizerParams,
    "circle-poisson": CircleOptimizerParams,
}


@dataclass(frozen=True)
class InputSpec:
    kind: str
    params: tuple          # tuple of (key, value) pairs, canonical order

    def get(self, key):
        """The value of ``key``; None when the spec has no such key."""
        for k, v in self.params:
            if k == key:
                return v
        return None


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ')' in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced '(' in {text!r}")
    parts.append("".join(cur))
    return parts


def _parse_value(text: str):
    text = text.strip()
    is_tuple = text.startswith("(") and text.endswith(")")
    if is_tuple and ":" in text:
        return tuple(parse_input_spec(p) for p in _split_top(text[1:-1], "|"))
    try:
        return tuple(float(p) for p in _split_top(text[1:-1], ",")) if is_tuple else float(text)
    except ValueError as exc:
        raise ParseError(f"cannot parse value {text!r}") from exc


def _value_type(v) -> str:
    if isinstance(v, tuple):
        return "a list of specs" if isinstance(v[0], InputSpec) else "a tuple of numbers"
    return "a number"


_LEGENDRE_SHORTHAND = re.compile(
    r"^\s*([+-]?\s*\d*\.?\d*(?:[eE][+-]?\d+)?)\s*(?:\*\s*P(\d+))?\s*$")


def _parse_legendre_shorthand(text: str) -> "InputSpec | None":
    """Accept forms like "1+0.5*P1" or "1 + 0.3*P2" for a legendre spec."""
    terms = re.split(r"(?=[+-])", text.replace(" ", ""))
    coeffs: dict[int, float] = {}
    for term in terms:
        if not term:
            continue
        m = _LEGENDRE_SHORTHAND.match(term)
        if not m:
            return None
        num = m.group(1).replace(" ", "")
        if num in ("", "+"):
            num = "1"
        elif num == "-":
            num = "-1"
        try:
            val = float(num)
        except ValueError:
            return None
        k = int(m.group(2)) if m.group(2) is not None else 0
        coeffs[k] = coeffs.get(k, 0.0) + val
    if not coeffs:
        return None
    params = tuple((f"c{k}", coeffs[k]) for k in sorted(coeffs))
    _validate_spec("legendre", dict(params))
    return InputSpec("legendre", params)


def parse_input_spec(text: str) -> InputSpec:
    """Parse a spec string; raises ParseError with the offending fragment."""
    text = text.strip()
    if ":" not in text:
        short = _parse_legendre_shorthand(text)
        if short is not None:
            return short
        raise ParseError(f"spec {text!r} has no kind tag (expected 'kind:key=value,...')")
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise ParseError(f"unknown spec kind {kind!r} in {text!r}")
    raw: dict[str, object] = {}
    if rest.strip():
        for item in _split_top(rest, ","):
            if "=" not in item:
                raise ParseError(f"expected key=value, got {item!r} in {text!r}")
            k, _, v = item.partition("=")
            k = k.strip()
            if k in raw:
                raise ParseError(f"duplicate key {k!r} in {text!r}")
            raw[k] = _parse_value(v)
    keys = _KINDS[kind][1]
    if keys is None:             # legendre: c0, c1, ...
        if not raw or not all(re.fullmatch(r"c\d+", k) for k in raw):
            raise ParseError(f"a legendre spec takes one or more keys c0, c1, ...; got {list(raw)}")
        degrees: dict[int, str] = {}
        for k in raw:
            first = degrees.setdefault(int(k[1:]), k)
            if first != k:
                raise ParseError(f"legendre: keys {first!r} and {k!r} name the same degree "
                                 f"{int(k[1:])} in {text!r}")
        params, order = raw, sorted(raw, key=lambda k: int(k[1:]))
    else:
        for k, v in raw.items():
            if k not in keys:
                raise ParseError(f"unknown key {k!r} for kind {kind!r}")
            if keys[k] is not None and _value_type(v) != _value_type(keys[k]):
                raise ParseError(f"{kind}: {k} takes {_value_type(keys[k])}, got {_fmt_value(v)}")
        params = {k: v for k, v in keys.items() if v is not None}
        params.update(raw)
        order = [k for k in keys if k in params]
    _validate_spec(kind, params)
    return InputSpec(kind, tuple((k, params[k]) for k in order))


def _validate_spec(kind: str, p: dict) -> None:
    def need_pos(key):
        # a scale enters its profile as 1/x^2 and its tail as x^2: both must be finite
        x = p[key]
        if not (x > 0 and 0 < x * x < math.inf and 0 < 1 / (x * x) < math.inf):
            raise ParseError(f"{kind}: {key} must be a positive number with x^2 and x^-2 "
                             f"finite and nonzero, got {x!r}")

    if kind == "gaussian":
        need_pos("sigma")
    elif kind == "optimizer":
        need_pos("s")
        if len(p["x0"]) != 2:
            raise ParseError(f"optimizer: x0 must be a pair, got {p['x0']!r}")
    elif kind == "mixture":
        w = p.get("weights")
        comps = p.get("components")
        if not (isinstance(w, tuple) and isinstance(comps, tuple)
                and len(w) == len(comps) and len(w) >= 1):
            raise ParseError("mixture: weights and components must be lists of equal length")
        if not all(isinstance(c, InputSpec) for c in comps):
            raise ParseError("mixture: components must be sub-specs")
        if not all(isinstance(x, float) and x >= 0 for x in w) or abs(sum(w) - 1.0) > 1e-9:
            raise ParseError("mixture: weights must be nonnegative and sum to 1")
    elif kind == "perturbed-optimizer":
        need_pos("s")
        if not (0 <= float(p["eps"]) <= 0.5):
            raise ParseError(f"perturbed-optimizer: eps must lie in [0, 0.5], got {p['eps']!r}")
        if int(p["mode"]) not in (1, 2):
            raise ParseError(f"perturbed-optimizer: mode must be 1 or 2, got {p['mode']!r}")
    elif kind in _PARAMS:
        try:
            _PARAMS[kind](**p)
        except DomainError as exc:
            raise ParseError(f"{kind}: {exc}") from exc
    elif kind == "band-limited-random":
        if int(p["L"]) < 1 or int(p["L"]) > 32:
            raise ParseError(f"band-limited-random: L must lie in [1, 32], got {p['L']!r}")
        if not (0 < float(p["amplitude"]) <= 1.0):
            raise ParseError("band-limited-random: amplitude must lie in (0, 1]")
    elif kind == "circle-cos":
        if not (0 <= float(p["eps"]) <= 2.0):
            raise ParseError(f"circle-cos: eps must lie in [0, 2], got {p['eps']!r}")
    elif kind == "legendre":
        if not all(isinstance(v, float) and math.isfinite(v) for v in p.values()):
            raise ParseError(f"legendre: coefficients must be finite numbers, got {p!r}")
        c0 = p.get("c0", 0.0)
        if abs(c0 - 1.0) > 1e-12:        # the density's mass is c0; realize_sphere's e^u has mass 1
            raise ParseError(f"legendre: unit mass requires c0 = 1, got c0 = {c0!r}")


def _fmt_value(v) -> str:
    if isinstance(v, tuple):
        if v and isinstance(v[0], InputSpec):
            return "(" + "|".join(format_input_spec(c) for c in v) + ")"
        return "(" + ",".join(_fmt_number(x) for x in v) + ")"
    return _fmt_number(v)


def _fmt_number(x) -> str:
    f = float(x)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def format_input_spec(spec: InputSpec) -> str:
    return spec.kind + ":" + ",".join(f"{k}={_fmt_value(v)}" for k, v in spec.params)


def spec_domain(spec: InputSpec) -> str:
    return _KINDS[spec.kind][0]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass
class RunConfig:
    """Grid sizes, Keller-Segel run settings and the output path."""

    radial_n: int = 4096
    radial_rmax: float = 1e4
    radial_span: float = 25.0
    sphere_nz: int = SPHERE_NZ
    sphere_nphi: int = SPHERE_NPHI
    circle_n: int = CIRCLE_N
    ks_n: int = KS_N
    ks_rmin: float = KS_R_MIN
    ks_rmax: float = KS_R_MAX
    ks_T: float = 50.0
    ks_dt: float | None = None
    out: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.radial_n < 16 or self.radial_rmax <= 0 or self.radial_span <= 0:
            raise DomainError("RunConfig: invalid radial grid settings")
        if self.sphere_nz < 4 or self.sphere_nphi < 4 or self.circle_n < 8:
            raise DomainError("RunConfig: invalid sphere/circle grid settings")
        if self.ks_n < 64 or not (0 < self.ks_rmin < self.ks_rmax):
            raise DomainError("RunConfig: invalid Keller-Segel grid settings")
        if not 0.0 < self.ks_T < np.inf:
            raise DomainError(f"RunConfig: ks_T must be a finite number > 0, got {self.ks_T}")
        if self.ks_dt is not None and not 0.0 < self.ks_dt <= DT_CAP:
            raise DomainError(
                f"RunConfig: ks_dt = {self.ks_dt} lies outside (0, DT_CAP = {DT_CAP}]")

    # the shared grids of this configuration
    def radial_grid(self):
        """n = radial_n nodes in log r from radial_rmax e^-radial_span to radial_rmax."""
        return make_radial_grid(self.radial_rmax * math.exp(-self.radial_span),
                                self.radial_rmax, self.radial_n)

    def sphere_grid(self):
        return make_sphere_grid(self.sphere_nz, self.sphere_nphi)

    def circle_grid(self):
        return make_circle_grid(self.circle_n)

    def metadata(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    @classmethod
    def from_strings(cls, kwargs: dict) -> "RunConfig":
        typed = {}
        types = {f.name: f.type for f in dc_fields(cls)}
        for k, v in kwargs.items():
            if k not in types:
                raise ParseError(f"unknown config key {k!r}")
            if v in ("none", "None", ""):
                typed[k] = None
            elif k == "out":
                typed[k] = str(v)
            else:
                try:
                    x = float(v)
                except (TypeError, ValueError) as exc:
                    raise ParseError(f"RunConfig: {k} = {v!r} is not a valid number") from exc
                if types[k] == "int":
                    if not x.is_integer():
                        raise ParseError(f"RunConfig: {k} = {v!r} is not an integer")
                    x = int(x)
                typed[k] = x
        return cls(**typed)


def read_config_file(path: str) -> dict:
    """The key = value lines of a flat config file, as strings by key;
    blank lines and lines starting with # are skipped."""
    kwargs = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{line_no}: expected key=value, got {line!r}")
            k, _, v = line.partition("=")
            kwargs[k.strip()] = v.strip()
    return kwargs


# ----------------------------------------------------------------------
# realization of specs on grids
# ----------------------------------------------------------------------

def _planar_parts(spec: InputSpec):
    """(radial profile, None when off-center; profile (x, y) -> rho; first
    moment) of a planar spec; optimizer:s,x0 is centered at s * x0."""
    kind = spec.kind
    if kind == "mixture":
        w = [float(x) for x in spec.get("weights")]
        parts = [_planar_parts(c) for c in spec.get("components")]
        rads, xys = [p[0] for p in parts], [p[1] for p in parts]
        radial = None
        if all(p is not None for p in rads):
            def radial(r, _w=w, _p=rads):
                return sum(wi * pi(r) for wi, pi in zip(_w, _p))

        def xy(x, y, _w=w, _p=xys):
            return sum(wi * pi(x, y) for wi, pi in zip(_w, _p))

        return radial, xy, sum(wi * p[2] for wi, p in zip(w, parts))
    if kind == "optimizer":
        s = float(spec.get("s"))
        a, b = (float(v) for v in spec.get("x0"))

        def xy(x, y, _s=s, _a=a, _b=b):
            q = (np.asarray(x) / _s - _a) ** 2 + (np.asarray(y) / _s - _b) ** 2
            return (1.0 / (np.pi * _s * _s)) * (1.0 + q) ** -2

        centered = tuple(spec.get("x0")) == (0.0, 0.0)
        radial = planar_optimizer_profile(PlanarOptimizerParams(s)) if centered else None
        return radial, xy, s * np.asarray(spec.get("x0"), dtype=float)
    if kind == "gaussian":
        sig = float(spec.get("sigma"))

        def radial(r, _s=sig):
            return np.exp(-np.asarray(r) ** 2 / (2 * _s * _s)) / (2 * np.pi * _s * _s)
    elif kind == "perturbed-optimizer":
        eps = float(spec.get("eps"))
        s = float(spec.get("s"))
        base = planar_optimizer_profile(PlanarOptimizerParams(s))
        if int(spec.get("mode")) == 1:
            def radial(r, _b=base, _e=eps, _s=s):
                q = (np.asarray(r) / _s) ** 2
                return _b(r) * (1.0 + _e * (1.0 - q) / (1.0 + q))
        else:
            alt = planar_optimizer_profile(PlanarOptimizerParams(2.0 * s))

            def radial(r, _b=base, _a=alt, _e=eps):
                return (1.0 - _e) * _b(r) + _e * _a(r)
    else:
        raise DomainError(f"spec kind {kind!r} is not a planar density")
    return (radial, lambda x, y, _p=radial: _p(np.sqrt(np.asarray(x)**2 + np.asarray(y)**2)),
            np.zeros(2))


def realize_planar(spec: InputSpec, config: RunConfig):
    """Build the planar density, normalized to unit mass on its grid.

    Centered specs are radial.  An off-center spec is translated by its
    first moment and lifted onto the sphere grid (``PlanarDensity``); the
    free energy and the distance to the optimizer family are translation
    invariant, and a single optimizer lifts to the constant 1.  Raises
    ParseError when a centered spec's scale does not fit the radial grid
    (``functionals.radial_grid_misfit``), and DomainError when the sphere
    grid does not resolve the lift (components far apart relative to
    their scales).
    """
    if spec_domain(spec) != "plane":
        raise DomainError(f"spec {spec.kind!r} is not a planar density")
    radial, xy, center = _planar_parts(spec)
    if radial is not None:
        rho = radial_from_profile(config.radial_grid(), radial)
        misfit = radial_grid_misfit(rho, 1.0)
        if misfit is not None:
            raise ParseError(f"realize_planar: {format_input_spec(spec)} {misfit}; "
                             "its scale does not fit the grid")
        return rho if abs(rho.mass - 1.0) <= 1e-9 else rho.normalized()
    rho = planar_from_profile(config.sphere_grid(), xy, tuple(center))
    # every planar spec has unit mass, so a lift that misses it is under-resolved
    if abs(rho.mass - 1.0) > MASS_TOL:
        raise DomainError(
            f"realize_planar: the lift of {format_input_spec(spec)} has mass {rho.mass!r} "
            f"on the {config.sphere_nz}x{config.sphere_nphi} sphere grid, not 1 within "
            f"{MASS_TOL}; its components are too far apart for the grid (raise sphere_nz)")
    return rho.normalized()


def realize_sphere(spec: InputSpec, config: RunConfig) -> SphereField:
    """Build a sphere field with int e^u dsigma = 1; a legendre spec is
    u = log sum a_l P_l(z) with a_0 = 1, and degree <= lmax = sphere_nz - 1."""
    grid = config.sphere_grid()
    if spec.kind == "legendre":
        coeffs = {int(k[1:]): v for k, v in spec.params}
        a = np.zeros(max(coeffs) + 1)
        a[list(coeffs)] = list(coeffs.values())
        if a.size > grid.n_z:
            raise ParseError(f"realize_sphere: {format_input_spec(spec)} has degree {a.size - 1}, "
                             f"above the sphere grid's lmax {grid.n_z - 1} (raise sphere_nz)")
        rho = legval(grid.z, a)
        if not np.min(rho) > 0.0:
            raise PositivityError(f"realize_sphere: {format_input_spec(spec)} has min "
                                  f"{float(np.min(rho))!r} <= 0 on the grid; log rho needs rho > 0")
        return SphereField.from_zonal(grid, lambda z, _a=a: np.log(legval(z, _a)))
    if spec.kind == "sphere-optimizer":
        return sphere_optimizer(SphereOptimizerParams(**dict(spec.params)), grid)
    if spec.kind == "band-limited-random":
        seed = int(spec.get("seed"))
        L = int(spec.get("L"))
        amp = float(spec.get("amplitude"))
        rng = np.random.default_rng(seed)
        tr = get_transform(grid, lmax=L)     # band-limited: small tables suffice
        c = np.zeros((tr.lmax + 1, tr.lmax + 1))
        s = np.zeros_like(c)
        for ell in range(1, L + 1):
            scale = amp / (1.0 + ell) ** 2
            c[ell, 0] = scale * rng.standard_normal()
            for m in range(1, ell + 1):
                c[ell, m] = scale * rng.standard_normal()
                s[ell, m] = scale * rng.standard_normal()
        raw = tr.synthesize(c, s)
        u0 = SphereField(grid, raw,
                         fn=lambda p, _c=c, _s=s, _tr=tr: _tr.evaluate(
                             _c, _s, np.clip(p[..., 2], -1, 1),
                             np.arctan2(p[..., 1], p[..., 0])))
        shift = float(np.log(u0.exp_integral()))
        return u0.shifted(-shift)
    raise DomainError(f"spec {spec.kind!r} is not a sphere field")


def realize_circle(spec: InputSpec, config: RunConfig) -> CircleField:
    """Build a circle field with int e^u dsigma = 1."""
    if spec.kind == "circle-poisson":
        try:        # the spec's range is checked, so this is a radius past the mode cap
            return circle_optimizer(CircleOptimizerParams(**dict(spec.params)))
        except DomainError as exc:
            raise ParseError(str(exc)) from exc
    if spec.kind == "circle-cos":
        coeffs = np.zeros(65, dtype=complex)          # modes 0..64
        coeffs[1] = float(spec.get("eps")) / 2.0
        return CircleField(coeffs).normalized(config.circle_grid())
    raise DomainError(f"spec {spec.kind!r} is not a circle field")

