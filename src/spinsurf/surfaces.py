"""Parametrized surface patches and their derivative providers.

A patch is an embedding r(q1, q2) -> R^3 on a rectangular parameter box,
with per-coordinate periodicity flags.  Built-in shapes (plane, cylinder,
sphere, torus) carry exact closed-form first and second derivatives;
generic patches defined by expression strings fall back to 4th-order
central differences with step h = 1e-3 * (domain extent).

Orientation convention used throughout the package: the unit normal is

    n_hat = (d1 r x d2 r) / |d1 r x d2 r|

so the coordinate order of the parametrization fixes every curvature sign
downstream.  For the torus the coordinates are (theta, s) with theta the
angle around the tube (theta = 0 on the outer equator) and s the arclength
of the axis circle; this ordering puts n_hat along the inward tube normal
and yields the Gaussian curvature K = cos(theta) / (rho (R + rho cos(theta))).
"""

from __future__ import annotations

import ast
import configparser
import io
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DegenerateMetricError, SurfaceParameterError

__all__ = [
    "SurfacePatch",
    "make_surface",
    "surface_from_config",
    "parse_surface_expression",
]


@dataclass(frozen=True)
class SurfacePatch:
    """Immutable parametrized surface; the single source of all geometry.

    embed(q1, q2) accepts scalars or broadcastable arrays and returns an
    array with a leading axis of length 3.  ``jet`` returns (r, r_a, r_ab)
    with shapes (3,...), (3,2,...), (3,2,2,...); for built-ins these are
    exact, otherwise finite differences of ``embed``.
    """

    kind: str
    params: dict
    domain: tuple  # ((q1_lo, q1_hi), (q2_lo, q2_hi))
    periodic: tuple  # (bool, bool)
    embed: Callable
    analytic_jet: Optional[Callable] = None
    closed: bool = False
    genus: Optional[int] = None
    name: str = ""

    @property
    def extents(self):
        (a0, a1), (b0, b1) = self.domain
        return (a1 - a0, b1 - b0)

    @property
    def scale(self) -> float:
        """Characteristic length used to size finite-difference steps."""
        r = self.params.get("rho") or self.params.get("r") or 0.0
        ext = max(self.extents)
        return max(float(r), float(ext), 1e-30)

    def position(self, q1, q2):
        return np.asarray(self.embed(q1, q2), dtype=float)

    def jet(self, q1, q2):
        """Return (r, r_a, r_ab) at the given parameter values."""
        if self.analytic_jet is not None:
            return self.analytic_jet(q1, q2)
        return _numeric_jet(self.embed, q1, q2, self.extents)


# ----------------------------------------------------------------------
# Numeric derivative provider: 4th-order central differences; second
# derivatives by nesting the first-derivative stencil.
# ----------------------------------------------------------------------

_FD_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_FD_REL_STEP = 1e-3  # numeric-jet step, relative to the domain extent
# stacked points per embed call of a numeric jet; whole-grid calls would
# make each temporary of embed a fresh multi-megabyte allocation (the
# 128^2 jet took 1.5x as long that way on a 2-vCPU Xeon, in page faults)
_JET_CALL_POINTS = 16384


def _fd4(samples, h):
    """4th-order central difference from samples at _FD_OFFSETS * h; the
    one formula of numeric jets, adapted frames and gauge curls."""
    f_m2, f_m1, f_p1, f_p2 = samples
    return (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * h)


def _fd1(f, q1, q2, axis, h):
    """_fd4 of f(q1, q2) along axis with step h."""
    def at(off):
        if axis == 0:
            return np.asarray(f(q1 + off * h, q2))
        return np.asarray(f(q1, q2 + off * h))
    return _fd4([at(off) for off in _FD_OFFSETS], h)


def _numeric_jet(embed, q1, q2, extents):
    """(r, r_a, r_ab) by _fd4 of embed.

    Each derivative d_a r and d_a d_b r calls embed once over all its
    stencil offsets, stacked on trailing axes, so a jet of up to 1024
    points makes 7 calls; larger inputs go in blocks of _JET_CALL_POINTS
    stacked points.  d_a d_b r is the stencil along a of the stencil
    along b, and the shifted coordinates and differences are formed in
    that nesting order, as _fd1 nested in itself would form them.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    h = (max(extents[0], 1e-12) * _FD_REL_STEP,
         max(extents[1], 1e-12) * _FD_REL_STEP)
    r = np.asarray(embed(q1, q2), dtype=float)
    shape = np.broadcast_shapes(q1.shape, q2.shape)
    r = np.broadcast_to(r, (3,) + shape).copy()
    r_a = np.empty((3, 2) + shape)
    r_ab = np.empty((3, 2, 2) + shape)
    flat = [np.broadcast_to(q, shape).ravel() for q in (q1, q2)]

    def stencil(out, *axes):
        """out[:, i] = differences at flat point i along each of axes
        (outermost first) of embed over the stacked offsets."""
        block = max(_JET_CALL_POINTS // len(_FD_OFFSETS) ** len(axes), 1)
        for lo in range(0, flat[0].size, block):
            q = [x[lo:lo + block] for x in flat]
            for axis in axes:
                q = [x[..., None] for x in q]
                q[axis] = q[axis] + np.array(_FD_OFFSETS) * h[axis]
            # contiguous coordinates, as a plain array call passes them
            values = np.asarray(embed(*(np.ascontiguousarray(x)
                                        for x in np.broadcast_arrays(*q))))
            for axis in reversed(axes):
                values = _fd4(np.moveaxis(values, -1, 0), h[axis])
            out[:, lo:lo + block] = values

    flat_a = r_a.reshape(3, 2, -1)
    flat_ab = r_ab.reshape(3, 2, 2, -1)
    for a in range(2):
        stencil(flat_a[:, a], a)
        for b in range(2):
            stencil(flat_ab[:, a, b], a, b)
    # symmetrize mixed partials; nesting order is not exactly symmetric
    mixed = 0.5 * (r_ab[:, 0, 1] + r_ab[:, 1, 0])
    r_ab[:, 0, 1] = mixed
    r_ab[:, 1, 0] = mixed
    return r, r_a, r_ab


# ----------------------------------------------------------------------
# Built-in shapes with exact jets
# ----------------------------------------------------------------------

def _plane_factory(params):
    lx = float(params.get("lx", 1.0))
    ly = float(params.get("ly", 1.0))
    if lx <= 0 or ly <= 0:
        raise SurfaceParameterError("plane requires lx > 0 and ly > 0")

    def embed(q1, q2):
        q1, q2 = np.broadcast_arrays(np.asarray(q1, float), np.asarray(q2, float))
        return np.stack([q1, q2, np.zeros_like(q1)])

    def jet(q1, q2):
        q1 = np.asarray(q1, float)
        q2 = np.asarray(q2, float)
        shape = np.broadcast_shapes(q1.shape, q2.shape)
        r = np.broadcast_to(embed(q1, q2), (3,) + shape).copy()
        r_a = np.zeros((3, 2) + shape)
        r_a[0, 0] = 1.0
        r_a[1, 1] = 1.0
        r_ab = np.zeros((3, 2, 2) + shape)
        return r, r_a, r_ab

    return SurfacePatch(
        kind="plane", params={"lx": lx, "ly": ly},
        domain=((0.0, lx), (0.0, ly)), periodic=(False, False),
        embed=embed, analytic_jet=jet, name="plane")


def _cylinder_factory(params):
    rho = float(params.get("rho", 1.0))
    length = float(params.get("length", 2.0 * math.pi))
    if rho <= 0:
        raise SurfaceParameterError("cylinder requires rho > 0")
    if length <= 0:
        raise SurfaceParameterError("cylinder requires length > 0")

    def embed(q1, q2):
        q1, q2 = np.broadcast_arrays(np.asarray(q1, float), np.asarray(q2, float))
        return np.stack([rho * np.cos(q1), rho * np.sin(q1), q2])

    def jet(q1, q2):
        q1 = np.asarray(q1, float)
        q2 = np.asarray(q2, float)
        shape = np.broadcast_shapes(q1.shape, q2.shape)
        c, s = np.cos(q1), np.sin(q1)
        c = np.broadcast_to(c, shape)
        s = np.broadcast_to(s, shape)
        r = np.broadcast_to(embed(q1, q2), (3,) + shape).copy()
        r_a = np.zeros((3, 2) + shape)
        r_a[0, 0] = -rho * s
        r_a[1, 0] = rho * c
        r_a[2, 1] = 1.0
        r_ab = np.zeros((3, 2, 2) + shape)
        r_ab[0, 0, 0] = -rho * c
        r_ab[1, 0, 0] = -rho * s
        return r, r_a, r_ab

    return SurfacePatch(
        kind="cylinder", params={"rho": rho, "length": length},
        domain=((0.0, 2.0 * math.pi), (0.0, length)), periodic=(True, False),
        embed=embed, analytic_jet=jet, name=f"cylinder(rho={rho:g})")


def _sphere_factory(params):
    r0 = float(params.get("r", 1.0))
    if r0 <= 0:
        raise SurfaceParameterError("sphere requires r > 0")

    def embed(q1, q2):
        # q1 = polar angle from the north pole, q2 = azimuth
        q1, q2 = np.broadcast_arrays(np.asarray(q1, float), np.asarray(q2, float))
        st, ct = np.sin(q1), np.cos(q1)
        return np.stack([r0 * st * np.cos(q2), r0 * st * np.sin(q2), r0 * ct])

    def jet(q1, q2):
        q1 = np.asarray(q1, float)
        q2 = np.asarray(q2, float)
        shape = np.broadcast_shapes(q1.shape, q2.shape)
        st = np.broadcast_to(np.sin(q1), shape)
        ct = np.broadcast_to(np.cos(q1), shape)
        cp = np.broadcast_to(np.cos(q2), shape)
        sp = np.broadcast_to(np.sin(q2), shape)
        r = np.broadcast_to(embed(q1, q2), (3,) + shape).copy()
        r_a = np.empty((3, 2) + shape)
        r_a[0, 0] = r0 * ct * cp
        r_a[1, 0] = r0 * ct * sp
        r_a[2, 0] = -r0 * st
        r_a[0, 1] = -r0 * st * sp
        r_a[1, 1] = r0 * st * cp
        r_a[2, 1] = 0.0
        r_ab = np.empty((3, 2, 2) + shape)
        r_ab[0, 0, 0] = -r0 * st * cp
        r_ab[1, 0, 0] = -r0 * st * sp
        r_ab[2, 0, 0] = -r0 * ct
        r_ab[0, 0, 1] = -r0 * ct * sp
        r_ab[1, 0, 1] = r0 * ct * cp
        r_ab[2, 0, 1] = 0.0
        r_ab[:, 1, 0] = r_ab[:, 0, 1]
        r_ab[0, 1, 1] = -r0 * st * cp
        r_ab[1, 1, 1] = -r0 * st * sp
        r_ab[2, 1, 1] = 0.0
        return r, r_a, r_ab

    return SurfacePatch(
        kind="sphere", params={"r": r0},
        domain=((0.0, math.pi), (0.0, 2.0 * math.pi)), periodic=(False, True),
        embed=embed, analytic_jet=jet, closed=True, genus=0,
        name=f"sphere(r={r0:g})")


def _torus_factory(params):
    rho = float(params.get("rho", 1.0))
    big_r = float(params.get("R", 3.0))
    if rho <= 0 or big_r <= 0:
        raise SurfaceParameterError("torus requires rho > 0 and R > 0")
    if big_r <= rho:
        raise SurfaceParameterError(
            f"torus requires an axis radius larger than the tube radius "
            f"(R > rho), got R={big_r:g} <= rho={rho:g}")

    def embed(q1, q2):
        # q1 = theta around the tube (0 at the outer equator),
        # q2 = s, arclength of the axis circle (period 2*pi*R).
        # The -sin(theta) height makes d1 r x d2 r the outward tube
        # normal, matching the cylinder patch orientation.
        q1, q2 = np.broadcast_arrays(np.asarray(q1, float), np.asarray(q2, float))
        w = big_r + rho * np.cos(q1)
        phi = q2 / big_r
        return np.stack([w * np.cos(phi), w * np.sin(phi), -rho * np.sin(q1)])

    def jet(q1, q2):
        q1 = np.asarray(q1, float)
        q2 = np.asarray(q2, float)
        shape = np.broadcast_shapes(q1.shape, q2.shape)
        ct = np.broadcast_to(np.cos(q1), shape)
        st = np.broadcast_to(np.sin(q1), shape)
        phi = q2 / big_r
        cp = np.broadcast_to(np.cos(phi), shape)
        sp = np.broadcast_to(np.sin(phi), shape)
        w = big_r + rho * ct
        r = np.broadcast_to(embed(q1, q2), (3,) + shape).copy()
        r_a = np.empty((3, 2) + shape)
        r_a[0, 0] = -rho * st * cp
        r_a[1, 0] = -rho * st * sp
        r_a[2, 0] = -rho * ct
        r_a[0, 1] = -w * sp / big_r
        r_a[1, 1] = w * cp / big_r
        r_a[2, 1] = 0.0
        r_ab = np.empty((3, 2, 2) + shape)
        r_ab[0, 0, 0] = -rho * ct * cp
        r_ab[1, 0, 0] = -rho * ct * sp
        r_ab[2, 0, 0] = rho * st
        r_ab[0, 0, 1] = rho * st * sp / big_r
        r_ab[1, 0, 1] = -rho * st * cp / big_r
        r_ab[2, 0, 1] = 0.0
        r_ab[:, 1, 0] = r_ab[:, 0, 1]
        r_ab[0, 1, 1] = -w * cp / big_r**2
        r_ab[1, 1, 1] = -w * sp / big_r**2
        r_ab[2, 1, 1] = 0.0
        return r, r_a, r_ab

    return SurfacePatch(
        kind="torus", params={"rho": rho, "R": big_r},
        domain=((-math.pi, math.pi), (0.0, 2.0 * math.pi * big_r)),
        periodic=(True, True),
        embed=embed, analytic_jet=jet, closed=True, genus=1,
        name=f"torus(rho={rho:g}, R={big_r:g})")


def _generic_factory(params):
    exprs = [params.get(k) for k in ("x", "y", "z")]
    if any(e is None for e in exprs):
        raise SurfaceParameterError(
            "generic surface requires expression strings x, y, z")
    fx, fy, fz = (parse_surface_expression(e) for e in exprs)
    domain = params.get("domain", ((0.0, 1.0), (0.0, 1.0)))
    periodic = tuple(params.get("periodic", (False, False)))

    def embed(q1, q2):
        q1, q2 = np.broadcast_arrays(np.asarray(q1, float), np.asarray(q2, float))
        zero = np.zeros_like(q1)
        return np.stack([fx(q1, q2) + zero, fy(q1, q2) + zero, fz(q1, q2) + zero])

    return SurfacePatch(
        kind="generic",
        params={"x": exprs[0], "y": exprs[1], "z": exprs[2]},
        domain=(tuple(map(float, domain[0])), tuple(map(float, domain[1]))),
        periodic=periodic, embed=embed, analytic_jet=None,
        name="generic")


# kind -> (factory, the parameters it reads)
_FACTORIES = {
    "plane": (_plane_factory, ("lx", "ly")),
    "cylinder": (_cylinder_factory, ("rho", "length")),
    "sphere": (_sphere_factory, ("r",)),
    "torus": (_torus_factory, ("rho", "R")),
    "generic": (_generic_factory, ("x", "y", "z", "domain", "periodic")),
}


def make_surface(kind: str, **params) -> SurfacePatch:
    """Construct a surface patch by name.

    kinds: plane | cylinder | sphere | torus | generic.  Raises
    SurfaceParameterError for an unknown kind or inadmissible values,
    e.g. a torus with R <= rho, and ConfigError naming a parameter the
    kind does not read.  The returned patch is checked for regularity
    (d1 r x d2 r != 0, unit normal to 1e-12) on a coarse sample of the
    domain interior.
    """
    try:
        factory, accepted = _FACTORIES[kind]
    except KeyError:
        raise SurfaceParameterError(
            f"unknown surface kind {kind!r}; expected one of "
            f"{sorted(_FACTORIES)}") from None
    for key in params:
        if key not in accepted:
            raise ConfigError(f"a {kind} surface takes no parameter {key!r}; "
                              f"expected one of {list(accepted)}", key=key)
    patch = factory(params)
    _check_regularity(patch)
    return patch


def _check_regularity(patch, n=7):
    (a0, a1), (b0, b1) = patch.domain
    # stay off the boundary: chart poles (sphere) are admissibly singular
    t = (np.arange(n) + 0.5) / n
    q1 = a0 + t * (a1 - a0)
    q2 = b0 + t * (b1 - b0)
    Q1, Q2 = np.meshgrid(q1, q2, indexing="ij")
    _, r_a, _ = patch.jet(Q1, Q2)
    cross = np.cross(r_a[:, 0], r_a[:, 1], axisa=0, axisb=0, axis=0)
    norm = np.sqrt((cross**2).sum(axis=0))
    if np.any(norm <= 1e-14 * patch.scale**2):
        raise DegenerateMetricError(
            f"parametrization of {patch.kind} patch is singular inside the "
            f"domain: |d1 r x d2 r| vanishes")
    n_hat = cross / norm
    err = np.abs(np.sqrt((n_hat**2).sum(axis=0)) - 1.0).max()
    if err > 1e-12:
        raise DegenerateMetricError("unit normal fails |n| = 1 to 1e-12")


# ----------------------------------------------------------------------
# Minimal arithmetic-expression evaluator for generic embeddings
# ----------------------------------------------------------------------

_ALLOWED_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


def parse_surface_expression(text: str) -> Callable:
    """Compile an expression in q1, q2 into a vectorized callable.

    Supported: numbers, q1, q2, + - * / ^ (power), unary minus, and the
    functions sin, cos, exp, sqrt.  Anything else is rejected.
    """
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad surface expression {text!r}: {exc.msg}",
                          line=exc.lineno) from None
    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Constant, ast.Load)):
            if isinstance(node, ast.Constant) and not isinstance(
                    node.value, (int, float)):
                raise ConfigError(
                    f"non-numeric constant in expression {text!r}")
        elif isinstance(node, ast.Name):
            if node.id not in ("q1", "q2") and node.id not in _ALLOWED_FUNCS:
                raise ConfigError(
                    f"unknown name {node.id!r} in expression {text!r}")
        elif isinstance(node, ast.BinOp):
            if not isinstance(node.op, _ALLOWED_BINOPS):
                raise ConfigError(f"operator not allowed in {text!r}")
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, _ALLOWED_UNARY):
                raise ConfigError(f"operator not allowed in {text!r}")
        elif isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _ALLOWED_FUNCS
                    or node.keywords):
                raise ConfigError(
                    f"only sin/cos/exp/sqrt calls allowed in {text!r}")
        elif isinstance(node, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                               ast.UAdd, ast.USub)):
            pass
        else:
            raise ConfigError(
                f"construct {type(node).__name__} not allowed in {text!r}")
    code = compile(tree, "<surface-expression>", "eval")

    def evaluate(q1, q2):
        env = dict(_ALLOWED_FUNCS)
        env["q1"] = q1
        env["q2"] = q2
        return eval(code, {"__builtins__": {}}, env)

    return evaluate


# ----------------------------------------------------------------------
# Plain-text surface configuration
# ----------------------------------------------------------------------

def surface_from_config(text_or_path) -> SurfacePatch:
    """Build a patch from a key=value config (text, or a file path: one
    line with a .cfg/.ini suffix or no '=').

    The [surface] section holds kind and the parameters make_surface
    takes for it; a generic surface gives its domain as q1_min/q1_max/
    q2_min/q2_max and its periodicity as periodic1/periodic2.  A bare
    key=value file without section headers is accepted.
    """
    text = str(text_or_path)
    if "\n" not in text and (text.endswith((".cfg", ".ini"))
                             or "=" not in text):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    return _surface_from_section(read_config(text).get("surface", {}))


def _surface_from_section(surf: dict) -> SurfacePatch:
    """surface_from_config over an already parsed [surface] section."""
    if "kind" not in surf:
        raise ConfigError("surface config needs a 'kind' key", key="kind")
    kind = surf["kind"].strip()
    params = {}
    for key, raw in surf.items():
        if key in ("x", "y", "z", "periodic1", "periodic2"):
            params[key] = raw
        elif key != "kind":
            try:
                params[key] = float(raw)
            except ValueError:
                raise ConfigError(
                    f"surface key {key!r} must be a number, got {raw!r}",
                    key=key) from None
    if kind == "generic":
        dom = ((params.pop("q1_min", 0.0), params.pop("q1_max", 1.0)),
               (params.pop("q2_min", 0.0), params.pop("q2_max", 1.0)))
        per = (_as_bool(params.pop("periodic1", "false")),
               _as_bool(params.pop("periodic2", "false")))
        params["domain"] = dom
        params["periodic"] = per
    return make_surface(kind, **params)


def _as_bool(raw):
    """True for 1/true/yes/on in any case and spacing."""
    return str(raw).strip().lower() in ("1", "true", "yes", "on")


def read_config(text: str) -> dict:
    """Parse the text of a key=value config with optional [section]
    headers; text without a leading header is the [surface] section.

    A ``;`` or ``#`` after whitespace starts an inline comment.  Returns
    {section: {key: value}}.  Raises ConfigError with line information
    on parse failure.
    """
    stripped = text.lstrip()
    if stripped and not stripped.startswith("["):
        text = "[surface]\n" + text
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # shape keys are case-sensitive (R vs r)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"config parse error: {exc}", line=line) from None
    out = {}
    for sec in parser.sections():
        out[sec] = dict(parser.items(sec))
    return out
