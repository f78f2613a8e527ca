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

    ``jet(q1, q2)`` accepts scalars or broadcastable arrays and returns
    (r, r_a, r_ab) with shapes (3,...), (3,2,...), (3,2,2,...).  It calls
    ``jet_fn``, fixed when the patch is built: the closed form of a
    built-in shape, or finite differences of a generic patch's ``embed``.
    ``embed(q1, q2)`` returns r alone; for a built-in it is the jet's r.

    ``isometry_axis`` names a chart axis along which a shift of the
    coordinate is an isometry that the Gram-Schmidt frame follows, so
    every frame field is constant along it: 1 on the built-in shapes (the
    axis of revolution's angle on sphere and torus, the translation on
    cylinder and plane), None on a generic patch.  It belongs to the
    closed form and is no config key.
    """

    kind: str
    params: dict
    domain: tuple  # ((q1_lo, q1_hi), (q2_lo, q2_hi))
    periodic: tuple  # (bool, bool)
    embed: Callable
    jet_fn: Callable
    closed: bool = False
    genus: Optional[int] = None
    name: str = ""
    isometry_axis: Optional[int] = None

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
        """Return (r, r_a, r_ab) at the given parameter values.  Every
        caller goes through this method, so a wrapper set on the class
        (a profiler's, a test's call counter) sees every jet."""
        return self.jet_fn(q1, q2)


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

    r, each d_a r, each d_a d_a r and the mixed partial call embed once
    over all their stencil offsets, stacked on trailing axes, so a jet of
    up to 1024 points makes 6 calls; larger inputs go in blocks of
    _JET_CALL_POINTS stacked points.  d_a d_b r is the stencil along a of
    the stencil along b, and the shifted coordinates and differences are
    formed in that nesting order, as _fd1 nested in itself would form
    them.  Both nestings of the mixed partial difference one set of
    samples, in which each coordinate is shifted once.
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

    def stencil(axes, *outs):
        """Sample embed at each flat point over the stacked offsets along
        each of axes (outermost first, one trailing axis each), and write
        to outs[k][:, i] the differences at point i that take axes[k]
        last: with two axes, outs[0] nests axes[0] around axes[1] and
        outs[1] the reverse."""
        block = max(_JET_CALL_POINTS // len(_FD_OFFSETS) ** len(axes), 1)
        for lo in range(0, flat[0].size, block):
            q = [x[lo:lo + block] for x in flat]
            for axis in axes:
                q = [x[..., None] for x in q]
                q[axis] = q[axis] + np.array(_FD_OFFSETS) * h[axis]
            # contiguous coordinates, as a plain array call passes them
            values = np.asarray(embed(*(np.ascontiguousarray(x)
                                        for x in np.broadcast_arrays(*q))))
            for k, out in enumerate(outs):
                diff = values
                for i, axis in enumerate(axes):
                    if i != k:
                        diff = _fd4(np.moveaxis(diff, i - len(axes), 0),
                                    h[axis])
                out[:, lo:lo + block] = _fd4(np.moveaxis(diff, -1, 0),
                                             h[axes[k]])

    flat_a = r_a.reshape(3, 2, -1)
    flat_ab = r_ab.reshape(3, 2, 2, -1)
    for a in range(2):
        stencil((a,), flat_a[:, a])
        stencil((a, a), flat_ab[:, a, a])
    stencil((0, 1), flat_ab[:, 0, 1], flat_ab[:, 1, 0])
    # symmetrize mixed partials; nesting order is not exactly symmetric
    mixed = 0.5 * (r_ab[:, 0, 1] + r_ab[:, 1, 0])
    r_ab[:, 0, 1] = mixed
    r_ab[:, 1, 0] = mixed
    return r, r_a, r_ab


# ----------------------------------------------------------------------
# Built-in shapes: one closed-form jet each
# ----------------------------------------------------------------------

def _builtin(kind, params, domain, periodic, terms, name, **extra):
    """A patch whose jet is the closed form ``terms``, whose embed is
    that jet's r, and whose isometry axis is 1.

    terms(q1, q2) yields the (x, y, z) components of r, d1 r, d2 r,
    d1 d1 r, d1 d2 r and d2 d2 r in turn, each an array broadcastable to
    the points or a constant; each triple is written before the next is
    formed, so few whole-grid temporaries live at once.  The mixed
    partial fills both (0, 1) and (1, 0).
    """
    def jet(q1, q2):
        q1 = np.asarray(q1, dtype=float)
        q2 = np.asarray(q2, dtype=float)
        shape = np.broadcast_shapes(q1.shape, q2.shape)
        r = np.empty((3,) + shape)
        r_a = np.empty((3, 2) + shape)
        r_ab = np.empty((3, 2, 2) + shape)
        slots = (r, r_a[:, 0], r_a[:, 1], r_ab[:, 0, 0], r_ab[:, 0, 1],
                 r_ab[:, 1, 1])
        for out, xyz in zip(slots, terms(q1, q2)):
            for i in range(3):
                out[i] = xyz[i]
        r_ab[:, 1, 0] = r_ab[:, 0, 1]
        return r, r_a, r_ab

    return SurfacePatch(kind=kind, params=params, domain=domain,
                        periodic=periodic, embed=lambda q1, q2: jet(q1, q2)[0],
                        jet_fn=jet, name=name, isometry_axis=1, **extra)


_ZERO = (0.0, 0.0, 0.0)


def _plane_factory(params):
    lx = float(params.get("lx", 1.0))
    ly = float(params.get("ly", 1.0))
    if lx <= 0 or ly <= 0:
        raise SurfaceParameterError("plane requires lx > 0 and ly > 0")

    def terms(q1, q2):
        yield q1, q2, 0.0
        yield 1.0, 0.0, 0.0
        yield 0.0, 1.0, 0.0
        yield from (_ZERO, _ZERO, _ZERO)

    return _builtin("plane", {"lx": lx, "ly": ly},
                    ((0.0, lx), (0.0, ly)), (False, False), terms, "plane")


def _cylinder_factory(params):
    rho = float(params.get("rho", 1.0))
    length = float(params.get("length", 2.0 * math.pi))
    if rho <= 0:
        raise SurfaceParameterError("cylinder requires rho > 0")
    if length <= 0:
        raise SurfaceParameterError("cylinder requires length > 0")

    def terms(q1, q2):
        x, y = rho * np.cos(q1), rho * np.sin(q1)
        yield x, y, q2
        yield -y, x, 0.0
        yield 0.0, 0.0, 1.0
        yield -x, -y, 0.0
        yield from (_ZERO, _ZERO)

    return _builtin("cylinder", {"rho": rho, "length": length},
                    ((0.0, 2.0 * math.pi), (0.0, length)), (True, False),
                    terms, f"cylinder(rho={rho:g})")


def _sphere_factory(params):
    r0 = float(params.get("r", 1.0))
    if r0 <= 0:
        raise SurfaceParameterError("sphere requires r > 0")

    def terms(q1, q2):
        # q1 = polar angle from the north pole, q2 = azimuth
        rs, cp, sp = r0 * np.sin(q1), np.cos(q2), np.sin(q2)
        x, y, z = rs * cp, rs * sp, r0 * np.cos(q1)
        yield x, y, z
        yield z * cp, z * sp, -rs
        yield -y, x, 0.0
        yield -x, -y, -z
        yield -z * sp, z * cp, 0.0
        yield -x, -y, 0.0

    return _builtin("sphere", {"r": r0},
                    ((0.0, math.pi), (0.0, 2.0 * math.pi)), (False, True),
                    terms, f"sphere(r={r0:g})", closed=True, genus=0)


def _torus_factory(params):
    rho = float(params.get("rho", 1.0))
    big_r = float(params.get("R", 3.0))
    if rho <= 0 or big_r <= 0:
        raise SurfaceParameterError("torus requires rho > 0 and R > 0")
    if big_r <= rho:
        raise SurfaceParameterError(
            f"torus requires an axis radius larger than the tube radius "
            f"(R > rho), got R={big_r:g} <= rho={rho:g}")

    def terms(q1, q2):
        # q1 = theta around the tube (0 at the outer equator),
        # q2 = s, arclength of the axis circle (period 2*pi*R).
        # The -sin(theta) height makes d1 r x d2 r the outward tube
        # normal, matching the cylinder patch orientation.
        ct = np.cos(q1)
        z, dz = -rho * np.sin(q1), -rho * ct   # height and its d1
        phi = q2 / big_r
        cp, sp = np.cos(phi), np.sin(phi)
        w = big_r + rho * ct
        x, y = w * cp, w * sp
        yield x, y, z
        yield z * cp, z * sp, dz
        yield -y / big_r, x / big_r, 0.0
        yield dz * cp, dz * sp, -z
        yield -(z * sp) / big_r, z * cp / big_r, 0.0
        yield -x / big_r**2, -y / big_r**2, 0.0

    return _builtin("torus", {"rho": rho, "R": big_r},
                    ((-math.pi, math.pi), (0.0, 2.0 * math.pi * big_r)),
                    (True, True), terms, f"torus(rho={rho:g}, R={big_r:g})",
                    closed=True, genus=1)


def _generic_factory(params):
    exprs = [params.get(k) for k in ("x", "y", "z")]
    if any(e is None for e in exprs):
        raise SurfaceParameterError(
            "generic surface requires expression strings x, y, z")
    fx, fy, fz = (parse_surface_expression(e) for e in exprs)
    (a0, a1), (b0, b1) = params.get("domain", ((0.0, 1.0), (0.0, 1.0)))
    domain = ((float(a0), float(a1)), (float(b0), float(b1)))
    extents = (domain[0][1] - domain[0][0], domain[1][1] - domain[1][0])
    periodic = tuple(params.get("periodic", (False, False)))

    def embed(q1, q2):
        q1, q2 = np.broadcast_arrays(np.asarray(q1, float), np.asarray(q2, float))
        zero = np.zeros_like(q1)
        return np.stack([fx(q1, q2) + zero, fy(q1, q2) + zero, fz(q1, q2) + zero])

    def jet(q1, q2):
        return _numeric_jet(embed, q1, q2, extents)

    return SurfacePatch(
        kind="generic",
        params={"x": exprs[0], "y": exprs[1], "z": exprs[2]},
        domain=domain, periodic=periodic, embed=embed, jet_fn=jet,
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
    (a finite jet and d1 r x d2 r != 0) on a coarse sample of the domain
    interior.
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
    r, r_a, r_ab = patch.jet(Q1, Q2)
    if not all(np.isfinite(x).all() for x in (r, r_a, r_ab)):
        raise DegenerateMetricError(
            f"{patch.kind} patch has a non-finite position or derivative "
            f"inside the domain")
    cross = np.cross(r_a[:, 0], r_a[:, 1], axisa=0, axisb=0, axis=0)
    norm = np.sqrt((cross**2).sum(axis=0))
    if np.any(norm <= 1e-14 * patch.scale**2):
        raise DegenerateMetricError(
            f"parametrization of {patch.kind} patch is singular inside the "
            f"domain: |d1 r x d2 r| vanishes")


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
