import math

import numpy as np
import pytest

from spinsurf.errors import (ConfigError, DegenerateMetricError,
                             SurfaceParameterError)
from spinsurf.surfaces import (_fd1, _numeric_jet, make_surface,
                               parse_surface_expression, surface_from_config)


def test_cylinder_standard_parametrization():
    p = make_surface("cylinder", rho=1.0)
    r = p.position(0.3, 0.7)
    assert np.allclose(r, [math.cos(0.3), math.sin(0.3), 0.7])
    assert p.periodic == (True, False)


def test_torus_periodic_both():
    p = make_surface("torus", rho=1.0, R=3.0)
    assert p.periodic == (True, True)
    assert p.closed and p.genus == 1
    # s has period 2 pi R
    r1 = p.position(0.4, 0.0)
    r2 = p.position(0.4, 2.0 * math.pi * 3.0)
    assert np.allclose(r1, r2)


def test_torus_requires_axis_larger_than_tube():
    with pytest.raises(SurfaceParameterError, match="R > rho"):
        make_surface("torus", rho=2.0, R=1.0)


def test_unknown_kind_and_bad_params():
    with pytest.raises(SurfaceParameterError):
        make_surface("klein-bottle")
    with pytest.raises(SurfaceParameterError):
        make_surface("sphere", r=-1.0)
    with pytest.raises(SurfaceParameterError):
        make_surface("cylinder", rho=0.0)


def test_normals_unit_and_regular():
    for p in (make_surface("plane"), make_surface("cylinder", rho=0.5),
              make_surface("sphere", r=2.0), make_surface("torus", rho=1, R=4)):
        _, r_a, _ = p.jet(*_interior_point(p))
        cross = np.cross(r_a[:, 0], r_a[:, 1])
        assert np.linalg.norm(cross) > 0
        n = cross / np.linalg.norm(cross)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12


def _interior_point(p):
    (a0, a1), (b0, b1) = p.domain
    return a0 + 0.43 * (a1 - a0), b0 + 0.61 * (b1 - b0)


def test_analytic_vs_numeric_jets_on_builtins():
    # the analytic derivative providers against the generic FD fallback
    rng = np.random.default_rng(7)
    for p in (make_surface("cylinder", rho=1.3),
              make_surface("sphere", r=0.8),
              make_surface("torus", rho=1.0, R=3.0)):
        (a0, a1), (b0, b1) = p.domain
        for _ in range(10):
            q1 = rng.uniform(a0 + 0.2 * (a1 - a0), a1 - 0.2 * (a1 - a0))
            q2 = rng.uniform(b0, b1)
            r, ra, rab = p.jet(q1, q2)
            from spinsurf.surfaces import _numeric_jet
            rn, ran, rabn = _numeric_jet(p.embed, q1, q2, p.extents)
            assert np.allclose(ra, ran, atol=1e-9 * p.scale)
            assert np.allclose(rab, rabn, atol=1e-7 * p.scale)


def test_expression_parser_basic():
    f = parse_surface_expression("sin(q1)*cos(q2) + q1^2 / 2")
    assert f(0.3, 0.4) == pytest.approx(
        math.sin(0.3) * math.cos(0.4) + 0.09 / 2)
    g = parse_surface_expression("sqrt(exp(-q1))")
    assert g(1.0, 0.0) == pytest.approx(math.exp(-0.5))


def test_expression_parser_rejects_unsafe():
    for bad in ("__import__('os')", "q3", "tan(q1)", "q1 % 2",
                "[1,2]", "lambda: 0"):
        with pytest.raises(ConfigError):
            parse_surface_expression(bad)


def test_generic_surface_from_expressions():
    p = make_surface("generic", x="q1", y="q2", z="q1*q2",
                     domain=((0.0, 1.0), (0.0, 1.0)))
    r = p.position(0.5, 0.25)
    assert np.allclose(r, [0.5, 0.25, 0.125])


def test_surface_from_config_roundtrip(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[surface]\nkind = torus\nrho = 1.0\nR = 2.5\n")
    p = surface_from_config(str(cfg))
    assert p.kind == "torus" and p.params["R"] == 2.5
    # bare key=value without headers is the surface section
    p2 = surface_from_config("kind = cylinder\nrho = 0.7\n")
    assert p2.kind == "cylinder" and p2.params["rho"] == 0.7


def test_surface_config_errors():
    with pytest.raises(ConfigError):
        surface_from_config("rho = 1.0\n")   # no kind
    with pytest.raises(ConfigError):
        surface_from_config("kind = sphere\nr = huge\n")


def test_generic_surface_from_config_roundtrip(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("[surface]\nkind = generic\nx = (2+cos(q1))*cos(q2)\n"
                   "y = (2+cos(q1))*sin(q2)\nz = sin(q1)\n"
                   "q1_min = -1.5\nq1_max = 1.5\nq2_min = 0\n"
                   "q2_max = 6.25\nperiodic1 = no\nperiodic2 = Yes\n")
    p = surface_from_config(str(cfg))
    assert p.kind == "generic"
    assert p.domain == ((-1.5, 1.5), (0.0, 6.25))
    assert p.periodic == (False, True)
    assert p.params["z"] == "sin(q1)"
    assert np.allclose(p.position(0.5, 1.0),
                       [(2 + math.cos(0.5)) * math.cos(1.0),
                        (2 + math.cos(0.5)) * math.sin(1.0), math.sin(0.5)],
                       rtol=0, atol=1e-15)


def test_non_finite_parametrization_is_rejected():
    # sqrt(q1 - 2) is NaN over the whole default domain [0, 1]^2
    with np.errstate(invalid="ignore"), \
            pytest.raises(DegenerateMetricError, match="non-finite"):
        make_surface("generic", x="sqrt(q1-2)", y="q2", z="q1*q2")


def test_parameter_the_kind_does_not_read_is_rejected():
    # the torus reads rho and R; r would be silently ignored
    with pytest.raises(ConfigError) as info:
        make_surface("torus", r=2.0)
    assert info.value.key == "r"
    with pytest.raises(ConfigError):
        surface_from_config("kind = plane\nrho = 3\n")


def test_isometry_axis_belongs_to_the_closed_form():
    # a generic patch claims no isometry, and no config key sets one
    assert make_surface("generic", x="q1", y="q2", z="q1*q2").isometry_axis \
        is None
    with pytest.raises(ConfigError) as info:
        surface_from_config("kind = torus\nisometry_axis = 1\n")
    assert info.value.key == "isometry_axis"


def _nested_jet(embed, q1, q2, extents):
    """The numeric jet by _fd1 per derivative, nested for second
    derivatives: 73 embed calls, the oracle of the batched jet."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    h = (max(extents[0], 1e-12) * 1e-3, max(extents[1], 1e-12) * 1e-3)
    shape = np.broadcast_shapes(q1.shape, q2.shape)
    r = np.broadcast_to(np.asarray(embed(q1, q2), dtype=float),
                        (3,) + shape).copy()
    r_a = np.empty((3, 2) + shape)
    r_ab = np.empty((3, 2, 2) + shape)
    for a in range(2):
        r_a[:, a] = _fd1(embed, q1, q2, a, h[a])
    for b in range(2):
        def db(u, v, _b=b):
            return _fd1(embed, u, v, _b, h[_b])
        for a in range(2):
            r_ab[:, a, b] = _fd1(db, q1, q2, a, h[a])
    mixed = 0.5 * (r_ab[:, 0, 1] + r_ab[:, 1, 0])
    r_ab[:, 0, 1] = mixed
    r_ab[:, 1, 0] = mixed
    return r, r_a, r_ab


def test_batched_numeric_jet_equals_nested_stencils():
    p = make_surface("generic", x="(2+cos(q1))*cos(q2)",
                     y="(2+cos(q1))*sin(q2)", z="sin(q1)",
                     domain=((0.0, 2 * math.pi), (0.0, 2 * math.pi)),
                     periodic=(True, True))
    calls = []

    def embed(q1, q2):
        calls.append(1)
        return p.embed(q1, q2)

    rng = np.random.default_rng(11)
    stencil = rng.uniform(0.0, 2 * math.pi, (2, 9))
    grid = np.meshgrid(np.linspace(0.0, 2 * math.pi, 128, endpoint=False),
                       np.linspace(0.0, 2 * math.pi, 128, endpoint=False),
                       indexing="ij")
    # the grid goes in blocks of 16384 stacked points: 1 + 2*4 + 3*16
    # calls, both nestings of the mixed partial reading one sample set
    for q1, q2, batched_calls in ((0.7, 4.3, 6), (*stencil, 6),
                                  (*grid, 57)):
        calls.clear()
        want = _nested_jet(embed, q1, q2, p.extents)
        assert len(calls) == 73
        calls.clear()
        got = _numeric_jet(embed, q1, q2, p.extents)
        assert len(calls) == batched_calls
        for x, y in zip(got, want):
            assert x.shape == y.shape and np.array_equal(x, y)


# The hand-written embed and jet of each built-in shape, as they stood
# before the shapes shared one closed-form helper: the bitwise oracle of
# the built-in jets and positions.

def _oracle_plane(params):
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

    return embed, jet


def _oracle_cylinder(params):
    rho = params["rho"]

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

    return embed, jet


def _oracle_sphere(params):
    r0 = params["r"]

    def embed(q1, q2):
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

    return embed, jet


def _oracle_torus(params):
    rho, big_r = params["rho"], params["R"]

    def embed(q1, q2):
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

    return embed, jet


_ORACLES = {"plane": _oracle_plane, "cylinder": _oracle_cylinder,
            "sphere": _oracle_sphere, "torus": _oracle_torus}


def _bitwise_equal(x, y):
    # array_equal with the sign of zero: -0.0 and 0.0 differ in bits
    return (x.shape == y.shape and x.dtype == y.dtype
            and x.tobytes() == y.tobytes())


@pytest.mark.parametrize("kind, params", [
    ("plane", {"lx": 2.0, "ly": 0.5}), ("cylinder", {"rho": 1.3}),
    ("sphere", {"r": 0.8}), ("torus", {"rho": 1.0, "R": 3.0})])
def test_builtin_jets_equal_the_hand_written_oracle(kind, params):
    p = make_surface(kind, **params)
    embed, jet = _ORACLES[kind](p.params)
    (a0, a1), (b0, b1) = p.domain
    rng = np.random.default_rng(5)
    stencil = (rng.uniform(a0, a1, 9), rng.uniform(b0, b1, 9))
    grid = np.meshgrid(np.linspace(a0, a1, 384), np.linspace(b0, b1, 384),
                       indexing="ij")
    # the domain corners give exact zeros of sin, where signs of zero show
    for q1, q2 in ((a0 + 0.43 * (a1 - a0), b0 + 0.61 * (b1 - b0)),
                   (a0, b0), stencil, grid,
                   (grid[0][:, :1], grid[1][:1, :])):
        for got, want in zip(p.jet(q1, q2), jet(q1, q2)):
            assert _bitwise_equal(got, want)
        assert _bitwise_equal(p.position(q1, q2),
                              np.asarray(embed(q1, q2), dtype=float))
