import math

import numpy as np
import pytest

from spinsurf.errors import ConfigError, SurfaceParameterError
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


def test_parameter_the_kind_does_not_read_is_rejected():
    # the torus reads rho and R; r would be silently ignored
    with pytest.raises(ConfigError) as info:
        make_surface("torus", r=2.0)
    assert info.value.key == "r"
    with pytest.raises(ConfigError):
        surface_from_config("kind = plane\nrho = 3\n")


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
    # the grid goes in blocks of 16384 stacked points: 1 + 2*4 + 4*16 calls
    for q1, q2, batched_calls in ((0.7, 4.3, 7), (*stencil, 7),
                                  (*grid, 73)):
        calls.clear()
        want = _nested_jet(embed, q1, q2, p.extents)
        assert len(calls) == 73
        calls.clear()
        got = _numeric_jet(embed, q1, q2, p.extents)
        assert len(calls) == batched_calls
        for x, y in zip(got, want):
            assert x.shape == y.shape and np.array_equal(x, y)
