import dataclasses
import math

import numpy as np
import pytest

from spinsurf.constants import PhysicalScale
from spinsurf.errors import (NotClosedSurfaceError, SpinsurfError,
                             SurfaceParameterError, WindingMismatchError)
from spinsurf.frames import SIGMA1, SIGMA2, SIGMA3, frame_fields
from spinsurf.gauge import (curl_matches_w, flux, gauge_transform,
                            pseudo_electric_field, pseudo_field_at, sample_w,
                            soi_radius)
from spinsurf.surfaces import _fd1, make_surface


def test_pseudo_field_is_half_curvature():
    for p, q in ((make_surface("sphere", r=1.3), (1.0, 0.7)),
                 (make_surface("torus", rho=1.0, R=3.0), (0.8, 2.0)),
                 (make_surface("cylinder", rho=1.0), (0.9, 0.2))):
        s = pseudo_field_at(p, q)
        assert s.B == pytest.approx(0.5 * s.K, rel=1e-12, abs=1e-15)
        # and the numeric curl of w reproduces -K/2
        assert s.curl_w == pytest.approx(-0.5 * s.K, rel=1e-7, abs=1e-9)


def test_cylinder_field_vanishes():
    s = pseudo_field_at(make_surface("cylinder", rho=2.0), (1.0, 0.5))
    assert s.B == pytest.approx(0.0, abs=1e-13)


def test_torus_field_signs_outer_inner():
    p = make_surface("torus", rho=1.0, R=3.0)
    assert pseudo_field_at(p, (0.0, 1.0)).B > 0       # outer equator
    assert pseudo_field_at(p, (math.pi - 1e-9, 1.0)).B < 0   # inner side


def test_nanoscale_bubble_field_in_tesla():
    # sphere of radius 1 nm: B = hbar/(2 e r^2) ~ 328 T to within 1%
    scale = PhysicalScale(length_m=1e-9)
    s = pseudo_field_at(make_surface("sphere", r=1.0), (1.2, 0.3))
    b_tesla = scale.b_tesla(s.B)
    assert b_tesla == pytest.approx(328.0, rel=0.01)


def test_curl_identity_random_points():
    rng = np.random.default_rng(5)
    for p in (make_surface("plane"), make_surface("sphere", r=1.0),
              make_surface("torus", rho=1.0, R=3.0)):
        (a0, a1), (b0, b1) = p.domain
        for _ in range(20):
            q = (rng.uniform(a0 + 0.15 * (a1 - a0), a1 - 0.15 * (a1 - a0)),
                 rng.uniform(b0 + 0.15 * (b1 - b0), b1 - 0.15 * (b1 - b0)))
            resid, F = curl_matches_w(p, q)
            assert resid < 1e-8
            assert np.all(np.isfinite(F))


def _scalar_route_sample(patch, q):
    """The curls by 17 scalar frame_fields calls: _fd1 over w and A_so,
    then the point itself; the oracle of the batched stencil."""
    q1, q2 = q
    h1 = max(patch.extents[0], 1e-12) * 1e-5
    h2 = max(patch.extents[1], 1e-12) * 1e-5
    d1w = _fd1(lambda u, v: frame_fields(patch, u, v).w, q1, q2, 0, h1)
    d2w = _fd1(lambda u, v: frame_fields(patch, u, v).w, q1, q2, 1, h2)
    d1A = _fd1(lambda u, v: frame_fields(patch, u, v).A_so, q1, q2, 0, h1)
    d2A = _fd1(lambda u, v: frame_fields(patch, u, v).A_so, q1, q2, 1, h2)
    ff = frame_fields(patch, q1, q2)
    curl_w = (d1w[1] - d2w[0]) / ff.sqrt_g
    comm = ff.A_so[0] @ ff.A_so[1] - ff.A_so[1] @ ff.A_so[0]
    curl_A = (d1A[1] - d2A[0] + 1j * comm) / ff.sqrt_g
    c1, c2, c3 = (0.5 * np.real(np.trace(s @ curl_A))
                  for s in (SIGMA1, SIGMA2, SIGMA3))
    return {"curl_w": float(curl_w), "curl_A_sigma3": float(c3),
            "K": float(ff.K), "w": ff.w,
            "F_tangential": ff.e_inv.T @ np.array([c1, c2])}


def test_batched_curls_match_scalar_route():
    rng = np.random.default_rng(29)
    expr_torus = make_surface(
        "generic", x="(2+cos(q1))*cos(q2)", y="(2+cos(q1))*sin(q2)",
        z="sin(q1)", domain=((0.0, 2 * math.pi), (0.0, 2 * math.pi)),
        periodic=(True, True))
    for p, count in ((make_surface("torus", rho=1.0, R=3.0), 40),
                     (make_surface("sphere", r=1.0), 40), (expr_torus, 10)):
        (a0, a1), (b0, b1) = p.domain
        for _ in range(count):
            q = (rng.uniform(a0 + 0.12 * (a1 - a0), a1 - 0.12 * (a1 - a0)),
                 rng.uniform(b0 + 0.12 * (b1 - b0), b1 - 0.12 * (b1 - b0)))
            s = pseudo_field_at(p, q)
            for name, ref in _scalar_route_sample(p, q).items():
                got = np.asarray(getattr(s, name))
                scale = max(np.max(np.abs(ref)), 1e-300)
                assert np.max(np.abs(got - ref)) <= 1e-14 * scale, name


def _counting_frame_fields(monkeypatch):
    import spinsurf.frames as frames
    import spinsurf.gauge as gauge
    calls = []
    original = frames.frame_fields

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(frames, "frame_fields", counting)
    monkeypatch.setattr(gauge, "frame_fields", counting)
    return calls


def test_pointwise_diagnostics_make_one_frame_fields_call(monkeypatch):
    import spinsurf.frames as frames
    calls = _counting_frame_fields(monkeypatch)
    torus = make_surface("torus", rho=1.0, R=3.0)
    for diagnostic, point in ((pseudo_field_at, (0.8, 2.0)),
                              (curl_matches_w, (0.9, 2.1))):
        calls.clear()
        diagnostic(torus, point)
        assert len(calls) == 1
    # the second diagnostic at the same point reuses the first's evaluation
    calls.clear()
    pseudo_field_at(torus, (0.9, 2.1))
    assert len(calls) == 0
    counts = []
    for q3s in ([1e-2, 1e-3, 1e-4], None):   # None: the default 7 values
        calls.clear()
        frames.expansion_report(torus, (0.8, 2.0), q3_sequence=q3s)
        counts.append(len(calls))
    assert counts == [1, 1]


def test_pointwise_memo_holds_one_entry(monkeypatch):
    calls = _counting_frame_fields(monkeypatch)
    torus = make_surface("torus", rho=1.0, R=3.0)
    points = [(0.31, 1.7), (0.47, 2.9)]
    for _ in range(2):
        for q in points:
            calls.clear()
            pseudo_field_at(torus, q)
            assert len(calls) == 1


def test_pointwise_memo_keys_on_the_patch_object(monkeypatch):
    calls = _counting_frame_fields(monkeypatch)
    torus = make_surface("torus", rho=1.0, R=3.0)
    twin = dataclasses.replace(torus)
    assert twin == torus and twin is not torus
    pseudo_field_at(torus, (0.52, 1.1))
    calls.clear()
    pseudo_field_at(twin, (0.52, 1.1))
    assert len(calls) == 1
    calls.clear()
    pseudo_field_at(twin, np.array([0.52, 1.1]))   # equal float coordinates
    assert len(calls) == 0


def _fields(sample):
    return {f.name: getattr(sample, f.name)
            for f in dataclasses.fields(sample)}


def test_pointwise_memo_hit_equals_a_fresh_evaluation():
    expr_torus = make_surface(
        "generic", x="(2+cos(q1))*cos(q2)", y="(2+cos(q1))*sin(q2)",
        z="sin(q1)", domain=((0.0, 2 * math.pi), (0.0, 2 * math.pi)),
        periodic=(True, True))
    for p, q in ((make_surface("sphere", r=1.0), (1.1, 0.6)),
                 (expr_torus, (2.2, 4.1))):
        curl_matches_w(p, q)
        hit = pseudo_field_at(p, q)
        pseudo_field_at(p, (q[0] + 0.1, q[1]))     # evicts the entry
        fresh = pseudo_field_at(p, q)
        assert fresh is not hit
        for name, value in _fields(hit).items():
            assert np.array_equal(value, _fields(fresh)[name]), name


def test_pointwise_sample_arrays_are_read_only():
    s = pseudo_field_at(make_surface("torus", rho=1.0, R=3.0), (0.7, 1.9))
    for arr in (s.w, s.A_so, s.F_tangential):
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ----------------------------------------------------------------------
# Flux quantization
# ----------------------------------------------------------------------

@pytest.mark.parametrize("r", [0.5, 1.0, 2.3])
def test_sphere_flux_two_quanta(r):
    res = flux(make_surface("sphere", r=r))
    assert res.genus == 0
    assert res.phi_over_phi0 == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("rho,R", [(1.0, 3.0), (1.0, 1.01), (1.0, 100.0)])
def test_torus_flux_zero_any_shape(rho, R):
    res = flux(make_surface("torus", rho=rho, R=R))
    assert res.genus == 1
    assert abs(res.phi_over_phi0) < 1e-8


def test_flux_open_patch_rejected():
    with pytest.raises(NotClosedSurfaceError):
        flux(make_surface("cylinder", rho=1.0))


def test_flux_quadrature_converges():
    # composite Gauss-Legendre on the sphere polar direction: the error
    # against the exact integer answer collapses under panel refinement
    p = make_surface("sphere", r=1.0)
    errs = []
    for n1 in (16, 32, 64):
        res = flux(p, n1=n1, n2=16, gl_order=2)
        errs.append(abs(res.phi_over_phi0 - 2.0) + 1e-17)
    assert errs[-1] < errs[0]
    slope = np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
    assert slope <= -3.0   # nominal order 2*gl_order = 4


@pytest.mark.parametrize("kind", ["torus", "sphere"])
@pytest.mark.parametrize("arg,value", [("n1", -5), ("n1", 0), ("n2", 8),
                                       ("n1", 15), ("gl_order", 0)])
def test_flux_rejects_unresolved_quadrature(kind, arg, value):
    # n1 = -5 once returned 0 flux quanta, 0 divided by zero, and 8
    # compared the run with itself for its error estimate
    with pytest.raises(SpinsurfError, match=arg):
        flux(make_surface(kind), **{arg: value})


# ----------------------------------------------------------------------
# Gauge transform of the sampled w field
# ----------------------------------------------------------------------

def test_gauge_transform_constant_phase_is_identity():
    p = make_surface("torus", rho=1.0, R=3.0)
    wf = sample_w(p, 16, 16)
    out = gauge_transform(wf, lambda u, v: 0.7 + 0.0 * u)
    assert np.allclose(out.w1, wf.w1, atol=1e-12)
    assert np.allclose(out.w2, wf.w2, atol=1e-12)


def test_gauge_transform_linear_phase_open_patch():
    p = make_surface("plane", lx=1.0, ly=1.0)
    wf = sample_w(p, 16, 16)
    a = 0.83
    out = gauge_transform(wf, lambda u, v: a * u)
    assert np.allclose(out.w1, wf.w1 - a, atol=1e-10)
    assert np.allclose(out.w2, wf.w2, atol=1e-10)


def test_gauge_transform_curl_unchanged():
    p = make_surface("torus", rho=1.0, R=3.0)
    wf = sample_w(p, 24, 24)

    def theta(u, v):
        return 0.4 * np.sin(u) + 0.2 * np.cos(2 * u)

    out = gauge_transform(wf, theta)

    def curl(f):
        d1 = np.gradient(f.w2, f.q1, axis=0, edge_order=2)
        d2 = np.gradient(f.w1, f.q2, axis=1, edge_order=2)
        return d1 - d2

    # interior rows only (one-sided boundary stencils are less accurate)
    c0 = curl(wf)[2:-2, 2:-2]
    c1 = curl(out)[2:-2, 2:-2]
    assert np.abs(c0 - c1).max() < 1e-6


def test_gauge_transform_winding_mismatch():
    p = make_surface("torus", rho=1.0, R=3.0)
    wf = sample_w(p, 12, 12)
    with pytest.raises(WindingMismatchError):
        gauge_transform(wf, lambda u, v: 0.5 * u)   # winds by pi around theta
    # integer winding is fine
    gauge_transform(wf, lambda u, v: 2.0 * u)


# ----------------------------------------------------------------------
# Pseudo-electric field and material estimate
# ----------------------------------------------------------------------

def test_pseudo_electric_umbilical_sphere():
    e1 = pseudo_electric_field(make_surface("sphere", r=1.0), (1.0, 0.5))
    e2 = pseudo_electric_field(make_surface("sphere", r=2.0), (1.0, 0.5))
    assert e1 is not None and e2 is not None
    assert e1 == pytest.approx(2.0, rel=1e-9)        # 2 alpha = 2/r
    assert e1 / e2 == pytest.approx(2.0, rel=1e-9)   # proportional to 1/r


def test_pseudo_electric_cylinder_anisotropic():
    assert pseudo_electric_field(make_surface("cylinder", rho=1.0),
                                 (0.3, 0.3)) is None


def test_pseudo_electric_plane_zero():
    assert pseudo_electric_field(make_surface("plane"), (0.5, 0.5)) == 0.0


def test_soi_radius_ingaas_window():
    # InGaAs: alpha~ = (3-4)e-11 eV m, zeta = 0.041 -> r = 23-31 nm
    r31 = soi_radius(3e-11, 0.041)
    r23 = soi_radius(4e-11, 0.041)
    assert r31 == pytest.approx(31e-9, rel=0.02)
    assert r23 == pytest.approx(23e-9, rel=0.02)
    # inverse proportionality
    assert soi_radius(6e-11, 0.041) == pytest.approx(r31 / 2.0, rel=1e-12)
    with pytest.raises(SurfaceParameterError):
        soi_radius(-1e-11, 0.041)
    with pytest.raises(SurfaceParameterError):
        soi_radius(3e-11, 0.0)
