import math

import numpy as np
import pytest

import spinsurf.frames as frames
from spinsurf.errors import DegenerateMetricError, SingularLayerError
from spinsurf.frames import (FrameFields, adapted_frame_at,
                             curvature_radius, expansion_report, frame_at,
                             frame_fields, verify_thin_layer_expansions)
from spinsurf.surfaces import make_surface

# hand-derived frame values for the built-in shapes, used as oracles below:
#   plane:            alpha = 0, K = M = 0, w = 0, S = 0
#   sphere (outward): alpha = g/r, K = 1/r^2, M = 1/r
#   cylinder(theta,z) outward: alpha^theta_theta = +1/rho, K = 0, w = 0,
#                     S^{z theta} = -1/rho the only nonzero entry
#   torus(theta,s) outward: alpha = diag(1/rho, cos/(R+rho cos)),
#                     K = cos/(rho (R+rho cos)), w_s = -sin/(2R)


def test_plane_is_flat():
    fd = frame_at(make_surface("plane"), (0.3, 0.8))
    assert fd.K == pytest.approx(0.0, abs=1e-14)
    assert fd.M == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(fd.alpha, 0.0, atol=1e-14)
    assert np.allclose(fd.w, 0.0, atol=1e-14)
    assert np.allclose(fd.S, 0.0, atol=1e-14)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_sphere_constant_curvature(r):
    fd = frame_at(make_surface("sphere", r=r), (1.1, 0.7))
    assert fd.K == pytest.approx(1.0 / r**2, rel=1e-10)
    assert abs(fd.M) == pytest.approx(1.0 / r, rel=1e-10)


def test_cylinder_frame_oracle():
    rho = 1.7
    fd = frame_at(make_surface("cylinder", rho=rho), (0.9, 0.4))
    assert fd.K == pytest.approx(0.0, abs=1e-12)
    assert fd.alpha[0, 0] == pytest.approx(1.0 / rho, rel=1e-10)
    assert fd.alpha[1, 1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(fd.w, 0.0, atol=1e-12)
    assert fd.S[1, 0] == pytest.approx(-1.0 / rho, rel=1e-10)
    assert abs(fd.S[0, 1]) < 1e-12


def test_torus_curvature_matches_closed_form():
    rho, R = 1.0, 3.0
    p = make_surface("torus", rho=rho, R=R)
    for th in (-2.0, 0.0, 0.8, 2.5):
        fd = frame_at(p, (th, 1.3))
        expected = math.cos(th) / (rho * (R + rho * math.cos(th)))
        assert fd.K == pytest.approx(expected, rel=1e-10, abs=1e-12)
        assert fd.w[1] == pytest.approx(-math.sin(th) / (2 * R), abs=1e-10)
        assert fd.w[0] == pytest.approx(0.0, abs=1e-10)


def test_vielbein_reconstructs_metric_and_invariants():
    rng = np.random.default_rng(11)
    for p in (make_surface("sphere", r=1.4),
              make_surface("torus", rho=0.8, R=2.5),
              make_surface("cylinder", rho=1.1)):
        (a0, a1), (b0, b1) = p.domain
        for _ in range(25):
            q = (rng.uniform(a0 + 0.1, a1 - 0.1), rng.uniform(b0, b1))
            fd = frame_at(p, q)
            g_rec = fd.e @ fd.e.T
            assert np.allclose(g_rec, fd.g, rtol=1e-10, atol=1e-12)
            assert fd.K == pytest.approx(np.linalg.det(fd.alpha), rel=1e-10,
                                         abs=1e-12)
            assert fd.M == pytest.approx(0.5 * np.trace(fd.alpha), rel=1e-10,
                                         abs=1e-12)
            # S^{ab} = eps^{ac} alpha_c^b exactly as assembled
            assert np.allclose(fd.S, np.stack([fd.alpha[1], -fd.alpha[0]]),
                               atol=0)


def test_analytic_numeric_paths_agree_on_frames():
    # generic (FD-jet) sphere against the closed-form one
    gen = make_surface(
        "generic", x="1.3*sin(q1)*cos(q2)", y="1.3*sin(q1)*sin(q2)",
        z="1.3*cos(q1)", domain=((0.3, 2.8), (0.0, 2 * math.pi)),
        periodic=(False, True))
    ana = make_surface("sphere", r=1.3)
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = (rng.uniform(0.5, 2.6), rng.uniform(0.2, 6.0))
        fa, fg = frame_at(ana, q), frame_at(gen, q)
        for name in ("g", "alpha", "K", "M"):
            x = np.asarray(getattr(fa, name))
            y = np.asarray(getattr(fg, name))
            assert np.max(np.abs(x - y)) <= 1e-8 * max(1.0, np.max(np.abs(x)))


def test_point_gives_same_bits_alone_or_in_a_batch():
    # at the torus point a lone call once squared |u| through libm pow,
    # and its w differed from the batched value at rounding level
    expr_torus = make_surface(
        "generic", x="(2+cos(q1))*cos(q2)", y="(2+cos(q1))*sin(q2)",
        z="sin(q1)", domain=((0.0, 2 * math.pi), (0.0, 2 * math.pi)),
        periodic=(True, True))
    for p, (q1, q2) in (
            (make_surface("torus", rho=1.0, R=3.0),
             (-2.1199554993627654, 7.0689068290183945)),
            (make_surface("sphere", r=1.0), (1.1, 0.7)),
            (expr_torus, (1.3, 2.2))):
        batch = frame_fields(p, np.array([0.3, q1, 1.0]),
                             np.array([1.0, q2, 2.0]))
        alone = frame_fields(p, q1, q2)
        for name in FrameFields.__slots__:
            assert np.array_equal(np.asarray(getattr(alone, name)),
                                  getattr(batch, name)[..., 1]), name


def test_frame_gauge_swap_confined():
    # swapping the orthonormalization order shifts w by pure gauge only
    p = make_surface("sphere", r=1.0)
    q = (1.2, 0.9)
    f1 = frame_fields(p, *q, frame_gauge="gs12")
    f2 = frame_fields(p, *q, frame_gauge="gs21")
    assert f1.K == pytest.approx(f2.K, rel=1e-12)
    assert f1.M == pytest.approx(f2.M, rel=1e-12)
    assert np.allclose(np.sort(np.linalg.svd(f1.S, compute_uv=False)),
                       np.sort(np.linalg.svd(f2.S, compute_uv=False)),
                       rtol=1e-10)

    def curl(gauge):
        h = 1e-5

        def w(u, v):
            return frame_fields(p, u, v, frame_gauge=gauge).w
        d1 = (w(q[0] - 2*h, q[1]) - 8*w(q[0] - h, q[1])
              + 8*w(q[0] + h, q[1]) - w(q[0] + 2*h, q[1])) / (12*h)
        d2 = (w(q[0], q[1] - 2*h) - 8*w(q[0], q[1] - h)
              + 8*w(q[0], q[1] + h) - w(q[0], q[1] + 2*h)) / (12*h)
        ff = frame_fields(p, *q, frame_gauge=gauge)
        return (d1[1] - d2[0]) / ff.sqrt_g

    assert curl("gs12") == pytest.approx(curl("gs21"), abs=1e-8)


def test_degenerate_metric_raises():
    # a parametrization collapsing one direction is rejected either at
    # construction (coarse regularity sweep) or at frame evaluation
    with pytest.raises(DegenerateMetricError):
        p = make_surface("generic", x="q1", y="q1", z="0*q2",
                         domain=((0.0, 1.0), (0.0, 1.0)))
        frame_at(p, (0.5, 0.5))


def test_non_finite_metric_raises():
    # sqrt(q1 - 2) is finite on the domain, NaN at q1 = 1 outside it; a NaN
    # det g compares False both ways and must not pass as regular
    p = make_surface("generic", x="sqrt(q1-2)", y="q2", z="q1*q2",
                     domain=((2.5, 3.5), (0.0, 1.0)))
    assert np.isfinite(frame_at(p, (3.0, 0.5)).K)
    with np.errstate(invalid="ignore"), \
            pytest.raises(DegenerateMetricError, match="not finite"):
        frame_at(p, (1.0, 0.5))


def test_unknown_frame_gauge_raises_on_the_call():
    with pytest.raises(ValueError, match="frame gauge"):
        frame_fields(make_surface("sphere"), 1.0, 1.0, frame_gauge="gs13")


# ----------------------------------------------------------------------
# Staged frame fields
# ----------------------------------------------------------------------

def _eager_frame_fields(patch, q1, q2, frame_gauge="gs12"):
    """Every frame field at once, in one fixed order: frame_fields as it was
    before its stages ran on first read, kept as the oracle of the staged
    fields."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    r, r_a, r_ab = patch.jet(q1, q2)
    g = np.einsum("ja...,jb...->ab...", r_a, r_a)
    det_g = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    e_hat, de_hat2 = frames._gram_schmidt(r_a, r_ab, frame_gauge)
    w = -0.5 * np.einsum("j...,ja...->a...", e_hat[:, 0], de_hat2)
    g_inv = frames._inv22(g)
    sqrt_g = np.sqrt(det_g)

    cross = np.cross(r_a[:, 0], r_a[:, 1], axisa=0, axisb=0, axis=0)
    n_hat = cross / np.sqrt((cross**2).sum(axis=0))
    alpha_lower = -np.einsum("j...,jab...->ab...", n_hat, r_ab)
    alpha = np.einsum("ac...,cb...->ab...", alpha_lower, g_inv)
    K = alpha[0, 0] * alpha[1, 1] - alpha[0, 1] * alpha[1, 0]
    M = 0.5 * (alpha[0, 0] + alpha[1, 1])
    e = np.einsum("ja...,ji...->ai...", r_a, e_hat)
    e_inv = frames._inv22(e)
    S = np.stack([alpha[1], -alpha[0]])
    sigma_tan = (np.einsum("b...,st->bst...", e[:, 0], frames.SIGMA1)
                 + np.einsum("b...,st->bst...", e[:, 1], frames.SIGMA2))
    A_so = (np.einsum("a...,st...->ast...", alpha_lower[:, 0], sigma_tan[1])
            - np.einsum("a...,st...->ast...", alpha_lower[:, 1], sigma_tan[0])
            ) / (2.0 * sqrt_g)
    return dict(q1=q1, q2=q2, r=r, r_a=r_a, n_hat=n_hat, g=g, g_inv=g_inv,
                sqrt_g=sqrt_g, alpha_lower=alpha_lower, alpha=alpha, K=K,
                M=M, e=e, e_inv=e_inv, w=w, S=S, A_so=A_so)


def _expression_torus():
    # the torus (rho = 1, R = 2) written out, so its jet is numeric
    return make_surface("generic", x="(2+cos(q1))*cos(q2)",
                        y="(2+cos(q1))*sin(q2)", z="sin(q1)",
                        domain=((0.0, 2 * math.pi), (0.0, 2 * math.pi)),
                        periodic=(True, True))


def _oracle_points(patch):
    """A scalar point, its 9-point stencil and a 384^2 grid, inside the
    domain (clear of the sphere's poles)."""
    (a0, a1), (b0, b1) = patch.domain
    q1, q2 = a0 + 0.37 * (a1 - a0), b0 + 0.53 * (b1 - b0)
    off = np.array([0.0, -2.0, -1.0, 1.0, 2.0]) * 1e-3
    s1 = np.concatenate((q1 + off * (a1 - a0), np.full(4, q1)))
    s2 = np.concatenate((np.full(5, q2), q2 + off[1:] * (b1 - b0)))
    g1, g2 = np.meshgrid(np.linspace(a0 + 0.02 * (a1 - a0),
                                     a1 - 0.02 * (a1 - a0), 384),
                         np.linspace(b0, b1, 384), indexing="ij")
    return ((q1, q2), (s1, s2), (g1, g2))


@pytest.mark.parametrize("frame_gauge", ["gs12", "gs21"])
@pytest.mark.parametrize("kind", ["plane", "cylinder", "sphere", "torus",
                                  "expression torus"])
def test_staged_fields_equal_the_eager_oracle(kind, frame_gauge):
    # every field keeps its bits, whichever stage a caller reads first
    patch = (_expression_torus() if kind == "expression torus"
             else make_surface(kind))
    orders = (FrameFields.__slots__, ("w", "K", "A_so", "e_inv", "e", "S"),
              FrameFields.__slots__[::-1])
    for (q1, q2), reads in zip(_oracle_points(patch),
                               (orders, orders, orders[-1:])):
        want = _eager_frame_fields(patch, q1, q2, frame_gauge)
        for order in reads:
            ff = frame_fields(patch, q1, q2, frame_gauge=frame_gauge)
            for name in order:
                got = np.asarray(getattr(ff, name))
                assert got.dtype == want[name].dtype, name
                assert got.shape == np.shape(want[name]), name
                assert got.tobytes() == np.asarray(want[name]).tobytes(), name
            # the jet's second derivatives go once their readers have run
            assert ff._r_ab is None


def _count_stages(monkeypatch):
    """Record each stage run of frame_fields, by stage function name."""
    runs = []
    wrapped = {}
    for name, stage in list(frames._STAGES.items()):
        if stage not in wrapped:
            def counting(ff, stage=stage):
                runs.append(stage.__name__)
                stage(ff)
            wrapped[stage] = counting
        monkeypatch.setitem(frames._STAGES, name, wrapped[stage])
    return runs


def test_sphere_flux_reads_no_frame(monkeypatch):
    # B = K/2 needs K and sqrt g only: two evaluations (the run and its
    # half-resolution check), no Gram-Schmidt frame
    from spinsurf.gauge import flux
    from spinsurf.surfaces import SurfacePatch
    jets, frames_made = [], []
    jet, gram_schmidt = SurfacePatch.jet, frames._gram_schmidt

    def counting_jet(self, q1, q2):
        jets.append(1)
        return jet(self, q1, q2)

    def counting_gram_schmidt(*args):
        frames_made.append(1)
        return gram_schmidt(*args)

    sphere = make_surface("sphere", r=1.0)
    monkeypatch.setattr(SurfacePatch, "jet", counting_jet)
    monkeypatch.setattr(frames, "_gram_schmidt", counting_gram_schmidt)
    res = flux(sphere)
    assert res.phi_over_phi0 == pytest.approx(2.0, rel=1e-6)
    assert len(jets) == 2
    assert not frames_made


def _run_experiment(tmp_path, experiment):
    from spinsurf import cli
    path = tmp_path / "run.cfg"
    path.write_text("kind = torus\n")
    cli._RUNNERS[experiment](cli.load_config(str(path)))


_TORUS = make_surface("torus", rho=1.0, R=3.0)


@pytest.mark.parametrize("caller,expected", [
    ("flux", {"_curvature": 2}),
    ("geometry-report", {"_curvature": 1}),
    ("field-map", {"_curvature": 1, "_connection": 1}),
    ("sample_w", {"_connection": 1}),
    # nodes: all but e^{-1} and A_so; each half-step axis: the connection
    ("assemble_Heff", {"_curvature": 1, "_connection": 3, "_vielbein": 1,
                       "_coupling": 1}),
    ("pseudo_field_at", {"_curvature": 1, "_connection": 1, "_vielbein": 1,
                         "_vielbein_inverse": 1, "_coupling": 1,
                         "_spin_orbit_field": 1}),
])
def test_each_caller_runs_the_stages_it_reads(caller, expected, monkeypatch,
                                              tmp_path):
    from spinsurf import gauge, hamiltonian
    calls = {
        "flux": lambda: gauge.flux(_TORUS),
        "geometry-report": lambda: _run_experiment(tmp_path, caller),
        "field-map": lambda: _run_experiment(tmp_path, caller),
        "sample_w": lambda: gauge.sample_w(_TORUS, 16, 16),
        "assemble_Heff": lambda: hamiltonian.assemble_Heff(
            _TORUS, hamiltonian.Grid.for_patch(_TORUS, 12, 16)),
        "pseudo_field_at": lambda: gauge.pseudo_field_at(_TORUS, (0.4, 1.7)),
    }
    runs = _count_stages(monkeypatch)
    calls[caller]()
    assert {s: runs.count(s) for s in set(runs)} == expected


# ----------------------------------------------------------------------
# Adapted frame
# ----------------------------------------------------------------------

def test_adapted_frame_q3_zero_reduces_to_surface():
    p = make_surface("torus", rho=1.0, R=3.0)
    fd = frame_at(p, (0.8, 2.0))
    ad = adapted_frame_at(p, (0.8, 2.0), 0.0)
    assert ad.f == pytest.approx(1.0)
    assert np.allclose(ad.G[:2, :2], fd.g, rtol=1e-12)
    assert ad.G[2, 2] == 1.0 and ad.G[0, 2] == 0.0 and ad.G[2, 1] == 0.0


def test_rescale_factor_and_block_determinant():
    # direct evaluation both ways: f from tr/det alpha, det G = f^2 g
    p = make_surface("sphere", r=1.0)
    q3 = 0.01
    fd = frame_at(p, (1.0, 0.5))
    ad = adapted_frame_at(p, (1.0, 0.5), q3)
    f_expected = (1.0 + np.trace(fd.alpha) * q3
                  + np.linalg.det(fd.alpha) * q3**2)
    assert ad.f == pytest.approx(f_expected, rel=1e-12)
    det_g = np.linalg.det(fd.g)
    assert ad.det_G == pytest.approx(ad.f**2 * det_g, rel=1e-10)


def test_cylinder_christoffel_expansion_oracle():
    # Gamma^3_{theta theta} = -alpha_tt - (alpha g alpha^T)_tt q3 exactly,
    # cross-checked against the finite-difference Christoffels in Gamma
    rho = 1.0
    p = make_surface("cylinder", rho=rho)
    q3 = 0.05
    ad = adapted_frame_at(p, (0.7, 0.3), q3)
    expected = -(rho + q3)   # alpha_tt = rho, (alpha g alpha^T)_tt = 1
    assert ad.Gamma[2, 0, 0] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("r, point", [(1.0, (1.1, 0.7)), (2.0, (0.6, 4.0))])
def test_sphere_christoffel_oracle(r, point):
    # surface and normal Christoffels of the sphere at q3 = 0, indexed
    # [C, A, B] = Gamma^C_{AB} with (theta, phi, normal) = (0, 1, 2)
    th = point[0]
    Gam = adapted_frame_at(make_surface("sphere", r=r), point, 0.0).Gamma
    expected = {(0, 1, 1): -math.sin(th) * math.cos(th),
                (1, 0, 1): 1.0 / math.tan(th), (1, 1, 0): 1.0 / math.tan(th),
                (2, 0, 0): -r, (2, 1, 1): -r * math.sin(th)**2,
                (0, 2, 0): 1.0 / r, (1, 2, 1): 1.0 / r,
                (0, 0, 2): 1.0 / r, (1, 1, 2): 1.0 / r}
    for idx, value in expected.items():
        assert abs(Gam[idx] - value) < 1e-9, idx


def test_vielbein_block_and_truncated_inverse():
    p = make_surface("torus", rho=1.0, R=3.0)
    fd = frame_at(p, (0.8, 2.0))
    res_exact = []
    res_invi = []
    q3s = (1e-2, 1e-3, 1e-4)
    for q3 in q3s:
        ad = adapted_frame_at(p, (0.8, 2.0), q3)
        block = (np.eye(2) + q3 * fd.alpha) @ fd.e
        res_exact.append(np.abs(ad.E[:2, :2] - block).max())
        invi = fd.e_inv - q3 * (fd.e_inv @ fd.alpha)
        res_invi.append(np.abs(ad.E_inv[:2, :2] - invi).max())
    assert max(res_exact) < 1e-14                      # Eq-level exact
    slope = np.polyfit(np.log(q3s), np.log(res_invi), 1)[0]
    assert slope >= 1.8                                # inverse good to O(q3^2)


def test_singular_layer_raises():
    p = make_surface("sphere", r=1.0)
    with pytest.raises(SingularLayerError):
        adapted_frame_at(p, (1.0, 0.5), -1.0)   # focal point of the sphere


# ----------------------------------------------------------------------
# Thin-layer expansion report
# ----------------------------------------------------------------------

def test_plane_expansions_identically_zero():
    rep = expansion_report(make_surface("plane"), (0.4, 0.6))
    assert rep.passed
    assert all(c.exact_zero for c in rep.checks)
    assert rep.tetrad_residuals.max() < 1e-12


def test_sphere_expansion_orders():
    rep = verify_thin_layer_expansions(make_surface("sphere", r=1.0),
                                       (1.1, 0.7))
    by_name = {c.name: c for c in rep.checks}
    omega3 = by_name["Omega_3"]
    assert omega3.exact_zero or omega3.fitted_slope >= 2.0
    r33 = by_name["R_33 combination"]
    assert r33.fitted_slope >= 0.9
    assert rep.tetrad_residuals.max() < 1e-8


def test_torus_expansion_orders():
    rep = verify_thin_layer_expansions(make_surface("torus", rho=1.0, R=3.0),
                                       (0.8, 2.0))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["G^ab R_ab combination"].passed
    assert by_name["R_33 combination"].fitted_slope >= 0.9
    assert by_name["Omega_a - i sigma3 w_a - i A_so"].fitted_slope >= 0.9
    assert rep.tetrad_residuals.max() < 1e-8


def test_expansion_sequence_validation():
    p = make_surface("sphere", r=1.0)
    with pytest.raises(ValueError):
        expansion_report(p, (1.0, 1.0), q3_sequence=[1e-5, 1e-4])  # increasing


def test_curvature_radius():
    assert curvature_radius(make_surface("sphere", r=2.0), (1.0, 1.0)) \
        == pytest.approx(2.0, rel=1e-9)
    p = make_surface("plane")
    assert curvature_radius(p, (0.5, 0.5)) == p.scale


def test_expansion_slopes_stable_under_stencil_rounding(monkeypatch):
    # an algebraically equal reordering of the 4th-order stencil moves the
    # residuals by rounding only; the fitted slopes, which the expansions
    # artifact writes, must move by at most 1e-9 relative
    points = ((make_surface("sphere", r=1.0), (1.1, 0.7)),
              (make_surface("torus", rho=1.0, R=3.0), (0.8, 2.0)),
              (make_surface("torus", rho=1.0, R=3.0), (2.4, 7.0)))
    before = [expansion_report(p, q) for p, q in points]

    def reordered(samples, h):
        f_m2, f_m1, f_p1, f_p2 = samples
        return ((f_m2 - f_p2) + 8.0 * (f_p1 - f_m1)) / (12.0 * h)

    monkeypatch.setattr(frames, "_fd4", reordered)
    after = [expansion_report(p, q) for p, q in points]
    moved, worst = False, 0.0
    for rb, ra in zip(before, after):
        for cb, ca in zip(rb.checks, ra.checks):
            moved |= not np.array_equal(cb.residuals, ca.residuals)
            assert cb.exact_zero == ca.exact_zero and ca.passed
            if not cb.exact_zero:
                worst = max(worst, abs(ca.fitted_slope - cb.fitted_slope)
                            / abs(cb.fitted_slope))
    assert moved
    assert worst <= 1e-9


def test_weakly_curved_fit_uses_every_nonzero_residual():
    # on a cylinder of radius 1e3 every R_33 residual (<= 2e-8) sits below
    # the fit floor; the slope is then fitted through all nonzero ones
    rep = expansion_report(make_surface("cylinder", rho=1e3, length=1.0),
                           (0.3, 0.5))
    r33 = {c.name: c for c in rep.checks}["R_33 combination"]
    assert r33.residuals.max() < frames._FIT_FLOOR
    assert not r33.exact_zero
    assert r33.fitted_slope == pytest.approx(1.0, abs=0.01)
