"""Geometry-induced gauge structures on a surface patch.

The abelian connection w_a couples to sigma_3 and defines the
pseudo-magnetic field B = hbar K / (2 e)  (natural units: B = K/2); the
non-abelian field (A_so)_a carries the curvature-induced spin-orbit
coupling.  The "curl" of the non-abelian field is its field strength
divided by i,

    curl(A)_ab-free = (d1 A_2 - d2 A_1 + i [A_1, A_2]) / sqrt(g),

whose sigma_3 coefficient equals the curl of w (= -K/2) pointwise; the
tangential coefficients F^a have no closed form and are reported without
assertion.

Normalization note: the spin connection here is half the one used in
parts of the strained-graphene literature, so the pseudo-field is
hbar K/2e rather than hbar K/e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import constants
from .errors import (GridError, NotClosedSurfaceError, SurfaceParameterError,
                     WindingMismatchError)
from .frames import (SIGMA1, SIGMA2, SIGMA3, _point_fields, _stencil_d,
                     _stencil_fields, frame_at, frame_fields)
from .surfaces import SurfacePatch, _fd1

__all__ = [
    "GaugeFieldSample",
    "pseudo_field_at",
    "curl_matches_w",
    "FluxResult",
    "flux",
    "WField",
    "sample_w",
    "gauge_transform",
    "pseudo_electric_field",
    "soi_radius",
]


@dataclass(frozen=True)
class GaugeFieldSample:
    """Gauge data at one surface point (natural units hbar = e = 1)."""

    point: tuple
    K: float
    w: np.ndarray               # (2,)
    B: float                    # pseudo-magnetic field, = K/2
    A_so: np.ndarray            # (2,2,2) complex
    curl_w: float               # numeric (d1 w2 - d2 w1)/sqrt(g)
    curl_A_sigma3: float        # sigma_3 coefficient of the A_so curl
    F_tangential: np.ndarray    # (2,) coordinate components F^a, reported only


# stencil step of the numeric curls, relative to each domain extent
_CURL_STEP = 1e-5


def _curls(patch, q1, q2):
    """Numeric curls of w and A_so at a point; returns (curl_w, curl_A, ff).

    One frame_fields call covers the point and its stencil; ff holds the
    fields at the point itself.
    """
    h = [max(ext, 1e-12) * _CURL_STEP for ext in patch.extents]
    st = _stencil_fields(patch, q1, q2, h)
    w = np.moveaxis(st.w, -1, 0)
    A = np.moveaxis(st.A_so, -1, 0)
    d1w, d2w = _stencil_d(w, 0, h), _stencil_d(w, 1, h)
    d1A, d2A = _stencil_d(A, 0, h), _stencil_d(A, 1, h)
    ff = _point_fields(st, 0)
    curl_w = (d1w[1] - d2w[0]) / ff.sqrt_g
    comm = ff.A_so[0] @ ff.A_so[1] - ff.A_so[1] @ ff.A_so[0]
    curl_A = (d1A[1] - d2A[0] + 1j * comm) / ff.sqrt_g
    return float(curl_w), curl_A, ff


# (patch, (q1, q2), sample) of the last pseudo_field_at evaluation; the
# patch itself is held, so no other patch can come to share its id
_last_sample = None


def pseudo_field_at(patch: SurfacePatch, point) -> GaugeFieldSample:
    """Evaluate w, B = K/2, A_so, and the curl decomposition at a point.

    The last evaluation is kept: a call with the same patch object and
    equal coordinates returns its sample, so curl_matches_w followed by
    pseudo_field_at at one point evaluates the geometry once.  One entry
    only, so a pass over many points costs the same each time.  The
    sample's arrays are read-only, as the next caller may share them.
    """
    global _last_sample
    q1, q2 = float(point[0]), float(point[1])
    last = _last_sample
    if last is not None and last[0] is patch and last[1] == (q1, q2):
        return last[2]
    curl_w, curl_A, ff = _curls(patch, q1, q2)
    c1 = 0.5 * np.real(np.trace(SIGMA1 @ curl_A))
    c2 = 0.5 * np.real(np.trace(SIGMA2 @ curl_A))
    c3 = 0.5 * np.real(np.trace(SIGMA3 @ curl_A))
    # frame coefficients -> coordinate components F^a = e_i^a c_i
    F = ff.e_inv.T @ np.array([c1, c2])
    w = np.array(ff.w, dtype=float)
    for arr in (w, ff.A_so, F):
        arr.flags.writeable = False
    sample = GaugeFieldSample(
        point=(q1, q2), K=float(ff.K), w=w, B=0.5 * float(ff.K),
        A_so=ff.A_so, curl_w=curl_w, curl_A_sigma3=float(c3),
        F_tangential=F)
    _last_sample = (patch, (q1, q2), sample)
    return sample


def curl_matches_w(patch: SurfacePatch, point):
    """|sigma_3 part of curl(A_so) - curl(w)| and the tangential remainder.

    Returns (residual, F_tangential); both curls are computed by numeric
    differentiation, independent of the closed forms they should equal.
    """
    sample = pseudo_field_at(patch, point)
    return abs(sample.curl_A_sigma3 - sample.curl_w), sample.F_tangential


# ----------------------------------------------------------------------
# Flux quantization
# ----------------------------------------------------------------------

# least flux resolution per direction: the error estimate reruns at half
# of it, and 8 is the least grid elsewhere (Grid.for_patch)
_FLUX_MIN_N = 16


@dataclass(frozen=True)
class FluxResult:
    phi_over_phi0: float
    genus: int
    error_estimate: float
    n_points: tuple


def flux(patch: SurfacePatch, n1: int = 96, n2: int = 96,
         gl_order: int = 8) -> FluxResult:
    """Integrated pseudo-magnetic flux of a closed surface, in units Phi0.

    Periodic directions use the composite trapezoid rule (spectrally
    accurate); the polar direction of the sphere chart uses composite
    Gauss-Legendre panels with the pole caps added by the exact spherical
    cap formula.  The error estimate is the difference against a
    half-resolution evaluation (n1 // 2, n2 // 2).  Raises GridError
    unless n1, n2 >= 16 and gl_order >= 1, and NotClosedSurfaceError for
    open patches.
    """
    for name, value, least in (("n1", n1, _FLUX_MIN_N),
                               ("n2", n2, _FLUX_MIN_N),
                               ("gl_order", gl_order, 1)):
        if value < least:
            raise GridError(f"flux needs {name} >= {least}, got {value}")

    def run(m1, m2):
        if patch.kind == "sphere":
            return _flux_sphere(patch, m1, m2, gl_order)
        if patch.periodic[0] and patch.periodic[1]:
            return _flux_biperiodic(patch, m1, m2)
        raise NotClosedSurfaceError(
            f"flux needs a closed surface; {patch.kind} patch is open")

    phi = run(n1, n2)
    phi_coarse = run(n1 // 2, n2 // 2)
    genus = patch.genus if patch.genus is not None else 0
    return FluxResult(
        phi_over_phi0=phi / constants.PHI0_NATURAL,
        genus=genus,
        error_estimate=abs(phi - phi_coarse) / constants.PHI0_NATURAL,
        n_points=(n1, n2))


def _flux_biperiodic(patch, m1, m2):
    (a0, a1), (b0, b1) = patch.domain
    h1 = (a1 - a0) / m1
    h2 = (b1 - b0) / m2
    q1 = a0 + h1 * np.arange(m1)
    q2 = b0 + h2 * np.arange(m2)
    Q1, Q2 = np.meshgrid(q1, q2, indexing="ij")
    ff = frame_fields(patch, Q1, Q2)
    cells = 0.5 * ff.K * ff.sqrt_g * h1 * h2   # B = K/2
    return math.fsum(cells.ravel().tolist())


def _flux_sphere(patch, m1, m2, gl_order):
    r0 = patch.params["r"]
    theta_cap = math.pi / 18.0
    # exact caps: B * area = (1/(2 r^2)) * 2 pi r^2 (1 - cos theta_cap)
    caps = 2.0 * math.pi * (1.0 - math.cos(theta_cap))
    nodes, weights = np.polynomial.legendre.leggauss(gl_order)
    panels = np.linspace(theta_cap, math.pi - theta_cap, m1 + 1)
    th = []
    wt = []
    for lo, hi in zip(panels[:-1], panels[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        th.append(mid + half * nodes)
        wt.append(half * weights)
    th = np.concatenate(th)
    wt = np.concatenate(wt)
    h2 = 2.0 * math.pi / m2
    phi = h2 * np.arange(m2)
    Q1, Q2 = np.meshgrid(th, phi, indexing="ij")
    ff = frame_fields(patch, Q1, Q2)
    cells = 0.5 * ff.K * ff.sqrt_g * wt[:, None] * h2
    return math.fsum(cells.ravel().tolist()) + caps


# ----------------------------------------------------------------------
# Abelian gauge transform of a sampled w field
# ----------------------------------------------------------------------

@dataclass
class WField:
    """w_a sampled on a rectangular parameter grid."""

    q1: np.ndarray      # (n1,)
    q2: np.ndarray      # (n2,)
    w1: np.ndarray      # (n1, n2)
    w2: np.ndarray      # (n1, n2)
    periodic: tuple
    period: tuple       # coordinate periods where periodic, else None


def sample_w(patch: SurfacePatch, n1: int, n2: int) -> WField:
    """Sample w on an n1 x n2 grid over the patch domain."""
    (a0, a1), (b0, b1) = patch.domain
    q1 = np.linspace(a0, a1, n1, endpoint=not patch.periodic[0])
    q2 = np.linspace(b0, b1, n2, endpoint=not patch.periodic[1])
    Q1, Q2 = np.meshgrid(q1, q2, indexing="ij")
    ff = frame_fields(patch, Q1, Q2)
    return WField(q1=q1, q2=q2, w1=ff.w[0], w2=ff.w[1],
                  periodic=patch.periodic,
                  period=(a1 - a0 if patch.periodic[0] else None,
                          b1 - b0 if patch.periodic[1] else None))


_WINDING_TOL = 1e-9  # in turns: how far a seam jump may miss 2*pi*n


def gauge_transform(wf: WField, theta: Callable) -> WField:
    """Apply w'_a = w_a - d_a theta on the sampled grid.

    theta(q1, q2) must be smooth and single-valued; on periodic
    directions it may wind by integer multiples of 2*pi, anything else
    raises WindingMismatchError.  The derivative is evaluated by 4th-order
    differences of the supplied callable, so the curl of w is unchanged
    up to that stencil's accuracy.
    """
    for axis, period in enumerate(wf.period):
        if period is None:
            continue
        qa = wf.q1 if axis == 1 else wf.q2  # vary along the other axis
        probes = qa[:: max(len(qa) // 4, 1)]
        for q_other in probes:
            if axis == 0:
                jump = theta(wf.q1[0] + period, q_other) - theta(wf.q1[0], q_other)
            else:
                jump = theta(q_other, wf.q2[0] + period) - theta(q_other, wf.q2[0])
            frac = jump / (2.0 * math.pi)
            if abs(frac - round(frac)) > _WINDING_TOL:
                raise WindingMismatchError(
                    f"gauge phase winds by {jump:.6g} (not a multiple of "
                    f"2*pi) around periodic direction {axis + 1}")

    Q1, Q2 = np.meshgrid(wf.q1, wf.q2, indexing="ij")
    h1 = (wf.q1[1] - wf.q1[0]) * 1e-3
    h2 = (wf.q2[1] - wf.q2[0]) * 1e-3
    d1 = _fd1(theta, Q1, Q2, 0, h1)
    d2 = _fd1(theta, Q1, Q2, 1, h2)
    return WField(q1=wf.q1, q2=wf.q2, w1=wf.w1 - d1, w2=wf.w2 - d2,
                  periodic=wf.periodic, period=wf.period)


# ----------------------------------------------------------------------
# Pseudo-electric field and the material estimate
# ----------------------------------------------------------------------

def pseudo_electric_field(patch: SurfacePatch, point,
                          tol: float = 1e-9) -> Optional[float]:
    """Umbilical pseudo-electric field, or None when anisotropic.

    Defined only when alpha_1^1 = alpha_2^2 (then the spin-orbit term has
    the isotropic Rashba form).  The returned value is the geometry
    factor 2 * alpha_1^1 in units 1/length; multiply by m c^2 / e (see
    PhysicalScale.pseudo_electric_v_per_m) for SI.  Flat patches return
    0.0; anisotropic ones return None (a signaled variant, not an error).
    """
    fd = frame_at(patch, point)
    norm = np.abs(fd.alpha).max()
    if norm < 1e-12 / patch.scale:
        return 0.0
    if abs(fd.alpha[0, 0] - fd.alpha[1, 1]) >= tol * norm:
        return None
    return 2.0 * float(fd.alpha[0, 0])


def soi_radius(alpha_coupling_ev_m: float, zeta: float) -> float:
    """Curvature radius at which the geometric SOI matches a material SOI.

    r = 3.79e-20 eV m^2 / (zeta * alpha~), with alpha~ the material
    spin-orbit coupling in eV*m and zeta = m*/m_e the mass ratio.
    Returns meters.
    """
    if alpha_coupling_ev_m <= 0.0 or zeta <= 0.0:
        raise SurfaceParameterError(
            "soi_radius needs positive coupling and mass ratio")
    return constants.SOI_RADIUS_COEFF_EV_M2 / (zeta * alpha_coupling_ev_m)
