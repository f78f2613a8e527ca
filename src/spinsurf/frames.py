"""Pointwise surface frames, adapted (thin-layer) frames, and expansion checks.

Conventions fixed here and used by every downstream module:

* unit normal  n = (d1 r x d2 r)/|...|  (right-handed in coordinate order);
* Weingarten matrix  alpha_ab = d_a r . d_b n  (lowered), mixed form
  A = alpha . g^{-1}; Gaussian curvature K = det A, mean curvature
  M = tr(A)/2;
* vielbein from Gram-Schmidt on (d1 r, d2 r) in that order (documented
  gauge choice), e_a^i = d_a r . e_hat_i;
* abelian spin connection  w_a = -1/2 e_hat_1 . d_a e_hat_2.  The sign is
  chosen so that the two-dimensional curl (d1 w2 - d2 w1)/sqrt(g) equals
  -K/2 identically, which is the normalization the gauge-field and
  force checks are written against;
* coupling tensor  S^{ab} = eps^{ac} alpha_c^b  with eps the Levi-Civita
  *symbol* (eps^{12} = +1); the companion 1/sqrt(g) lives explicitly in
  the spin-orbit Hamiltonian;
* non-abelian spin-orbit gauge field
  (A_so)_a = (1/(2 sqrt(g))) eps^{cb} sigma_b alpha_ac with tangential
  Pauli matrices sigma_b = e_b^j sigma_j built from constant frame
  matrices.

Spinor components always live in the local orthonormal frame: sigma_3 is
the normal spin direction everywhere, and all position dependence sits in
(e_a^i, w_a, S^{ab}).

``frame_fields`` computes its fields in stages, each on the first read of
one of its fields, so a caller pays only for the stages it reads:

* metric (on the call): the jet r, d_a r, d_a d_b r; g, g^{-1}, sqrt(g),
  and the check that g is regular and finite;
* curvature: n, alpha_ab, alpha_a^b, K, M;
* connection: the Gram-Schmidt frame and w_a;
* vielbein: e_a^i, then e^{-1} on its own read;
* spin: S^{ab}, then A_so on its own read.

The jet's second derivatives are dropped once the curvature and the
connection stages have both run.  Each stage evaluates the same
expressions whichever stage ran first, so every field has the same bits
however the fields are read.  The gauge flux reads the metric and
curvature stages, a grid's half-steps the metric and connection stages,
its nodes everything except e^{-1} and A_so, and a pointwise stencil
everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, ExpansionOrderError, SingularLayerError
from .surfaces import _FD_OFFSETS, SurfacePatch, _fd4

__all__ = [
    "PAULI",
    "FrameFields",
    "frame_at",
    "frame_fields",
    "AdaptedFrameData",
    "adapted_frame_at",
    "ExpansionCheck",
    "ExpansionReport",
    "expansion_report",
    "verify_thin_layer_expansions",
    "curvature_radius",
]

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA1, SIGMA2, SIGMA3)

def _inv22(m):
    """Inverse of a stack of 2x2 matrices with leading index axes (2,2,...)."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    out = np.empty_like(m)
    out[0, 0] = m[1, 1]
    out[0, 1] = -m[0, 1]
    out[1, 0] = -m[1, 0]
    out[1, 1] = m[0, 0]
    return out / det


class FrameFields:
    """Bag of pointwise frame quantities evaluated on an array of points.

    All arrays carry their tensor indices first and the point shape last:
    g (2,2,...), e (2,2,...) indexed [a, i], A_so (2,2,2,...) indexed
    [a, spinor, spinor], w (2,...), scalars (...,).
    """

    __slots__ = ("q1", "q2", "r", "r_a", "n_hat", "g", "g_inv", "sqrt_g",
                 "alpha_lower", "alpha", "K", "M", "e", "e_inv", "w",
                 "S", "A_so")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])


class _StagedFields(FrameFields):
    """The FrameFields that frame_fields returns: the metric stage is set on
    construction, every other field is computed on its first read by the
    stage _STAGES names for it.  A stage runs at most once, and fields a
    caller never reads are never computed."""

    __slots__ = ("_r_ab", "_jet_readers", "_frame_gauge", "_e_hat")

    def __init__(self, q1, q2, r, r_a, r_ab, g, g_inv, sqrt_g, frame_gauge):
        self.q1, self.q2, self.r, self.r_a = q1, q2, r, r_a
        self.g, self.g_inv, self.sqrt_g = g, g_inv, sqrt_g
        self._r_ab = r_ab
        self._jet_readers = 2   # the curvature and connection stages
        self._frame_gauge = frame_gauge

    def __getattr__(self, name):
        # reached only for a slot not yet set (or an unknown name)
        stage = _STAGES.get(name)
        if stage is None:
            raise AttributeError(name)
        stage(self)
        return getattr(self, name)

    def _take_r_ab(self):
        """The jet's second derivatives, dropped after their last reader."""
        r_ab = self._r_ab
        self._jet_readers -= 1
        if not self._jet_readers:
            self._r_ab = None
        return r_ab


def _curvature(ff):
    r_a = ff.r_a
    cross = np.cross(r_a[:, 0], r_a[:, 1], axisa=0, axisb=0, axis=0)
    ff.n_hat = cross / np.sqrt((cross**2).sum(axis=0))
    # alpha_ab = d_a r . d_b n = -n . d_a d_b r  (equal because r_a . n = 0)
    ff.alpha_lower = -np.einsum("j...,jab...->ab...", ff.n_hat,
                                ff._take_r_ab())
    alpha = ff.alpha = np.einsum("ac...,cb...->ab...", ff.alpha_lower,
                                 ff.g_inv)
    ff.K = alpha[0, 0] * alpha[1, 1] - alpha[0, 1] * alpha[1, 0]
    ff.M = 0.5 * (alpha[0, 0] + alpha[1, 1])


def _connection(ff):
    e_hat, de_hat2 = _gram_schmidt(ff.r_a, ff._take_r_ab(), ff._frame_gauge)
    ff._e_hat = e_hat
    # w_a = -1/2 e_hat_1 . d_a e_hat_2 ; fixed so that curl w = -K/2
    ff.w = -0.5 * np.einsum("j...,ja...->a...", e_hat[:, 0], de_hat2)


def _vielbein(ff):
    ff.e = np.einsum("ja...,ji...->ai...", ff.r_a, ff._e_hat)


def _vielbein_inverse(ff):
    ff.e_inv = _inv22(ff.e)


def _coupling(ff):
    # S^{ab} = eps^{ac} alpha_c^b with the Levi-Civita symbol
    ff.S = np.stack([ff.alpha[1], -ff.alpha[0]])


def _spin_orbit_field(ff):
    e, alpha_lower = ff.e, ff.alpha_lower
    # tangential Pauli matrices sigma_b = e_b^1 sigma_1 + e_b^2 sigma_2,
    # shape (b, 2, 2, ...)
    sigma_tan = (np.einsum("b...,st->bst...", e[:, 0], SIGMA1)
                 + np.einsum("b...,st->bst...", e[:, 1], SIGMA2))
    # (A_so)_a = (sigma_2tan alpha_a1 - sigma_1tan alpha_a2) / (2 sqrt g)
    ff.A_so = (np.einsum("a...,st...->ast...", alpha_lower[:, 0],
                         sigma_tan[1])
               - np.einsum("a...,st...->ast...", alpha_lower[:, 1],
                           sigma_tan[0])
               ) / (2.0 * ff.sqrt_g)


# field -> the stage that computes it; a stage reads the fields of the
# stages before it, which runs them first when they have not yet run
_STAGES = {
    **dict.fromkeys(("n_hat", "alpha_lower", "alpha", "K", "M"), _curvature),
    "w": _connection, "_e_hat": _connection,
    "e": _vielbein, "e_inv": _vielbein_inverse,
    "S": _coupling, "A_so": _spin_orbit_field,
}


def frame_fields(patch: SurfacePatch, q1, q2, frame_gauge="gs12") -> FrameFields:
    """Evaluate the first-fundamental-frame quantities at array points.

    Only the metric stage runs here: the jet, g, g^{-1} and sqrt(g), with
    the check that g is regular.  The other fields are computed on first
    read, each by its stage (see the module docstring), so a caller pays
    only for what it reads; the values are the same either way.

    ``frame_gauge`` selects the vielbein construction: "gs12" (default)
    orthonormalizes (d1 r, d2 r) in that order; "gs21" orthonormalizes
    (d2 r, d1 r) and flips the second leg to keep the frame right-handed
    with the same normal.  Gauge-dependent outputs (e, w, A_so) change
    between the two by a local rotation; g, alpha, K, M, S do not.
    """
    if frame_gauge not in ("gs12", "gs21"):
        raise ValueError(f"unknown frame gauge {frame_gauge!r}")
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    r, r_a, r_ab = patch.jet(q1, q2)

    g = np.einsum("ja...,jb...->ab...", r_a, r_a)
    det_g = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    scale2 = 0.5 * (g[0, 0] + g[1, 1])
    if not np.all(det_g > 1e-14 * scale2**2):   # NaN fails too
        raise DegenerateMetricError(
            "metric is numerically degenerate or not finite: "
            "det g <= 1e-14 * scale^2")
    return _StagedFields(q1=q1, q2=q2, r=r, r_a=r_a, r_ab=r_ab, g=g,
                         g_inv=_inv22(g), sqrt_g=np.sqrt(det_g),
                         frame_gauge=frame_gauge)


def _gram_schmidt(r_a, r_ab, frame_gauge):
    """Orthonormal tangent frame and the derivative of its second leg.

    Returns (e_hat, de_hat2) with e_hat shape (3, 2, ...) indexed
    [xyz, frame], de_hat2 shape (3, 2, ...) indexed [xyz, d_a].
    """
    if frame_gauge == "gs12":
        v1, v2 = r_a[:, 0], r_a[:, 1]
        dv1 = r_ab[:, 0]  # (3,2,...) second index is d_a
        dv2 = r_ab[:, 1]
        flip = 1.0
    else:  # "gs21"
        v1, v2 = r_a[:, 1], r_a[:, 0]
        dv1 = r_ab[:, 1]
        dv2 = r_ab[:, 0]
        flip = -1.0  # keep e1 x e2 along +n

    # n1 * n1 and nu * nu, not **2: on a single point **2 goes through
    # libm pow, which can round differently from the product that arrays
    # get, and a point must give the same bits alone or in a batch
    n1 = np.sqrt((v1**2).sum(axis=0))
    e1 = v1 / n1
    dn1 = np.einsum("j...,ja...->a...", v1, dv1) / n1
    de1 = dv1 / n1 - np.einsum("j...,a...->ja...", v1, dn1) / (n1 * n1)

    c = np.einsum("j...,j...->...", v2, e1)
    dc = (np.einsum("ja...,j...->a...", dv2, e1)
          + np.einsum("j...,ja...->a...", v2, de1))
    u = v2 - c * e1
    du = dv2 - np.einsum("a...,j...->ja...", dc, e1) - c * de1
    nu = np.sqrt((u**2).sum(axis=0))
    dnu = np.einsum("j...,ja...->a...", u, du) / nu
    e2 = flip * u / nu
    de2 = flip * (du / nu - np.einsum("j...,a...->ja...", u, dnu)
                  / (nu * nu))

    e_hat = np.stack([e1, e2], axis=1)
    return e_hat, de2


def frame_at(patch: SurfacePatch, point, frame_gauge="gs12") -> FrameFields:
    """frame_fields at a single point (q1, q2); its scalars are 0-d."""
    return frame_fields(patch, float(point[0]), float(point[1]),
                        frame_gauge=frame_gauge)


def _stencil_fields(patch: SurfacePatch, q1, q2, h) -> FrameFields:
    """frame_fields at (q1, q2) and at its 4th-order stencil, in one call.

    Point 0 of the result (last axis) is the centre; point 1 + 4a + j sits
    at q_a + _FD_OFFSETS[j] * h[a].  _stencil_d differentiates a quantity
    listed in that order and _point_fields takes one point out.
    """
    off = np.array(_FD_OFFSETS)
    p1 = np.concatenate(([q1], q1 + off * h[0], np.full(4, q1)))
    p2 = np.concatenate(([q2], np.full(4, q2), q2 + off * h[1]))
    return frame_fields(patch, p1, p2)


def _stencil_d(values, axis, h):
    """d/dq_axis at the stencil centre from values[k] at stencil point k."""
    k = 1 + 4 * axis
    return _fd4(values[k:k + 4], h[axis])


def _point_fields(ff: FrameFields, k) -> FrameFields:
    """Point k of batched frame fields, laid out as at a scalar point.

    The arrays are contiguous copies, so small matrix products on them
    round exactly as on a scalar frame_fields call.
    """
    return FrameFields(**{name: getattr(ff, name)[..., k].copy()
                          for name in FrameFields.__slots__})


def curvature_radius(patch: SurfacePatch, point) -> float:
    """Local curvature radius 1/max|principal curvature| (patch scale if flat)."""
    return _curvature_radius(patch, frame_at(patch, point).alpha)


def _curvature_radius(patch, alpha):
    kappa = np.max(np.abs(np.linalg.eigvals(alpha)))
    if kappa < 1e-12 / patch.scale:
        return patch.scale
    return float(1.0 / kappa)


# ----------------------------------------------------------------------
# Adapted frame: the 3D metric of the normal neighborhood and its
# Christoffel symbols and spin connection.
# ----------------------------------------------------------------------

# stencil step of adapted frames and expansion reports, relative to each
# domain extent
_ADAPTED_STEP = 1e-3

_PAULI = np.stack(PAULI)     # (3, 2, 2): sigma_K stacked on K


def _adapted_stencil(patch, q1, q2):
    """Per-point frame fields of the adapted-frame stencil at (q1, q2),
    from one frame_fields call, and the step h per axis."""
    h = [max(ext, 1e-12) * _ADAPTED_STEP for ext in patch.extents]
    ff = _stencil_fields(patch, q1, q2, h)
    return [_point_fields(ff, k) for k in range(ff.K.size)], h


def _block(m):
    """The 3x3 block matrix diag(m, 1) of a 2x2 surface block m."""
    out = np.zeros((3, 3))
    out[:2, :2] = m
    out[2, 2] = 1.0
    return out


def _stencil_grad(values, h):
    """d[A] = d_A of a square array listed per stencil point, one slot per
    index; the slots past the surface ones (d_3) are left for a closed form."""
    d = np.zeros((len(values[0]),) + values[0].shape)
    for a in range(2):
        d[a] = _stencil_d(values, a, h)
    return d


def _christoffel(G_inv, dG):
    """Gamma^C_{AB} = (1/2) G^{CD} (d_A G_{DB} + d_B G_{DA} - d_D G_{AB}) as
    [C,A,B] from dG[A,D,B] = d_A G_{DB}, any dimension; D summed in order."""
    bracket = dG.transpose(1, 0, 2) + dG.transpose(1, 2, 0) - dG  # [D,A,B]
    s = np.zeros_like(dG)
    for D in range(len(dG)):
        s = s + G_inv[:, D, None, None] * bracket[D]
    return 0.5 * s


def _normal_blocks(ff, q3):
    """Truncated normal Christoffel blocks of the limiting procedure,
        Gamma^3_{ab} = -alpha_ab - (alpha g alpha^T)_ab q3   (exact),
        Gamma^b_{3a} = alpha_a^b - q3 (alpha^2)_a^b          (to O(q3^2)),
    the first lowered, the second indexed [a, b]."""
    A = ff.alpha
    return -(A @ ff.g + q3 * (A @ A @ ff.g)), A - q3 * (A @ A)


def _metric(pts, h, q3):
    """Exact metric G = diag(g + q3 (Ag + (Ag)^T) + q3^2 A g A^T, 1) at the
    stencil centre and dG[A][D,B] = d_A G_{DB}; d_3 G is closed-form."""
    sym = [(p.alpha @ p.g + (p.alpha @ p.g).T, p.alpha @ p.g @ p.alpha.T)
           for p in pts]
    G_pts = [_block(p.g + q3 * s1 + q3**2 * s2)
             for p, (s1, s2) in zip(pts, sym)]
    dG = _stencil_grad(G_pts, h)
    dG[2, :2, :2] = sym[0][0] + 2.0 * q3 * sym[0][1]
    return G_pts[0], dG


def _block_vielbein(pts, h, q3):
    """Exact block vielbein E_A^I = diag(e + q3 A e, 1) at the stencil
    centre and its derivatives dE[A]; d_3 E is closed-form."""
    E_pts = [_block((np.eye(2) + q3 * p.alpha) @ p.e) for p in pts]
    dE = _stencil_grad(E_pts, h)
    dE[2, :2, :2] = pts[0].alpha @ pts[0].e
    return E_pts[0], dE


def _einv_block(ff, q3):
    """Exact inverse vielbein E_I^A = diag(e^{-1} (1 + q3 A)^{-1}, 1)."""
    return _block(ff.e_inv @ np.linalg.inv(np.eye(2) + q3 * ff.alpha))


@dataclass(frozen=True)
class AdaptedFrameData:
    """Thin-layer quantities of the 3D neighborhood at offset q3."""

    q1: float
    q2: float
    q3: float
    f: float                  # rescale factor 1 + tr(alpha) q3 + det(alpha) q3^2
    G: np.ndarray             # (3,3) metric
    det_G: float
    E: np.ndarray             # (3,3) vielbein E_A^I
    E_inv: np.ndarray         # (3,3) inverse E_I^A
    Gamma: np.ndarray         # (3,3,3) Christoffels, [C,A,B] = Gamma^C_{AB}
    Omega: np.ndarray         # (3,2,2) complex spin-connection matrices


def adapted_frame_at(patch: SurfacePatch, point,
                     q3: float) -> AdaptedFrameData:
    """Assemble the adapted-frame data at (point, q3).

    Raises SingularLayerError when the rescale factor f reaches zero (the
    normal fibration self-intersects).  Derivatives of the metric and
    vielbein along the surface are taken by 4th-order differences with
    step _ADAPTED_STEP * (domain extent); the q3 derivatives are
    closed-form.
    """
    pts, h = _adapted_stencil(patch, float(point[0]), float(point[1]))
    return _adapted_frame(pts, h, q3)


def _adapted_frame(pts, h, q3):
    """adapted_frame_at over the fields of an _adapted_stencil."""
    ff = pts[0]
    A = ff.alpha
    trA = float(np.trace(A))
    detA = float(np.linalg.det(A))
    f = 1.0 + trA * q3 + detA * q3**2
    if f <= 0.0:
        raise SingularLayerError(
            f"rescale factor f = {f:.3e} <= 0 at q3 = {q3:g}: the normal "
            f"fibration is singular here")

    G, dG = _metric(pts, h, q3)
    Gamma = _christoffel(np.linalg.inv(G), dG)

    E, dE = _block_vielbein(pts, h, q3)
    E_inv = _einv_block(ff, q3)
    return AdaptedFrameData(
        q1=float(ff.q1), q2=float(ff.q2), q3=q3, f=f, G=G,
        det_G=float(np.linalg.det(G)), E=E, E_inv=E_inv, Gamma=Gamma,
        Omega=_spin_connection(E, E_inv, dE, Gamma))


def _spin_connection(E, E_inv, dE, Gamma):
    """Connection matrices Omega_A = (i/4) omega_{AIJ} eps^{IJK} sigma_K.

    omega_{AIJ} = -E_I^B (d_A E_B^J - Gamma^C_{AB} E_C^J); the overall
    sign is the package convention under which the abelian part is
    i sigma_3 w_a with curl w = -K/2 and the mixed part is +i (A_so)_a.
    """
    inner = dE - np.einsum("cab,cj->abj", Gamma, E)  # [A,B,J]
    omega = -np.einsum("ib,abj->aij", E_inv, inner)  # [A,I,J]
    # eps^{IJK} omega_{AIJ}: the axial vector of omega's antisymmetric part
    axial = np.stack([omega[:, 1, 2] - omega[:, 2, 1],
                      omega[:, 2, 0] - omega[:, 0, 2],
                      omega[:, 0, 1] - omega[:, 1, 0]], axis=1)
    return 0.25j * np.einsum("ak,kst->ast", axial, _PAULI)


# ----------------------------------------------------------------------
# Truncated spin connection: the first-order bookkeeping of the limit,
# used for the fitted-order checks.  (The exact connection converges to
# machine zero faster than any power because the neighborhood is flat.)
# ----------------------------------------------------------------------

def _truncated_spin_connection(pts, h, q3, gamma2):
    """Omega_A of the truncated E_inv and Gamma (gamma2: surface part)."""
    ff = pts[0]
    E, dE = _block_vielbein(pts, h, q3)
    E_inv = _block(ff.e_inv - q3 * (ff.e_inv @ ff.alpha))  # truncated inverse

    Gam3, Gmix = _normal_blocks(ff, q3)
    Gamma = np.zeros((3, 3, 3))
    Gamma[:2, :2, :2] = gamma2
    Gamma[2, :2, :2] = Gam3
    Gamma[:2, 2, :2] = Gmix.T       # Gamma^b_{3a}
    Gamma[:2, :2, 2] = Gmix.T       # Gamma^b_{a3}
    return _spin_connection(E, E_inv, dE, Gamma)


def _ricci_combinations(ff, q3):
    """First-order bookkeeping values of G^{ab} R_ab and R_33.

    Uses the truncated Christoffel blocks of _normal_blocks plus the
    two-dimensional Ricci scalar 2K, exactly as in the limiting
    procedure.  The exact 3D space is flat, so these combinations measure
    the truncation remainder and must vanish with q3.
    """
    A = ff.alpha
    g_inv = ff.g_inv
    Gam3, Gmix = _normal_blocks(ff, q3)

    term1 = -np.trace((A @ A @ ff.g) @ g_inv)                    # g^{ab} d3 Gamma^3_{ba}
    term2 = -np.einsum("bc,ca,ab->", Gmix, Gam3, g_inv)          # -Gamma^c_{b3} Gamma^3_{ca} g^{ab}
    term3 = -np.einsum("bc,ac,ab->", Gam3, Gmix, g_inv)          # -Gamma^3_{bc} Gamma^c_{3a} g^{ab}
    term4 = np.einsum("ab,ab->", Gam3, g_inv) * np.trace(Gmix)   # +Gamma^3_{ab} Gamma^c_{3c} g^{ab}
    ric_t = 2.0 * float(ff.K) + term1 + term2 + term3 + term4

    # R_33 = -d3 Gamma^a_{3a} - Gamma^b_{3a} Gamma^a_{b3}
    ric_n = float(np.trace(A @ A) - np.trace(Gmix @ Gmix))
    return float(ric_t), ric_n


# ----------------------------------------------------------------------
# Expansion report
# ----------------------------------------------------------------------

@dataclass
class ExpansionCheck:
    name: str
    expected_order: float
    residuals: np.ndarray           # at ExpansionReport.tetrad_q3
    fitted_slope: float
    passed: bool
    exact_zero: bool = False


@dataclass
class ExpansionReport:
    point: tuple
    checks: list
    tetrad_q3: np.ndarray
    tetrad_residuals: np.ndarray
    tetrad_tol: float
    tetrad_passed: bool

    @property
    def passed(self) -> bool:
        return self.tetrad_passed and all(c.passed for c in self.checks)

    def failures(self):
        out = [f"{c.name}: fitted slope {c.fitted_slope:.3f} < "
               f"{c.expected_order:g}" for c in self.checks if not c.passed]
        if not self.tetrad_passed:
            out.append(
                f"tetrad-postulate residual max {self.tetrad_residuals.max():.3e} "
                f"> {self.tetrad_tol:g}")
        return out


# (name, expected q3 order) of each fitted identity, in report order
_CHECKS = (("Omega_a - i sigma3 w_a - i A_so", 1.0), ("Omega_3", 2.0),
           ("G^ab R_ab combination", 1.0), ("R_33 combination", 1.0))

# a fitted slope passes at expected order - _SLOPE_MARGIN; every tetrad
# residual must stay below _TETRAD_TOL
_SLOPE_MARGIN = 0.3
_TETRAD_TOL = 1e-8

# A residual counts as nonzero above _ZERO_FLOOR (1 + magnitude) and enters
# the slope fit only above _FIT_FLOOR (1 + magnitude).  Stencil rounding
# moves every residual by ~1e-15 absolute, and the finite-difference error
# leaves a plateau near 1e-10, so a fit through residuals that small moves
# by ~1e-6 under any ulp-level change upstream.  Above _FIT_FLOOR it moves
# by < 1e-9 relative (an algebraically equal reordering of the stencil at
# the acceptance points: 5e-10; floors of 1e-9 and 1e-8 give 2e-8, 3e-9).
_ZERO_FLOOR = 1e-11
_FIT_FLOOR = 1e-7


def expansion_report(patch: SurfacePatch, point, q3_sequence=None
                     ) -> ExpansionReport:
    """Fit the q3-order of every thin-layer identity at one surface point.

    Checks performed (residuals fitted on a log-log scale over the given
    decreasing geometric q3 sequence):

    * || Omega_a - i sigma_3 w_a - i (A_so)_a ||  is O(q3);
    * || Omega_3 ||                               is O(q3^2);
    * |G^{ab} R_ab| and |R_33| bookkeeping combos vanish at least O(q3);
    * covariant constancy of the curved Pauli matrices (tetrad postulate)
      holds at each q3 to discretization tolerance.

    Residuals that are zero to rounding at every q3 (plane; umbilical
    cancellations) are reported as exact zeros and pass by definition.
    """
    q1, q2 = float(point[0]), float(point[1])
    pts, h = _adapted_stencil(patch, q1, q2)
    ff = pts[0]
    if q3_sequence is None:
        rc = _curvature_radius(patch, ff.alpha)
        q3_sequence = rc * np.logspace(-2, -5, 7)
    q3s = np.asarray(q3_sequence, dtype=float)
    if np.any(q3s <= 0) or np.any(np.diff(q3s) >= 0):
        raise ValueError("q3_sequence must be positive and decreasing")

    target_a = np.stack([1j * ff.w[a] * SIGMA3 + 1j * ff.A_so[a]
                         for a in range(2)])
    mag = (np.abs(ff.w).sum() + sum(np.linalg.norm(a) for a in ff.A_so)
           + abs(ff.K) + np.abs(ff.alpha).sum())
    # the surface Christoffels do not depend on q3
    gamma2 = _christoffel(ff.g_inv, _stencil_grad([p.g for p in pts], h))

    res = np.empty((len(_CHECKS), len(q3s)))
    for k, q3 in enumerate(q3s):
        Om = _truncated_spin_connection(pts, h, q3, gamma2)
        rt, rn = _ricci_combinations(ff, q3)
        res[:, k] = (sum(np.linalg.norm(Om[a] - target_a[a])
                         for a in range(2)),
                     np.linalg.norm(Om[2]), abs(rt), abs(rn))
    checks = [_fit_check(name, order, q3s, r, mag)
              for (name, order), r in zip(_CHECKS, res)]

    tet = np.array([_tetrad_residual(pts, h, q3) for q3 in q3s])
    tet_ok = bool(np.all(tet < _TETRAD_TOL))

    return ExpansionReport(point=(q1, q2), checks=checks, tetrad_q3=q3s,
                           tetrad_residuals=tet, tetrad_tol=_TETRAD_TOL,
                           tetrad_passed=tet_ok)


def verify_thin_layer_expansions(patch: SurfacePatch, point,
                                 q3_sequence=None) -> ExpansionReport:
    """Run expansion_report and raise ExpansionOrderError on any failure."""
    report = expansion_report(patch, point, q3_sequence=q3_sequence)
    if not report.passed:
        raise ExpansionOrderError(
            "thin-layer expansion checks failed at point "
            f"{report.point}: " + "; ".join(report.failures()))
    return report


def _fit_check(name, order, q3s, res, magnitude):
    scale = 1.0 + magnitude
    nonzero = res > max(_ZERO_FLOOR * scale, res.max() * 1e-8)
    # under 3 nonzero residuals is an exact zero: slope inf, passed
    exact_zero = bool(nonzero.sum() < 3)
    # fit through the residuals above _FIT_FLOOR, or through every nonzero
    # one when fewer than 3 are
    keep = res > _FIT_FLOOR * scale
    if keep.sum() < 3:
        keep = nonzero
    slope = (math.inf if exact_zero else
             float(np.polyfit(np.log(q3s[keep]), np.log(res[keep]), 1)[0]))
    return ExpansionCheck(name=name, expected_order=order, residuals=res,
                          fitted_slope=slope,
                          passed=slope >= order - _SLOPE_MARGIN,
                          exact_zero=exact_zero)


def _tetrad_residual(pts, h, q3):
    """Max-norm residual of the covariant constancy of sigma^B at q3.

    With this package's connection sign (D_A = d_A + Omega_A matching the
    printed gauge-field decomposition) the identity reads

        d_A sigma^B - [Omega_A, sigma^B] + Gamma^B_{CA} sigma^C = 0.
    """
    ad = _adapted_frame(pts, h, q3)
    ff = pts[0]
    A = ff.alpha
    dEinv = _stencil_grad([_einv_block(p, q3) for p in pts], h)
    Minv = np.linalg.inv(np.eye(2) + q3 * A)
    dEinv[2, :2, :2] = -(ff.e_inv @ A) @ (Minv @ Minv)

    # sigma^B = E_I^B sigma_I and its derivatives d_A sigma^B
    sig = np.einsum("ib,ist->bst", ad.E_inv, _PAULI)
    dsig = np.einsum("aib,ist->abst", dEinv, _PAULI)
    worst = 0.0
    for Aidx in range(3):
        for B in range(3):
            resid = (dsig[Aidx, B]
                     - (ad.Omega[Aidx] @ sig[B] - sig[B] @ ad.Omega[Aidx]))
            # one term at a time in C order: the expansions artifact
            # writes this residual to full precision
            for C in range(3):
                resid = resid + ad.Gamma[B, C, Aidx] * sig[C]
            worst = max(worst, float(np.linalg.norm(resid)))
    return worst
