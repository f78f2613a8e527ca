"""Sparse Hermitian discretization of the effective surface Hamiltonian.

The effective Hamiltonian (natural units hbar = m = 1)

    H0   = -(1/2) [ (1/sqrt g) D_a (sqrt g g^{ab} D_b) - K/2 ],
           D_a = d_a + i sigma_3 w_a,
    Hso  = (i/2) (1/sqrt g) [ S^{ab} sigma_a d_b + (1/2) d_b(sigma_a S^{ab}) ]

is assembled on a rectangular grid after the similarity rescaling
psi = g^{1/4} chi, which makes the discrete inner product flat and the
matrices Hermitian by construction:

* the covariant Laplacian becomes M^{-1/2} A M^{-1/2} with M = diag(sqrt g)
  and A the standard flux-form second-order stencil whose link
  coefficients are midpoint values of sqrt(g) g^{ab};
* the gauge potential enters as per-spin Peierls link phases
  exp(+- i integral w . dl) (midpoint rule), which gives exact lattice
  gauge covariance under node-phase conjugation;
* the rescaled spin-orbit term is exactly the anticommutator
  (i/2) { X^b, d_b } with X^b = (1/(2 sqrt g)) S^{ab} sigma_a, discretized
  with centered differences, Hermitian without invoking the continuum
  derivative identity.

Grid boundary conditions are periodic or hard wall (field vanishes on the
wall); wall grids place nodes strictly inside the open interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import GridError
from .frames import SIGMA1, SIGMA2, frame_fields
from .surfaces import SurfacePatch

__all__ = [
    "Grid",
    "SpinorField",
    "HermitianOperator",
    "assemble_H0",
    "assemble_Hso",
    "assemble_Heff",
    "build_h0_operator",
    "build_soi_operator",
    "apply",
    "time_reversal_defect",
    "gauge_conjugate",
    "hermiticity_defect",
    "export_coo",
]


@dataclass(frozen=True)
class Grid:
    """Rectangular tensor grid over a parameter window."""

    q1: np.ndarray
    q2: np.ndarray
    h1: float
    h2: float
    bc: tuple          # ('periodic' | 'wall', 'periodic' | 'wall')
    domain: tuple

    @classmethod
    def for_patch(cls, patch: SurfacePatch, n1: int, n2: int,
                  bc=None, domain=None) -> "Grid":
        """Build an n1 x n2 grid over the patch domain (or a sub-window).

        Periodic directions span exactly one period with uniform spacing;
        wall directions put nodes on the open interior, the field being
        implicitly zero on the walls.
        """
        if n1 < 8 or n2 < 8:
            raise GridError("grid needs n1, n2 >= 8")
        dom = domain if domain is not None else patch.domain
        if bc is None:
            bc = tuple("periodic" if p else "wall" for p in patch.periodic)
        axes = []
        for (lo, hi), kind, n in zip(dom, bc, (n1, n2)):
            span = hi - lo
            if span <= 0:
                raise GridError("empty grid window")
            if kind == "periodic":
                h = span / n
                q = lo + h * np.arange(n)
            elif kind == "wall":
                h = span / (n + 1)
                q = lo + h * (1.0 + np.arange(n))
            else:
                raise GridError(f"unknown boundary condition {kind!r}")
            axes.append((q, h))
        return cls(q1=axes[0][0], q2=axes[1][0], h1=axes[0][1],
                   h2=axes[1][1], bc=tuple(bc),
                   domain=(tuple(dom[0]), tuple(dom[1])))

    @property
    def n1(self) -> int:
        return len(self.q1)

    @property
    def n2(self) -> int:
        return len(self.q2)

    @property
    def nodes(self) -> int:
        return self.n1 * self.n2

    @property
    def dim(self) -> int:
        return 2 * self.nodes

    def mesh(self):
        return np.meshgrid(self.q1, self.q2, indexing="ij")


@dataclass
class SpinorField:
    """Two complex components per grid node, flat inner product."""

    grid: Grid
    values: np.ndarray   # (n1, n2, 2) complex

    @classmethod
    def zeros(cls, grid: Grid) -> "SpinorField":
        return cls(grid, np.zeros((grid.n1, grid.n2, 2), dtype=complex))

    @classmethod
    def from_flat(cls, grid: Grid, flat: np.ndarray) -> "SpinorField":
        return cls(grid, np.asarray(flat, dtype=complex).reshape(
            grid.n1, grid.n2, 2))

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def norm(self) -> float:
        return math.sqrt(self.grid.h1 * self.grid.h2
                         * float(np.sum(np.abs(self.values) ** 2)))

    def normalized(self) -> "SpinorField":
        return SpinorField(self.grid, self.values / self.norm())

    def expectation(self, op) -> complex:
        """<psi|Op|psi> / <psi|psi> for an operator on this grid."""
        v = self.flat()
        mat = op.matrix if isinstance(op, HermitianOperator) else op
        return complex(np.vdot(v, mat @ v) / np.vdot(v, v))


@dataclass
class HermitianOperator:
    """Sparse complex operator on 2-spinor grid data (dim = 2 n1 n2)."""

    matrix: sp.csr_matrix
    grid: Optional[Grid]
    terms: tuple
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(
            matrix=(self.matrix + other.matrix).tocsr(),
            grid=self.grid if self.grid is not None else other.grid,
            terms=self.terms + other.terms,
            meta={**self.meta, **other.meta})

    def max_norm(self) -> float:
        return float(np.abs(self.matrix.data).max()) if self.matrix.nnz else 0.0


def hermiticity_defect(op) -> float:
    """max |H - H^dagger| / max |H|."""
    m = op.matrix if isinstance(op, HermitianOperator) else op
    d = (m - m.getH()).tocoo()
    top = np.abs(m.tocoo().data).max() if m.nnz else 1.0
    return float(np.abs(d.data).max() / top) if d.nnz else 0.0


# Fill-reducing column ordering of the package's one sparse LU: minimum
# degree on the pattern of A^T + A suits the structurally symmetric
# stencils (SciPy's default COLAMD gives the Cayley matrix ~1.7x the fill).
LU_ORDERING = "MMD_AT_PLUS_A"


def _factor_shifted(mat, shift, scale=1.0):
    """SuperLU factor of ``scale * mat + shift * I``.

    The one sparse factorization of the package: ``eigensolve`` factors
    H - sigma I for shift-invert and ``evolve`` the Cayley matrix
    I + (i dt/2) H.  SuperLU raises RuntimeError on an exactly singular
    matrix.
    """
    shifted = scale * mat + shift * sp.identity(mat.shape[0], format="csc")
    return spla.splu(shifted.tocsc(), permc_spec=LU_ORDERING)


def _check_hermitian(mat, label):
    d = (mat - mat.getH()).tocoo()
    top = np.abs(mat.tocoo().data).max() if mat.nnz else 1.0
    defect = float(np.abs(d.data).max() / top) if d.nnz else 0.0
    if defect > 1e-12:
        raise AssertionError(
            f"{label} assembly lost hermiticity: defect {defect:.3e}")


# ----------------------------------------------------------------------
# Kinetic (flux-form) assembly with per-spin link phases
# ----------------------------------------------------------------------

def _axis_geometry(grid, axis, coeff_fn, w_fn):
    """Midpoint link coefficients and phases along one axis.

    Returns (c_plus, c_minus, phase_plus, link_mask) where c_plus[k] is
    the coefficient on the half-step above node k (the seam midpoint for
    the wrap link when periodic; the wall half-step contributes only to
    the diagonal).
    """
    q1, q2 = grid.q1, grid.q2
    h = grid.h1 if axis == 0 else grid.h2
    if axis == 0:
        Qm1, Qm2 = np.meshgrid(q1 + 0.5 * h, q2, indexing="ij")
    else:
        Qm1, Qm2 = np.meshgrid(q1, q2 + 0.5 * h, indexing="ij")
    c_plus = np.asarray(coeff_fn(axis, Qm1, Qm2), dtype=float)
    phase_plus = h * np.asarray(w_fn(axis, Qm1, Qm2), dtype=float)

    c_minus = np.roll(c_plus, 1, axis=axis)
    periodic = grid.bc[axis] == "periodic"
    if not periodic:
        # half-step between the wall and the first node
        if axis == 0:
            Qb1, Qb2 = np.meshgrid([q1[0] - 0.5 * h], q2, indexing="ij")
            c_minus[0, :] = np.asarray(coeff_fn(axis, Qb1, Qb2), float)[0]
        else:
            Qb1, Qb2 = np.meshgrid(q1, [q2[0] - 0.5 * h], indexing="ij")
            c_minus[:, 0] = np.asarray(coeff_fn(axis, Qb1, Qb2), float)[:, 0]

    link_mask = np.ones(c_plus.shape, dtype=bool)
    if not periodic:
        if axis == 0:
            link_mask[-1, :] = False
        else:
            link_mask[:, -1] = False
    return c_plus, c_minus, phase_plus, link_mask


def _neighbor_indices(grid, axis):
    """Flat node index of the +1 neighbor along axis (with wrap)."""
    n1, n2 = grid.n1, grid.n2
    idx = np.arange(n1 * n2).reshape(n1, n2)
    return np.roll(idx, -1, axis=axis)


def _kinetic_matrix(grid, coeff_fn, w_fn, g12_fn=None):
    """Node-space flux-form Laplacian matrices for the two spin signs."""
    n = grid.nodes
    idx = np.arange(n).reshape(grid.n1, grid.n2)
    diag = np.zeros((grid.n1, grid.n2))
    rows, cols, vals_up, vals_dn = [], [], [], []

    for axis, h in ((0, grid.h1), (1, grid.h2)):
        c_plus, c_minus, phase, mask = _axis_geometry(grid, axis, coeff_fn, w_fn)
        diag += (c_plus + c_minus) / h**2
        nb = _neighbor_indices(grid, axis)
        r = idx[mask]
        c = nb[mask]
        hop_up = -(c_plus[mask] / h**2) * np.exp(1j * phase[mask])
        rows.extend([r, c])
        cols.extend([c, r])
        vals_up.extend([hop_up, np.conj(hop_up)])
        vals_dn.extend([np.conj(hop_up), hop_up])

    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals_up.append(diag.ravel().astype(complex))
    vals_dn.append(diag.ravel().astype(complex))

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    A_up = sp.coo_matrix((np.concatenate(vals_up), (rows, cols)),
                         shape=(n, n)).tocsr()
    A_dn = sp.coo_matrix((np.concatenate(vals_dn), (rows, cols)),
                         shape=(n, n)).tocsr()

    if g12_fn is not None:
        Q1, Q2 = grid.mesh()
        c12 = np.asarray(g12_fn(Q1, Q2), dtype=float)
        if np.abs(c12).max() > 1e-14 * max(1.0, np.abs(diag).max()):
            C = sp.diags(c12.ravel())
            for sign, store in ((+1.0, "up"), (-1.0, "dn")):
                D1 = _centered_covariant(grid, 0, w_fn, sign)
                D2 = _centered_covariant(grid, 1, w_fn, sign)
                cross = (D1.getH() @ C @ D2 + D2.getH() @ C @ D1).tocsr()
                if store == "up":
                    A_up = (A_up + cross).tocsr()
                else:
                    A_dn = (A_dn + cross).tocsr()
    return A_up, A_dn


def _centered_covariant(grid, axis, w_fn, spin_sign):
    """Centered covariant difference with link phases along one axis."""
    h = grid.h1 if axis == 0 else grid.h2
    _, _, phase, mask = _axis_geometry(
        grid, axis, lambda a, u, v: np.zeros_like(u), w_fn)
    idx = np.arange(grid.nodes).reshape(grid.n1, grid.n2)
    nb = _neighbor_indices(grid, axis)
    r = idx[mask]
    c = nb[mask]
    up = np.exp(1j * spin_sign * phase[mask]) / (2.0 * h)
    rows = np.concatenate([r, c])
    cols = np.concatenate([c, r])
    vals = np.concatenate([up, -np.conj(up)])
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(grid.nodes, grid.nodes)).tocsr()


def _interleave_spin_blocks(A_up, A_dn):
    """Combine node-space spin blocks into the 2N operator (spin fastest)."""
    n = A_up.shape[0]
    parts = []
    for s, A in ((0, A_up), (1, A_dn)):
        coo = A.tocoo()
        parts.append((2 * coo.row + s, 2 * coo.col + s, coo.data))
    rows = np.concatenate([p[0] for p in parts])
    cols = np.concatenate([p[1] for p in parts])
    vals = np.concatenate([p[2] for p in parts])
    return sp.coo_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n)).tocsr()


def build_h0_operator(grid: Grid, coeff_fn, w_fn, sqrt_g_nodes, V_nodes,
                      g12_fn=None, label="H0", meta=None) -> HermitianOperator:
    """Assemble an H0-type operator from coefficient callables.

    coeff_fn(axis, Q1, Q2) -> sqrt(g) g^{aa} at arbitrary points,
    w_fn(axis, Q1, Q2) -> w_a, sqrt_g_nodes / V_nodes -> (n1, n2) arrays.
    Shared by the general patch assembler and the closed-form
    bent-cylinder route so the two can be cross-checked matrix against
    matrix.
    """
    A_up, A_dn = _kinetic_matrix(grid, coeff_fn, w_fn, g12_fn=g12_fn)
    rescale = sp.diags(np.asarray(sqrt_g_nodes, float).ravel() ** -0.5)
    Vd = sp.diags(np.asarray(V_nodes, float).ravel())
    blocks = [(0.5 * rescale @ A @ rescale + Vd).tocsr() for A in (A_up, A_dn)]
    H = _interleave_spin_blocks(*blocks)
    op = HermitianOperator(
        matrix=H, grid=grid,
        terms=("kinetic", "gauge-links", "scalar"),
        meta=meta or {})
    _check_hermitian(op.matrix, label)
    return op


def assemble_H0(patch: SurfacePatch, grid: Grid, scalar_potential="spin-connection",
                gauge_theta: Optional[Callable] = None) -> HermitianOperator:
    """Discretize H0 (covariant kinetic term plus geometric scalar).

    scalar_potential: 'spin-connection' (default) uses +K/4, the value the
    spin connection produces; 'dacosta' uses the scalar-particle form
    -(M^2 - K)/2 for comparison; 'none' drops the term.
    gauge_theta(q1, q2), when given, applies the abelian gauge rotation
    exp(i sigma_3 theta) exactly (node-phase conjugation of the links),
    so the spectrum is unchanged to solver precision.
    """

    def coeff_fn(axis, Q1, Q2):
        ff = frame_fields(patch, Q1, Q2)
        return ff.sqrt_g * ff.g_inv[axis, axis]

    def w_fn(axis, Q1, Q2):
        return frame_fields(patch, Q1, Q2).w[axis]

    def g12_fn(Q1, Q2):
        ff = frame_fields(patch, Q1, Q2)
        return ff.sqrt_g * ff.g_inv[0, 1]

    Q1, Q2 = grid.mesh()
    ff = frame_fields(patch, Q1, Q2)
    if scalar_potential == "spin-connection":
        V = 0.25 * ff.K
    elif scalar_potential == "dacosta":
        V = -0.5 * (ff.M**2 - ff.K)
    elif scalar_potential == "none":
        V = np.zeros_like(ff.K)
    else:
        raise ValueError(f"unknown scalar_potential {scalar_potential!r}")

    op = build_h0_operator(
        grid, coeff_fn, w_fn, ff.sqrt_g, V, g12_fn=g12_fn, label="H0",
        meta={"patch": patch.name, "gauge_rotated": gauge_theta is not None})
    op = HermitianOperator(
        matrix=op.matrix, grid=grid,
        terms=("kinetic", "gauge-links", f"scalar:{scalar_potential}"),
        meta=op.meta)

    if gauge_theta is not None:
        theta = np.asarray(gauge_theta(Q1, Q2), dtype=float).ravel()
        op = HermitianOperator(matrix=_conjugate_matrix(op.matrix, theta),
                               grid=grid, terms=op.terms, meta=op.meta)
    return op


def build_soi_operator(grid: Grid, X, label="Hso",
                       meta=None) -> HermitianOperator:
    """Assemble (i/2){X^b, d_b} from node values X (2, 2, 2, n1, n2)."""
    H = _soi_matrix(grid, np.asarray(X, dtype=complex))
    op = HermitianOperator(matrix=H, grid=grid, terms=("soi",),
                           meta=meta or {})
    _check_hermitian(op.matrix, label)
    return op


def assemble_Hso(patch: SurfacePatch, grid: Grid) -> HermitianOperator:
    """Discretize the curvature-induced spin-orbit term.

    Uses the rescaled anticommutator form (i/2){X^b, d_b} with
    X^b = (1/(2 sqrt g)) S^{ab} sigma_a evaluated at nodes and centered
    differences for d_b, Hermitian at assembly.
    """
    Q1, Q2 = grid.mesh()
    ff = frame_fields(patch, Q1, Q2)
    X = _soi_fields(ff)
    return build_soi_operator(grid, X, label="Hso",
                              meta={"patch": patch.name})


def _soi_fields(ff):
    """X^b = (1/(2 sqrt g)) S^{ab} sigma_a^tan, shape (2, 2, 2, n1, n2)."""
    sigma_tan = (np.einsum("a...,st->ast...", ff.e[:, 0], SIGMA1)
                 + np.einsum("a...,st->ast...", ff.e[:, 1], SIGMA2))
    X = np.einsum("ab...,ast...->bst...", ff.S, sigma_tan)
    return 0.5 * X / ff.sqrt_g


def _soi_matrix(grid, X):
    """Assemble (i/2){X^b, D_b^centered} into the 2N operator."""
    n1, n2 = grid.n1, grid.n2
    idx = np.arange(n1 * n2).reshape(n1, n2)
    rows, cols, vals = [], [], []
    for axis, h in ((0, grid.h1), (1, grid.h2)):
        nb = _neighbor_indices(grid, axis)
        mask = np.ones((n1, n2), dtype=bool)
        if grid.bc[axis] != "periodic":
            if axis == 0:
                mask[-1, :] = False
            else:
                mask[:, -1] = False
        Xb = X[axis]  # (2,2,n1,n2)
        Xnb = np.roll(Xb, -1, axis=axis + 2)
        block = 1j * (Xb + Xnb) / (4.0 * h)   # entry (n -> n+1)
        r = idx[mask]
        c = nb[mask]
        for s_r in range(2):
            for s_c in range(2):
                b = block[s_r, s_c][mask]
                # reverse hop is the conjugate element: block dagger = -block
                rows.extend([2 * r + s_r, 2 * c + s_c])
                cols.extend([2 * c + s_c, 2 * r + s_r])
                vals.extend([b, np.conj(b)])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(grid.dim, grid.dim)).tocsr()


def assemble_Heff(patch: SurfacePatch, grid: Grid,
                  scalar_potential="spin-connection") -> HermitianOperator:
    """H0 + Hso on the same grid."""
    return assemble_H0(patch, grid, scalar_potential=scalar_potential) \
        + assemble_Hso(patch, grid)


# ----------------------------------------------------------------------
# Operator utilities
# ----------------------------------------------------------------------

def apply(op: HermitianOperator, fld: SpinorField) -> SpinorField:
    """Matrix-vector product Op |psi> as a new field."""
    if op.dim != fld.grid.dim:
        raise GridError(
            f"operator dim {op.dim} does not match field dim {fld.grid.dim}")
    return SpinorField.from_flat(fld.grid, op.matrix @ fld.flat())


def _conjugate_matrix(H, theta_per_node):
    """P H P^dagger with P = diag(exp(i theta sigma_3)) per node."""
    phases = np.empty(2 * len(theta_per_node), dtype=complex)
    phases[0::2] = np.exp(1j * theta_per_node)
    phases[1::2] = np.exp(-1j * theta_per_node)
    P = sp.diags(phases)
    return (P @ H @ P.conjugate()).tocsr()


def gauge_conjugate(op: HermitianOperator, theta_values) -> HermitianOperator:
    """Exact lattice gauge rotation of an assembled operator.

    theta_values: array over grid nodes (n1, n2) or flat.  Spectra are
    exactly preserved (unitary similarity).
    """
    theta = np.asarray(theta_values, dtype=float).ravel()
    if 2 * len(theta) != op.dim:
        raise GridError("gauge phase array does not match operator size")
    return HermitianOperator(
        matrix=_conjugate_matrix(op.matrix, theta), grid=op.grid,
        terms=op.terms, meta={**op.meta, "gauge_rotated": True})


def time_reversal_defect(op: HermitianOperator) -> float:
    """max-norm of [T, H] with T = i sigma_y C on the lattice.

    T conjugates amplitudes and link phases; on the interleaved spin
    layout T H T^{-1} = S_y conj(H) S_y with S_y = I_nodes x sigma_y.
    """
    n = op.dim // 2
    sy = sp.kron(sp.eye(n), sp.csr_matrix(np.array([[0.0, -1.0j],
                                                    [1.0j, 0.0]])))
    transformed = (sy @ op.matrix.conjugate() @ sy).tocsr()
    diff = (transformed - op.matrix).tocoo()
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0


def export_coo(op: HermitianOperator, path) -> None:
    """Write the operator as text lines 'row col re im'."""
    coo = op.matrix.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# spinsurf operator dim={op.dim} terms={','.join(op.terms)}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v.real:.17e} {v.imag:.17e}\n")
