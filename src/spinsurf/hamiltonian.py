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

All surface data come from one geometry pass per grid (``GridGeometry``):
``frame_fields`` at the nodes (sqrt g, K, M, sqrt(g) g^{12}, X^b) and the
metric-and-frame first stage of it at the half-steps of each axis
(sqrt(g) g^{aa} and the link phase h w_a).  The stencil builders read only
that record, so a closed-form geometry can be fed to the same builders.
Each assembled operator is checked for hermiticity once, by the function
that returns it.

Grid boundary conditions are periodic or hard wall (field vanishes on the
wall); wall grids place nodes strictly inside the open interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import GridError, HermiticityError
from .frames import SIGMA1, SIGMA2, _metric_frame, frame_fields
from .surfaces import SurfacePatch

__all__ = [
    "Grid",
    "SpinorField",
    "HermitianOperator",
    "GridGeometry",
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

    def half_mesh(self, axis: int):
        """Mesh of the half-steps q + h/2 along ``axis``.

        A wall axis also gets the half-step between the wall and the
        first node, first in order: n + 1 points, against n when periodic.
        """
        q, h = (self.q1, self.h1) if axis == 0 else (self.q2, self.h2)
        half = q + 0.5 * h
        if self.bc[axis] != "periodic":
            half = np.concatenate(([q[0] - 0.5 * h], half))
        axes = (half, self.q2) if axis == 0 else (self.q1, half)
        return np.meshgrid(*axes, indexing="ij")


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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(
            matrix=(self.matrix + other.matrix).tocsr(),
            grid=self.grid if self.grid is not None else other.grid,
            terms=self.terms + other.terms)

    def max_norm(self) -> float:
        return float(np.abs(self.matrix.data).max()) if self.matrix.nnz else 0.0


def hermiticity_defect(op) -> float:
    """max |H - H^dagger| / max |H| of an operator or a CSR matrix.

    Reads the stored entries of H and of the difference directly.
    """
    m = op.matrix if isinstance(op, HermitianOperator) else op
    d = m - m.getH()
    top = np.abs(m.data).max() if m.nnz else 1.0
    return float(np.abs(d.data).max() / top) if d.nnz else 0.0


# Fill-reducing column ordering of the package's one sparse LU: minimum
# degree on the pattern of A^T + A suits the structurally symmetric
# stencils (SciPy's default COLAMD gives the Cayley matrix ~1.7x the fill).
LU_ORDERING = "MMD_AT_PLUS_A"


def _factor_shifted(mat, shift, scale=1.0, hermitian=False):
    """SuperLU factor of ``scale * mat + shift * I``.

    The one sparse factorization of the package: ``eigensolve`` factors
    H - sigma I for shift-invert and ``evolve`` the Cayley matrix
    I + (i dt/2) H.  SuperLU raises RuntimeError on an exactly singular
    matrix.

    By default SuperLU pivots by rows.  ``hermitian=True`` is for a
    Hermitian ``mat`` with real ``scale`` and ``shift``: SuperLU then
    keeps the diagonal pivots of the symmetric ordering
    (``diag_pivot_thresh=0``, ``SymmetricMode``), so P A P^T = L U with
    U = D L^H, and by Sylvester's law of inertia ``_inertia`` reads the
    number of negative eigenvalues of A off the signs of diag(U).
    """
    shifted = scale * mat + shift * sp.identity(mat.shape[0], format="csc")
    if not hermitian:
        return spla.splu(shifted.tocsc(), permc_spec=LU_ORDERING)
    return spla.splu(shifted.tocsc(), permc_spec=LU_ORDERING,
                     diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _inertia(lu, tiny):
    """Negative pivots of a ``hermitian=True`` factor, or None if unusable.

    The count is the number of eigenvalues below zero of the factored
    matrix only when SuperLU kept the diagonal pivots (``perm_r ==
    perm_c``) and no pivot is within ``tiny`` of zero.  Reading ``lu.U``
    makes SuperLU cache CSC copies of L and U for the factor's lifetime.
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    pivots = lu.U.diagonal().real
    if not np.all(np.abs(pivots) > tiny):      # NaN pivots fail too
        return None
    return int(np.count_nonzero(pivots < 0))


def _check_hermitian(mat, label):
    defect = hermiticity_defect(mat)
    if defect > 1e-12:
        raise HermiticityError(
            f"{label} assembly lost hermiticity: defect {defect:.3e}")


# ----------------------------------------------------------------------
# One geometry pass per grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridGeometry:
    """The surface data the H0 and Hso stencils read, for one grid.

    At the nodes, shape (n1, n2): ``sqrt_g``, ``K``, ``M``,
    ``c12`` = sqrt(g) g^{12}, and the spin-orbit fields ``X`` of shape
    (2, 2, 2, n1, n2).  Per axis a, at the points of ``Grid.half_mesh(a)``:
    ``c[a]`` = sqrt(g) g^{aa} and ``phase[a]`` = h_a w_a.
    """

    sqrt_g: np.ndarray
    K: np.ndarray
    M: np.ndarray
    c12: np.ndarray
    X: np.ndarray
    c: tuple
    phase: tuple


def _grid_geometry(patch: SurfacePatch, grid: Grid) -> GridGeometry:
    """Evaluate frame_fields once at the nodes and its metric-and-frame
    first stage once per axis at the half-steps, keeping only what the
    stencils read."""
    ff = frame_fields(patch, *grid.mesh())
    nodes = dict(sqrt_g=ff.sqrt_g, K=ff.K, M=ff.M,
                 c12=ff.sqrt_g * ff.g_inv[0, 1], X=_soi_fields(ff))
    del ff  # one evaluation alive at a time bounds the peak memory
    c, phase = [], []
    for axis, h in ((0, grid.h1), (1, grid.h2)):
        mf = _metric_frame(patch, *grid.half_mesh(axis))
        c.append(mf.sqrt_g * mf.g_inv[axis, axis])
        phase.append(h * mf.w[axis])
        del mf
    return GridGeometry(c=tuple(c), phase=tuple(phase), **nodes)


# ----------------------------------------------------------------------
# Kinetic (flux-form) assembly with per-spin link phases
# ----------------------------------------------------------------------

def _links(grid, axis):
    """Flat indices (k, k+1) of the links along axis, and the node mask.

    Periodic axes wrap; on a wall axis the last node has no +1 link.
    """
    idx = np.arange(grid.nodes).reshape(grid.n1, grid.n2)
    mask = np.ones(idx.shape, dtype=bool)
    if grid.bc[axis] != "periodic":
        mask[(slice(None),) * axis + (-1,)] = False
    return idx[mask], np.roll(idx, -1, axis=axis)[mask], mask


def _node_coefficients(grid, geo, axis):
    """(c_plus, c_minus, phase_plus) of one axis, shaped like the nodes.

    c_plus / phase_plus belong to the half-step above each node (the seam
    midpoint when periodic; on a wall axis the last one touches the wall
    and adds only to the diagonal), c_minus to the half-step below.
    """
    c, phase = geo.c[axis], geo.phase[axis]
    if grid.bc[axis] == "periodic":
        return c, np.roll(c, 1, axis=axis), phase
    return (np.delete(c, 0, axis=axis), np.delete(c, -1, axis=axis),
            np.delete(phase, 0, axis=axis))


def _kinetic_matrix(grid, geo):
    """Node-space flux-form Laplacian of the spin-up component.

    The spin-down links carry the opposite phases, so its matrix is the
    complex conjugate of this one.
    """
    n = grid.nodes
    idx = np.arange(n)
    diag = np.zeros((grid.n1, grid.n2))
    rows, cols, vals = [], [], []
    phases = []

    for axis, h in ((0, grid.h1), (1, grid.h2)):
        c_plus, c_minus, phase = _node_coefficients(grid, geo, axis)
        phases.append(phase)
        diag += (c_plus + c_minus) / h**2
        r, c, mask = _links(grid, axis)
        hop = -(c_plus[mask] / h**2) * np.exp(1j * phase[mask])
        rows.extend([r, c])
        cols.extend([c, r])
        vals.extend([hop, np.conj(hop)])

    rows.append(idx)
    cols.append(idx)
    vals.append(diag.ravel().astype(complex))
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()

    c12 = geo.c12
    if np.abs(c12).max() > 1e-14 * max(1.0, np.abs(diag).max()):
        C = sp.diags(c12.ravel())
        D1 = _centered_covariant(grid, 0, phases[0])
        D2 = _centered_covariant(grid, 1, phases[1])
        A = (A + (D1.getH() @ C @ D2 + D2.getH() @ C @ D1)).tocsr()
    return A


def _centered_covariant(grid, axis, phase):
    """Centered covariant difference with spin-up link phases on one axis."""
    h = grid.h1 if axis == 0 else grid.h2
    r, c, mask = _links(grid, axis)
    up = np.exp(1j * phase[mask]) / (2.0 * h)
    rows = np.concatenate([r, c])
    cols = np.concatenate([c, r])
    vals = np.concatenate([up, -np.conj(up)])
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(grid.nodes, grid.nodes)).tocsr()


def _scalar_term(geo, scalar_potential):
    if scalar_potential == "spin-connection":
        return 0.25 * geo.K
    if scalar_potential == "dacosta":
        return -0.5 * (geo.M**2 - geo.K)
    if scalar_potential == "none":
        return np.zeros_like(geo.K)
    raise ValueError(f"unknown scalar_potential {scalar_potential!r}")


def _rows(m):
    """Row index of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))


def _interleave_spins(up):
    """The 2N operator (spin fastest) of a node-space spin-up CSR block.

    Entry (r, c) goes to (2r, 2c); its spin-down copy conj(up[r, c]) goes
    to (2r + 1, 2c + 1).  Each row keeps the column order of ``up``.
    """
    # 64-bit index arithmetic; csr_matrix stores 32-bit indices when they fit
    ptr = up.indptr.astype(np.int64)
    indptr = np.empty(2 * len(ptr) - 1, dtype=np.int64)
    indptr[0::2] = 2 * ptr
    indptr[1::2] = ptr[:-1] + ptr[1:]
    rows = _rows(up)
    pos_up = np.arange(up.nnz) + ptr[rows]
    pos_dn = np.arange(up.nnz) + ptr[rows + 1]
    cols = 2 * up.indices.astype(np.int64)
    indices = np.empty(2 * up.nnz, dtype=np.int64)
    indices[pos_up] = cols
    indices[pos_dn] = cols + 1
    data = np.empty(2 * up.nnz, dtype=complex)
    data[pos_up] = up.data
    data[pos_dn] = np.conj(up.data)
    n = 2 * up.shape[0]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def build_h0_operator(grid: Grid, geometry: GridGeometry,
                      scalar_potential="spin-connection"
                      ) -> HermitianOperator:
    """Assemble H0 on ``grid`` from a geometry record (unchecked; the
    assemblers check what they return).

    scalar_potential: 'spin-connection' (default) uses +K/4, the value the
    spin connection produces; 'dacosta' uses the scalar-particle form
    -(M^2 - K)/2 for comparison; 'none' drops the term.
    """
    V = _scalar_term(geometry, scalar_potential)
    rescale = np.asarray(geometry.sqrt_g, float).ravel() ** -0.5
    kin = _kinetic_matrix(grid, geometry)
    # M^{-1/2} A M^{-1/2} / 2 on the stored entries, in the order
    # ((rescale[row] / 2) A) rescale[col]
    kin.data = (0.5 * rescale)[_rows(kin)] * kin.data * rescale[kin.indices]
    up = kin + sp.diags(np.asarray(V, float).ravel())
    return HermitianOperator(
        matrix=_interleave_spins(up), grid=grid,
        terms=("kinetic", "gauge-links", f"scalar:{scalar_potential}"))


def assemble_H0(patch: SurfacePatch, grid: Grid, scalar_potential="spin-connection",
                gauge_theta: Optional[Callable] = None) -> HermitianOperator:
    """Discretize H0 (covariant kinetic term plus geometric scalar).

    scalar_potential: see ``build_h0_operator``.
    gauge_theta(q1, q2), when given, applies the abelian gauge rotation
    exp(i sigma_3 theta) exactly (node-phase conjugation of the links),
    so the spectrum is unchanged to solver precision.
    """
    op = build_h0_operator(grid, _grid_geometry(patch, grid),
                           scalar_potential)
    if gauge_theta is not None:
        op = gauge_conjugate(op, gauge_theta(*grid.mesh()))
    _check_hermitian(op.matrix, "H0")
    return op


def build_soi_operator(grid: Grid, X) -> HermitianOperator:
    """Assemble (i/2){X^b, d_b} from node values X (2, 2, 2, n1, n2)
    (unchecked; the assemblers check what they return)."""
    return HermitianOperator(matrix=_soi_matrix(grid, np.asarray(X, complex)),
                             grid=grid, terms=("soi",))


def assemble_Hso(patch: SurfacePatch, grid: Grid) -> HermitianOperator:
    """Discretize the curvature-induced spin-orbit term.

    Uses the rescaled anticommutator form (i/2){X^b, d_b} with
    X^b = (1/(2 sqrt g)) S^{ab} sigma_a evaluated at nodes and centered
    differences for d_b, Hermitian at assembly.
    """
    op = build_soi_operator(grid, _soi_fields(frame_fields(patch,
                                                          *grid.mesh())))
    _check_hermitian(op.matrix, "Hso")
    return op


def _soi_fields(ff):
    """X^b = (1/(2 sqrt g)) S^{ab} sigma_a^tan, shape (2, 2, 2, n1, n2)."""
    sigma_tan = (np.einsum("a...,st->ast...", ff.e[:, 0], SIGMA1)
                 + np.einsum("a...,st->ast...", ff.e[:, 1], SIGMA2))
    X = np.einsum("ab...,ast...->bst...", ff.S, sigma_tan)
    return 0.5 * X / ff.sqrt_g


def _soi_matrix(grid, X):
    """Assemble (i/2){X^b, D_b^centered} into the 2N operator."""
    rows, cols, vals = [], [], []
    for axis, h in ((0, grid.h1), (1, grid.h2)):
        r, c, mask = _links(grid, axis)
        Xb = X[axis]  # (2,2,n1,n2)
        Xnb = np.roll(Xb, -1, axis=axis + 2)
        block = 1j * (Xb + Xnb) / (4.0 * h)   # entry (n -> n+1)
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
    """H0 + Hso on the same grid, from one geometry pass and one
    hermiticity check of the sum."""
    geo = _grid_geometry(patch, grid)
    op = (build_h0_operator(grid, geo, scalar_potential)
          + build_soi_operator(grid, geo.X))
    _check_hermitian(op.matrix, "Heff")
    return op


# ----------------------------------------------------------------------
# Operator utilities
# ----------------------------------------------------------------------

def apply(op: HermitianOperator, fld: SpinorField) -> SpinorField:
    """Matrix-vector product Op |psi> as a new field."""
    if op.dim != fld.grid.dim:
        raise GridError(
            f"operator dim {op.dim} does not match field dim {fld.grid.dim}")
    return SpinorField.from_flat(fld.grid, op.matrix @ fld.flat())


def gauge_conjugate(op: HermitianOperator, theta_values) -> HermitianOperator:
    """Exact lattice gauge rotation of an assembled operator.

    P H P^dagger with P = diag(exp(i theta sigma_3)) per node;
    theta_values: array over grid nodes (n1, n2) or flat.  Spectra are
    exactly preserved (unitary similarity).  The CSR entries are scaled
    in place of the product, (p[row] H) conj(p[col]), in O(nnz) with the
    sparsity pattern of H.
    """
    theta = np.asarray(theta_values, dtype=float).ravel()
    if 2 * len(theta) != op.dim:
        raise GridError("gauge phase array does not match operator size")
    phases = np.empty(2 * len(theta), dtype=complex)
    phases[0::2] = np.exp(1j * theta)
    phases[1::2] = np.exp(-1j * theta)
    m = op.matrix.tocsr()
    data = phases[_rows(m)]
    data *= m.data
    data *= np.conj(phases)[m.indices]
    return HermitianOperator(
        matrix=sp.csr_matrix((data, m.indices.copy(), m.indptr.copy()),
                             shape=m.shape),
        grid=op.grid, terms=op.terms)


def time_reversal_defect(op: HermitianOperator) -> float:
    """max-norm of [T, H] with T = i sigma_y C on the lattice.

    T conjugates amplitudes and link phases; on the interleaved spin
    layout T H T^{-1} = S_y conj(H) S_y with S_y = I_nodes x sigma_y.
    Each 2x2 node block B = [[a, b], [c, d]] maps to
    sigma_y conj(B) sigma_y = [[d*, -c*], [-b*, a*]], so the defect is
    read off the blocks in O(nnz): the diagonal pair differs from B by
    |d* - a| and the off-diagonal pair by |c* + b|, each twice.
    """
    B = op.matrix.tobsr((2, 2)).data          # (blocks, 2, 2)
    if not len(B):
        return 0.0
    return float(max(np.abs(np.conj(B[:, 1, 1]) - B[:, 0, 0]).max(),
                     np.abs(np.conj(B[:, 1, 0]) + B[:, 0, 1]).max()))


def export_coo(op: HermitianOperator, path) -> None:
    """Write the operator as text lines 'row col re im'."""
    coo = op.matrix.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# spinsurf operator dim={op.dim} terms={','.join(op.terms)}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v.real:.17e} {v.imag:.17e}\n")
