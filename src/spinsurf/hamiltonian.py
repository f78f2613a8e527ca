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
``frame_fields`` at the nodes (sqrt g, K, M, sqrt(g) g^{12}, X^b) and at
the half-steps of each axis (sqrt(g) g^{aa} and the link phase h w_a),
each computing only the stages of the fields read there.  Each term
supplies its 2x2 spinor blocks on one node pattern (the node, its +-1
neighbours on each axis and, when the g^{12} cross term is not zero, the
four diagonal neighbours), and ``_write_csr`` writes them once into the
interleaved CSR; H_eff sums the blocks of both terms before that write.
The writer, the one route to that layout (``dynamics``'s observables
use it too), consumes its blocks and checks each operator it writes for
hermiticity, once.  ``_fourier_blocks`` splits an operator that the
one-node shift along a periodic axis leaves unchanged into the dense
Fourier blocks that ``eigensolve`` solves and ``evolve`` propagates on,
every split in the one form B_m = C_0 + p_m C_1 + q_m C_2 (``p`` and
``q`` the symbols of -i d and -d^2 along the axis);
``_FourierBlocks.to_blocks`` and ``from_blocks`` carry vectors to the
blocks and back, ``_FourierBlocks.kept`` counts the blocks that carry
the spectrum (half of them when ``kramers``: block n - m is the time
reverse of block m), ``partners`` names each one's pair and
``time_reverse`` maps coefficients between the two, and ``real_blocks``
decides whether ``block`` returns real matrices.
``_transverse_operators`` writes the terms across a periodic axis on
one line of nodes, and ``_spectral_blocks`` adds the exact (Fourier)
symbol of the axis terms of geometry that does not vary along it.  The
split-axis wavenumbers and symbols are formed here only:
``_wavenumbers``, the symbols of both forms (``momenta`` returns p),
``rows`` (node fields on the rows of a line) and ``_sweep_order``
(blocks by increasing |wavenumber|).  Only this module knows the
interleaved spin layout.

Grid boundary conditions are periodic or hard wall (field vanishes on the
wall); wall grids place nodes strictly inside the open interval.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag

from .errors import GridError, HermiticityError
from .frames import frame_fields
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

    def __eq__(self, other):
        # field by field: the generated tuple comparison is ambiguous on
        # the node arrays
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.bc == other.bc and self.domain == other.domain
                and self.h1 == other.h1 and self.h2 == other.h2
                and np.array_equal(self.q1, other.q1)
                and np.array_equal(self.q2, other.q2))

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
        if (self.grid is not None and other.grid is not None
                and self.grid != other.grid):
            raise GridError(
                f"cannot add operators on different grids "
                f"({self.grid.n1}x{self.grid.n2} and "
                f"{other.grid.n1}x{other.grid.n2})")
        return HermitianOperator(
            matrix=(self.matrix + other.matrix).tocsr(),
            grid=self.grid if self.grid is not None else other.grid,
            terms=self.terms + other.terms)

    def max_norm(self) -> float:
        return float(np.abs(self.matrix.data).max()) if self.matrix.nnz else 0.0


def hermiticity_defect(op) -> float:
    """max |H - H^dagger| / max |H| of an operator or a CSR matrix.

    Reads the stored entries of H and of the difference directly.  A
    canonical CSR matrix whose transpose has the same pattern (every
    assembled operator) is compared with one CSC copy: its ``data`` are
    the entries of H^T at the positions of H.  Other input goes through
    H - H^dagger.
    """
    m = op.matrix if isinstance(op, HermitianOperator) else op
    if not m.nnz:
        return 0.0
    t = m.tocsc() if m.format == "csr" and m.has_canonical_format else None
    if (t is not None and np.array_equal(t.indptr, m.indptr)
            and np.array_equal(t.indices, m.indices)):
        diff = np.subtract(m.data, np.conjugate(t.data, out=t.data),
                           out=t.data)
    else:
        diff = (m - m.getH()).data
    defect = np.abs(diff).max(initial=0.0)
    return float(defect / np.abs(m.data).max()) if defect else 0.0


def _check_hermitian(mat, label):
    defect = hermiticity_defect(mat)
    if not defect <= 1e-12:     # NaN fails too
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
    """Evaluate frame_fields once at the nodes and once per axis at the
    half-steps, reading only what the stencils use."""
    ff = frame_fields(patch, *grid.mesh())
    nodes = dict(sqrt_g=ff.sqrt_g, K=ff.K, M=ff.M,
                 c12=ff.sqrt_g * ff.g_inv[0, 1], X=_soi_fields(ff))
    del ff  # one evaluation alive at a time bounds the peak memory
    c, phase = [], []
    for axis, h in ((0, grid.h1), (1, grid.h2)):
        ff = frame_fields(patch, *grid.half_mesh(axis))
        c.append(ff.sqrt_g * ff.g_inv[axis, axis])
        phase.append(h * ff.w[axis])
        del ff
    return GridGeometry(c=tuple(c), phase=tuple(phase), **nodes)


# ----------------------------------------------------------------------
# One node-block stencil pattern, written once into CSR
# ----------------------------------------------------------------------

def _at(values, d1, d2):
    """``values`` of the (d1, d2) neighbour of every node, wrapped."""
    return np.roll(values, (-d1, -d2), axis=(0, 1))


def _write_csr(grid, blocks, label):
    """The interleaved CSR (spin fastest) of a set of 2x2 node blocks.

    ``blocks`` maps (d1, d2, s, t) to values shaped like the nodes: the
    entry (2k + s, 2m + t), m being the (d1, d2) neighbour of node k.
    Periodic axes wrap; a neighbour across a wall is dropped.  Each row
    is written with sorted column indices and without exact zeros.  The
    writer pops the blocks it stacks and frees its temporaries before it
    checks the matrix's hermiticity, the one check of every operator
    (``label`` names it in the error).
    """
    dim = grid.dim
    keys = sorted(blocks, key=lambda key: (key[2], key))   # row spin first
    n_up = sum(key[2] == 0 for key in keys)
    node = 2 * np.arange(grid.nodes, dtype=np.int32 if dim < 2**31
                         else np.int64).reshape(grid.n1, grid.n2)
    nodes = {key[:2]: _at(node, *key[:2]) for key in keys}
    cols = np.stack([nodes[key[:2]] + key[3] for key in keys])
    vals = np.stack([blocks.pop(key) for key in keys])
    keep = vals != 0
    for axis, kind in enumerate(grid.bc):
        if kind == "periodic":
            continue
        line = (slice(None),) * axis
        for i, key in enumerate(keys):
            if key[axis]:
                keep[(i,) + line + (-1 if key[axis] > 0 else 0,)] = False
    cols, vals, keep = (a.reshape(len(keys), -1).T for a in (cols, vals, keep))
    indptr = np.cumsum(np.stack((keep[:, :n_up].sum(1),
                                 keep[:, n_up:].sum(1)), -1))
    mat = sp.csr_matrix((vals[keep], cols[keep],
                         np.concatenate(([0], indptr))), shape=(dim, dim))
    del node, nodes, cols, vals, keep
    # the keys run in column order, except in the rows of the first and
    # last line of a periodic axis, where a neighbour wraps
    mat.sort_indices()
    _check_hermitian(mat, label)
    return mat


# Largest entrywise change, relative to max |H|, that the one-node shift
# along a periodic axis may make for the operator to split into Fourier
# blocks.  Assembled H_eff (torus 24^2 to 96^2, sphere 24^2 to 64x128)
# measures 3e-16 to 1e-15 along the azimuth, and 6e-3 to 2.4e-2 along
# the torus's tube angle.
_SHIFT_TOL = 1e-12

@dataclass(frozen=True)
class _FourierBlocks:
    """An operator that the one-node shift along ``axis`` leaves unchanged.

    ``lines[j]`` holds the rows of the j-th line of nodes across ``axis``
    (node along the other axis, spin fastest).  Block m = 0 .. n-1 acts on
    the wave exp(2 pi i m j / n) along the axis: an eigenvector u of B_m
    is the eigenvector u (x) exp(2 pi i m j / n) / sqrt(n) of the
    operator.  Every split has the one form B_m = C_0 + p_m C_1 + q_m C_2:
    ``couplings`` are the dense (C_0, C_1, C_2) and ``symbols`` the arrays
    (p, q), the symbols of -i d and -d^2 along the axis at each block's
    wavenumber k (``_wavenumbers``): sin(k h) / h and (2 sin(k h / 2) /
    h)^2 for a three-point split (``_fourier_blocks``), k and k^2 for a
    spectral one (``_spectral_blocks``).  p is odd and q even under m ->
    n - m, p = 0 on the Nyquist block of even n (its own partner, whose
    symbol is the mean of +k and -k).  Blocks 0 .. ``kept`` - 1 carry
    every eigenvalue and, through ``time_reverse`` of block m's
    eigenvectors for its partner n - m >= ``kept``, every eigenvector.
    """

    axis: int
    lines: np.ndarray      # (n, block dimension)
    couplings: tuple
    symbols: tuple

    @property
    def n(self) -> int:
        return len(self.lines)

    def __add__(self, other: "_FourierBlocks") -> "_FourierBlocks":
        """The blocks of the sum of two operators split alike."""
        if ((self.axis, self.lines.shape) != (other.axis, other.lines.shape)
                or not all(map(np.array_equal, self.symbols,
                               other.symbols))):
            raise GridError("cannot add Fourier blocks of different splits")
        return dataclasses.replace(self, couplings=tuple(
            a + b for a, b in zip(self.couplings, other.couplings)))

    def momenta(self):
        """The symbol p of -i d along the axis on each block."""
        return self.symbols[0]

    def rows(self, up, down):
        """Values of node fields ``up`` and ``down`` (shaped like the
        nodes) on the rows of line 0: a field that does not vary along
        the axis has these values on every line."""
        field = np.empty(2 * np.size(up))
        field[0::2], field[1::2] = np.ravel(up), np.ravel(down)
        return field[self.lines[0]]

    def block(self, m):
        """B_m: a float64 matrix when ``real_blocks`` holds, complex
        otherwise."""
        c0, c1, c2 = ((c.real for c in self.couplings)
                      if self.real_blocks else self.couplings)
        p, q = (s[m] for s in self.symbols)
        return c0 + p * c1 + q * c2

    def _negligible(self, gaps):
        """Whether the ``gaps`` of C_0, C_1, C_2 are within ``_SHIFT_TOL``
        of the largest max |C_j|, each weighted by its symbol's largest
        magnitude (1 for C_0): the size of its term in the blocks."""
        weights = (1.0, *(np.abs(s).max() for s in self.symbols))
        scale = _SHIFT_TOL * max(w * np.abs(c).max(initial=0.0)
                                 for w, c in zip(weights, self.couplings))
        return all(w * gap <= scale for w, gap in zip(weights, gaps))

    @functools.cached_property
    def real_blocks(self):
        """Whether every block B_m is real (and so real symmetric): when
        C_0, C_1 and C_2 are (``_negligible`` imaginary parts), as when
        the operator commutes with complex conjugation combined with the
        reflection j -> -j of the split axis."""
        return self._negligible([np.abs(c.imag).max(initial=0.0)
                                 for c in self.couplings])

    @functools.cached_property
    def kramers(self):
        """Whether block n - m is the time reverse of block m: when C_0
        and C_2 are even and C_1 is odd under C -> J conj(C) J^T, J = i
        sigma_y at each node (``_negligible`` gaps of the 2x2 node
        blocks).  With p odd and q even, B_{n-m} = J conj(B_m) J^T then
        has the values of B_m and the ``time_reverse`` of its vectors."""
        k = self.lines.shape[1] // 2
        return self._negligible([
            _reversal_gap(c.reshape(k, 2, k, 2).swapaxes(1, 2), sign)
            for c, sign in zip(self.couplings, (1.0, -1.0, 1.0))])

    @property
    def kept(self) -> int:
        """The blocks that carry the spectrum: n // 2 + 1 when
        ``kramers`` holds, so block n - m is the time reverse of block m,
        and n otherwise."""
        return self.n // 2 + 1 if self.kramers else self.n

    def partners(self):
        """The block that shares the values of each block 0 .. kept - 1:
        n - m (mod n) when ``kramers`` holds, and m itself otherwise."""
        m = np.arange(self.kept)
        return -m % self.n if self.kramers else m

    @staticmethod
    def time_reverse(c, inverse=False):
        """T c = J conj(c) of block coefficients ``c`` (block dimension on
        axis 1): J = i sigma_y maps each node's (up, down) to (down, -up).
        ``inverse`` gives T^-1 c = J^T conj(c) = -T c."""
        sign = -1.0 if inverse else 1.0
        out = np.empty_like(c)
        out[:, 0::2] = sign * np.conj(c[:, 1::2])
        out[:, 1::2] = -sign * np.conj(c[:, 0::2])
        return out

    def lift(self, u, m):
        """The operator's eigenvectors of block-m eigenvectors ``u``
        (columns)."""
        # the argument from (m j) mod n stays below 2 pi, so its rounding
        # does not grow with n
        wave = np.exp(2j * math.pi / self.n
                      * (int(m) * np.arange(self.n) % self.n))
        vecs = np.empty((self.lines.size, u.shape[1]), complex)
        vecs[self.lines] = wave[:, None, None] * (u / math.sqrt(self.n))
        return vecs

    def to_blocks(self, psi):
        """Block coefficients (n, block dimension, columns) of operator
        vectors ``psi`` (columns): the c with psi = sum_m lift(c[m], m)."""
        return np.fft.fft(psi[self.lines], axis=0) / math.sqrt(self.n)

    def from_blocks(self, c):
        """The operator vectors sum_m lift(c[m], m) of block coefficients
        ``c``; the inverse of ``to_blocks``.  The lines are read back by
        a reshape and a transpose: node (i1, i2) sits at line i_axis,
        place (i_other, spin)."""
        lines = np.fft.ifft(c, axis=0) * math.sqrt(self.n)
        nodes = lines.reshape(self.n, -1, 2, c.shape[2])
        return np.moveaxis(nodes, 0, self.axis).reshape(self.lines.size, -1)


def _lines(grid, axis):
    """Row j: the rows of node line j across ``axis``, spin fastest."""
    node = np.arange(grid.nodes).reshape(grid.n1, grid.n2)
    return (2 * np.moveaxis(node, axis, 0)[..., None]
            + np.arange(2)).reshape(node.shape[axis], -1)


def _wavenumbers(n, h):
    """k = 2 pi m' / (n h) of blocks m = 0 .. n-1 of spacing h, m' the
    index wrapped into (-n/2, n/2], and the mask of the Nyquist block."""
    m = np.arange(n)
    m = np.where(2 * m > n, m - n, m)
    return 2.0 * np.pi * m / (n * h), 2 * m == n


def _fourier_blocks(op):
    """The Fourier split of ``op`` along a periodic axis, or None.

    An axis qualifies when the operator's grid matches its matrix, every
    coupling reaches at most the neighbouring line, and the one-node
    shift along the axis changes no entry by more than ``_SHIFT_TOL``
    max |H|.  The block size sets no limit: the blocks of dimension
    2 n_other are dense at any size, and a split operator has no other
    route in ``eigensolve`` or ``evolve``.  The shifted diagonal is
    compared first, in O(dim), so an axis along which the diagonal
    varies (the torus's tube angle) is rejected before the O(nnz) tests.
    Of two qualifying axes the one with the smaller blocks is taken.
    """
    grid, mat = op.grid, op.matrix
    if grid is None or grid.dim != mat.shape[0]:
        return None
    shape = (grid.n1, grid.n2)
    axes = [a for a in (0, 1) if grid.bc[a] == "periodic" and shape[a] >= 3]
    if not axes:
        return None
    coo = mat.tocoo()
    scale = np.abs(coo.data).max(initial=0.0)
    diag = mat.diagonal()
    for axis in sorted(axes, key=lambda a: -shape[a]):
        n = shape[axis]
        lines = _lines(grid, axis)
        shift = np.empty(grid.dim, dtype=int)
        shift[lines] = np.roll(lines, -1, axis=0)
        if np.abs(diag[shift] - diag).max() > _SHIFT_TOL * scale:
            continue
        pos = np.empty(grid.dim, dtype=int)
        pos[lines] = np.arange(n)[:, None]
        offset = (pos[coo.col] - pos[coo.row]) % n
        if np.any((offset > 1) & (offset < n - 1)):
            continue
        if abs(mat[shift][:, shift] - mat).max() > _SHIFT_TOL * scale:
            continue
        rows = mat[lines[0]]
        lower, diag, upper = (rows[:, lines[d]].toarray()
                              for d in (-1, 0, 1))
        # sum_d e^{i k h d} H_d = C_0 + p C_1 + q C_2, exactly, with the
        # centred differences' symbols p and q
        h = (grid.h1, grid.h2)[axis]
        k, nyquist = _wavenumbers(n, h)
        return _FourierBlocks(axis, lines, (
            diag + upper + lower, 1j * h * (upper - lower),
            (-0.5 * h * h) * (upper + lower)), (
            np.where(nyquist, 0.0, np.sin(k * h) / h),
            (2.0 * np.sin(0.5 * k * h) / h) ** 2))
    return None


def _sweep_order(n, kept):
    """Blocks 0 .. kept - 1 of an n-block split in order of increasing
    |wavenumber|."""
    size = np.abs(_wavenumbers(n, 1.0)[0])
    return sorted(range(kept), key=size.__getitem__)


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


def _scalar_term(geo, scalar_potential):
    if scalar_potential == "spin-connection":
        return 0.25 * geo.K
    if scalar_potential == "dacosta":
        return -0.5 * (geo.M**2 - geo.K)
    if scalar_potential == "none":
        return np.zeros_like(geo.K)
    raise ValueError(f"unknown scalar_potential {scalar_potential!r}")


def _h0_blocks(grid, geo, scalar_potential, skip=None):
    """The node blocks of H0 = M^{-1/2} A M^{-1/2} / 2 + V.

    A is the flux-form Laplacian of the spin-up component with the
    Peierls link phases; the spin-down links carry the opposite phases,
    so each spin-down entry is the conjugate of the spin-up one.  The
    sqrt(g) g^{12} cross term is the centered form D1^H c12 D2 + D2^H c12
    D1 on the diagonal neighbours, written only when it is not zero.
    Axis ``skip`` contributes nothing (neither its links nor its part of
    the diagonal), and then a cross term raises GridError.
    """
    link, diag, units = {}, 0.0, [None, None]
    for axis, h, step in ((0, grid.h1, (1, 0)), (1, grid.h2, (0, 1))):
        if axis == skip:
            continue
        c_plus, c_minus, phase = _node_coefficients(grid, geo, axis)
        diag = diag + (c_plus + c_minus) / h**2
        units[axis] = np.exp(1j * phase)
        link[step] = hop = -(c_plus / h**2) * units[axis]
        link[-step[0], -step[1]] = np.conj(np.roll(hop, 1, axis=axis))
    c12 = geo.c12
    if np.abs(c12).max() > 1e-14 * max(1.0, np.abs(diag).max()):
        if skip is not None:
            raise GridError("the g^{12} cross term couples the axes, so the "
                            "axis terms have no symbol of their own")
        D1, D2 = ({1: fwd, -1: -np.conj(np.roll(fwd, 1, axis=axis))}
                  for axis, fwd in ((0, units[0] / (2.0 * grid.h1)),
                                    (1, units[1] / (2.0 * grid.h2))))
        for d1 in (1, -1):
            for d2 in (1, -1):
                # conj(D1[k, i]) c12[k] D2[k, j] with k = i + d1 e1, plus
                # conj(D2[k, i]) c12[k] D1[k, j] with k = i + d2 e2
                link[d1, d2] = (
                    _at(np.conj(D1[-d1]) * c12 * D2[d2], d1, 0)
                    + _at(np.conj(D2[-d2]) * c12 * D1[d1], 0, d2))
    link[0, 0] = diag + 0j   # complex, so its conjugate is the spin-down one
    rescale = np.asarray(geo.sqrt_g, float) ** -0.5
    half = 0.5 * rescale
    V = np.asarray(_scalar_term(geo, scalar_potential), float)
    blocks = {}
    for (d1, d2), a in link.items():
        a = half * a * _at(rescale, d1, d2) + (V if d1 == d2 == 0 else 0)
        blocks[d1, d2, 0, 0], blocks[d1, d2, 1, 1] = a, np.conj(a)
    return blocks


def _soi_blocks(grid, X, skip=None):
    """The node blocks of (i/2){X^b, d_b} with centered d_b, b != ``skip``.

    The +e_b link of node k carries i (X^b_k + X^b_{k+e_b}) / (4 h_b) in
    all four spin entries, zeros included; the -e_b link, its adjoint.
    """
    X = np.asarray(X, complex)
    blocks = {}
    for b, h, step in ((0, grid.h1, (1, 0)), (1, grid.h2, (0, 1))):
        if b == skip:
            continue
        back = (-step[0], -step[1])
        fwd = 1j * (X[b] + np.roll(X[b], -1, axis=b + 2)) / (4.0 * h)
        for s in (0, 1):
            for t in (0, 1):
                blocks[step + (s, t)] = fwd[s, t]
                blocks[back + (t, s)] = np.conj(_at(fwd[s, t], *back))
    return blocks


def _soi_fields(ff):
    """X^b = S^{ab} (e_a^1 sigma_1 + e_a^2 sigma_2) / (2 sqrt g).

    Shape (2, 2, 2, n1, n2).  Only the spin off-diagonal entries are
    nonzero, re -+ i im, written in real arithmetic; a zero is +0.
    """
    S, e = ff.S, ff.e
    scale = 1.0 / ff.sqrt_g
    re = 0.5 * (0.0 + S[0] * e[0, 0] + S[1] * e[1, 0]) * scale
    im = 0.5 * (0.0 + S[0] * e[0, 1] + S[1] * e[1, 1]) * scale
    X = np.zeros((2, 2) + re.shape, dtype=complex)
    X[:, 0, 1].real = X[:, 1, 0].real = re
    X[:, 0, 1].imag = 0.0 - im
    X[:, 1, 0].imag = im
    return X


# Largest change of a geometry field along an axis, relative to max(1,
# its magnitude), for the axis to take a spectral symbol.  The bent window
# measures 4e-16 along s; the numeric jets of an expression surface vary
# by ~1e-12 (sheared plane: 1.3e-12 on h w along q2).
_LINE_TOL = 1e-10


def _line_geometry(geo, axis):
    """The geometry of node line 0 across ``axis`` (index 0 along it, the
    axis kept with length 1).  GridError when a field varies along the
    axis by more than ``_LINE_TOL`` max(1, its largest magnitude): the
    fields are O(1) in the package's units, and one that vanishes
    (c12 on an orthogonal chart) holds only rounding noise."""
    def first(a):
        a = np.asarray(a)
        head = np.take(a, [0], axis=a.ndim - 2 + axis)   # nodes are last
        if (np.abs(a - head).max(initial=0.0)
                > _LINE_TOL * max(1.0, np.abs(a).max(initial=0.0))):
            raise GridError(f"the geometry varies along axis {axis}, so "
                            f"the operator does not split there")
        return head
    fields = {}
    for f in dataclasses.fields(geo):
        value = getattr(geo, f.name)
        fields[f.name] = (tuple(map(first, value))
                          if isinstance(value, tuple) else first(value))
    return GridGeometry(**fields)


def _transverse_operators(grid: Grid, geometry: GridGeometry, axis: int):
    """(H0, Hso) of node line 0 across the periodic ``axis`` without the
    terms along it: the node blocks of one line with ``axis`` skipped, V
    included, written (and checked) by ``_write_csr`` as operators on the
    one-line grid (length 1 along ``axis``).  They are block 0 (C_0) of
    the split along the axis, less (1/2) g^{aa} w_a^2, which vanishes
    with w_a.  GridError when the axis is walled, the geometry varies
    along it or the g^{12} cross term couples the axes.
    """
    if grid.bc[axis] != "periodic":
        raise GridError("a spectral split needs a periodic axis")
    line = _line_geometry(geometry, axis)
    name = ("q1", "q2")[axis]
    line_grid = dataclasses.replace(grid, **{name: getattr(grid, name)[:1]})
    h0 = _write_csr(line_grid, _h0_blocks(line_grid, line, "spin-connection",
                                          axis), "H0")
    hso = _write_csr(line_grid, _soi_blocks(line_grid, line.X, axis), "Hso")
    return (HermitianOperator(h0, line_grid, ("kinetic", "gauge-links",
                                              "scalar:spin-connection")),
            HermitianOperator(hso, line_grid, ("soi",)))


def _spectral_blocks(grid: Grid, geometry: GridGeometry, axis: int):
    """H0 and Hso as ``_FourierBlocks`` along the periodic ``axis`` with
    the exact symbol of the axis terms, for geometry that does not vary
    along it (else GridError, as for ``_transverse_operators``).

    C_0 holds the three-point transverse terms (``_transverse_operators``).
    The axis terms take their symbols from the stencil coefficients of
    each node of the line: the Peierls-linked kinetic term (1/2) g^{aa}
    (k + a)^2 = (c / (2 sqrt g)) (k + a)^2, c = sqrt(g) g^{aa} and a = w_a
    (-a for spin down), and the spin-orbit term -k X^a of (i/2){X^a,
    d_a}: the limits of the stencil's (c / (sqrt(g) h^2))(1 - cos((k + a)
    h)) and -X^a sin(k h) / h.
    """
    rest = [op.matrix.toarray()
            for op in _transverse_operators(grid, geometry, axis)]
    line = _line_geometry(geometry, axis)
    h = (grid.h1, grid.h2)[axis]
    kappa = (0.5 * line.c[axis] / line.sqrt_g).ravel()
    a = (line.phase[axis] / h).ravel()

    def spin_diagonal(up, down):
        return np.diag(np.column_stack((up, down)).ravel()).astype(complex)

    X = block_diag(*np.moveaxis(line.X[axis].reshape(2, 2, -1), 2, 0))
    h0 = (rest[0] + spin_diagonal(kappa * a * a, kappa * a * a),
          spin_diagonal(2.0 * kappa * a, -2.0 * kappa * a),
          spin_diagonal(kappa, kappa))
    hso = (rest[1], -X, np.zeros_like(X))
    lines = _lines(grid, axis)
    k, nyquist = _wavenumbers(len(lines), h)
    symbols = (np.where(nyquist, 0.0, k), k * k)
    return (_FourierBlocks(axis, lines, h0, symbols),
            _FourierBlocks(axis, lines, hso, symbols))


def build_h0_operator(grid: Grid, geometry: GridGeometry,
                      scalar_potential="spin-connection"
                      ) -> HermitianOperator:
    """Assemble H0 on ``grid`` from a geometry record, checked by the
    writer.

    scalar_potential: 'spin-connection' (default) uses +K/4, the value the
    spin connection produces; 'dacosta' uses the scalar-particle form
    -(M^2 - K)/2 for comparison; 'none' drops the term.
    """
    return HermitianOperator(
        matrix=_write_csr(grid, _h0_blocks(grid, geometry,
                                           scalar_potential), "H0"),
        grid=grid,
        terms=("kinetic", "gauge-links", f"scalar:{scalar_potential}"))


def assemble_H0(patch: SurfacePatch, grid: Grid,
                scalar_potential="spin-connection") -> HermitianOperator:
    """Discretize H0 (covariant kinetic term plus geometric scalar).

    scalar_potential: see ``build_h0_operator``.
    """
    return build_h0_operator(grid, _grid_geometry(patch, grid),
                             scalar_potential)


def build_soi_operator(grid: Grid, X) -> HermitianOperator:
    """Assemble (i/2){X^b, d_b} from node values X (2, 2, 2, n1, n2),
    checked by the writer."""
    return HermitianOperator(
        matrix=_write_csr(grid, _soi_blocks(grid, X), "Hso"), grid=grid,
        terms=("soi",))


def assemble_Hso(patch: SurfacePatch, grid: Grid) -> HermitianOperator:
    """Discretize the curvature-induced spin-orbit term.

    Uses the rescaled anticommutator form (i/2){X^b, d_b} with
    X^b = (1/(2 sqrt g)) S^{ab} sigma_a evaluated at nodes and centered
    differences for d_b, Hermitian at assembly.
    """
    return build_soi_operator(grid, _soi_fields(frame_fields(patch,
                                                              *grid.mesh())))


def assemble_Heff(patch: SurfacePatch, grid: Grid,
                  scalar_potential="spin-connection") -> HermitianOperator:
    """H0 + Hso on the same grid: one geometry pass, and the blocks of
    both terms summed before one checked CSR write."""
    geo = _grid_geometry(patch, grid)
    h0 = _h0_blocks(grid, geo, scalar_potential)
    soi = _soi_blocks(grid, geo.X)
    # a block of one term adds the zero of the other, as a sparse sum does
    matrix = _write_csr(grid, {key: h0.pop(key, 0) + soi.pop(key, 0)
                               for key in h0.keys() | soi.keys()}, "Heff")
    return HermitianOperator(matrix=matrix, grid=grid, terms=(
        "kinetic", "gauge-links", f"scalar:{scalar_potential}", "soi"))


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
    data = phases[np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))]
    data *= m.data
    data *= np.conj(phases)[m.indices]
    return HermitianOperator(
        matrix=sp.csr_matrix((data, m.indices.copy(), m.indptr.copy()),
                             shape=m.shape),
        grid=op.grid, terms=op.terms)


def _spin_columns(values):
    """Two real columns of per-row ``values``: column 0 holds them on the
    spin-up rows and column 1 on the spin-down rows, zero elsewhere."""
    cols = np.zeros((len(values), 2))
    cols[0::2, 0] = values[0::2]
    cols[1::2, 1] = values[1::2]
    return cols


def time_reversal_defect(op: HermitianOperator) -> float:
    """max-norm of [T, H] with T = i sigma_y C on the lattice.

    T conjugates amplitudes and link phases; on the interleaved spin
    layout T H T^{-1} = S_y conj(H) S_y with S_y = I_nodes x sigma_y.
    Each 2x2 node block B = [[a, b], [c, d]] maps to
    sigma_y conj(B) sigma_y = [[d*, -c*], [-b*, a*]], so the defect is
    read off the blocks in O(nnz): the diagonal pair differs from B by
    |d* - a| and the off-diagonal pair by |c* + b|, each twice.
    """
    return _reversal_gap(op.matrix.tobsr((2, 2)).data)


def _reversal_gap(B, sign=1.0):
    """max |sigma_y conj(B) sigma_y - sign B| over 2x2 node blocks B
    (..., 2, 2): sign -1 measures how far B is from being odd."""
    up, cross = ((B[..., 0, 0], B[..., 0, 1]) if sign > 0
                 else (-B[..., 0, 0], -B[..., 0, 1]))
    diag = np.abs(np.conj(B[..., 1, 1]) - up)
    off = np.abs(np.conj(B[..., 1, 0]) + cross)
    return float(max(diag.max(initial=0.0), off.max(initial=0.0)))


def export_coo(op: HermitianOperator, path) -> None:
    """Write the operator as text lines 'row col re im'."""
    coo = op.matrix.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# spinsurf operator dim={op.dim} terms={','.join(op.terms)}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v.real:.17e} {v.imag:.17e}\n")
