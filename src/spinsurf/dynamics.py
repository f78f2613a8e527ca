"""Bent-cylinder dynamics: forces from commutators and spin-Hall wavepackets.

The bent cylinder is the torus patch in coordinates (theta, s) restricted
to a small angular window theta in [theta_c - theta0, theta_c + theta0]
(hard walls in theta) and one period s_length of the azimuth s, with
theta_c = 0 the outer (K > 0) side and theta_c = pi the inner (K < 0)
side.  Its coefficients depend on theta only, so its operators split
into Fourier blocks along s.  The experiments run on blocks with the
exact symbol of the s terms (``hamiltonian._spectral_blocks``): the
Peierls-linked kinetic term (1/2) g^{ss} (k +- w_s)^2 and the spin-orbit
term -k X^s at the block's wavenumber k, theta kept three-point.  With
the s axis exact, the default n_s = 96 resolves the spin-Hall deflection
to 1e-7 relative, where the three-point s axis left it 6.4 % low at
n_s = 384.  ``bent_cylinder_operators`` builds the three-point H0 and Hso
from the general route (one geometry pass of the torus patch on the
window grid, fed to the same stencil builders and CSR writer as any other
surface, which also writes the observables); it and ``force_operators``
are kept as the oracle of the block routes, and the closed-form
coefficients (sqrt(g) = rho (R + rho cos theta)/R, w_s = -sin(theta)/(2R),
...) as the test suite's oracle of both.

Heisenberg forces: theta_dot = -i [theta, H], then
theta_ddot_pm = -i [theta_dot, H0] and theta_ddot_so = -i [theta_dot, Hso];
F = m rho^2 theta_ddot.  For sigma_3-polarized packets the two routes give
equal Lorentz-like forces, opposite for the two spin species.  theta is
diagonal and the same on every line across s, so the report reads each
expectation as a sum of per-block products with the packet's block
coefficients, and the explicit commutators of ``force_operators`` are
kept as its oracle.

Wavepackets evolve exactly on the Fourier blocks of an operator that the
one-node shift along a periodic axis leaves unchanged, at any block
size; ``evolve`` has no other route.  H_eff has no real magnetic field,
so it is time-reversal invariant and block n - m of the window is the
time reverse of block m (Kramers pairs): half of the blocks are
diagonalized.  Its blocks are real, so their eigenvectors are too, and
``evolve`` multiplies by them in real arithmetic.  On a split, theta,
sigma_3 and the norm are read from the block coefficients, p_s from the
symbol of -i d_s on each block (``momenta``), and only s from real space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import (GridError, InvalidWindowError, PacketTooNarrowError,
                     SurfaceParameterError)
from .hamiltonian import (Grid, HermitianOperator, SpinorField,
                          _FourierBlocks, _fourier_blocks, _grid_geometry,
                          _spectral_blocks, _write_csr, build_h0_operator,
                          build_soi_operator)
from .surfaces import SurfacePatch, make_surface

__all__ = [
    "BentCylinderSetup",
    "bent_cylinder_operators",
    "force_operators",
    "AnalyticForce",
    "analytic_force",
    "gaussian_wavepacket",
    "Trajectory",
    "Trajectories",
    "evolve",
    "ForceReport",
    "force_equality_report",
    "spin_hall_run",
]


@dataclass(frozen=True)
class BentCylinderSetup:
    """Geometry, window, and grid of a bent-cylinder experiment.

    The window has hard walls in theta and is periodic in s, with
    s_length one period, so its operators split into Fourier blocks
    along s and ``evolve`` propagates on them exactly.  The experiments
    take the exact symbol of the s terms on those blocks, so n_s = 96
    resolves them: the deflection, F_pm and <p_s> move by < 1e-6
    relative up to n_s = 768.  The defaults are the CLI's ``[forces]``
    defaults.
    """

    rho: float = 1.0
    R: float = 20.0
    theta0: float = 0.1
    theta_c: float = 0.0
    s_length: float = 30.0
    n_theta: int = 40
    n_s: int = 96

    def __post_init__(self):
        if self.R <= self.rho:
            raise SurfaceParameterError(
                f"bent cylinder needs R > rho, got R={self.R:g}, "
                f"rho={self.rho:g}")
        if not (0.0 < self.theta0 < math.pi):
            raise InvalidWindowError("theta window must satisfy 0 < theta0 < pi")
        # the small-angle regime of the force formulas: |sin| < 0.2 on the
        # window around theta_c in {0, pi}
        worst = max(abs(math.sin(self.theta_c - self.theta0)),
                    abs(math.sin(self.theta_c + self.theta0)))
        if worst >= 0.2:
            raise InvalidWindowError(
                f"theta window leaves the small-angle regime: "
                f"max|sin theta| = {worst:.3f} >= 0.2")

    def patch(self) -> SurfacePatch:
        return make_surface("torus", rho=self.rho, R=self.R)

    def grid(self) -> Grid:
        return Grid.for_patch(
            self.patch(), self.n_theta, self.n_s,
            bc=("wall", "periodic"),
            domain=((self.theta_c - self.theta0, self.theta_c + self.theta0),
                    (0.0, self.s_length)))


def bent_cylinder_operators(setup: BentCylinderSetup):
    """(H0, Hso, theta_op, p_s op) on the bent-cylinder window grid, all
    three-point: the oracle of the spectral blocks of ``_window_blocks``
    (theta terms equal, s terms to O((k h_s)^2))."""
    patch, grid = setup.patch(), setup.grid()
    geo = _grid_geometry(patch, grid)
    H0 = build_h0_operator(grid, geo)
    Hso = build_soi_operator(grid, geo.X)
    theta = grid.mesh()[0]
    theta_op = _spin_diagonal(grid, "theta", theta, theta)
    # p_s = -i d_s by centered differences, per spin component
    hop = np.full((grid.n1, grid.n2), complex(0.0, -1.0 / (2.0 * grid.h2)))
    p_s = _write_csr(grid, {(0, d, s, s): hop if d > 0 else hop.conj()
                            for d in (1, -1) for s in (0, 1)}, "p_s")
    return H0, Hso, theta_op, HermitianOperator(p_s, grid, ("p_s",))


def _spin_diagonal(grid: Grid, term, up, down) -> HermitianOperator:
    """diag(up, down) at each node, through ``hamiltonian._write_csr``."""
    return HermitianOperator(_write_csr(grid, {(0, 0, 0, 0): up,
                                               (0, 0, 1, 1): down}, term),
                             grid, (term,))


def _window_blocks(setup: BentCylinderSetup):
    """(H0, Hso) of the window as Fourier blocks along s with the exact
    symbol of the s terms (``hamiltonian._spectral_blocks``); theta stays
    three-point."""
    grid = setup.grid()
    return _spectral_blocks(grid, _grid_geometry(setup.patch(), grid), 1)


def _block_forces(h0, hso, theta, c, rho):
    """(<F_pm>, <F_so>) per column of block coefficients ``c`` (n, b,
    columns) of H0's and Hso's splits ``h0`` and ``hso``, without
    forming F.

    theta is diagonal and does not vary along the split axis, so it is
    the same diagonal ``theta`` (its values on the rows of a line) in
    every block, and each force is a sum of per-block products:
    <F_x> = 2 rho^2 Im sum_m <theta_dot c_m | B^x_m c_m> / |c|^2 with
    theta_dot c_m = -i (theta B_m c_m - B_m theta c_m), B = B^pm + B^so:
    the expectation of ``force_operators``'s F_x when the splits are
    three-point.
    """
    sq = c.real ** 2 + c.imag ** 2
    norm = sq.sum(axis=(0, 1))
    # [theta, H] = [theta - mean, H]: centred on each packet's mean, the
    # diagonal theta is small where the packet lives, so theta ~ pi costs
    # no digits
    theta = theta[:, None] - (theta @ sq.sum(axis=0)) / norm
    forces = np.zeros((2, c.shape[2]))
    for m in range(h0.n):
        b0, bso, x = h0.block(m), hso.block(m), c[m]
        h0x, hsox, th = b0 @ x, bso @ x, theta * x
        theta_dot = -1j * (theta * (h0x + hsox) - b0 @ th - bso @ th)
        for f, hx in zip(forces, (h0x, hsox)):
            f += np.einsum("ij,ij->j", theta_dot.conj(), hx).imag
    return forces * (2.0 * rho**2 / norm)


def force_operators(H0: HermitianOperator, Hso: HermitianOperator,
                    theta_op: HermitianOperator, rho: float = 1.0):
    """Heisenberg force operators (F_pm, F_so) as explicit commutators.

    theta_dot = -i [theta, H0 + Hso]; F_x = m rho^2 * (-i) [theta_dot, H_x].
    All products are sparse; the results are Hermitian to rounding.
    """
    th = theta_op.matrix
    h0 = H0.matrix
    hso = Hso.matrix
    if not (th.shape == h0.shape == hso.shape):
        raise GridError("force operators need a common grid")
    htot = h0 + hso
    theta_dot = -1j * (th @ htot - htot @ th)
    scale = (rho**2) * (-1j)
    f_pm = scale * (theta_dot @ h0 - h0 @ theta_dot)
    f_so = scale * (theta_dot @ hso - hso @ theta_dot)
    grid = H0.grid
    return (HermitianOperator(matrix=f_pm, grid=grid, terms=("F_pm",)),
            HermitianOperator(matrix=f_so, grid=grid, terms=("F_so",)))


@dataclass(frozen=True)
class AnalyticForce:
    """Closed-form force values for one (theta, p_s) and both spins."""

    theta_ddot: dict      # spin (+1/-1) -> per-route angular acceleration
    force_each: dict      # spin -> m rho^2 theta_ddot (one route)
    force_total: dict     # spin -> both routes summed = 2 sigma3 e B v
    B: float
    v_s: float            # rho R p_s / (R + rho cos theta): makes the
                          # compact 2 sigma3 B v form equal the sum exactly


def analytic_force(setup: BentCylinderSetup, p_s: float,
                   theta: float) -> AnalyticForce:
    """Evaluate the displayed force expressions at (theta, p_s).

    theta_ddot per route = sigma3 p_s R cos(theta) / (2 rho^2 (R + rho cos)^2);
    the compact form 2 sigma3 B v_s with B = cos/(2 rho (R + rho cos))
    reproduces the summed m rho^2 theta_ddot identically with
    v_s = rho R p_s / (R + rho cos theta).
    """
    rho, R = setup.rho, setup.R
    if not (setup.theta_c - setup.theta0 - 1e-12 <= theta
            <= setup.theta_c + setup.theta0 + 1e-12):
        raise InvalidWindowError(f"theta={theta:g} outside the window")
    c = math.cos(theta)
    denom = R + rho * c
    tdd = {s: s * p_s * R * c / (2.0 * rho**2 * denom**2) for s in (+1, -1)}
    f_each = {s: rho**2 * tdd[s] for s in (+1, -1)}
    B = c / (2.0 * rho * denom)
    v_s = rho * R * p_s / denom
    f_tot = {s: 2.0 * s * B * v_s for s in (+1, -1)}
    return AnalyticForce(theta_ddot=tdd, force_each=f_each,
                         force_total=f_tot, B=B, v_s=v_s)


# ----------------------------------------------------------------------
# Wavepackets and unitary evolution
# ----------------------------------------------------------------------

def gaussian_wavepacket(grid: Grid, center, width, k_s: float, spin,
                        rho: Optional[float] = None) -> SpinorField:
    """Normalized Gaussian spinor packet with momentum along s.

    center = (theta_c, s_c); width = (sigma_theta, sigma_s) standard
    deviations (a scalar applies to both); spin in {+1, -1, 'up', 'down'}
    fixes the sigma_3 polarization.  On a periodic axis the packet is the
    sum of its periodic images, so it is smooth across the seam.  Widths
    below 4 grid spacings raise
    PacketTooNarrowError; when rho is given, a wavelength 2 pi / k_s not
    smaller than rho triggers a warning (the force formulas assume a
    current with lambda < rho).
    """
    if np.isscalar(width):
        width = (float(width), float(width))
    s_th, s_s = float(width[0]), float(width[1])
    if s_th < 4.0 * grid.h1 or s_s < 4.0 * grid.h2:
        raise PacketTooNarrowError(
            f"packet widths {width} below 4 grid spacings "
            f"({4 * grid.h1:.3g}, {4 * grid.h2:.3g})")
    if rho is not None and k_s != 0.0 and 2.0 * math.pi / abs(k_s) >= rho:
        warnings.warn("wavepacket wavelength 2 pi / k_s is not below the "
                      "tube radius; the ballistic force formulas assume "
                      "lambda < rho", stacklevel=2)
    spin_idx = {1: 0, +1: 0, -1: 1, "up": 0, "down": 1}[spin]
    values = np.zeros((grid.n1, grid.n2, 2), dtype=complex)
    values[:, :, spin_idx] = np.outer(
        _packet_profile(grid, 0, center[0], s_th, 0.0),
        _packet_profile(grid, 1, center[1], s_s, k_s))
    return SpinorField(grid, values).normalized()


def _packet_profile(grid, axis, center, sigma, k):
    """exp(-(q - center)^2 / (4 sigma^2) + i k q) at the nodes q of
    ``axis``; on a periodic axis of period L, summed over the images
    q - n L with |n| <= 1 + 14 sigma / L (the rest lie below exp(-49))."""
    (lo, hi), q = grid.domain[axis], (grid.q1, grid.q2)[axis]
    reach = (1 + math.ceil(14.0 * sigma / (hi - lo))
             if grid.bc[axis] == "periodic" else 0)
    x = q[:, None] - (hi - lo) * np.arange(-reach, reach + 1)
    return np.exp(-(x - center) ** 2 / (4.0 * sigma**2) + 1j * k * x).sum(1)


@dataclass
class Trajectory:
    times: np.ndarray
    observables: dict      # name -> array of expectation values
    norms: np.ndarray


class Trajectories(tuple):
    """One Trajectory per packet of a block evolution, in field order."""

    @property
    def norms(self) -> np.ndarray:
        """All packets' norm records end to end, so a drift check written
        for one Trajectory covers every packet of a unit-norm batch."""
        return np.concatenate([t.norms for t in self])


# Blocks per batched eigh in ``evolve``: the whole eigenvector stack
# is written one chunk at a time, so no second stack of all the blocks is
# alive beside it.
_EIGH_CHUNK = 32


def _block_eigh(split):
    """Eigenvalues (kept, b) and eigenvectors (kept, b, b) of blocks
    0 .. kept - 1 (``split.kept``: n // 2 + 1 when block n - m is the
    time reverse of block m, and n otherwise), real when the blocks are."""
    kept, b = split.kept, split.lines.shape[1]
    vals = np.empty((kept, b))
    vecs = np.empty((kept, b, b), split.block(0).dtype)
    for lo in range(0, kept, _EIGH_CHUNK):
        hi = min(lo + _EIGH_CHUNK, kept)
        vals[lo:hi], vecs[lo:hi] = np.linalg.eigh(
            np.stack([split.block(m) for m in range(lo, hi)]))
    return vals, vecs


def _stack_times(vecs, x, adjoint=False):
    """V x, or V^H x when ``adjoint``, for each block of the eigenvector
    stack ``vecs`` and complex ``x`` (kept, b, columns).

    A real V multiplies the (re, im) float view of x in one real GEMM:
    ``real @ complex`` would copy V to complex and run a complex GEMM.  A
    complex V^H x is formed as (x^H V)^H, so no conjugate copy of V is
    made.
    """
    if np.isrealobj(vecs):
        v = vecs.swapaxes(1, 2) if adjoint else vecs
        return (v @ np.ascontiguousarray(x).view(np.float64)).view(complex)
    if adjoint:
        return np.matmul(x.conj().swapaxes(1, 2), vecs).conj().swapaxes(1, 2)
    return vecs @ x


def _diagonal(mat):
    """The real diagonal of a sparse observable with no entry off it,
    else None: <psi|D|psi> is then a dot product with |psi|^2."""
    if not sp.issparse(mat):
        return None
    coo = mat.tocoo()
    return mat.diagonal().real if np.all(coo.row == coo.col) else None


def _field_reader(grid, observables):
    """psi -> (|psi|^2 of each column, name -> expectation per column) for
    operator observables.  A sparse one with no entry off its diagonal is
    read from |psi|^2 in one GEMM with the norm row, any other from a
    product with psi."""
    mats = {k: obs.matrix if isinstance(obs, HermitianOperator) else obs
            for k, obs in observables.items()}
    diagonals = {k: d for k, m in mats.items()
                 if (d := _diagonal(m)) is not None}
    # row 0 sums |psi|^2, each other row reads a diagonal observable
    weights = np.vstack([np.ones(grid.dim), *diagonals.values()])

    def read(psi):
        sq, *sums = weights @ (psi.real ** 2 + psi.imag ** 2)
        sums = dict(zip(diagonals, sums))
        return sq, {k: (sums[k] if k in sums else np.einsum(
                        "ij,ij->j", psi.conj(), m @ psi).real) / sq
                    for k, m in mats.items()}
    return read


def _block_reader(split, observables):
    """c -> (|c|^2 of each column, name -> expectation per column) for
    block coefficients c (n, b, columns) and observables name -> (kind,
    weights).  'rows' and 'blocks' are read from |c|^2 summed over the
    blocks or over the rows; 'lines' from the line densities of psi, one
    inverse FFT along the split axis, the only step in real space."""
    for name, (kind, _) in observables.items():
        if kind not in ("rows", "blocks", "lines"):
            raise ValueError(f"observable {name!r} of a split has kind "
                             f"{kind!r}; expected 'rows', 'blocks' or "
                             f"'lines'")

    # sums over the rows of a block as a product with ones: a reduction
    # along the middle axis is ~10x slower
    ones = np.ones(split.lines.shape[1])
    lines = any(kind == "lines" for kind, _ in observables.values())

    def read(c):
        sq = c.real ** 2 + c.imag ** 2
        sums = {"rows": sq.sum(axis=0), "blocks": ones @ sq}
        total = sums["blocks"].sum(axis=0)
        if lines:
            psi = np.fft.ifft(c, axis=0)
            sums["lines"] = split.n * (ones @ (psi.real ** 2
                                               + psi.imag ** 2))
        return total, {k: (weights @ sums[kind]) / total
                       for k, (kind, weights) in observables.items()}
    return read


def _propagate(split, coeffs, times, record):
    """e^{-iHt} on the blocks of ``split``, from block coefficients
    ``coeffs`` (n, b, columns) at t = 0 to each of ``times``.

    The blocks are diagonalized once (``_block_eigh``).  At each time
    ``record(t, c)`` gets the coefficients c of the running columns and
    returns the indices of those that run on, or None for all of them;
    the run ends when none does.
    """
    vals, vecs = _block_eigh(split)
    kept, b = vals.shape
    # Kramers pairs: block p = n - m has the eigenvectors T V_m (T = J
    # conj, ``split.time_reverse``), so V_p^H y = conj(V_m^H T^-1 y) and
    # V_p e^{-i Lambda t} c = T(V_m e^{i Lambda t} conj(c)).  The state of
    # pair m holds, for each packet, V_m^H y_m and V_m^H T^-1 y_p
    # (= conj(c_p)) side by side, so one matmul with V_m serves both
    # blocks.  Blocks 0 and n/2 are their own partners; their second half
    # is formed and dropped.
    partner = split.partners()
    halves = [coeffs[:kept]]
    if kept < split.n:
        halves.append(split.time_reverse(coeffs[partner], inverse=True))
    pairs = np.stack(halves, axis=2)          # (kept, b, halves, cols)
    state = _stack_times(vecs, pairs.reshape(kept, b, -1),
                         adjoint=True).reshape(pairs.shape)
    for t in times:
        phase = np.exp(-1j * t * vals)
        phase = np.stack((phase, phase.conj())[:state.shape[2]], axis=2)
        w = _stack_times(vecs, (phase[..., None] * state).reshape(
            kept, b, -1)).reshape(state.shape)
        coeffs = np.empty((split.n, b, state.shape[3]), complex)
        if kept < split.n:
            coeffs[partner] = split.time_reverse(w[:, :, 1])
        coeffs[:kept] = w[:, :, 0]
        keep = record(t, coeffs)
        if keep is not None:
            state = state[..., keep]
            if not keep:
                break


def evolve(op, fields, dt: float, steps: int,
           observables: Optional[dict] = None, record_every: int = 1,
           stop_when=None):
    """Unitary evolution of packets under ``op``, recorded every
    ``record_every`` steps of ``dt`` and after the last step.

    ``op`` is a HermitianOperator that splits into Fourier blocks along a
    periodic axis (``hamiltonian._fourier_blocks``, at any block size),
    or such a split itself (``hamiltonian._FourierBlocks``: blocks B_m =
    C_0 + p_m C_1 + q_m C_2, with the three-point or the exact symbols of
    the axis).  The blocks are diagonalized once, the packets are
    projected on the blocks by one FFT along the split axis, and psi(t) =
    e^{-iHt} psi is formed at each record time t = step * dt.  There is
    no stepping, so dt only sets the record times, and the norm is kept
    to round-off.  Only blocks 0 .. ``_FourierBlocks.kept`` - 1 are
    diagonalized: when H is time-reversal invariant, block n - m is the
    time reverse of block m, kept = n // 2 + 1, and each one's
    eigenvectors serve block m and its partner
    (``_FourierBlocks.partners``) in one matmul; otherwise all n are.
    When the blocks are real (the operator commutes with complex
    conjugation combined with the reflection of the split axis, as the
    bent window and H_eff along the torus and sphere azimuth do), the
    eigenvector stack is real, half the bytes, and every product with it
    is a real GEMM on the (re, im) float view of the state; otherwise it
    is complex.

    ``fields`` is one SpinorField or a sequence of them on one grid; the
    running packets advance together as the columns of one array.  For an
    operator, observables is a dict name -> operator (a
    HermitianOperator, a sparse or a dense matrix), read from psi
    brought back to the grid at each record; a sparse one with no entry
    off its diagonal is read from |psi|^2, formed once per record.  For a
    split, observables is a dict name -> (kind, weights), read from the
    block coefficients: 'rows' is a diagonal that does not vary along
    the split axis, weights on the rows of one line (``rows``); 'blocks'
    a function of the block, one weight per block (``momenta``); 'lines'
    a function of the position along the split axis, one weight per line
    of nodes, read from the line densities.  ``stop_when(obs_snapshot)``
    may end a packet's run early (the ballistic-window rule) while the
    others run on.  Returns a Trajectory, or Trajectories for a sequence
    of fields.  Raises ValueError unless dt > 0, steps >= 1 and
    record_every >= 1 or for an unknown kind, and GridError unless all
    fields share one grid, the operator splits and the fields lie on its
    grid (for a split: its lines have the shape of theirs).
    """
    if not dt > 0.0:   # NaN fails too
        raise ValueError(f"evolve needs dt > 0, got dt = {dt}")
    if steps < 1:
        raise ValueError(f"evolve needs steps >= 1, got steps = {steps}")
    if record_every < 1:
        raise ValueError(f"evolve needs record_every >= 1, got "
                         f"record_every = {record_every}")
    single = isinstance(fields, SpinorField)
    fields = [fields] if single else list(fields)
    grid = fields[0].grid
    blocks = isinstance(op, _FourierBlocks)
    dim = op.lines.size if blocks else op.dim
    if grid.dim != dim or any(f.grid != grid for f in fields):
        raise GridError(f"evolve needs all fields on one grid of dim {dim}")
    split = op if blocks else _fourier_blocks(op)
    if split is None:
        raise GridError(
            "evolve propagates on Fourier blocks, and this operator does not "
            "split: it needs a grid that matches its matrix, with a periodic "
            "axis along which the one-node shift leaves it unchanged and its "
            "couplings reach only the neighbouring line of nodes")
    # another grid of the same dim would be read by the wrong lines; a
    # split knows its grid only by the shape of its lines
    shape = (grid.n1, grid.n2)
    if (split.lines.shape != (shape[split.axis], 2 * shape[1 - split.axis])
            or not (blocks or op.grid == grid)):
        raise GridError("evolve needs the fields on the operator's grid")
    observables = observables or {}
    psi = np.column_stack([f.flat() for f in fields])
    coeffs = split.to_blocks(psi)
    if blocks:
        read = _block_reader(split, observables)
        first = read(coeffs)
    else:
        field_reader = _field_reader(grid, observables)
        first = field_reader(psi)

        def read(c):
            return field_reader(split.from_blocks(c))
    cell = grid.h1 * grid.h2
    logs = [[] for _ in fields]           # per packet: (t, norm, snapshot)
    active = list(range(len(fields)))     # packet of each column

    def write(t, sq, values):
        for col, p in enumerate(active):
            logs[p].append((t, math.sqrt(cell * sq[col]),
                            {k: float(v[col]) for k, v in values.items()}))

    def record(t, c):
        write(t, *read(c))
        if stop_when is None:
            return None
        keep = [col for col, p in enumerate(active)
                if not stop_when(logs[p][-1][2])]
        active[:] = [active[col] for col in keep]
        return keep

    write(0.0, *first)
    _propagate(split, coeffs, [step * dt for step in [
        *range(record_every, steps, record_every), steps]], record)
    trajs = [Trajectory(times=np.array([r[0] for r in log]),
                        norms=np.array([r[1] for r in log]),
                        observables={k: np.array([r[2][k] for r in log])
                                     for k in observables})
             for log in logs]
    return trajs[0] if single else Trajectories(trajs)


# ----------------------------------------------------------------------
# Experiment drivers
# ----------------------------------------------------------------------

@dataclass
class ForceReport:
    """Force expectations per spin species against the analytic values."""

    f_pm: dict             # spin -> <F_pm>
    f_so: dict             # spin -> <F_so>
    analytic_each: dict    # spin -> m rho^2 theta_ddot (one route)
    analytic_total: dict   # spin -> 2 sigma3 e B v_s
    rel_pm_vs_so: dict     # spin -> |<F_pm> - <F_so>| / |<F_pm>|
    rel_vs_analytic: dict  # spin -> max route discrepancy vs analytic_each
    mean_theta: dict
    mean_ps: dict

    def as_dict(self):
        """The fields of ``forces.json``.  ``rel_pm_vs_so`` is left out:
        it follows from F_pm and F_so, which nearly cancel in it, so their
        round-off moves it ~1e-6 relative.  ``mean_theta`` is left out
        too: at theta_c = 0 it is a round-off zero (~1e-18) that no
        relative tolerance can compare."""
        def keyed(d):
            return {("up" if s > 0 else "down"): d[s] for s in (+1, -1)}
        return {
            "F_pm": keyed(self.f_pm), "F_so": keyed(self.f_so),
            "analytic_each": keyed(self.analytic_each),
            "analytic_total": keyed(self.analytic_total),
            "rel_vs_analytic": keyed(self.rel_vs_analytic),
            "mean_ps": keyed(self.mean_ps),
        }


_S_START_DIVISOR = 3.0  # packets start at s = s_length / 3


def force_equality_report(setup: BentCylinderSetup, k_s: float = 8.0,
                          widths=(0.02, 2.0)) -> ForceReport:
    """Compare <F_pm> and <F_so> on sigma_3-polarized packets.

    Splits the window's H0 and Hso into Fourier blocks along s with the
    exact symbol of the s terms (``_window_blocks``), prepares one packet
    per spin species at (theta_c, s_length / 3), and reports the force
    expectations (per-block products with the packets' block
    coefficients, ``_block_forces``) next to the closed-form prediction
    evaluated at (<theta>, <p_s>).  <theta> comes from the block
    coefficients and <p_s> from the symbol of -i d_s on each block.
    """
    h0, hso = _window_blocks(setup)
    grid = setup.grid()
    s_center = setup.s_length / _S_START_DIVISOR
    spins = (+1, -1)
    packets = [gaussian_wavepacket(grid, (setup.theta_c, s_center), widths,
                                   k_s, spin, rho=setup.rho)
               for spin in spins]
    coeffs = h0.to_blocks(np.column_stack([p.flat() for p in packets]))
    q1 = grid.mesh()[0]
    theta = h0.rows(q1, q1)
    _, means = _block_reader(h0, {"theta": ("rows", theta),
                                  "p_s": ("blocks", h0.momenta())})(coeffs)
    forces = _block_forces(h0, hso, theta, coeffs, setup.rho)

    f_pm, f_so, ana_each, ana_tot = {}, {}, {}, {}
    rel_eq, rel_ana, mean_th, mean_ps = {}, {}, {}, {}
    for col, spin in enumerate(spins):
        th, ps = float(means["theta"][col]), float(means["p_s"][col])
        fp, fs = (float(f) for f in forces[:, col])
        ana = analytic_force(setup, ps, th)
        f_pm[spin] = fp
        f_so[spin] = fs
        ana_each[spin] = ana.force_each[spin]
        ana_tot[spin] = ana.force_total[spin]
        rel_eq[spin] = abs(fp - fs) / max(abs(fp), 1e-300)
        rel_ana[spin] = max(abs(fp - ana.force_each[spin]),
                            abs(fs - ana.force_each[spin])) \
            / max(abs(ana.force_each[spin]), 1e-300)
        mean_th[spin] = th
        mean_ps[spin] = ps
    return ForceReport(f_pm=f_pm, f_so=f_so, analytic_each=ana_each,
                       analytic_total=ana_tot, rel_pm_vs_so=rel_eq,
                       rel_vs_analytic=rel_ana, mean_theta=mean_th,
                       mean_ps=mean_ps)


def spin_hall_run(setup: BentCylinderSetup, k_s: float = 8.0,
                  widths=(0.02, 2.0), dt: float = 8e-4, steps: int = 400,
                  record_every: int = 5):
    """Evolve spin-up and spin-down packets; report the theta deflections.

    The packets propagate exactly on the window's Fourier blocks along s
    with the exact symbol of the s terms (``_window_blocks``), so ``dt``
    only spaces the records, and s is resolved to round-off at the
    default n_s.  theta, sigma_3 and the norm are read from the block
    coefficients, p_s from the symbol of -i d_s on each block and s from
    the line densities.  The measured interval follows the
    ballistic-window rule: recording stops once the packet has traveled
    10 s-widths or its center comes within 5 widths of an s-wall, which
    on a periodic s axis is the seam s = 0 = s_length.
    Returns a dict with both trajectories and the deflection summary
    (mean of <theta> - theta_c over the window per spin).
    """
    h0, hso = _window_blocks(setup)
    split = h0 + hso
    grid = setup.grid()
    s_center = setup.s_length / _S_START_DIVISOR
    theta = grid.mesh()[0]
    ones = np.ones_like(theta)
    obs = {"theta": ("rows", split.rows(theta, theta)),
           "s": ("lines", grid.q2),
           "p_s": ("blocks", split.momenta()),
           "sigma3": ("rows", split.rows(ones, -ones))}
    s_walls = (grid.domain[1][0], grid.domain[1][1])
    sigma_s = widths[1] if not np.isscalar(widths) else float(widths)

    def left_window(snap):
        moved = abs(snap["s"] - s_center) >= 10.0 * sigma_s
        near_wall = (snap["s"] - s_walls[0] < 5.0 * sigma_s
                     or s_walls[1] - snap["s"] < 5.0 * sigma_s)
        return moved or near_wall

    packets = [gaussian_wavepacket(grid, (setup.theta_c, s_center), widths,
                                   k_s, spin, rho=setup.rho)
               for spin in (+1, -1)]
    trajs = evolve(split, packets, dt, steps, observables=obs,
                   record_every=record_every, stop_when=left_window)
    d_up, d_dn = (float(np.mean(t.observables["theta"] - setup.theta_c))
                  for t in trajs)
    return {"setup": setup, "trajectories": {"up": trajs[0], "down": trajs[1]},
            "deflection": {"up": d_up, "down": d_dn},
            "opposite_sign": d_up * d_dn < 0.0,
            "asymmetry": abs(d_up + d_dn) / max(abs(d_up), 1e-300)}
