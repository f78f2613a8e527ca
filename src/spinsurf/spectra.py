"""Eigen-solving, degeneracy clustering, cylinder spectra, and conductance.

Energies are in natural units hbar = m = 1 (so the cylinder transverse
levels with the spin connection are (n^2 +- n)/(2 rho^2), giving the
ladder 0, 1, 3, 6, ... at rho = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigensolverError
from .hamiltonian import (Grid, HermitianOperator, _fourier_blocks,
                          _grid_geometry, _spin_columns, _sweep_order,
                          _transverse_operators)
from .surfaces import make_surface

__all__ = [
    "SpectrumResult",
    "eigensolve",
    "CylinderLevel",
    "cylinder_analytic_spectrum",
    "cylinder_thresholds",
    "degeneracy_clusters",
    "ConductanceCurve",
    "conductance_curve",
    "cylinder_ring_operator",
]

# The lowest-k shift: its first step below the constant-spinor bound,
# relative to max(1, |bound|) (energies are O(1) in hbar = m = 1; each
# rejected shift quadruples the step), and the pivot magnitude, relative
# to ||H||_inf, below which an inertia count is not trusted.
_FIRST_STEP = 1e-2
_TINY_PIVOT = 1e-12

# Largest whole matrix solved densely: the measured crossover.  Lowest 16
# pairs of torus H_eff at one BLAS thread (2-vCPU Xeon VM, OpenBLAS),
# dense eigh against shift-invert: 0.010 s vs 0.015 s at dim 192, 0.021
# vs 0.017 at 256, 0.17 vs 0.034 at 512, 1.3 vs 0.08 at 1024 and 15 vs
# 0.21 at 2048.  Fourier blocks are dense at any size.
_DENSE_CUTOFF = 192

# Fill-reducing column ordering of the package's one sparse LU: minimum
# degree on the pattern of A^T + A suits the structurally symmetric
# stencils (SciPy's default COLAMD gave the default bent window's H_eff
# pattern ~1.7x the fill).
LU_ORDERING = "MMD_AT_PLUS_A"


@dataclass
class SpectrumResult:
    values: np.ndarray
    vectors: Optional[np.ndarray]
    clusters: list                 # [(value, multiplicity), ...]
    residuals: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def eigensolve(op, k: int, which: str = "lowest", target: float = 0.0,
               return_vectors: bool = True, seed: Optional[int] = None
               ) -> SpectrumResult:
    """Hermitian eigensolve with a residual contract.

    Dense ``eigh`` over the operator's Fourier blocks when it splits, or
    over the whole matrix when it is small, else shift-invert Lanczos
    (ARPACK) on a factor of H - sigma I from the package's sparse LU,
    passed as ``OPinv``.  ``which`` is 'lowest' or 'nearest' (the k
    values nearest ``target``); ``k`` must be an int with 1 <= k < dim.

    Blocks: a ``HermitianOperator`` whose grid matches its matrix splits
    into Fourier blocks along a periodic axis when the one-node shift
    along it changes no entry by more than 1e-12 max|H| (the azimuth of
    the torus and the sphere), whatever the block dimension 2 n_other.
    ``eigvalsh`` runs on blocks 0 .. kept - 1 in turn
    (``_FourierBlocks.kept``: n // 2 + 1 when block n - m is the time
    reverse of block m, as for H_eff, and n otherwise), a partner block
    n - m >= kept (``_FourierBlocks.partners``) takes the values of
    block m, the k values are selected from all of them, and ``eigh``
    runs again on each block holding a selected value; a block's vector
    u is the operator's u (x) exp(2 pi i m j / n) / sqrt(n), and a
    partner's u is the time reverse of block m's.  The blocks run in
    order of increasing |m| = min(m, n - m), and once k values are known
    a block and its partner are skipped when a Cholesky factor shows, by
    Sylvester's law of inertia, that B_m has no eigenvalue the k values
    can still reach, with delta the residual contract below: for
    'lowest', when its least diagonal entry exceeds sigma + delta (sigma
    the k-th lowest value so far) and B_m - (sigma + delta) I has a
    factor; for 'nearest', with r the k-th least distance from
    ``target`` so far, when B_m - (target + r + delta) I or
    (target - r - delta) I - B_m has one (each tried only when the
    diagonal allows it).  The values and vectors are those of the sweep
    over blocks 0 .. kept - 1 with the partners merged in block order,
    bit for bit.  An operator whose low levels sit at large |m| (e.g.
    -H_eff) skips nothing and pays a failed Cholesky factor for nearly
    every block.  The blocks are real symmetric when H_0 is real and
    H_{-1} = conj(H_{+1}) (H0 and H_eff along the torus and sphere
    azimuth, the bent window along s): ``block`` then returns float64,
    so ``eigvalsh``, ``cholesky`` and ``eigh`` run LAPACK's real
    routines, the block vectors are real and a partner's are J u
    (J = i sigma_y at each node).  Other blocks are complex.  Any other
    operator with dim <= ``_DENSE_CUTOFF`` (or k >= dim - 1, which ARPACK
    cannot do) is one block.

    Shift-invert, for everything else without a split (walled grids such
    as the plane and walled expression surfaces, operators that vary
    along every periodic axis, bare matrices): for 'nearest' sigma =
    ``target`` with the row-pivoting LU (a target exactly on an
    eigenvalue raises EigensolverError; a target that is not finite
    raises ValueError on every route).  For 'lowest' sigma steps down
    from the least Rayleigh quotient of four real spinors (the two
    constant ones and their |diag H|^(-1/2)-weighted forms) until its
    Hermitian factor counts, by its inertia, no eigenvalue below sigma,
    and ARPACK runs once, on that factor (an ARPACK error there raises
    EigensolverError).  After the solve a second count, between the top
    returned cluster and the value below it, must equal the number of
    returned values below that cluster.  A miss is retried once with 2k
    pairs (keeping the lowest k), then raises EigensolverError; an
    untrustworthy count falls back to the row-pivoting LU just below the
    Gershgorin bound.

    On every route each reported pair satisfies
    ||H v - lambda v|| <= 1e-10 ||H||_inf against the operator's matrix,
    otherwise EigensolverError is raised reporting the achieved residual.

    ``diagnostics`` records ``method`` ('dense-eigh' or
    'shift-invert-lanczos'), ``fourier_axis`` (the grid axis of the
    split, None without one), ``blocks`` (the number of dense blocks,
    1 without a split; None on shift-invert) and ``blocks_solved`` (the
    blocks that ran ``eigvalsh``, 1 without a split, None on
    shift-invert), ``norm_inf``, ``sigma``,
    ``ordering``, ``fill`` (L+U nonzeros of the solve's factor),
    ``opinv_solves`` (of the accepted run and any retry or fallback; a
    rejected shift runs no ARPACK), ``inertia`` (count below sigma),
    ``check_count`` and ``check_expected`` (the post-solve count and the
    value it must equal), ``factorizations``, ``retries``, ``fallback``,
    ``max_residual`` and ``contract``.  The factorization fields are
    None on the dense route, and the three counts are None for 'nearest'
    and after a fallback.
    """
    if which not in ("lowest", "nearest"):
        raise ValueError(f"unknown which={which!r}")
    mat = op.matrix if isinstance(op, HermitianOperator) else op.tocsr()
    dim = mat.shape[0]
    if (not isinstance(k, (int, np.integer)) or isinstance(k, bool)
            or not 1 <= k < dim):
        raise ValueError(f"need an int k with 1 <= k < dimension, "
                         f"got k={k!r}, dim={dim}")
    if which == "nearest" and not np.isfinite(target):
        raise ValueError(f"need a finite target for which='nearest', "
                         f"got target={target!r}")
    norm = _scale(mat)
    contract = 1e-10 * max(norm, 1e-300)

    split = (_fourier_blocks(op)
             if isinstance(op, HermitianOperator) else None)
    if split is not None or dim <= _DENSE_CUTOFF or k >= dim - 1:
        vals, vecs, solved = _dense(mat, split, k, which, target, contract)
        diagnostics = {
            "method": "dense-eigh",
            "fourier_axis": None if split is None else split.axis,
            "blocks": 1 if split is None else split.n,
            "blocks_solved": solved, **dict.fromkeys((
                "sigma", "ordering", "fill", "opinv_solves", "inertia",
                "check_count", "check_expected", "factorizations", "retries",
                "fallback"))}
    else:
        vals, vecs, diagnostics = _shift_invert(mat, k, which, target, norm,
                                                seed)
        diagnostics.update(fourier_axis=None, blocks=None,
                           blocks_solved=None)

    residuals = (np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
                 / np.linalg.norm(vecs, axis=0))
    if np.any(residuals > contract):
        raise EigensolverError(
            f"residual contract violated: max residual "
            f"{residuals.max():.3e} > 1e-10 * ||H|| = {contract:.3e}")

    diagnostics.update(norm_inf=norm, contract=contract,
                       max_residual=float(residuals.max(initial=0.0)))
    clusters = degeneracy_clusters(vals)
    return SpectrumResult(
        values=vals, vectors=vecs if return_vectors else None,
        clusters=clusters, residuals=residuals, diagnostics=diagnostics)


def _dense(mat, split, k, which, target, margin):
    """Lowest / nearest k pairs by dense eigh over the operator's blocks.

    The Fourier blocks of ``split``, or the whole matrix as one block.
    The blocks 0 .. kept - 1 that may hold a selected value run
    ``eigvalsh`` (``_swept_blocks``), each formed when it is reached so
    one is alive at a time, and the partner of block m, when it is
    another block, takes the values of block m and the ``time_reverse``
    of its vectors.  Also returns the number of blocks that ran
    ``eigvalsh``.
    """
    if split is None:       # one block
        count, partners, block, lift = (1, np.zeros(1, int),
                                        lambda m: mat.toarray(),
                                        lambda u, m: u)
    else:
        count, partners, block, lift = (split.n, split.partners(),
                                        split.block, split.lift)
    found = _swept_blocks(block, count, partners, k, margin,
                           None if which == "lowest" else target)
    solved = len(found)
    found.update({partners[m]: found[m] for m in list(found)})
    ran = np.array(sorted(found))
    values = np.concatenate([found[m] for m in ran])
    size = len(values) // len(ran)
    key = values if which == "lowest" else np.abs(values - target)
    sel = np.argsort(key, kind="stable")[:k]
    picks = {ran[i]: sel[sel // size == i] % size      # in block order
             for i in np.unique(sel // size)}
    kept = len(partners)
    # the block whose eigh serves block m: m itself, or its pair's
    source = {m: m for m in range(kept)} | dict(zip(partners, range(kept)))
    vals, vecs = {}, {}
    for s in {source[m] for m in picks}:    # one eigh per pair of blocks
        w, u = np.linalg.eigh(block(s))
        for m in (m for m in picks if source[m] == s):
            vals[m], v = w[picks[m]], u[:, picks[m]]
            vecs[m] = lift(v if m == s else split.time_reverse(v.T).T, m)
    vals = np.concatenate([vals[m] for m in picks])
    order = np.argsort(vals, kind="stable")
    return (vals[order], np.hstack([vecs[m] for m in picks])[:, order],
            solved)


def _swept_blocks(block, count, partners, k, margin, target=None):
    """{m: eigvalsh(B_m)} over the blocks m < kept that may hold one of
    the k lowest values, or of the k nearest ``target`` when it is given,
    counting the values of block m twice when its partner is another
    block.

    Blocks run in order of increasing |m| = min(m, n - m), the magnitude
    of the block's FFT frequency.  Once k values are known, r is the k-th
    least key so far (the value, or its distance from ``target``), and a
    block (with its partner) is skipped when Cholesky factors show, by
    Sylvester's law of inertia, that it has no eigenvalue in the window
    the k values can still reach: below r + margin, or within r + margin
    of ``target``.  A block has none below a shift when B_m - shift I has
    a Cholesky factor, and none above one when shift I - B_m has; each is
    tried only when the block's diagonal (a cheap necessary condition)
    allows it.  The margin lies far above the backward error of Cholesky
    and ``eigvalsh``, so a skipped block holds no value the full sweep
    would select.
    """
    found, least = {}, np.empty(0)
    for m in _sweep_order(count, len(partners)):
        b = block(m)
        if len(least) == k:
            reach = least[-1] + margin
            if target is None:
                skip = _inertia_clear(b, reach, +1.0)
            else:
                skip = (_inertia_clear(b, target + reach, +1.0)
                        or _inertia_clear(b, target - reach, -1.0))
            if skip:
                continue
        found[m] = np.linalg.eigvalsh(b)
        values = np.tile(found[m], 2 if partners[m] != m else 1)
        key = values if target is None else np.abs(values - target)
        least = np.sort(np.concatenate((least, key)))[:k]
    return found


def _inertia_clear(b, shift, side):
    """Whether block ``b`` has no eigenvalue below ``shift`` (side +1) or
    above it (side -1): side (B - shift I) has a Cholesky factor, tried
    only when its least diagonal entry is positive."""
    if (side * (np.diagonal(b).real - shift)).min() <= 0.0:
        return False
    shifted = b - shift * np.eye(len(b))
    try:
        np.linalg.cholesky(shifted if side > 0 else -shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _shift_invert(mat, k, which, target, norm, seed):
    """Lowest / nearest k pairs by ARPACK on the factored H - sigma I."""
    dim = mat.shape[0]
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    if np.iscomplexobj(mat):
        v0 = v0 + 1j * rng.standard_normal(dim)
    if which == "lowest":
        return _lowest(mat, k, norm, v0)
    return _pivoting(mat, k, float(target), v0)


def _pivoting(mat, k, sigma, v0, factorizations=0, solves=0, retries=0,
              fallback=False):
    """ARPACK on the row-pivoting LU of H - sigma I (no inertia count).

    A lowest-k solve that falls back passes the work it already did.
    """
    try:
        lu = _factor_shifted(mat, -sigma)
    except RuntimeError as exc:
        raise EigensolverError(
            f"H - sigma I is singular at sigma = {sigma!r}: the shift sits "
            f"on an eigenvalue; move the target off it") from exc
    vals, vecs, n = _arpack(mat, k, sigma, lu, v0)
    return vals, vecs, {
        "method": "shift-invert-lanczos", "sigma": sigma,
        "ordering": LU_ORDERING, "fill": _fill(lu),
        "opinv_solves": solves + n, "inertia": None, "check_count": None,
        "check_expected": None, "factorizations": factorizations + 1,
        "retries": retries, "fallback": fallback}


def _lowest(mat, k, norm, v0):
    """Lowest k pairs with an inertia-guarded shift (see ``eigensolve``).

    Each trial sigma gets one Hermitian factor, counted by its inertia
    before anything solves on it; a rejected factor is freed before the
    next is made, so one factor is alive at a time, and ARPACK runs once,
    on the factor of the first sigma that counts 0.  Its pivots are read
    first, so SuperLU keeps CSC copies of L and U through the solve.  The
    2k retry refactors at the accepted sigma (same matrix, same fill).
    """
    floor = _lower_bound(mat) - 0.01 * max(1.0, norm)
    tiny = _TINY_PIVOT * max(norm, 1e-300)
    factorizations = retries = 0

    upper = _constant_spinor_bound(mat)
    step = _FIRST_STEP * max(1.0, abs(upper))
    while True:
        sigma = max(upper - step, floor)
        lu, inertia = _counted_factor(mat, sigma, tiny)
        factorizations += 1
        if inertia == 0:
            break
        del lu
        if inertia is None or sigma == floor:
            return _pivoting(mat, k, floor, v0, factorizations,
                             fallback=True)
        step *= 4.0
    fill = _fill(lu)
    vals, vecs, solves = _arpack(mat, k, sigma, lu, v0)
    del lu

    while True:
        vals, vecs = vals[:k], vecs[:, :k]
        expected, check_shift = _check_point(vals, sigma)
        count = _counted_factor(mat, check_shift, tiny)[1]
        factorizations += 1
        if count is None:
            return _pivoting(mat, k, floor, v0, factorizations, solves,
                             retries, fallback=True)
        if count == expected:
            break
        if retries:
            raise EigensolverError(
                f"lowest {k} pairs incomplete after a retry with {k_solve}: "
                f"{count} eigenvalues lie below {check_shift!r}, the solve "
                f"returned {expected}")
        retries += 1
        k_solve = min(2 * k, mat.shape[0] - 2)
        vals, vecs, n = _arpack(
            mat, k_solve, sigma,
            _factor_shifted(mat, -sigma, hermitian=True), v0)
        factorizations += 1
        solves += n
    return vals, vecs, {
        "method": "shift-invert-lanczos", "sigma": sigma,
        "ordering": LU_ORDERING, "fill": fill, "opinv_solves": solves,
        "inertia": inertia, "check_count": count, "check_expected": expected,
        "factorizations": factorizations, "retries": retries,
        "fallback": False}


def _counted_factor(mat, sigma, tiny):
    """The Hermitian factor of H - sigma I and its count of eigenvalues
    below sigma by inertia: (None, None) on a zero pivot, and a count of
    None when it is unusable."""
    try:
        lu = _factor_shifted(mat, -sigma, hermitian=True)
    except RuntimeError:
        return None, None
    return lu, _inertia(lu, tiny)


def _factor_shifted(mat, shift, hermitian=False):
    """SuperLU factor of ``mat + shift * I``, the package's one sparse
    factorization (H - sigma I for shift-invert).  SuperLU raises
    RuntimeError on an exactly singular matrix.

    By default SuperLU pivots by rows.  ``hermitian=True`` is for a
    Hermitian ``mat`` and a real ``shift``: SuperLU then keeps the
    diagonal pivots of the symmetric ordering (``diag_pivot_thresh=0``,
    ``SymmetricMode``), so P A P^T = L U with U = D L^H, and by
    Sylvester's law of inertia ``_inertia`` reads the number of negative
    eigenvalues of A off the signs of diag(U).
    """
    shifted = mat + shift * sp.identity(mat.shape[0], format="csc")
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


def _constant_spinor_bound(mat) -> float:
    """Least Rayleigh quotient of four real spinors.

    An upper bound on the lowest eigenvalue from one product with four
    real columns: the two constant spinors (spin up on even rows, spin
    down on odd rows) and the same two weighted by |diag H|^(-1/2), which
    keeps rows with a large diagonal (the sphere's chart poles) from
    lifting the bound.  A zero diagonal gets the least nonzero one.
    """
    diag = np.abs(mat.diagonal())
    nonzero = diag > 0
    diag[~nonzero] = diag[nonzero].min() if nonzero.any() else 1.0
    spinors = np.hstack((_spin_columns(np.ones(len(diag))),
                         _spin_columns(diag ** -0.5)))
    quotients = (np.einsum("ij,ij->j", spinors, (mat @ spinors).real)
                 / np.einsum("ij,ij->j", spinors, spinors))
    return float(quotients.min())


def _check_point(vals, sigma):
    """Values below the top cluster of sorted ``vals``, and a shift
    between that cluster and the value below it (or sigma)."""
    below = len(vals) - degeneracy_clusters(vals)[-1][1]
    lower = vals[below - 1] if below else sigma
    return below, 0.5 * (lower + vals[below])


def _arpack(mat, k, sigma, lu, v0):
    """The k pairs nearest sigma, sorted, and the solves they took."""
    solves = 0

    def opinv(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    dtype = np.result_type(mat.dtype, np.float64)
    try:
        vals, vecs = spla.eigsh(
            mat, k=k, sigma=sigma, which="LM", v0=v0,
            OPinv=spla.LinearOperator(mat.shape, matvec=opinv, dtype=dtype))
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(
            f"ARPACK did not converge: {len(exc.eigenvalues)} of {k} "
            f"pairs found") from exc
    except spla.ArpackError as exc:
        raise EigensolverError(f"ARPACK failed: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order], solves


def _fill(lu) -> int:
    return int(lu.L.nnz + lu.U.nnz)


def _scale(mat) -> float:
    return float(abs(mat).sum(axis=1).max()) if mat.nnz else 0.0


def _lower_bound(mat) -> float:
    # Gershgorin lower bound
    d = mat.diagonal().real
    offsum = np.asarray(abs(mat).sum(axis=1)).ravel() - np.abs(mat.diagonal())
    return float((d - offsum).min())


def degeneracy_clusters(values, tol: Optional[float] = None):
    """Greedy gap clustering of sorted values -> [(mean, multiplicity)].

    Default tolerance is 1e-8 * (max - min) of the window.
    """
    vals = np.sort(np.asarray(values, dtype=float))
    if len(vals) == 0:
        return []
    if tol is None:
        tol = 1e-8 * max(vals[-1] - vals[0], 1e-300)
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol:
            chunk = vals[start:i]
            clusters.append((float(chunk.mean()), len(chunk)))
            start = i
    return clusters


# ----------------------------------------------------------------------
# Analytic cylinder spectra
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderLevel:
    n: int
    sign: int          # +1 / -1 spin branch
    energy: float
    j: Optional[float]  # total angular momentum label n + sign/2 (with SOI)

    @property
    def label(self) -> str:
        s = "+" if self.sign > 0 else "-"
        if self.j is None:
            return f"|{self.n},{s}>"
        return f"|j={self.j:+g},{s}>"


def cylinder_analytic_spectrum(rho: float, n_max: int,
                               with_connection: bool = True):
    """Transverse levels of the straight cylinder, labeled.

    With the spin connection the levels are (n^2 + sign*n)/(2 rho^2) with
    total-angular-momentum label j = n + sign/2; without it they are
    n^2/(2 rho^2), doubly spin degenerate.  Sorted by energy.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    levels = []
    for n in range(-n_max, n_max + 1):
        for sign in (+1, -1):
            if with_connection:
                e = (n * n + sign * n) / (2.0 * rho * rho)
                levels.append(CylinderLevel(n=n, sign=sign, energy=e,
                                            j=n + 0.5 * sign))
            else:
                e = n * n / (2.0 * rho * rho)
                levels.append(CylinderLevel(n=n, sign=sign, energy=e, j=None))
    levels.sort(key=lambda L: (L.energy, L.n, -L.sign))
    return levels


def cylinder_thresholds(rho: float, e_max: float,
                        with_connection: bool = True) -> np.ndarray:
    """Every transverse-mode threshold <= e_max (one entry per mode)."""
    n_max = int(math.ceil(rho * math.sqrt(2.0 * e_max) + 2))
    levels = cylinder_analytic_spectrum(rho, n_max, with_connection)
    th = np.array([L.energy for L in levels])
    return np.sort(th[th <= e_max + 1e-12])


# ----------------------------------------------------------------------
# Zero-temperature conductance (ideal adiabatic channel counting)
# ----------------------------------------------------------------------

@dataclass
class ConductanceCurve:
    energies: np.ndarray
    channels: np.ndarray        # N(E), right-continuous step counts
    g_over_e2h: np.ndarray      # = channels * 1 (units e^2/h)
    variant: str                # 'with-connection' | 'without-connection'
    thresholds: np.ndarray


def conductance_curve(rho: float, energies, with_connection: bool = True
                      ) -> ConductanceCurve:
    """Channel-count conductance G(E) = N(E) e^2/h on an energy grid.

    Each transverse mode of the analytic cylinder spectrum with threshold
    below (or at) E contributes one unit.
    """
    e_grid = np.asarray(energies, dtype=float)
    if np.any(np.diff(e_grid) < 0) or np.any(e_grid < 0):
        raise ValueError("energy grid must be ascending and nonnegative")
    th = cylinder_thresholds(rho, float(e_grid.max()), with_connection)
    # right-continuous: count thresholds <= E (+ tiny slack for fp ties)
    counts = np.searchsorted(th, e_grid + 1e-12, side="right")
    return ConductanceCurve(
        energies=e_grid, channels=counts,
        g_over_e2h=counts.astype(float),
        variant="with-connection" if with_connection else "without-connection",
        thresholds=th)


# ----------------------------------------------------------------------
# 1D transverse ring operator (the p_z = 0 fiber of the cylinder)
# ----------------------------------------------------------------------

def cylinder_ring_operator(rho: float, n: int, with_connection: bool = True
                           ) -> HermitianOperator:
    """H_eff of the straight cylinder restricted to the p_z = 0 fiber: a
    real dim = 2n operator on the periodic theta ring, the k_z = 0 block
    of the cylinder's split along z on an n x 8 doubly periodic grid: the
    theta terms of H0 + Hso (H0 alone without the connection) on one line
    (``hamiltonian._transverse_operators``), as w = K = 0 there.  Its grid
    is that line (n x 1), along which it splits into n Fourier blocks of
    2 x 2.  Raises GridError (a ValueError) for n < 8."""
    patch = make_surface("cylinder", rho=rho)
    grid = Grid.for_patch(patch, n, 8, bc=("periodic", "periodic"))
    h0, hso = _transverse_operators(grid, _grid_geometry(patch, grid), 1)
    op = h0 + hso if with_connection else h0
    # exactly real: w = 0 and X^theta = -sigma_2/(2 rho^2) on the cylinder
    return replace(op, matrix=op.matrix.real)
