import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import spinsurf.hamiltonian as hamiltonian
import spinsurf.spectra as spectra
from spinsurf.dynamics import (BentCylinderSetup, _spin_diagonal,
                               bent_cylinder_operators)
from spinsurf.errors import EigensolverError
from spinsurf.hamiltonian import (Grid, HermitianOperator, _fourier_blocks,
                                  assemble_H0, assemble_Heff)
from spinsurf.spectra import (_factor_shifted, _inertia, conductance_curve,
                              cylinder_analytic_spectrum,
                              cylinder_ring_operator, cylinder_thresholds,
                              degeneracy_clusters, eigensolve)
from spinsurf.surfaces import make_surface


def _op(mat):
    return HermitianOperator(sp.csr_matrix(mat.astype(complex)), None, ("t",))


def _torus_16x32():
    # the bare matrix: no grid, so no Fourier split, and the shift-invert
    # tests below keep the sparse route
    p = make_surface("torus", rho=1.0, R=3.0)
    return assemble_Heff(p, Grid.for_patch(p, 16, 32)).matrix


def test_eigensolve_two_by_two():
    res = eigensolve(_op(np.diag([0.0, 1.0])), k=1, which="lowest")
    assert res.values[0] == pytest.approx(0.0, abs=1e-14)
    res = eigensolve(_op(np.diag([0.0, 1.0])), k=1, which="nearest",
                     target=0.9)
    assert res.values[0] == pytest.approx(1.0, abs=1e-14)


def test_eigensolve_residual_contract():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    m = m + m.conj().T
    res = eigensolve(_op(m), k=5)
    norm = np.abs(m).sum(axis=1).max()
    assert np.all(res.residuals <= 1e-10 * norm)


def test_eigensolve_iterative_repeatable():
    # above the dense cutoff: shift-invert Lanczos, two random starts
    p = make_surface("torus", rho=1.0, R=3.0)
    g = Grid.for_patch(p, 48, 48)
    H = assemble_Heff(p, g).matrix
    assert H.shape[0] > 4096
    r1 = eigensolve(H, k=6, seed=1, return_vectors=False)
    r2 = eigensolve(H, k=6, seed=99, return_vectors=False)
    assert np.abs(r1.values - r2.values).max() < 1e-9
    assert r1.diagnostics["method"] == "shift-invert-lanczos"


def test_shift_invert_matches_dense_below_old_cutoff():
    # dim 1024: above the dense cutoff, far below the former 4096
    H = _torus_16x32()
    assert spectra._DENSE_CUTOFF < H.shape[0] < 4096
    res = eigensolve(H, k=16, seed=3, return_vectors=False)
    assert res.diagnostics["method"] == "shift-invert-lanczos"
    ref = np.linalg.eigvalsh(H.toarray())[:16]
    assert np.abs(res.values - ref).max() < 1e-10
    assert ([m for _, m in res.clusters]
            == [m for _, m in degeneracy_clusters(ref)])


def test_eigensolve_diagnostics():
    # the ring's bare matrix: no grid, so shift-invert, and below the
    # dense cutoff one dense block
    mat = cylinder_ring_operator(1.0, 256).matrix
    res = eigensolve(mat, k=8, seed=0)
    d = res.diagnostics
    assert d["method"] == "shift-invert-lanczos"
    assert d["ordering"] == "MMD_AT_PLUS_A"
    assert d["sigma"] < res.values.min()
    assert d["fill"] >= mat.nnz
    assert d["opinv_solves"] > 0
    norm = abs(mat).sum(axis=1).max()
    assert d["contract"] == pytest.approx(1e-10 * norm, rel=1e-12)
    assert d["max_residual"] == res.residuals.max() <= d["contract"]
    assert d["inertia"] == 0 and d["fallback"] is False
    assert d["check_count"] == d["check_expected"] == 8 - res.clusters[-1][1]
    assert d["factorizations"] >= 2 and d["retries"] == 0

    dense = eigensolve(cylinder_ring_operator(1.0, 16).matrix,
                       k=4).diagnostics
    assert dense["method"] == "dense-eigh"
    assert dense["blocks"] == dense["blocks_solved"] == 1
    assert dense["sigma"] is dense["fill"] is dense["opinv_solves"] is None
    assert all(dense[key] is None for key in (
        "inertia", "check_count", "check_expected", "factorizations",
        "retries", "fallback"))
    assert dense["max_residual"] <= dense["contract"]


def test_inertia_counts_match_eigvalsh():
    # Sylvester counts of the Hermitian factor, below and inside the
    # spectrum, against dense eigvalsh on a dim-1024 operator
    mat = _torus_16x32()
    ref = np.linalg.eigvalsh(mat.toarray())
    shifts = [ref[0] - 1.0, ref[0] - 1e-3]
    for i in (2, 16, 100, 512, 1000):   # between Kramers pairs
        assert ref[i] - ref[i - 1] > 1e-6
        shifts.append(0.5 * (ref[i - 1] + ref[i]))
    tiny = spectra._TINY_PIVOT * spectra._scale(mat)
    for shift in shifts:
        lu = _factor_shifted(mat, -shift, hermitian=True)
        assert _inertia(lu, tiny) == np.searchsorted(ref, shift)


def test_sphere_lowest_24_keep_the_fourfold_level():
    # the Gershgorin shift (-3580 here) returned 3 x 6.11527 + 3 x 6.11856
    p = make_surface("sphere", r=1.0)
    H = assemble_H0(p, Grid.for_patch(p, 64, 128)).matrix
    res = eigensolve(H, k=24, seed=0, return_vectors=False)
    (e4, m4), (e2, m2) = res.clusters[-2:]
    assert (m4, m2) == (4, 2)
    assert e4 == pytest.approx(6.11527, abs=1e-5)
    assert e2 == pytest.approx(6.11856, abs=1e-5)
    d = res.diagnostics
    assert d["check_count"] == d["check_expected"] == 22
    assert d["fallback"] is False


def _block_cases():
    """(operator, its Fourier axis) on the block route: the torus and the
    sphere split along the azimuth, and the sheared plane, shift-invariant
    along both axes, along q1 (the first of two equal axes)."""
    torus = make_surface("torus", rho=1.0, R=3.0)
    sphere = make_surface("sphere", r=1.0)
    plane = make_surface("generic", x="q1 + 0.3*q2", y="q2", z="0",
                         domain=((0.0, 1.0), (0.0, 1.0)),
                         periodic=(True, True))
    return {"torus 16x32": (torus, 16, 32, 1),
            "sphere 16x32": (sphere, 16, 32, 1),
            "sphere 32x64": (sphere, 32, 64, 1),
            "sheared plane 16x16": (plane, 16, 16, 0)}


def _whole_clusters(ref, target, at_least):
    """The least k >= at_least whose k values nearest target end at a
    gap, so that no level is cut."""
    gaps = np.sort(np.abs(ref - target))
    return next(k for k in range(at_least, len(ref))
                if gaps[k] - gaps[k - 1] > 1e-6)


@pytest.mark.parametrize("case", ["torus 16x32", "sphere 16x32",
                                  "sphere 32x64", "sheared plane 16x16"])
def test_fourier_blocks_match_the_full_matrix(case):
    patch, n1, n2, axis = _block_cases()[case]
    H = assemble_Heff(patch, Grid.for_patch(patch, n1, n2))
    if H.dim <= 2048:
        ref = np.linalg.eigvalsh(H.matrix.toarray())
    else:
        # dense eigvalsh takes ~30 s at dim 4096 on one core; the lowest
        # 48 from the inertia-checked shift-invert route of the bare
        # matrix stand in for it
        ref = eigensolve(H.matrix, k=48, seed=0,
                         return_vectors=False).values
    norm = spectra._scale(H.matrix)
    target = ref[20] + 0.3 * (ref[24] - ref[20])
    k_near = _whole_clusters(ref[:40], target, 6)
    k_low = _whole_clusters(ref[:40], ref[0], 16)
    nearest = np.sort(ref[np.argsort(np.abs(ref - target))[:k_near]])
    for which, k, expected in (("lowest", k_low, ref[:k_low]),
                               ("nearest", k_near, nearest)):
        res = eigensolve(H, k=k, which=which, target=target)
        assert np.abs(res.values - expected).max() < 1e-10
        V = res.vectors
        assert np.abs(V.conj().T @ V - np.eye(k)).max() < 1e-10
        resid = np.linalg.norm(H.matrix @ V - V * res.values, axis=0)
        assert resid.max() <= 1e-10 * norm
        assert all(m % 2 == 0 for _, m in res.clusters)    # Kramers
        d = res.diagnostics
        assert d["method"] == "dense-eigh"
        assert d["fourier_axis"] == axis
        assert d["blocks"] == (n1, n2)[axis]
        # Kramers: blocks 0 .. n // 2 at most, and the inertia tests skip
        # some of them for either which
        assert 1 <= d["blocks_solved"] < d["blocks"] // 2 + 1
        assert all(d[key] is None for key in (
            "sigma", "ordering", "fill", "opinv_solves", "inertia",
            "check_count", "check_expected", "factorizations", "retries",
            "fallback"))
        assert d["max_residual"] <= d["contract"]


def _full_sweep(split, k, target=None):
    """The lowest k pairs, or the k nearest ``target``, from ``eigvalsh``
    on every block in index order, a partner block n - m >= kept taking
    the values of block m and the time reverse of its vectors: the oracle
    for the block route, which skips blocks."""
    source = [m if m < split.kept else split.n - m for m in range(split.n)]
    values = np.concatenate([np.linalg.eigvalsh(split.block(source[m]))
                             for m in range(split.n)])
    size = len(values) // split.n
    key = values if target is None else np.abs(values - target)
    sel = np.argsort(key, kind="stable")[:k]
    vals, vecs = [], []
    for m in np.unique(sel // size):
        w, u = np.linalg.eigh(split.block(source[m]))
        pick = sel[sel // size == m] % size
        vals.append(w[pick])
        u = u[:, pick]
        if source[m] != m:
            u = split.time_reverse(u.T).T
        vecs.append(split.lift(u, m))
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")
    return vals[order], np.hstack(vecs)[:, order]


def _skip_case(case):
    torus = make_surface("torus", rho=1.0, R=3.0)
    sphere = make_surface("sphere", r=1.0)
    patch, n1, n2, k, assemble = {
        "torus 32x32": (torus, 32, 32, 16, assemble_Heff),
        "torus 64x64": (torus, 64, 64, 16, assemble_Heff),
        "sphere H0 64x128": (sphere, 64, 128, 24, assemble_H0),
        "sphere H_eff 48x96": (sphere, 48, 96, 40, assemble_Heff),
        "torus R=2 48x64": (make_surface("torus", rho=1.0, R=2.0), 48, 64,
                            64, assemble_Heff),
        "-H_eff torus 32x32": (torus, 32, 32, 16, assemble_Heff),
        "torus 16x16 k=40": (torus, 16, 16, 40, assemble_Heff),
        "H_eff + sigma_3 torus 32x32": (torus, 32, 32, 16, assemble_Heff),
        "-H_eff - sigma_3 torus 32x32": (torus, 32, 32, 16, assemble_Heff),
    }[case]
    H = assemble(patch, Grid.for_patch(patch, n1, n2))
    if "sigma_3" in case:       # a Zeeman term breaks time reversal
        ones = np.ones((n1, n2))
        H = H + _spin_diagonal(H.grid, "sigma3", 0.05 * ones, -0.05 * ones)
    if case.startswith("-"):
        H = HermitianOperator(-H.matrix, H.grid, H.terms)
    return H, k


@pytest.mark.parametrize("case", ["torus 32x32", "torus 64x64",
                                  "sphere H0 64x128", "sphere H_eff 48x96",
                                  "torus R=2 48x64", "-H_eff torus 32x32",
                                  "torus 16x16 k=40",
                                  "H_eff + sigma_3 torus 32x32",
                                  "-H_eff - sigma_3 torus 32x32"])
def test_skipped_blocks_keep_the_full_sweep_bitwise(case):
    # blocks run in order of |m| and are skipped by an inertia test; the
    # result must be the full sweep's, bit for bit, and its values those
    # of eigvalsh on every block to round-off
    H, k = _skip_case(case)
    split = _fourier_blocks(H)
    assert split.kramers == ("sigma_3" not in case)
    assert split.kept == (split.n if "sigma_3" in case else split.n // 2 + 1)
    res = eigensolve(H, k=k)
    vals, vecs = _full_sweep(split, k)
    assert res.values.tobytes() == vals.tobytes()
    assert res.vectors.tobytes() == vecs.tobytes()
    every = np.sort(np.concatenate([np.linalg.eigvalsh(split.block(m))
                                    for m in range(split.n)]))[:k]
    d = res.diagnostics
    assert np.abs(res.values - every).max() <= 1e-12 * d["norm_inf"]

    solved = spectra._swept_blocks(split.block, split.n, split.partners(),
                                   k, d["contract"])
    assert d["blocks"] == split.n and d["blocks_solved"] == len(solved)
    if case.startswith("-"):
        assert len(solved) == split.kept    # nothing can be skipped
    else:
        assert len(solved) < split.kept
    if case == "torus 16x16 k=40":
        assert k > split.lines.shape[1]     # k exceeds one block
    for m in range(split.n):
        if m not in solved and (m < split.kept or split.n - m not in solved):
            assert np.linalg.eigvalsh(split.block(m)).min() > res.values[-1]


@pytest.mark.parametrize("case,target", [
    ("torus 32x32", 2.0), ("torus 32x32", 0.75),
    ("H_eff + sigma_3 torus 32x32", 2.0), ("-H_eff torus 32x32", -2.0)])
def test_nearest_skips_blocks_and_keeps_the_full_sweep_bitwise(
        case, target, monkeypatch):
    # 'nearest' skips a block whose inertia shows no eigenvalue within the
    # k-th least distance so far (plus the contract) of the target; the
    # result must be the full sweep's, bit for bit
    H, k = _skip_case(case)
    split = _fourier_blocks(H)
    vals, vecs = _full_sweep(split, k, target)
    ran = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        ran.append(1)
        return eigvalsh(a)

    monkeypatch.setattr(spectra.np.linalg, "eigvalsh", counting)
    res = eigensolve(H, k=k, which="nearest", target=target)
    assert res.values.tobytes() == vals.tobytes()
    assert res.vectors.tobytes() == vecs.tobytes()
    d = res.diagnostics
    assert d["blocks_solved"] == len(ran) < split.kept
    monkeypatch.undo()
    solved = spectra._swept_blocks(split.block, split.n, split.partners(),
                                   k, d["contract"], target)
    assert len(solved) == len(ran)
    reach = np.abs(res.values - target).max()
    for m in range(split.n):
        if m not in solved and (m < split.kept or split.n - m not in solved):
            assert np.abs(np.linalg.eigvalsh(split.block(m))
                          - target).min() > reach


def test_nearest_on_a_small_torus_solves_few_blocks():
    # nearest 16 to 2.0 on torus H_eff 48^2: 9 of the 25 kept blocks run
    # eigvalsh, and those at large |m|, whose levels all lie above the
    # window, are skipped
    torus = make_surface("torus", rho=1.0, R=3.0)
    H = assemble_Heff(torus, Grid.for_patch(torus, 48, 48))
    d = eigensolve(H, k=16, which="nearest", target=2.0,
                   return_vectors=False).diagnostics
    assert d["blocks"] == 48 and d["blocks_solved"] == 9


def _plus_sigma_y(H, strength):
    """H + strength sigma_y at every node: an imaginary on-site term that
    breaks time reversal."""
    sigma_y = strength * np.array([[0.0, -1j], [1j, 0.0]])
    return H + HermitianOperator(sp.kron(sp.eye(H.dim // 2), sigma_y,
                                         format="csr"), H.grid, ("sigma_y",))


def _dtype_cases():
    """name -> (operator, real_blocks, kramers) for the block dtypes."""
    torus = make_surface("torus", rho=1.0, R=3.0)
    sphere = make_surface("sphere", r=1.0)
    plane, n1, n2, _ = _block_cases()["sheared plane 16x16"]
    heff = assemble_Heff(torus, Grid.for_patch(torus, 32, 32))
    cases = {
        "torus H_eff 32x32": (heff, True, True),
        "sphere H_eff 16x32": (
            assemble_Heff(sphere, Grid.for_patch(sphere, 16, 32)), True,
            True),
        "torus H_eff + sigma_y 32x32": (_plus_sigma_y(heff, 0.05), False,
                                        False),
        # the g^{12} cross term makes H_{+1} antisymmetric: time reversal
        # pairs the blocks, and they are complex
        "sheared plane 16x16": (
            assemble_Heff(plane, Grid.for_patch(plane, n1, n2)), False,
            True)}
    for theta_c in (0.0, math.pi):
        H0, Hso, _, _ = bent_cylinder_operators(BentCylinderSetup(
            theta_c=theta_c, n_theta=16, n_s=32, s_length=10.0))
        cases[f"bent window theta_c={theta_c:.4g}"] = (H0 + Hso, True, True)
    return cases


def test_blocks_are_real_when_the_split_axis_reflects_conjugation():
    # block(m) is sum_d e^{i phi d} H_d, phi = 2 pi m / n, with the
    # couplings H_d of line 0 to lines d = -1, 0, 1 read from the CSR; it
    # is float64 when H_0 is real and H_{-1} = conj(H_{+1})
    for name, (op, real, kramers) in _dtype_cases().items():
        split = _fourier_blocks(op)
        assert (split.real_blocks, split.kramers) == (real, kramers), name
        rows = op.matrix[split.lines[0]]
        lower, diag, upper = (rows[:, split.lines[d]].toarray()
                              for d in (-1, 0, 1))
        scale = np.abs(op.matrix.data).max()
        for m in range(split.n):
            block = split.block(m)
            assert block.dtype == (np.float64 if real else np.complex128)
            phase = np.exp(2j * math.pi * m / split.n)
            whole = diag + phase * upper + np.conj(phase) * lower
            assert np.abs(block - whole).max() <= 1e-12 * scale, (name, m)


def test_complex_blocks_match_the_full_matrix():
    # an imaginary on-site sigma_y term: complex blocks, no Kramers pairs
    torus = make_surface("torus", rho=1.0, R=3.0)
    H = _plus_sigma_y(assemble_Heff(torus, Grid.for_patch(torus, 16, 32)),
                      0.05)
    split = _fourier_blocks(H)
    assert not split.real_blocks and not split.kramers
    ref = np.linalg.eigvalsh(H.matrix.toarray())
    target = ref[20] + 0.3 * (ref[24] - ref[20])
    k_near = _whole_clusters(ref[:40], target, 6)
    nearest = np.sort(ref[np.argsort(np.abs(ref - target))[:k_near]])
    for which, k, expected in (("lowest", 16, ref[:16]),
                               ("nearest", k_near, nearest)):
        res = eigensolve(H, k=k, which=which, target=target)
        assert res.vectors.dtype == np.complex128
        assert np.abs(res.values - expected).max() \
            <= 1e-12 * res.diagnostics["norm_inf"]
        assert res.diagnostics["method"] == "dense-eigh"
        # no pairs, but the inertia tests skip blocks for either which
        assert res.diagnostics["blocks_solved"] < split.n


@pytest.mark.parametrize("case", ["torus H_eff 32x32", "sphere H_eff 16x32",
                                  "bent window theta_c=3.142"])
def test_real_blocks_agree_with_the_complex_route(case, monkeypatch):
    H = _dtype_cases()[case][0]
    real = eigensolve(H, k=16)
    monkeypatch.setattr(hamiltonian._FourierBlocks, "real_blocks",
                        property(lambda self: False))
    assert _fourier_blocks(H).block(1).dtype == np.complex128
    cplx = eigensolve(H, k=16)
    assert np.abs(real.values - cplx.values).max() \
        <= 1e-12 * real.diagnostics["norm_inf"]
    assert (real.diagnostics["blocks_solved"]
            == cplx.diagnostics["blocks_solved"])


def test_fourier_block_is_one_matrix_per_m():
    # eigvalsh ranks block(m) for a Python int m, eigh solves and lift
    # lifts it for a numpy int m: both must see the same phase
    torus = make_surface("torus", rho=1.0, R=3.0)
    split = _fourier_blocks(
        assemble_Heff(torus, Grid.for_patch(torus, 96, 96)))
    u = np.eye(split.lines.shape[1])[:, :2]
    for m in range(split.n):
        assert (split.block(m).tobytes()
                == split.block(np.int64(m)).tobytes()), m
        assert (split.lift(u, m).tobytes()
                == split.lift(u, np.int64(m)).tobytes()), m


def test_fourier_block_transform_inverts_lift():
    # to_blocks and from_blocks carry the phase convention of block and
    # lift: a lifted block vector comes back as that one block.  lift
    # forms its phase from (m j) mod n, so the error does not grow with n
    # (worst 5.3e-16 at n = 96, 7.1e-16 at 384)
    torus = make_surface("torus", rho=1.0, R=3.0)
    H0, Hso, _, _ = bent_cylinder_operators(BentCylinderSetup())
    rng = np.random.default_rng(7)
    for op in (assemble_Heff(torus, Grid.for_patch(torus, 96, 96)),
               H0 + Hso):
        split = _fourier_blocks(op)
        b = split.lines.shape[1]
        psi = (rng.standard_normal((op.dim, 3))
               + 1j * rng.standard_normal((op.dim, 3)))
        back = split.from_blocks(split.to_blocks(psi))
        assert np.abs(back - psi).max() <= 1e-14 * np.abs(psi).max()
        u = rng.standard_normal((b, 2)) + 1j * rng.standard_normal((b, 2))
        for m in range(split.n):
            c = split.to_blocks(split.lift(u, m))
            assert c.shape == (split.n, b, 2)
            c[m] -= u
            assert np.abs(c).max() <= 2e-15 * np.abs(u).max(), m


def test_torus_96_lowest_16_solves_few_blocks():
    torus = make_surface("torus", rho=1.0, R=3.0)
    H = assemble_Heff(torus, Grid.for_patch(torus, 96, 96))
    d = eigensolve(H, k=16, return_vectors=False).diagnostics
    assert d["blocks"] == 96 and d["blocks_solved"] <= 8


def test_kramers_pairs_halve_the_blocks_where_nothing_skips(monkeypatch):
    # on -H_eff the low levels sit at large |m|: no block is skipped, and
    # block n - m takes the values of block m, so 17 of the 32 blocks run
    # eigvalsh
    H, k = _skip_case("-H_eff torus 32x32")
    ran = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        ran.append(1)
        return eigvalsh(a)

    monkeypatch.setattr(spectra.np.linalg, "eigvalsh", counting)
    d = eigensolve(H, k=k, return_vectors=False).diagnostics
    assert d["blocks"] == 32
    assert d["blocks_solved"] == len(ran) == 17


def _sparse_case(case):
    torus = make_surface("torus", rho=1.0, R=3.0)
    grid = Grid.for_patch(torus, 16, 32)
    H = assemble_Heff(torus, grid)
    if case == "grid off the matrix":
        return HermitianOperator(H.matrix, Grid.for_patch(torus, 16, 16),
                                 H.terms)
    # a potential that depends on the azimuth q2 breaks the shift
    ramp = np.repeat(0.1 * np.cos(grid.mesh()[1]).ravel(), 2)
    return H + HermitianOperator(sp.diags(ramp.astype(complex),
                                          format="csr"), grid, ("ramp",))


@pytest.mark.parametrize("case", ["q2-dependent potential",
                                  "grid off the matrix"])
def test_operators_without_a_split_keep_the_sparse_route(case):
    H = _sparse_case(case)
    res = eigensolve(H, k=8, seed=3, return_vectors=False)
    d = res.diagnostics
    assert d["method"] == "shift-invert-lanczos"
    assert d["fourier_axis"] is None and d["blocks"] is None
    assert d["blocks_solved"] is None
    assert d["inertia"] == 0 and d["fallback"] is False


def test_blocks_above_the_dense_cutoff_are_solved_densely():
    # torus 100 x 16: blocks of 2 n1 = 200 rows along the azimuth, above
    # the whole-matrix cutoff that once also capped the blocks; the bare
    # matrix's shift-invert solve is the oracle
    torus = make_surface("torus", rho=1.0, R=3.0)
    H = assemble_Heff(torus, Grid.for_patch(torus, 100, 16))
    assert 2 * H.grid.n1 > spectra._DENSE_CUTOFF
    res = eigensolve(H, k=8, seed=3, return_vectors=False)
    d = res.diagnostics
    assert d["method"] == "dense-eigh"
    assert d["fourier_axis"] == 1 and d["blocks"] == 16
    ref = eigensolve(H.matrix, k=8, seed=3, return_vectors=False)
    assert ref.diagnostics["method"] == "shift-invert-lanczos"
    assert np.abs(res.values - ref.values).max() <= d["contract"]


def _record_factors(monkeypatch):
    """Every factor ``_factor_shifted`` returns, and the factors that
    ``_arpack`` and ``_inertia`` were given, in call order."""
    factors, solved, counted = [], [], []
    factor, arpack, inertia = (spectra._factor_shifted, spectra._arpack,
                               spectra._inertia)

    def recording_factor(*args, **kwargs):
        factors.append(factor(*args, **kwargs))
        return factors[-1]

    def recording_arpack(mat, k, sigma, lu, v0):
        solved.append(lu)
        return arpack(mat, k, sigma, lu, v0)

    def recording_inertia(lu, tiny):
        counted.append(lu)
        return inertia(lu, tiny)

    monkeypatch.setattr(spectra, "_factor_shifted", recording_factor)
    monkeypatch.setattr(spectra, "_arpack", recording_arpack)
    monkeypatch.setattr(spectra, "_inertia", recording_inertia)
    return factors, solved, counted


def _same(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def test_lowest_solves_on_the_factor_it_counts(monkeypatch):
    # one factor at the accepted shift serves ARPACK and the inertia
    # count; one more counts at the post-solve check point
    factors, solved, counted = _record_factors(monkeypatch)
    H = _torus_16x32()
    res = eigensolve(H, k=16, seed=3, return_vectors=False)
    d = res.diagnostics
    assert len(factors) == d["factorizations"] == 2
    assert _same(solved, factors[:1]) and _same(counted, factors)
    assert d["inertia"] == 0 and d["retries"] == 0
    ref = np.linalg.eigvalsh(H.toarray())[:16]
    assert np.abs(res.values - ref).max() < 1e-10


def _bound_above_lowest(monkeypatch, H):
    """A first shift 1.0 above the lowest eigenvalue: it is rejected."""
    ref = np.linalg.eigvalsh(H.toarray())
    monkeypatch.setattr(spectra, "_constant_spinor_bound",
                        lambda mat: float(ref[0]) + 1.0)
    return ref


def test_rejected_shifts_step_down_to_count_zero(monkeypatch):
    H = _torus_16x32()
    ref = _bound_above_lowest(monkeypatch, H)
    factors, solved, counted = _record_factors(monkeypatch)
    res = eigensolve(H, k=16, seed=3, return_vectors=False)
    d = res.diagnostics
    assert d["inertia"] == 0 and d["fallback"] is False
    assert d["sigma"] < ref[0]
    # each trial shift counts its own factor; ARPACK solves only on the
    # accepted one, the last before the post-solve count's
    assert len(factors) == d["factorizations"] > 2
    assert _same(solved, factors[-2:-1]) and _same(counted, factors)
    assert np.abs(res.values - ref[:16]).max() < 1e-10


def test_arpack_runs_only_at_the_accepted_shift(monkeypatch):
    # rejected shifts are counted, not solved on
    H = _torus_16x32()
    ref = _bound_above_lowest(monkeypatch, H)
    eigsh = spectra.spla.eigsh
    sigmas = []

    def recording(*args, **kwargs):
        sigmas.append(kwargs["sigma"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectra.spla, "eigsh", recording)
    res = eigensolve(H, k=16, seed=3, return_vectors=False)
    d = res.diagnostics
    assert d["factorizations"] > 2 and sigmas == [d["sigma"]]
    assert d["inertia"] == 0
    assert np.abs(res.values - ref[:16]).max() < 1e-10

    # at a shift that counts 0 the error is the result
    def failing(*args, **kwargs):
        raise spectra.spla.ArpackError(-9999)

    monkeypatch.undo()
    monkeypatch.setattr(spectra.spla, "eigsh", failing)
    with pytest.raises(EigensolverError, match="ARPACK failed"):
        eigensolve(H, k=16, seed=3, return_vectors=False)


def test_walled_plane_runs_arpack_once(monkeypatch):
    # the CLI's default plane has no split: its rejected shifts are
    # counted and never solved on, where each once ran ARPACK (5 runs)
    factors, solved, counted = _record_factors(monkeypatch)
    plane = make_surface("plane")
    H = assemble_Heff(plane, Grid.for_patch(plane, 24, 24))
    d = eigensolve(H, k=16, seed=0, return_vectors=False).diagnostics
    assert d["method"] == "shift-invert-lanczos" and d["retries"] == 0
    assert len(solved) == 1 and d["factorizations"] >= 3
    assert _same(counted, factors)


def test_sphere_lowest_factorization_count():
    # cost guard (the torus count of 2 is pinned above): the sphere's
    # Jacobi-weighted bound lands one step above its lowest pair, where
    # the constant-spinor bound took 7 factorizations
    p = make_surface("sphere", r=1.0)
    res = eigensolve(assemble_H0(p, Grid.for_patch(p, 32, 64)).matrix, k=8,
                     seed=0, return_vectors=False)
    d = res.diagnostics
    assert d["factorizations"] <= 3 and d["fallback"] is False
    assert d["check_count"] == d["check_expected"]


def test_constant_spinor_bound_is_finite_on_a_zero_diagonal():
    mat = sp.csr_matrix(np.diag(np.arange(300.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = spectra._constant_spinor_bound(mat)
        assert spectra._constant_spinor_bound(sp.csr_matrix((4, 4))) == 0.0
    assert 0.0 <= bound < 149.0      # below both constant spinors


class _PermutedFactor:
    """A factor whose row permutation differs from its column one."""

    def __init__(self, lu):
        self._lu = lu
        self.perm_r = np.roll(lu.perm_r, 1)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def test_unusable_inertia_falls_back_to_pivoting(monkeypatch):
    def factor(mat, shift, hermitian=False):
        lu = _factor_shifted(mat, shift, hermitian)
        return _PermutedFactor(lu) if hermitian else lu

    monkeypatch.setattr(spectra, "_factor_shifted", factor)
    H = _torus_16x32()
    res = eigensolve(H, k=16, seed=3, return_vectors=False)
    d = res.diagnostics
    assert d["fallback"] is True and d["inertia"] is None
    assert d["check_count"] is None and d["factorizations"] == 2
    norm = spectra._scale(H)
    assert d["sigma"] == spectra._lower_bound(H) - 0.01 * norm
    ref = np.linalg.eigvalsh(H.toarray())[:16]
    assert np.abs(res.values - ref).max() < 1e-10


def _arpack_missing_lowest(monkeypatch, calls):
    """ARPACK that drops the lowest pair on its first ``calls`` runs."""
    arpack = spectra._arpack
    runs = []

    def missing(mat, k, sigma, lu, v0):
        runs.append(k)
        if len(runs) > calls:
            return arpack(mat, k, sigma, lu, v0)
        vals, vecs, solves = arpack(mat, k + 1, sigma, lu, v0)
        return vals[1:], vecs[:, 1:], solves

    monkeypatch.setattr(spectra, "_arpack", missing)
    return runs


def test_missed_pair_is_retried_with_larger_k(monkeypatch):
    H = _torus_16x32()
    runs = _arpack_missing_lowest(monkeypatch, calls=1)
    res = eigensolve(H, k=16, seed=3, return_vectors=False)
    assert runs == [16, 32]
    d = res.diagnostics
    assert d["retries"] == 1 and d["check_count"] == d["check_expected"]
    ref = np.linalg.eigvalsh(H.toarray())[:16]
    assert np.abs(res.values - ref).max() < 1e-10


def test_missed_pair_after_retry_raises(monkeypatch):
    _arpack_missing_lowest(monkeypatch, calls=2)
    with pytest.raises(EigensolverError, match="incomplete"):
        eigensolve(_torus_16x32(), k=16, seed=3, return_vectors=False)


def test_eigensolve_real_matrix_stays_real():
    # no connection: a real operator; start vector and OPinv stay real
    mat = cylinder_ring_operator(1.0, 256, with_connection=False).matrix
    assert not np.iscomplexobj(mat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = eigensolve(mat, k=6, seed=2)
    assert res.diagnostics["method"] == "shift-invert-lanczos"
    assert not np.iscomplexobj(res.vectors)


def test_eigensolve_checks_which_before_solving(monkeypatch):
    def solver_called(*args, **kwargs):
        raise AssertionError("solver ran before which was checked")

    monkeypatch.setattr(spectra, "_factor_shifted", solver_called)
    monkeypatch.setattr(spectra.np.linalg, "eigh", solver_called)
    for n in (16, 256):        # dense and shift-invert sizes
        with pytest.raises(ValueError, match="unknown which"):
            eigensolve(cylinder_ring_operator(1.0, n).matrix, k=4,
                       which="highest")


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_eigensolve_rejects_a_target_that_is_not_finite(monkeypatch,
                                                        target):
    def solver_called(*args, **kwargs):
        raise AssertionError("solver ran before target was checked")

    torus = make_surface("torus", rho=1.0, R=3.0)
    ops = (_op(np.eye(8)), cylinder_ring_operator(1.0, 256).matrix,
           assemble_Heff(torus, Grid.for_patch(torus, 16, 16)))
    for name in ("_fourier_blocks", "_factor_shifted"):
        monkeypatch.setattr(spectra, name, solver_called)
    monkeypatch.setattr(spectra.np.linalg, "eigvalsh", solver_called)
    for op in ops:          # dense, shift-invert and Fourier blocks
        with pytest.raises(ValueError, match="target"):
            eigensolve(op, k=4, which="nearest", target=target)


def test_eigensolve_singular_shift_names_sigma():
    op = _op(np.diag(np.arange(300.0)))
    with pytest.raises(EigensolverError, match="sigma = 5.0"):
        eigensolve(op, k=3, which="nearest", target=5.0)
    res = eigensolve(op, k=3, which="nearest", target=5.25)
    assert np.allclose(res.values, [4.0, 5.0, 6.0], atol=1e-12)


def test_degeneracy_clusters_basic():
    assert degeneracy_clusters([0.0, 0.0, 1.0], tol=1e-6) == [(0.0, 2),
                                                              (1.0, 1)]
    vals = [0.0, 1e-12, 1.0, 1.0 + 2e-12, 3.0]
    cl = degeneracy_clusters(vals, tol=1e-9)
    assert [m for _, m in cl] == [2, 2, 1]


def test_cylinder_analytic_spectrum_degeneracies():
    # with the spin connection every level is 4-fold, including the ground
    levels = cylinder_analytic_spectrum(1.0, 6, with_connection=True)
    clusters = degeneracy_clusters([L.energy for L in levels
                                    if L.energy <= 6.0 + 1e-12], tol=1e-12)
    assert all(m == 4 for _, m in clusters)
    assert clusters[0] == (0.0, 4)
    ground = [L for L in levels if L.energy == 0.0]
    labels = {(L.n, L.sign) for L in ground}
    assert labels == {(0, 1), (0, -1), (1, -1), (-1, 1)}

    # without: only the ground state is 2-fold
    lv0 = cylinder_analytic_spectrum(1.0, 4, with_connection=False)
    cl0 = degeneracy_clusters([L.energy for L in lv0 if L.energy <= 4.0],
                              tol=1e-12)
    assert cl0[0][1] == 2
    assert all(m == 4 for _, m in cl0[1:])


def test_pairing_identity_and_j_labels():
    # (n+-1)^2 -+ (n+-1) = n^2 +- n: partners carry the same j = n +- 1/2
    for n in range(-4, 5):
        for s in (+1, -1):
            e = (n * n + s * n) / 2.0
            npart = n + s
            epart = (npart * npart - s * npart) / 2.0
            assert e == pytest.approx(epart)
    levels = cylinder_analytic_spectrum(1.0, 3, with_connection=True)
    for L in levels:
        assert L.j == pytest.approx(L.n + 0.5 * L.sign)
        assert L.label.startswith("|j=")


def test_ring_operator_reproduces_clusters():
    op = cylinder_ring_operator(1.0, 256, with_connection=True)
    res = eigensolve(op, k=16, return_vectors=False)
    target = np.repeat([0.0, 1.0, 3.0, 6.0], 4)
    err = np.abs(res.values - target) / np.maximum(np.abs(target), 1.0)
    assert err.max() < 1e-3
    # grid-aware clustering sees the 4-fold pattern including the ground
    clusters = degeneracy_clusters(res.values, tol=1e-2)
    assert [m for _, m in clusters] == [4, 4, 4, 4]

    op0 = cylinder_ring_operator(1.0, 256, with_connection=False)
    res0 = eigensolve(op0, k=10, return_vectors=False)
    cl0 = degeneracy_clusters(res0.values, tol=1e-2)
    assert cl0[0][1] == 2


def test_ring_splits_into_two_by_two_blocks():
    # the ring's grid is its theta line: Fourier blocks, with the
    # shift-invert solve of its bare matrix as the oracle
    ring = cylinder_ring_operator(1.0, 256)
    res = eigensolve(ring, k=16, return_vectors=False)
    d = res.diagnostics
    assert d["method"] == "dense-eigh"
    assert d["fourier_axis"] == 0 and d["blocks"] == 256
    ref = eigensolve(ring.matrix, k=16, seed=0, return_vectors=False)
    assert ref.diagnostics["method"] == "shift-invert-lanczos"
    assert np.abs(res.values - ref.values).max() <= d["contract"]
    assert [m for _, m in degeneracy_clusters(res.values, tol=1e-2)] == [
        4, 4, 4, 4]


def _closed_form_ring(rho, n, with_connection):
    # the hand-written p_z = 0 stencil: flux-form -(1/(2 rho^2)) d_theta^2
    # and, with the connection, i X dc with X = -sigma_2/(2 rho^2) and
    # dc = (shift - shift^T)/(2h) from the backward shift, which is
    # -d_theta: the spin-orbit term with the opposite sign
    h = 2.0 * math.pi / n
    shift = (sp.eye(n, k=-1) + sp.eye(n, k=n - 1)).tocsr()
    lap = (2.0 * sp.eye(n) - shift - shift.T) / h**2
    H = sp.kron(lap * (0.5 / rho**2), sp.eye(2), format="csr")
    if with_connection:
        dc = (shift - shift.T) / (2.0 * h)
        X = np.array([[0.0, 0.5j / rho**2], [-0.5j / rho**2, 0.0]])
        H = H + sp.kron(dc, 1j * X, format="csr")
    return H


@pytest.mark.parametrize("n", [16, 256, 512])
def test_cylinder_ring_is_the_sigma3_conjugate_of_the_closed_form(n):
    # the k_z = 0 block of the assembled cylinder equals sigma_3 R sigma_3
    # of the closed form R entry by entry: the same spectrum, with the
    # spin-down components flipped in sign
    s3 = sp.diags(np.tile([1.0, -1.0], n))
    for rho in (0.3, 1.0, 2.0):
        for with_connection in (True, False):
            ring = cylinder_ring_operator(rho, n, with_connection).matrix
            oracle = s3 @ _closed_form_ring(rho, n, with_connection) @ s3
            assert ring.nnz == oracle.nnz == (10 if with_connection else 6) * n
            assert (abs(ring - oracle).max()
                    <= 1e-15 * abs(ring).max()), (rho, with_connection)


def _folded_cylinder_line(n, with_connection):
    """Line 0 across z of the n x 8 cylinder's assembled operator, each
    column folded onto its place in its line: the k_z = 0 Fourier block,
    formed from the whole grid."""
    patch = make_surface("cylinder", rho=1.0)
    grid = Grid.for_patch(patch, n, 8, bc=("periodic", "periodic"))
    op = (assemble_Heff if with_connection else assemble_H0)(patch, grid)
    lines = hamiltonian._lines(grid, 1)
    place = np.empty(op.dim, dtype=lines.dtype)
    place[lines] = np.arange(lines.shape[1])
    rows = op.matrix[lines[0]].tocoo()
    return sp.csr_matrix((rows.data, (rows.row, place[rows.col])),
                         shape=(lines.shape[1],) * 2).real


@pytest.mark.parametrize("n", [16, 256])
def test_cylinder_ring_is_the_folded_cylinder_line(n):
    # the transverse terms of one line against the fold of the whole
    # n x 8 cylinder: the same pattern, and bitwise the same entries at
    # the CLI's n = 256.  At n = 16 the fold rounds four theta diagonals
    # through the z terms' 2 / h_z^2 and back, where the half-step c^theta
    # is 1 - 2.2e-16: they differ by one ulp
    for with_connection in (True, False):
        ring = cylinder_ring_operator(1.0, n, with_connection).matrix
        fold = _folded_cylinder_line(n, with_connection)
        assert ring.dtype == fold.dtype == np.float64
        assert np.array_equal(ring.indptr, fold.indptr)
        assert np.array_equal(ring.indices, fold.indices)
        if n == 256:
            assert np.array_equal(ring.data, fold.data)
        np.testing.assert_array_max_ulp(ring.data, fold.data, maxulp=1)


def test_ring_convergence_second_order():
    errs = []
    hs = []
    for n in (64, 128, 256):
        op = cylinder_ring_operator(1.0, n)
        vals = np.sort(np.linalg.eigvalsh(op.matrix.toarray()))[:16]
        target = np.repeat([0.0, 1.0, 3.0, 6.0], 4)
        errs.append(np.max(np.abs(vals - target)
                           / np.maximum(np.abs(target), 1.0)))
        hs.append(2 * math.pi / n)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_conductance_steps_and_oracle():
    e_grid = np.linspace(0.0, 8.0, 500)
    curve_w = conductance_curve(1.0, e_grid, with_connection=True)
    curve_o = conductance_curve(1.0, e_grid, with_connection=False)

    # just above zero: 4 channels with the connection, 2 without
    assert curve_w.channels[1] == 4
    assert curve_o.channels[1] == 2

    # independent oracle: brute-force enumeration over (n, spin) modes
    def brute(e, with_conn):
        count = 0
        for n in range(-20, 21):
            for s in (+1, -1):
                thr = (n * n + s * n) / 2.0 if with_conn else n * n / 2.0
                if thr <= e + 1e-12:
                    count += 1
        return count

    for i in range(0, 500, 37):
        e = e_grid[i]
        assert curve_w.channels[i] == brute(e, True)
        assert curve_o.channels[i] == brute(e, False)

    # nondecreasing step functions
    assert np.all(np.diff(curve_w.channels) >= 0)
    assert np.all(np.diff(curve_o.channels) >= 0)


def test_threshold_sets_differ_everywhere():
    tw = np.unique(cylinder_thresholds(1.0, 30.0, True))
    to = np.unique(cylinder_thresholds(1.0, 30.0, False))
    tw = tw[tw > 1e-12]
    to = to[to > 1e-12]
    # positive thresholds (n^2 +- n)/2 vs n^2/2 never coincide
    for a in tw:
        assert np.min(np.abs(to - a)) > 1e-9


def test_conductance_input_validation():
    with pytest.raises(ValueError):
        conductance_curve(1.0, [1.0, 0.5])
    with pytest.raises(ValueError):
        conductance_curve(1.0, [-1.0, 0.5])


def test_eigensolve_k_validation():
    with pytest.raises(ValueError):
        eigensolve(_op(np.eye(3)), k=3)


@pytest.mark.parametrize("k", [0, -1, 2.5, True, np.float64(4.0), "4"])
def test_eigensolve_rejects_a_k_that_is_not_a_count(k):
    # dense, Fourier blocks and shift-invert
    torus = make_surface("torus", rho=1.0, R=3.0)
    for op in (_op(np.eye(8)), cylinder_ring_operator(1.0, 256).matrix,
               assemble_Heff(torus, Grid.for_patch(torus, 8, 16))):
        with pytest.raises(ValueError, match="1 <= k < dimension"):
            eigensolve(op, k=k)
    res = eigensolve(_op(np.diag(np.arange(8.0))), k=np.int64(2))
    assert np.allclose(res.values, [0.0, 1.0])
