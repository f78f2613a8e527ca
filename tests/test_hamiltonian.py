import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import spinsurf.hamiltonian as hamiltonian
from spinsurf.dynamics import BentCylinderSetup, bent_cylinder_operators
from spinsurf.errors import GridError, HermiticityError, SpinsurfError
from spinsurf.frames import SIGMA1, SIGMA2, frame_fields
from spinsurf.hamiltonian import (Grid, HermitianOperator, SpinorField, apply,
                                  assemble_H0, assemble_Heff, assemble_Hso,
                                  build_soi_operator, export_coo,
                                  _check_hermitian, _grid_geometry,
                                  gauge_conjugate, hermiticity_defect,
                                  time_reversal_defect)
from spinsurf.surfaces import SurfacePatch, make_surface


def _expression_torus():
    # the torus (rho = 1, R = 2) written out, so its jet is numeric
    return make_surface("generic", x="(2+cos(q1))*cos(q2)",
                        y="(2+cos(q1))*sin(q2)", z="sin(q1)",
                        domain=((0.0, 2 * math.pi), (0.0, 2 * math.pi)),
                        periodic=(True, True))


def _time_reversal_oracle(op):
    """max |S_y conj(H) S_y - H| by sparse products, S_y = I_nodes x sigma_y."""
    n = op.dim // 2
    sy = sp.kron(sp.eye(n), sp.csr_matrix(np.array([[0.0, -1.0j],
                                                    [1.0j, 0.0]])))
    diff = ((sy @ op.matrix.conjugate() @ sy).tocsr() - op.matrix).tocoo()
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0


def _gauge_oracle(op, theta):
    """P H P^dagger by sparse products, P = diag(exp(i theta sigma_3))."""
    theta = np.asarray(theta, dtype=float).ravel()
    phases = np.empty(2 * len(theta), dtype=complex)
    phases[0::2] = np.exp(1j * theta)
    phases[1::2] = np.exp(-1j * theta)
    P = sp.diags(phases)
    return (P @ op.matrix @ P.conjugate()).tocsr()


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


# The COO route the block writer replaced, kept as its bitwise oracle.

def _links(grid, axis):
    """Flat indices (k, k+1) of the links along axis, and the node mask.

    Periodic axes wrap; on a wall axis the last node has no +1 link.
    """
    idx = np.arange(grid.nodes).reshape(grid.n1, grid.n2)
    mask = np.ones(idx.shape, dtype=bool)
    if grid.bc[axis] != "periodic":
        mask[(slice(None),) * axis + (-1,)] = False
    return idx[mask], np.roll(idx, -1, axis=axis)[mask], mask


def _kinetic_matrix(grid, geo):
    """Node-space flux-form Laplacian of the spin-up component."""
    n = grid.nodes
    idx = np.arange(n)
    diag = np.zeros((grid.n1, grid.n2))
    rows, cols, vals = [], [], []
    phases = []
    for axis, h in ((0, grid.h1), (1, grid.h2)):
        c_plus, c_minus, phase = hamiltonian._node_coefficients(grid, geo,
                                                                axis)
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


def _rows(m):
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))


def _interleave_spins(up):
    """The 2N operator (spin fastest) of a node-space spin-up CSR block."""
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


def _soi_matrix(grid, X):
    """Assemble (i/2){X^b, D_b^centered} into the 2N operator."""
    rows, cols, vals = [], [], []
    for axis, h in ((0, grid.h1), (1, grid.h2)):
        r, c, mask = _links(grid, axis)
        Xb = X[axis]
        Xnb = np.roll(Xb, -1, axis=axis + 2)
        block = 1j * (Xb + Xnb) / (4.0 * h)
        for s_r in range(2):
            for s_c in range(2):
                b = block[s_r, s_c][mask]
                rows.extend([2 * r + s_r, 2 * c + s_c])
                cols.extend([2 * c + s_c, 2 * r + s_r])
                vals.extend([b, np.conj(b)])
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(grid.dim, grid.dim)).tocsr()


def _soi_fields_oracle(ff):
    """X^b = (1/(2 sqrt g)) S^{ab} sigma_a^tan by complex einsums."""
    sigma_tan = (np.einsum("a...,st->ast...", ff.e[:, 0], SIGMA1)
                 + np.einsum("a...,st->ast...", ff.e[:, 1], SIGMA2))
    X = np.einsum("ab...,ast...->bst...", ff.S, sigma_tan)
    return 0.5 * X / ff.sqrt_g


def _oracle_h0(grid, geo, scalar_potential="spin-connection"):
    V = hamiltonian._scalar_term(geo, scalar_potential)
    rescale = np.asarray(geo.sqrt_g, float).ravel() ** -0.5
    kin = _kinetic_matrix(grid, geo)
    kin.data = (0.5 * rescale)[_rows(kin)] * kin.data * rescale[kin.indices]
    return _interleave_spins(kin + sp.diags(np.asarray(V, float).ravel()))


def _line_of(patch, mesh):
    """The points of ``mesh`` that the geometry pass evaluates: index 0
    along the patch's isometry axis, or every point without one."""
    if patch.isometry_axis is None:
        return mesh
    return [np.take(q, [0], axis=patch.isometry_axis) for q in mesh]


def _line_frame_fields(patch, mesh):
    """frame_fields on ``_line_of`` the mesh, and the broadcast of one of
    its fields (nodes last) to the mesh's shape."""
    shape = mesh[0].shape
    return (frame_fields(patch, *_line_of(patch, mesh)),
            lambda a: np.broadcast_to(a, a.shape[:-2] + shape))


def _oracle_operators(patch, grid):
    """(H0, Hso, H0 + Hso) of the COO route, the sum as a sparse add; X
    comes from the node evaluation the assemblers make."""
    geo = _grid_geometry(patch, grid)
    h0 = _oracle_h0(grid, geo)
    ff, full = _line_frame_fields(patch, grid.mesh())
    hso = _soi_matrix(grid, full(_soi_fields_oracle(ff)))
    return h0, hso, (h0 + hso).tocsr()


def _assert_matches_oracle(new, oracle, rel=0.0):
    """The same pattern as the oracle without its stored zeros, and the
    same bits (or values within ``rel``)."""
    oracle = oracle.copy()
    oracle.sort_indices()
    oracle.eliminate_zeros()
    assert new.has_sorted_indices
    assert _same_bits(new.indptr, oracle.indptr)
    assert _same_bits(new.indices, oracle.indices)
    if rel:
        assert np.abs(new.data - oracle.data).max() <= rel * np.abs(
            oracle.data).max()
    else:
        assert _same_bits(new.data, oracle.data)


def test_grid_layouts():
    p = make_surface("cylinder", rho=1.0, length=1.0)
    g = Grid.for_patch(p, 16, 8)
    assert g.bc == ("periodic", "wall")
    assert g.n1 == 16 and abs(g.q1[0] - 0.0) < 1e-15
    assert g.q1[-1] + g.h1 == pytest.approx(2 * math.pi)   # spans the period
    # wall nodes strictly inside
    assert g.q2[0] > 0.0 and g.q2[-1] < 1.0
    with pytest.raises(GridError):
        Grid.for_patch(p, 4, 8)


def test_adding_operators_on_different_grids_raises():
    p = make_surface("torus", rho=1.0, R=3.0)
    a = assemble_H0(p, Grid.for_patch(p, 16, 32))
    with pytest.raises(GridError, match="different grids"):
        a + assemble_H0(p, Grid.for_patch(p, 32, 16))
    with pytest.raises(GridError, match="different grids"):   # same size
        a + assemble_H0(p, Grid.for_patch(p, 16, 32, domain=(
            (0.0, 2 * math.pi), (0.0, math.pi))))
    # the same grid built twice compares equal and adds
    again = Grid.for_patch(p, 16, 32)
    assert again is not a.grid and again == a.grid
    total = a + assemble_Hso(p, again)
    assert total.grid is a.grid
    assert total.terms[-1] == "soi"
    # a grid-free operator adds to either side and keeps the grid
    bare = HermitianOperator(sp.csr_matrix(a.matrix.shape), None, ("zero",))
    assert (bare + a).grid is a.grid and (a + bare).grid is a.grid


def test_plane_free_spectrum():
    p = make_surface("plane", lx=1.0, ly=1.0)
    g = Grid.for_patch(p, 24, 24, bc=("periodic", "periodic"))
    H = assemble_Heff(p, g)
    vals = np.linalg.eigvalsh(H.matrix.toarray())
    k1 = 2 * math.pi          # first excited momentum
    exact = 0.5 * k1**2
    lattice = (1 - math.cos(k1 * g.h1)) / g.h1**2
    # four momentum states x two spins at the first shell
    assert np.allclose(vals[:2], 0.0, atol=1e-11)
    assert np.allclose(vals[2:10], lattice, atol=1e-9)
    assert abs(lattice - exact) / exact < (k1 * g.h1)**2 / 6


def test_hermiticity_at_assembly():
    for p, bc in ((make_surface("torus", rho=1.0, R=3.0), None),
                  (make_surface("sphere", r=1.0), None)):
        grid = Grid.for_patch(p, 10, 12, bc=bc,
                              domain=((0.4, 2.7), p.domain[1])
                              if p.kind == "sphere" else None)
        for op in (assemble_H0(p, grid), assemble_Hso(p, grid),
                   assemble_Heff(p, grid)):
            assert hermiticity_defect(op) <= 1e-12


def test_hermiticity_failure_is_a_package_error():
    # a package error, so the CLI turns it into its JSON error and exit 2;
    # still an AssertionError, as the check raised before
    with pytest.raises(HermiticityError) as info:
        _check_hermitian(sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]])),
                         "test")
    assert isinstance(info.value, SpinsurfError)
    assert isinstance(info.value, AssertionError)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hermiticity_check_rejects_non_finite_entries(bad):
    # the defect of either matrix is NaN (inf - inf), which no bound passes
    with np.errstate(invalid="ignore"), pytest.raises(HermiticityError):
        _check_hermitian(sp.csr_matrix(np.array([[1.0, bad], [bad, 1.0]])),
                         "test")


def test_cylinder_heff_levels():
    # transverse clusters (n^2 +- n)/2 = {0, 1, 3, 6} at rho = 1, with the
    # z direction periodic and short enough to stay above the window
    p = make_surface("cylinder", rho=1.0, length=2 * math.pi / 5)
    g = Grid.for_patch(p, 96, 8, bc=("periodic", "periodic"))
    H = assemble_Heff(p, g)
    vals = np.linalg.eigvalsh(H.matrix.toarray())[:16]
    target = np.repeat([0.0, 1.0, 3.0, 6.0], 4)
    assert np.max(np.abs(vals - target) / np.maximum(target, 1.0)) < 5e-3


def test_cylinder_hso_matches_direct_stencil():
    # Hso on the cylinder is -(i/(2 rho^2)) sigma_2 d_theta
    rho = 1.4
    p = make_surface("cylinder", rho=rho, length=1.0)
    g = Grid.for_patch(p, 16, 8)
    H = assemble_Hso(p, g)
    X = np.zeros((2, 2, 2, g.n1, g.n2), dtype=complex)
    X[0] = (-SIGMA2 / (2 * rho**2))[..., None, None] * np.ones((g.n1, g.n2))
    direct = build_soi_operator(g, X)
    assert abs((H.matrix - direct.matrix)).max() < 1e-13


def test_sphere_hso_matches_rashba_stencil():
    # umbilical sphere: S^{ab} = eps^{ab}/r, the isotropic (Rashba) form;
    # assemble the stencil directly from that closed form and compare
    r0 = 1.0
    p = make_surface("sphere", r=r0)
    g = Grid.for_patch(p, 14, 16, domain=((0.9, 2.2), p.domain[1]))
    H = assemble_Hso(p, g)
    Q1, Q2 = g.mesh()
    sqrt_g = r0**2 * np.sin(Q1)
    X = np.zeros((2, 2, 2, g.n1, g.n2), dtype=complex)
    # X^theta = (1/(2 sqrt g)) S^{phi theta} sigma_phi,  sigma_phi = r sin sigma2
    X[0] = SIGMA2[..., None, None] * (-r0 * np.sin(Q1) / (r0 * 2 * sqrt_g))
    # X^phi = (1/(2 sqrt g)) S^{theta phi} sigma_theta,  sigma_theta = r sigma1
    X[1] = SIGMA1[..., None, None] * (r0 / (r0 * 2 * sqrt_g))
    direct = build_soi_operator(g, X)
    assert abs((H.matrix - direct.matrix)).max() < 1e-12


def test_plane_hso_vanishes():
    p = make_surface("plane")
    g = Grid.for_patch(p, 8, 8)
    H = assemble_Hso(p, g)
    assert H.matrix.nnz == 0 or abs(H.matrix).max() < 1e-15


def test_scalar_potential_toggle():
    p = make_surface("sphere", r=1.0)
    g = Grid.for_patch(p, 10, 10, domain=((0.8, 2.3), p.domain[1]))
    h_sc = assemble_H0(p, g, scalar_potential="spin-connection")
    h_none = assemble_H0(p, g, scalar_potential="none")
    h_dc = assemble_H0(p, g, scalar_potential="dacosta")
    d_sc = (h_sc.matrix - h_none.matrix).diagonal()
    d_dc = (h_dc.matrix - h_none.matrix).diagonal()
    # spin-connection form: +K/4 = 1/4 on the unit sphere
    assert np.allclose(d_sc, 0.25, atol=1e-12)
    # da Costa: -(M^2 - K)/2 = 0 on the umbilical sphere
    assert np.allclose(d_dc, 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        assemble_H0(p, g, scalar_potential="bogus")


def test_gauge_rotated_spectra_identical():
    p = make_surface("cylinder", rho=1.0, length=1.0)
    g = Grid.for_patch(p, 24, 8, bc=("periodic", "periodic"))
    H = assemble_H0(p, g)
    rng = np.random.default_rng(17)
    coeff = rng.standard_normal(3)
    Q1, Q2 = g.mesh()
    theta = (coeff[0] * np.sin(Q1) + coeff[1] * np.cos(2 * Q1)
             + coeff[2] * np.sin(2 * math.pi * Q2))
    Hg = gauge_conjugate(H, theta)
    v0 = np.linalg.eigvalsh(H.matrix.toarray())[:16]
    v1 = np.linalg.eigvalsh(Hg.matrix.toarray())[:16]
    assert np.abs(v0 - v1).max() < 1e-10


def test_time_reversal_h0():
    for p in (make_surface("plane"), make_surface("cylinder", rho=1.0),
              make_surface("torus", rho=1.0, R=3.0)):
        g = Grid.for_patch(p, 10, 10)
        H0 = assemble_H0(p, g)
        assert time_reversal_defect(H0) <= 1e-12 * H0.max_norm()


def test_time_reversal_hso_and_sum():
    p = make_surface("sphere", r=1.0)
    g = Grid.for_patch(p, 10, 10, domain=((0.8, 2.3), p.domain[1]))
    Hso = assemble_Hso(p, g)
    Heff = assemble_Heff(p, g)
    assert time_reversal_defect(Hso) <= 1e-12 * Hso.max_norm()
    defect = time_reversal_defect(Heff)   # reported, also zero here
    assert defect <= 1e-12 * Heff.max_norm()


def test_apply_identity_zero_linearity():
    p = make_surface("plane")
    g = Grid.for_patch(p, 8, 8)
    rng = np.random.default_rng(2)
    psi = SpinorField(g, rng.standard_normal((8, 8, 2))
                      + 1j * rng.standard_normal((8, 8, 2)))
    ident = HermitianOperator(sp.identity(g.dim, format="csr",
                                          dtype=complex), g, ("id",))
    zero = HermitianOperator(sp.csr_matrix((g.dim, g.dim), dtype=complex),
                             g, ("zero",))
    assert np.allclose(apply(ident, psi).values, psi.values)
    assert np.allclose(apply(zero, psi).values, 0.0)
    A = assemble_H0(p, g)
    B = assemble_Hso(p, g)
    # (A + B)x = Ax + Bx on random input
    lhs = apply(A + B, psi).values
    rhs = apply(A, psi).values + apply(B, psi).values
    assert np.abs(lhs - rhs).max() < 1e-14 * max(1.0, np.abs(lhs).max())
    big = assemble_H0(p, Grid.for_patch(p, 10, 8))
    with pytest.raises(GridError):
        apply(big, psi)   # dimension mismatch


def test_spinor_field_norm_and_expectation():
    p = make_surface("plane")
    g = Grid.for_patch(p, 8, 8)
    vals = np.zeros((8, 8, 2), dtype=complex)
    vals[:, :, 0] = 1.0
    psi = SpinorField(g, vals).normalized()
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    ident = sp.identity(g.dim, format="csr", dtype=complex)
    assert psi.expectation(ident).real == pytest.approx(1.0, abs=1e-12)


def test_export_coo_roundtrip(tmp_path):
    p = make_surface("plane")
    g = Grid.for_patch(p, 8, 8)
    H = assemble_H0(p, g)
    path = tmp_path / "op.txt"
    export_coo(H, path)
    rows, cols, re, im = [], [], [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        a, b, x, y = line.split()
        rows.append(int(a)); cols.append(int(b))
        re.append(float(x)); im.append(float(y))
    rebuilt = sp.coo_matrix((np.array(re) + 1j * np.array(im),
                             (rows, cols)), shape=H.matrix.shape).tocsr()
    assert abs((rebuilt - H.matrix)).max() < 1e-15


def test_sheared_plane_g12_cross_term():
    # x = q1 + 0.3 q2, y = q2: g^{11} = 1.09, g^{12} = -0.3, g^{22} = 1 and
    # sqrt(g) = 1, so H = -(1/2) g^{ab} d_a d_b on plane waves: 2 pi^2 *
    # (1.09 k1^2 - 0.6 k1 k2 + k2^2).  A wrong g^{12} sign swaps the values.
    p = make_surface("generic", x="q1 + 0.3*q2", y="q2", z="0",
                     domain=((0.0, 1.0), (0.0, 1.0)), periodic=(True, True))
    g = Grid.for_patch(p, 32, 32)
    H = assemble_Heff(p, g)
    Q1, Q2 = g.mesh()
    for k2, factor in ((+1, 1.49), (-1, 2.69)):
        wave = np.exp(2j * math.pi * (Q1 + k2 * Q2))
        for spin in (0, 1):
            psi = SpinorField.zeros(g)
            psi.values[:, :, spin] = wave
            v = psi.flat()
            out = H.matrix @ v
            lam = np.vdot(v, out).real / np.vdot(v, v).real
            resid = np.linalg.norm(out - lam * v) / np.linalg.norm(lam * v)
            assert resid <= 1e-10
            assert lam == pytest.approx(2 * math.pi**2 * factor, rel=1e-2)


def test_heff_makes_one_geometry_pass(monkeypatch):
    # one geometry pass: three frame_fields calls and three jet evaluations
    # per assembly, at the nodes and at the half-steps of each axis
    jets, frames_calls = [], []
    jet, full = SurfacePatch.jet, hamiltonian.frame_fields

    def counting_jet(self, q1, q2):
        jets.append(1)
        return jet(self, q1, q2)

    def counting_frames(*args, **kwargs):
        frames_calls.append(1)
        return full(*args, **kwargs)

    monkeypatch.setattr(SurfacePatch, "jet", counting_jet)
    monkeypatch.setattr(hamiltonian, "frame_fields", counting_frames)
    for p in (make_surface("torus", rho=1.0, R=3.0),
              make_surface("sphere", r=1.0)):
        jets.clear()
        frames_calls.clear()
        assemble_Heff(p, Grid.for_patch(p, 12, 16))
        assert len(jets) == 3
        assert len(frames_calls) == 3


def test_half_step_geometry_matches_frame_fields():
    # the half-step coefficients carry the same bits as frame_fields at
    # Grid.half_mesh, on its line along the isometry axis of a built-in
    # and at every point of the expression torus
    bent = BentCylinderSetup()
    for patch, grid in (
            (make_surface("torus", rho=1.0, R=3.0), None),
            (make_surface("sphere", r=1.0), None),
            (_expression_torus(), None),
            (bent.patch(), bent.grid())):
        grid = grid or Grid.for_patch(patch, 12, 16)
        geo = _grid_geometry(patch, grid)
        for axis, h in ((0, grid.h1), (1, grid.h2)):
            ff, full = _line_frame_fields(patch, grid.half_mesh(axis))
            assert _same_bits(geo.c[axis],
                              full(ff.sqrt_g * ff.g_inv[axis, axis]))
            assert _same_bits(geo.phase[axis], full(h * ff.w[axis]))


def _isometry_cases():
    # each built-in at a CLI-sized grid, the default bent window (periodic
    # in s) and that window walled in s, then the expression torus, which
    # has no isometry axis and is evaluated at every point
    bent = BentCylinderSetup()
    window = bent.grid()
    for kind in ("plane", "cylinder", "sphere", "torus"):
        patch = make_surface(kind)
        yield kind, patch, Grid.for_patch(patch, 24, 32)
    yield "bent periodic", bent.patch(), window
    yield "bent walled", bent.patch(), Grid.for_patch(
        bent.patch(), bent.n_theta, bent.n_s, bc=("wall", "wall"),
        domain=window.domain)
    expression = _expression_torus()
    yield "expression torus", expression, Grid.for_patch(expression, 24, 32)


@pytest.mark.parametrize("patch, grid", [
    pytest.param(patch, grid, id=label)
    for label, patch, grid in _isometry_cases()])
def test_line_geometry_matches_the_whole_grid(patch, grid):
    # geometry read on one line along the isometry axis equals the
    # whole-grid frame_fields to round-off, and bit for bit on a patch
    # without an isometry axis
    rel = 0.0 if patch.isometry_axis is None else 4e-15
    assert patch.isometry_axis == (None if patch.kind == "generic" else 1)
    geo = _grid_geometry(patch, grid)
    ff = frame_fields(patch, *grid.mesh())
    pairs = [(geo.sqrt_g, ff.sqrt_g), (geo.K, ff.K), (geo.M, ff.M),
             (geo.c12, ff.sqrt_g * ff.g_inv[0, 1]),
             (geo.X, _soi_fields_oracle(ff))]
    for axis, h in ((0, grid.h1), (1, grid.h2)):
        ff = frame_fields(patch, *grid.half_mesh(axis))
        pairs += [(geo.c[axis], ff.sqrt_g * ff.g_inv[axis, axis]),
                  (geo.phase[axis], h * ff.w[axis])]
    for got, want in pairs:
        assert got.shape == want.shape
        if rel:
            assert (np.abs(got - want)
                    <= rel * np.maximum(1.0, np.abs(want))).all()
        else:
            assert _same_bits(got, want)
    # a spectral split's one line carries the bits of index 0 along the
    # isometry axis; there is none without that axis or across its wall
    axis = patch.isometry_axis
    if axis is None or grid.bc[axis] != "periodic":
        with pytest.raises(GridError):
            hamiltonian._isometry_line(patch, grid)
        return
    line = hamiltonian._isometry_line(patch, grid)[2]

    def fields(g):
        return [g.sqrt_g, g.K, g.M, g.c12, g.X, *g.c, *g.phase]
    assert all(_same_bits(got, np.take(want, [0], axis=want.ndim - 2 + axis))
               for got, want in zip(fields(line), fields(geo)))


def _bent_operators(patch, grid):
    # the bent cylinder's own window grid; patch and grid are not read
    return bent_cylinder_operators(BentCylinderSetup(n_theta=10, n_s=16))


def test_one_hermiticity_check_per_assembly(monkeypatch):
    # the writer checks each operator it writes, the bent ones and their
    # observables included
    labels = []
    original = hamiltonian._check_hermitian

    def counting(mat, label):
        labels.append(label)
        return original(mat, label)

    monkeypatch.setattr(hamiltonian, "_check_hermitian", counting)
    p = make_surface("torus", rho=1.0, R=3.0)
    g = Grid.for_patch(p, 10, 12)
    for assemble, expected in ((assemble_Heff, ["Heff"]),
                               (assemble_H0, ["H0"]), (assemble_Hso, ["Hso"]),
                               (_bent_operators,
                                ["H0", "Hso", "theta", "p_s"])):
        labels.clear()
        assemble(p, g)
        assert labels == expected


def test_non_hermitian_term_raises_through_assemblers(monkeypatch):
    # one spin entry of node 0 without its mirror, added to a term's blocks
    def skewed(blocks_of):
        def broken(grid, *args):
            blocks = blocks_of(grid, *args)
            skew = np.zeros((grid.n1, grid.n2), dtype=complex)
            skew[0, 0] = 0.5
            blocks[0, 0, 0, 1] = blocks.get((0, 0, 0, 1), 0) + skew
            return blocks
        return broken

    p = make_surface("torus", rho=1.0, R=3.0)
    g = Grid.for_patch(p, 10, 12)
    for term, assemblers in (
            ("_h0_blocks", (assemble_H0, assemble_Heff, _bent_operators)),
            ("_soi_blocks", (assemble_Hso, assemble_Heff, _bent_operators))):
        with monkeypatch.context() as m:
            m.setattr(hamiltonian, term, skewed(getattr(hamiltonian, term)))
            for assemble in assemblers:
                with pytest.raises(HermiticityError):
                    assemble(p, g)


def _oracle_cases():
    # the CLI's default torus, sphere and cylinder grids (spectrum: 24^2),
    # the operator-assembly surfaces on smaller grids, and the expression
    # torus at its operator-assembly size
    for kind in ("torus", "sphere", "cylinder", "plane"):
        yield make_surface(kind), 24, 24
    yield make_surface("torus", rho=1.0, R=3.0), 32, 32
    yield make_surface("sphere", r=1.0), 16, 32
    yield _expression_torus(), 128, 128


def test_operators_match_the_coo_oracle():
    for patch, n1, n2 in _oracle_cases():
        grid = Grid.for_patch(patch, n1, n2)
        h0, hso, heff = _oracle_operators(patch, grid)
        _assert_matches_oracle(assemble_H0(patch, grid).matrix, h0)
        _assert_matches_oracle(assemble_Hso(patch, grid).matrix, hso)
        _assert_matches_oracle(assemble_Heff(patch, grid).matrix, heff)
        ff = frame_fields(patch, *grid.mesh())
        assert _same_bits(hamiltonian._soi_fields(ff), _soi_fields_oracle(ff))


def test_bent_cylinder_operators_match_the_coo_oracle():
    # the window, and through the assemblers the window walled in s
    setup = BentCylinderSetup()
    patch, grid = setup.patch(), setup.grid()
    walled = Grid.for_patch(patch, setup.n_theta, setup.n_s,
                            bc=("wall", "wall"), domain=grid.domain)
    for (H0, Hso), g in ((bent_cylinder_operators(setup)[:2], grid),
                         ((assemble_H0(patch, walled),
                           assemble_Hso(patch, walled)), walled)):
        h0, hso, _ = _oracle_operators(patch, g)
        _assert_matches_oracle(H0.matrix, h0)
        _assert_matches_oracle(Hso.matrix, hso)


def test_sheared_operators_match_the_coo_oracle():
    # the g^{12} cross term: the oracle's sparse products round without
    # fused multiply-adds, numpy's complex products may use them
    for periodic in (True, False):
        p = make_surface("generic", x="q1 + 0.3*q2", y="q2", z="0",
                         domain=((0.0, 1.0), (0.0, 1.0)),
                         periodic=(periodic, periodic))
        g = Grid.for_patch(p, 20, 24)
        h0, _, heff = _oracle_operators(p, g)
        _assert_matches_oracle(assemble_H0(p, g).matrix, h0, rel=1e-15)
        _assert_matches_oracle(assemble_Heff(p, g).matrix, heff, rel=1e-15)


def test_no_assembled_operator_stores_a_zero():
    bent = BentCylinderSetup()
    H0, Hso, _, _ = bent_cylinder_operators(bent)
    ops = [H0, Hso]
    for p in (make_surface("torus", rho=1.0, R=3.0),
              make_surface("sphere", r=1.0), _expression_torus()):
        g = Grid.for_patch(p, 12, 16)
        ops += [assemble_H0(p, g), assemble_Hso(p, g), assemble_Heff(p, g)]
    for op in ops:
        assert op.matrix.nnz == np.count_nonzero(op.matrix.data) > 0
    # on the plane Hso is empty and Heff is H0; a sparse sum with the zero
    # operator turns the -0 imaginary parts of the conjugated spin-down
    # entries into +0, so the values are compared, not their bits
    p = make_surface("plane")
    g = Grid.for_patch(p, 12, 16)
    assert assemble_Hso(p, g).matrix.nnz == 0
    H0, Heff = assemble_H0(p, g).matrix, assemble_Heff(p, g).matrix
    assert _same_bits(Heff.indptr, H0.indptr)
    assert _same_bits(Heff.indices, H0.indices)
    assert np.array_equal(Heff.data, H0.data)


def _operator_cases():
    sheared = make_surface("generic", x="q1 + 0.3*q2", y="q2", z="0",
                           domain=((0.0, 1.0), (0.0, 1.0)),
                           periodic=(False, False))
    for p in (make_surface("torus", rho=1.0, R=3.0),
              make_surface("sphere", r=1.0), _expression_torus(), sheared):
        g = Grid.for_patch(p, 10, 12)
        yield g, assemble_Heff(p, g)


def test_time_reversal_defect_matches_product_oracle():
    for g, H in _operator_cases():
        assert time_reversal_defect(H) == _time_reversal_oracle(H)
        # a sigma_3 Zeeman term b(q) breaks T: both forms see the same defect
        b = 0.2 + 0.1 * np.sin(g.mesh()[0]).ravel()
        zeeman = sp.diags(np.repeat(b, 2) * np.tile([1.0, -1.0], g.nodes))
        Hz = HermitianOperator((H.matrix + zeeman).tocsr(), g, H.terms)
        new, oracle = time_reversal_defect(Hz), _time_reversal_oracle(Hz)
        assert new > 0.0 and oracle > 0.0
        assert abs(new - oracle) <= 1e-14 * oracle


def test_gauge_conjugate_matches_product_oracle():
    rng = np.random.default_rng(5)
    for g, H in _operator_cases():
        theta = rng.uniform(-math.pi, math.pi, (g.n1, g.n2))
        oracle = _gauge_oracle(H, theta)
        new = gauge_conjugate(H, theta).matrix
        # numpy's and scipy's complex products may round differently
        assert abs(new - oracle).max() <= 1e-15 * abs(oracle).max()


def test_gauge_conjugate_equals_the_row_index_formula():
    # the row phases repeated per row are the phases gathered through an
    # explicit row index, bit for bit
    rng = np.random.default_rng(13)
    for g, H in _operator_cases():
        theta = rng.uniform(-math.pi, math.pi, (g.n1, g.n2))
        phases = np.empty(g.dim, dtype=complex)
        phases[0::2] = np.exp(1j * theta.ravel())
        phases[1::2] = np.exp(-1j * theta.ravel())
        m = H.matrix
        want = phases[_rows(m)] * m.data * np.conj(phases)[m.indices]
        got = gauge_conjugate(H, theta).matrix
        assert _same_bits(got.indptr, m.indptr)
        assert _same_bits(got.indices, m.indices)
        assert _same_bits(got.data, want)


def _hermiticity_oracle(m):
    """max |H - H^dagger| / max |H| from the sparse difference."""
    top = abs(m).max()
    return float(abs(m - m.getH()).max() / top) if top else 0.0


def _unsorted(m):
    """The same matrix with each row's stored entries reversed."""
    order = np.concatenate([np.arange(a, b)[::-1]
                            for a, b in zip(m.indptr[:-1], m.indptr[1:])])
    return sp.csr_matrix((m.data[order], m.indices[order], m.indptr),
                         shape=m.shape)


def test_hermiticity_defect_matches_difference_oracle():
    rng = np.random.default_rng(7)
    for g, H in _operator_cases():
        theta = rng.uniform(-math.pi, math.pi, (g.n1, g.n2))
        rotated = gauge_conjugate(H, theta).matrix
        skewed = rotated.copy()                    # same pattern, one
        skewed.data[skewed.indptr[1] - 1] += 0.5   # entry off its mirror
        zeroed = H.matrix.copy()                   # explicit zeros off
        row0 = slice(0, zeroed.indptr[1])          # the diagonal of row 0
        zeroed.data[row0][zeroed.indices[row0] != 0] = 0.0
        unsorted = _unsorted(skewed)
        assert not unsorted.has_sorted_indices
        for m in (H.matrix, rotated, skewed, zeroed, unsorted):
            assert hermiticity_defect(m) == _hermiticity_oracle(m)
        assert hermiticity_defect(H) <= 1e-12
        assert hermiticity_defect(rotated) <= 1e-12
        assert hermiticity_defect(skewed) > 1e-6
        assert hermiticity_defect(zeroed) > 1e-6
    # structurally asymmetric, stored zeros only, and sigma_1 stored as
    # duplicates whose pattern equals that of its transpose
    lower = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    zeros = sp.csr_matrix((np.zeros(3), ([0, 1, 2], [0, 2, 1])), shape=(3, 3))
    dups = sp.csr_matrix(([1.0, 0.0, 0.0, 1.0], [1, 1, 0, 0], [0, 2, 4]),
                         shape=(2, 2))
    for m in (lower, lower + lower.T, zeros, dups):
        assert hermiticity_defect(m) == _hermiticity_oracle(m)
    assert hermiticity_defect(lower) == 1.0
    assert hermiticity_defect(zeros) == hermiticity_defect(dups) == 0.0


def test_hermiticity_defect_of_a_zero_operator():
    p = make_surface("plane")
    H = assemble_Hso(p, Grid.for_patch(p, 8, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hermiticity_defect(H) == 0.0
        assert hermiticity_defect(sp.csr_matrix((4, 4))) == 0.0
