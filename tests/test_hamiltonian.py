import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import spinsurf.hamiltonian as hamiltonian
from spinsurf.dynamics import BentCylinderSetup
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


def test_gauge_theta_argument_matches_conjugation():
    p = make_surface("torus", rho=1.0, R=3.0)
    g = Grid.for_patch(p, 10, 10)

    def theta(u, v):
        return 0.3 * np.sin(u) - 0.1 * np.cos(u)

    h_arg = assemble_H0(p, g, gauge_theta=theta)
    Q1, Q2 = g.mesh()
    h_conj = gauge_conjugate(assemble_H0(p, g), theta(Q1, Q2))
    assert abs((h_arg.matrix - h_conj.matrix)).max() < 1e-14


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
    # Grid.half_mesh
    bent = BentCylinderSetup()
    for patch, grid in (
            (make_surface("torus", rho=1.0, R=3.0), None),
            (make_surface("sphere", r=1.0), None),
            (_expression_torus(), None),
            (bent.patch(), bent.grid())):
        grid = grid or Grid.for_patch(patch, 12, 16)
        geo = _grid_geometry(patch, grid)
        for axis, h in ((0, grid.h1), (1, grid.h2)):
            ff = frame_fields(patch, *grid.half_mesh(axis))
            assert _same_bits(geo.c[axis], ff.sqrt_g * ff.g_inv[axis, axis])
            assert _same_bits(geo.phase[axis], h * ff.w[axis])


def test_one_hermiticity_check_per_assembly(monkeypatch):
    labels = []
    original = hamiltonian._check_hermitian

    def counting(mat, label):
        labels.append(label)
        return original(mat, label)

    monkeypatch.setattr(hamiltonian, "_check_hermitian", counting)
    p = make_surface("torus", rho=1.0, R=3.0)
    g = Grid.for_patch(p, 10, 12)
    for assemble, label in ((assemble_Heff, "Heff"), (assemble_H0, "H0"),
                            (assemble_Hso, "Hso")):
        labels.clear()
        assemble(p, g)
        assert labels == [label]


def test_non_hermitian_term_raises_through_assemblers(monkeypatch):
    def skewed(build):
        def broken(*args):
            m = build(*args)
            return (m + sp.csr_matrix(([0.5], ([0], [1])),
                                      shape=m.shape)).tocsr()
        return broken

    p = make_surface("torus", rho=1.0, R=3.0)
    g = Grid.for_patch(p, 10, 12)
    for stencil, assemblers in (("_kinetic_matrix", (assemble_H0,
                                                     assemble_Heff)),
                                ("_soi_matrix", (assemble_Hso,
                                                 assemble_Heff))):
        with monkeypatch.context() as m:
            m.setattr(hamiltonian, stencil,
                      skewed(getattr(hamiltonian, stencil)))
            for assemble in assemblers:
                with pytest.raises(HermiticityError):
                    assemble(p, g)


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
