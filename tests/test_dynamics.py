import math

import numpy as np
import pytest
import scipy.sparse as sp

from spinsurf.dynamics import (BentCylinderSetup, analytic_force,
                               bent_cylinder_operators, evolve,
                               force_equality_report, force_operators,
                               gaussian_wavepacket, spin_hall_run)
from spinsurf.errors import (InvalidWindowError, PacketTooNarrowError,
                             SurfaceParameterError)
from spinsurf.frames import SIGMA1, SIGMA2
from spinsurf.hamiltonian import (Grid, GridGeometry, HermitianOperator,
                                  assemble_H0, assemble_Hso,
                                  build_h0_operator, build_soi_operator)
from spinsurf.surfaces import make_surface

SMALL = dict(n_theta=16, n_s=32, s_length=10.0)


def test_setup_validation():
    with pytest.raises(SurfaceParameterError):
        BentCylinderSetup(rho=2.0, R=1.0)
    with pytest.raises(InvalidWindowError):
        BentCylinderSetup(theta0=0.5)          # sin window >= 0.2
    with pytest.raises(InvalidWindowError):
        BentCylinderSetup(theta0=4.0)
    BentCylinderSetup(theta0=0.19)             # boundary of the regime


def _closed_form_bent_operators(setup):
    """The bent cylinder's H0 and Hso from its closed-form coefficients.

    With W = (R + rho cos theta)/R on the torus patch (theta, s):
    sqrt(g) = rho W, sqrt(g) g^{theta theta} = W/rho, sqrt(g) g^{ss} = rho/W,
    g^{12} = 0, w_theta = 0, w_s = -sin(theta)/(2R),
    K = cos(theta)/(rho (R + rho cos theta)),
    M = (1/rho + cos(theta)/(R + rho cos theta))/2,
    X^theta = -sigma_2/(2 rho^2),
    X^s = +(R cos theta / (2 (R + rho cos theta)^2)) sigma_1.
    """
    rho, R = setup.rho, setup.R
    grid = setup.grid()

    def width(th):
        return (R + rho * np.cos(th)) / R

    th = grid.mesh()[0]
    th_half = [grid.half_mesh(axis)[0] for axis in (0, 1)]
    X = np.zeros((2, 2, 2) + th.shape, dtype=complex)
    X[0] = (-SIGMA2 / (2.0 * rho**2))[..., None, None]
    X[1] = SIGMA1[..., None, None] * (
        R * np.cos(th) / (2.0 * (R + rho * np.cos(th)) ** 2))
    geo = GridGeometry(
        sqrt_g=rho * width(th),
        K=np.cos(th) / (rho * (R + rho * np.cos(th))),
        M=0.5 * (1.0 / rho + np.cos(th) / (R + rho * np.cos(th))),
        c12=np.zeros_like(th), X=X,
        c=(width(th_half[0]) / rho, rho / width(th_half[1])),
        phase=(np.zeros_like(th_half[0]),
               grid.h2 * (-np.sin(th_half[1]) / (2.0 * R))))
    return build_h0_operator(grid, geo), build_soi_operator(grid, X)


def test_bent_operators_match_general_assembler():
    # the library's bent-cylinder operators (general route) against the
    # closed-form coefficients fed to the same stencil builders
    for bc_s in ("wall", "periodic"):
        setup = BentCylinderSetup(bc_s=bc_s, **SMALL)
        H0b, Hsob, _, _ = bent_cylinder_operators(setup)
        H0c, Hsoc = _closed_form_bent_operators(setup)
        scale = abs(H0c.matrix).max()
        assert abs((H0b.matrix - H0c.matrix)).max() < 1e-11 * scale
        assert abs((Hsob.matrix - Hsoc.matrix)).max() < 1e-11 * scale


def test_bent_scalar_term_at_outer_equator():
    # diagonal scalar = cos(theta)/(4 rho (R + rho cos)), = 1/(4 rho (R+rho))
    # at theta = 0 (the K/4 value)
    setup = BentCylinderSetup(R=20.0, **SMALL)
    H0b, _, _, _ = bent_cylinder_operators(setup)
    grid = setup.grid()
    patch = setup.patch()
    h_none = assemble_H0(patch, grid, scalar_potential="none")
    diag = (H0b.matrix - h_none.matrix).diagonal().real
    Q1, _ = grid.mesh()
    expected = np.cos(Q1.ravel()) / (4.0 * (20.0 + np.cos(Q1.ravel())))
    assert np.allclose(diag, np.repeat(expected, 2), atol=1e-11)


def test_straightening_limit_matches_cylinder():
    setup = BentCylinderSetup(R=1e6, **SMALL)
    H0b, Hsob, _, _ = bent_cylinder_operators(setup)
    cyl = make_surface("cylinder", rho=1.0, length=SMALL["s_length"])
    grid = Grid.for_patch(cyl, SMALL["n_theta"], SMALL["n_s"],
                          bc=("wall", "wall"),
                          domain=((-0.1, 0.1), (0.0, SMALL["s_length"])))
    H0c = assemble_H0(cyl, grid)
    Hsoc = assemble_Hso(cyl, grid)
    scale = abs(H0c.matrix).max()
    assert abs((H0b.matrix - H0c.matrix)).max() < 1e-4 * scale
    assert abs((Hsob.matrix - Hsoc.matrix)).max() < 1e-4 * scale


def test_theta_h0_commutator_matches_displayed_form():
    # [theta, H0] applied to a smooth interior field equals
    # (1/rho^2)[d_theta - rho sin/(2 (R + rho cos))] in the g^{1/4} picture
    setup = BentCylinderSetup(R=20.0, n_theta=48, n_s=48, s_length=10.0)
    H0, Hso, theta_op, _ = bent_cylinder_operators(setup)
    grid = setup.grid()
    Q1, Q2 = grid.mesh()
    rho, R = setup.rho, setup.R

    comm = (theta_op.matrix @ H0.matrix - H0.matrix @ theta_op.matrix)

    # smooth test spinor vanishing fast near the walls
    chi = (np.exp(-(Q1 / 0.035)**2 - ((Q2 - 5.0) / 1.2)**2)
           * np.exp(1j * 3.0 * Q2))
    sqrt_g = rho * (R + rho * np.cos(Q1)) / R
    mu = sqrt_g**0.5
    dchi = np.gradient(chi, grid.q1, axis=0, edge_order=2)
    target_chi = (dchi - rho * np.sin(Q1)
                  / (2.0 * (R + rho * np.cos(Q1))) * chi) / rho**2

    psi = np.zeros((grid.n1, grid.n2, 2), dtype=complex)
    psi[:, :, 0] = mu * chi
    out = comm @ psi.reshape(-1)
    got_chi = out.reshape(grid.n1, grid.n2, 2)[:, :, 0] / mu
    num = np.abs(got_chi - target_chi).max()
    den = np.abs(target_chi).max()
    assert num / den < 5e-3    # second-order stencil error


def test_theta_hso_commutator_is_multiplication():
    # [theta, Hso] -> -i X^theta as h -> 0: a pure multiplication operator
    # of pointwise norm R ||sigma_s|| / (2 rho^2 (R + rho cos)) = 1/(2 rho^2)
    setup = BentCylinderSetup(R=20.0, n_theta=48, n_s=48, s_length=10.0)
    H0, Hso, theta_op, _ = bent_cylinder_operators(setup)
    grid = setup.grid()
    Q1, Q2 = grid.mesh()
    comm = (theta_op.matrix @ Hso.matrix - Hso.matrix @ theta_op.matrix)

    chi = (np.exp(-(Q1 / 0.035)**2 - ((Q2 - 5.0) / 1.2)**2)
           * np.exp(1j * 3.0 * Q2))
    psi = np.zeros((grid.n1, grid.n2, 2), dtype=complex)
    psi[:, :, 0] = chi
    out = (comm @ psi.reshape(-1)).reshape(grid.n1, grid.n2, 2)
    # -i X^theta = +i sigma_2/(2 rho^2): acting on (1,0) gives
    # (0, i * (i)/(2 rho^2)) = (0, -1/(2 rho^2))
    target = -chi / (2.0 * setup.rho**2)
    mask = np.abs(chi) > 1e-3 * np.abs(chi).max()
    err = np.abs(out[:, :, 1] - target)[mask].max() / np.abs(target).max()
    # two-point averaged multiplication: O((h/width)^2) ~ 1.4% here
    assert err < 3e-2
    assert np.abs(out[:, :, 0])[mask].max() < 1e-10   # no diagonal part


def test_commutator_antihermitian():
    setup = BentCylinderSetup(**SMALL)
    H0, Hso, theta_op, _ = bent_cylinder_operators(setup)
    H = H0.matrix + Hso.matrix
    C = theta_op.matrix @ H - H @ theta_op.matrix
    assert abs((C + C.getH())).max() < 1e-12 * max(abs(C).max(), 1e-300)


def test_force_operators_vanish_on_plane():
    # flat limit: both forces vanish away from the walls (the hard wall
    # itself exerts a boundary force on the lattice)
    p = make_surface("plane", lx=2.0, ly=2.0)
    g = Grid.for_patch(p, 12, 12)
    H0 = assemble_H0(p, g)
    Hso = assemble_Hso(p, g)
    Q1, _ = g.mesh()
    theta_op = HermitianOperator(
        sp.diags(np.repeat(Q1.ravel(), 2)).tocsr(), g, ("x1",))
    F_pm, F_so = force_operators(H0, Hso, theta_op)
    interior = np.zeros((g.n1, g.n2), dtype=bool)
    interior[2:-2, 2:-2] = True
    sel = np.repeat(interior.ravel(), 2)
    sub = F_pm.matrix[sel][:, sel]
    scale = abs(H0.matrix).max()**2
    assert sub.nnz == 0 or abs(sub).max() < 1e-12 * scale
    assert F_so.matrix.nnz == 0 or abs(F_so.matrix).max() < 1e-14


def test_analytic_force_signs_and_zero_momentum():
    setup = BentCylinderSetup()
    f0 = analytic_force(setup, 8.0, 0.0)
    assert f0.force_total[+1] == pytest.approx(-f0.force_total[-1])
    assert f0.force_total[+1] > 0
    # compact 2 sigma3 B v form equals the summed routes identically
    assert f0.force_total[+1] == pytest.approx(2 * f0.force_each[+1], rel=1e-12)
    # zero momentum -> zero force
    fz = analytic_force(setup, 0.0, 0.0)
    assert fz.force_total[+1] == 0.0
    # inner window flips the sign at the same spin
    setup_pi = BentCylinderSetup(theta_c=math.pi)
    fpi = analytic_force(setup_pi, 8.0, math.pi)
    assert fpi.force_total[+1] * f0.force_total[+1] < 0
    with pytest.raises(InvalidWindowError):
        analytic_force(setup, 8.0, 2.0)


def test_gaussian_wavepacket_properties():
    setup = BentCylinderSetup(n_theta=40, n_s=384)
    grid = setup.grid()
    pkt = gaussian_wavepacket(grid, (0.0, 10.0), (0.02, 2.0), 2.0, "up",
                              rho=None)
    assert pkt.norm() == pytest.approx(1.0, abs=1e-12)
    sz = sp.kron(sp.eye(grid.nodes), sp.diags([1.0, -1.0])).tocsr()
    assert pkt.expectation(sz).real == pytest.approx(1.0, abs=1e-12)
    dn = gaussian_wavepacket(grid, (0.0, 10.0), (0.02, 2.0), 2.0, -1)
    assert dn.expectation(sz).real == pytest.approx(-1.0, abs=1e-12)
    # <p_s> = k_s within 1% once k h is small (k=2: sin(kh)/k h ~ 0.996)
    _, _, _, ps = bent_cylinder_operators(setup)
    assert pkt.expectation(ps).real == pytest.approx(2.0, rel=0.01)


def test_gaussian_wavepacket_too_narrow():
    setup = BentCylinderSetup(**SMALL)
    grid = setup.grid()
    with pytest.raises(PacketTooNarrowError):
        gaussian_wavepacket(grid, (0.0, 5.0), (1e-4, 1.0), 2.0, "up")


def test_wavelength_warning():
    setup = BentCylinderSetup(n_theta=40, n_s=128)
    grid = setup.grid()
    with pytest.warns(UserWarning, match="lambda < rho"):
        gaussian_wavepacket(grid, (0.0, 10.0), (0.02, 2.0), 1.0, "up",
                            rho=1.0)


def test_evolve_zero_hamiltonian_constant():
    setup = BentCylinderSetup(**SMALL)
    grid = setup.grid()
    pkt = gaussian_wavepacket(grid, (0.0, 5.0), (0.05, 1.5), 2.0, "up")
    zero = HermitianOperator(
        sp.csr_matrix((grid.dim, grid.dim), dtype=complex), grid, ("zero",))
    traj = evolve(zero, pkt, 0.01, 20,
                  observables={"n": sp.identity(grid.dim, dtype=complex,
                                                format="csr")})
    assert np.allclose(traj.norms, traj.norms[0], atol=1e-14)
    assert np.allclose(traj.observables["n"], 1.0, atol=1e-14)


def test_free_packet_drift():
    # flat strip: <q2> moves at the lattice group velocity ~ k within 1%
    p = make_surface("plane", lx=1.0, ly=40.0)
    g = Grid.for_patch(p, 8, 512, bc=("periodic", "periodic"))
    H = assemble_H0(p, g)
    k = 2.0
    pkt = gaussian_wavepacket(g, (0.5, 10.0), (0.5, 1.5), k, "up")
    Q1, Q2 = g.mesh()
    s_op = sp.kron(sp.diags(Q2.ravel()), sp.eye(2)).tocsr()
    t_end = 2.0
    traj = evolve(H, pkt, 0.02, 100, observables={"s": s_op},
                  record_every=100)
    drift = traj.observables["s"][-1] - traj.observables["s"][0]
    assert drift == pytest.approx(k * t_end, rel=0.01)


def test_unitarity_drift_thousand_steps():
    setup = BentCylinderSetup(n_theta=8, n_s=16, s_length=5.0)
    grid = setup.grid()
    H0, Hso, _, _ = bent_cylinder_operators(setup)
    pkt = gaussian_wavepacket(grid, (0.0, 2.5), (0.095, 1.3), 2.0, "up")
    traj = evolve(H0 + Hso, pkt, 5e-3, 1000, record_every=200)
    assert np.abs(traj.norms - traj.norms[0]).max() < 1e-10


def _two_packets():
    """A fast spin-up and a slow spin-down packet on a small bent cylinder."""
    setup = BentCylinderSetup(n_theta=16, n_s=64, s_length=10.0)
    H0, Hso, theta_op, ps_op = bent_cylinder_operators(setup)
    grid = H0.grid
    s_op = sp.kron(sp.diags(grid.mesh()[1].ravel()), sp.eye(2)).tocsr()
    packets = [gaussian_wavepacket(grid, (0.0, 3.0), (0.06, 1.0), k, spin)
               for k, spin in ((4.0, +1), (1.0, -1))]
    return H0 + Hso, packets, {"theta": theta_op, "p_s": ps_op, "s": s_op}


def test_block_evolve_matches_single_calls():
    H, packets, obs = _two_packets()
    block = evolve(H, packets, 2e-3, 60, observables=obs, record_every=5)
    assert len(block) == 2
    for pkt, traj in zip(packets, block):
        one = evolve(H, pkt, 2e-3, 60, observables=obs, record_every=5)
        assert np.array_equal(traj.times, one.times)
        for name in obs:
            diff = traj.observables[name] - one.observables[name]
            assert np.abs(diff).max() < 1e-10
        assert np.abs(traj.norms - traj.norms[0]).max() <= 1e-10
    assert np.array_equal(block.norms,
                          np.concatenate([t.norms for t in block]))


def test_block_evolve_stops_packets_independently():
    H, packets, obs = _two_packets()

    def passed(snap):
        return snap["s"] > 3.5

    fast, slow = evolve(H, packets, 2e-3, 100, observables=obs,
                        record_every=5, stop_when=passed)
    # the fast packet crosses s = 3.5 and stops; the slow one runs on
    assert passed({"s": fast.observables["s"][-1]})
    assert not passed({"s": fast.observables["s"][-2]})
    assert len(fast.times) < len(slow.times) == 21
    assert slow.times[-1] == pytest.approx(0.2)
    # dropping the stopped column leaves the other packet's steps intact
    for pkt, traj in zip(packets, (fast, slow)):
        alone = evolve(H, pkt, 2e-3, 100, observables=obs, record_every=5)
        n = len(traj.times)
        for name in obs:
            diff = traj.observables[name] - alone.observables[name][:n]
            assert np.abs(diff).max() < 1e-10


def test_force_equality_report_small_regime():
    rep = force_equality_report(BentCylinderSetup(), k_s=8.0)
    for s in (+1, -1):
        assert rep.rel_pm_vs_so[s] < 0.05
        assert rep.rel_vs_analytic[s] < 0.10
    # spin-down flips both expectations
    assert rep.f_pm[-1] == pytest.approx(-rep.f_pm[+1], rel=1e-6)
    assert rep.f_so[-1] == pytest.approx(-rep.f_so[+1], rel=1e-6)


def test_force_doubles_with_momentum():
    setup = BentCylinderSetup(n_s=768)   # keep k h small at k = 16
    r1 = force_equality_report(setup, k_s=8.0)
    r2 = force_equality_report(setup, k_s=16.0)
    ratio = r2.f_pm[+1] / r1.f_pm[+1]
    assert ratio == pytest.approx(2.0, rel=0.05)


def test_straightening_force_slope():
    # forces fall off like 1/R at fixed rho
    vals = []
    Rs = (100.0, 1000.0, 10000.0)
    for R in Rs:
        rep = force_equality_report(
            BentCylinderSetup(R=R, n_theta=16, n_s=128, s_length=15.0),
            k_s=8.0, widths=(0.05, 1.5))
        vals.append(abs(rep.f_pm[+1]))
    slope = np.polyfit(np.log(Rs), np.log(vals), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.2)


def test_spin_hall_deflections():
    out = spin_hall_run(BentCylinderSetup(n_theta=24, n_s=192, s_length=20.0),
                        k_s=8.0, widths=(0.033, 1.5), dt=1.6e-3, steps=150,
                        record_every=5)
    assert out["opposite_sign"]
    assert out["asymmetry"] < 0.05
    tr = out["trajectories"]["up"]
    assert np.abs(tr.norms - tr.norms[0]).max() < 1e-10
