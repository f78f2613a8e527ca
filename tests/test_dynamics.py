import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import spinsurf.dynamics as dynamics
import spinsurf.hamiltonian as hamiltonian
from spinsurf.dynamics import (BentCylinderSetup, analytic_force,
                               bent_cylinder_operators, evolve,
                               force_equality_report, force_operators,
                               gaussian_wavepacket, spin_hall_run)
from spinsurf.errors import (GridError, InvalidWindowError,
                             PacketTooNarrowError, SurfaceParameterError)
from spinsurf.frames import SIGMA1, SIGMA2
from spinsurf.hamiltonian import (Grid, GridGeometry, HermitianOperator,
                                  SpinorField, _fourier_blocks, assemble_H0,
                                  assemble_Hso, assemble_Heff,
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


def _walled_s_grid(setup):
    """The window grid of ``setup`` with hard walls in s as well."""
    return Grid.for_patch(setup.patch(), setup.n_theta, setup.n_s,
                          bc=("wall", "wall"), domain=setup.grid().domain)


def _closed_form_bent_operators(setup, grid, s_terms=True):
    """The bent cylinder's H0 and Hso on ``grid`` (the window, or the
    window walled in s) from its closed-form coefficients; without
    ``s_terms``, only their theta and on-site terms.

    With W = (R + rho cos theta)/R on the torus patch (theta, s):
    sqrt(g) = rho W, sqrt(g) g^{theta theta} = W/rho, sqrt(g) g^{ss} = rho/W,
    g^{12} = 0, w_theta = 0, w_s = -sin(theta)/(2R),
    K = cos(theta)/(rho (R + rho cos theta)),
    M = (1/rho + cos(theta)/(R + rho cos theta))/2,
    X^theta = -sigma_2/(2 rho^2),
    X^s = +(R cos theta / (2 (R + rho cos theta)^2)) sigma_1.
    """
    rho, R = setup.rho, setup.R

    def width(th):
        return (R + rho * np.cos(th)) / R

    th = grid.mesh()[0]
    th_half = [grid.half_mesh(axis)[0] for axis in (0, 1)]
    X = np.zeros((2, 2, 2) + th.shape, dtype=complex)
    X[0] = (-SIGMA2 / (2.0 * rho**2))[..., None, None]
    X[1] = SIGMA1[..., None, None] * (
        R * np.cos(th) / (2.0 * (R + rho * np.cos(th)) ** 2)) * s_terms
    geo = GridGeometry(
        sqrt_g=rho * width(th),
        K=np.cos(th) / (rho * (R + rho * np.cos(th))),
        M=0.5 * (1.0 / rho + np.cos(th) / (R + rho * np.cos(th))),
        c12=np.zeros_like(th), X=X,
        c=(width(th_half[0]) / rho, rho / width(th_half[1]) * s_terms),
        phase=(np.zeros_like(th_half[0]),
               grid.h2 * (-np.sin(th_half[1]) / (2.0 * R))))
    return build_h0_operator(grid, geo), build_soi_operator(grid, X)


def test_bent_operators_match_general_assembler():
    # the library's bent-cylinder operators (general route) against the
    # closed-form coefficients fed to the same stencil builders, on the
    # window and, through the assemblers, on the window walled in s
    setup = BentCylinderSetup(**SMALL)
    patch, walled = setup.patch(), _walled_s_grid(setup)
    for (H0b, Hsob), grid in (
            (bent_cylinder_operators(setup)[:2], setup.grid()),
            ((assemble_H0(patch, walled), assemble_Hso(patch, walled)),
             walled)):
        H0c, Hsoc = _closed_form_bent_operators(setup, grid)
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
                          bc=("wall", "periodic"),
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


def test_force_operators_match_dense_products():
    # theta_dot = -i [theta, H0 + Hso] and F_x = -i rho^2 [theta_dot, H_x]
    # from numpy products of the dense matrices, on a small window with
    # rho != 1
    setup = BentCylinderSetup(rho=1.5, **SMALL)
    H0, Hso, theta_op, _ = bent_cylinder_operators(setup)
    th, h0, hso = (op.matrix.toarray() for op in (theta_op, H0, Hso))
    theta_dot = -1j * (th @ (h0 + hso) - (h0 + hso) @ th)
    F_pm, F_so = force_operators(H0, Hso, theta_op, rho=setup.rho)
    for op, h in ((F_pm, h0), (F_so, hso)):
        dense = -1j * setup.rho**2 * (theta_dot @ h - h @ theta_dot)
        assert np.abs(op.matrix.toarray() - dense).max() \
            <= 1e-12 * np.abs(dense).max()


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


@pytest.mark.parametrize("arg,value", [("dt", 0.0), ("dt", -1e-3),
                                       ("dt", float("nan")), ("steps", 0),
                                       ("steps", -3), ("record_every", 0)])
def test_evolve_rejects_invalid_stepping(arg, value):
    # steps = -3 once returned the initial state, dt = 0 a frozen one and
    # record_every = 0 a ZeroDivisionError
    setup = BentCylinderSetup(**SMALL)
    grid = setup.grid()
    pkt = gaussian_wavepacket(grid, (0.0, 5.0), (0.05, 1.5), 2.0, "up")
    zero = HermitianOperator(
        sp.csr_matrix((grid.dim, grid.dim), dtype=complex), grid, ("zero",))
    kwargs = {"dt": 0.01, "steps": 20, "record_every": 5, arg: value}
    with pytest.raises(ValueError, match=arg):
        evolve(zero, pkt, **kwargs)


def test_evolve_rejects_fields_off_the_operator_grid():
    # a 32x16 field has the dim of a 16x32 operator: stepped with it, its
    # norm would be recorded with the other grid's cell.  So has the
    # window at n_theta = 48, n_s = 80 that of the default 40 x 96 one,
    # whose operator and split would read it by the wrong lines
    p = make_surface("plane")
    g = Grid.for_patch(p, 16, 32)
    H = assemble_H0(p, g)
    for fields in ([SpinorField.zeros(g),
                    SpinorField.zeros(Grid.for_patch(p, 32, 16))],
                   SpinorField.zeros(Grid.for_patch(p, 16, 16))):
        with pytest.raises(GridError):
            evolve(H, fields, 0.01, 2)
    window = BentCylinderSetup()
    other = BentCylinderSetup(n_theta=48, n_s=80).grid()
    assert other.dim == window.grid().dim
    H0, Hso, _, _ = bent_cylinder_operators(window)
    h0, hso = dynamics._window_blocks(window)
    for op in (H0 + Hso, h0 + hso):
        with pytest.raises(GridError):
            evolve(op, SpinorField.zeros(other), 0.01, 2)


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


def test_block_route_stop_leaves_the_other_packet_as_run_alone():
    H, packets, obs = _two_packets()

    def passed(snap):
        return snap["s"] > 3.5

    fast, slow = evolve(H, packets, 2e-3, 100, observables=obs,
                        record_every=5, stop_when=passed)
    assert len(fast.times) < len(slow.times) == 21
    # dropping the stopped column leaves the other packet's records as
    # run alone
    for pkt, traj in zip(packets, (fast, slow)):
        alone = evolve(H, pkt, 2e-3, 100, observables=obs, record_every=5)
        n = len(traj.times)
        assert np.array_equal(traj.times, alone.times[:n])
        assert np.abs(traj.norms - alone.norms[:n]).max() < 1e-13
        for name in obs:
            diff = traj.observables[name] - alone.observables[name][:n]
            assert np.abs(diff).max() < 1e-12


def test_evolve_rejects_an_operator_that_does_not_split():
    # the window's H0 + Hso without its grid, walled in s, and with a
    # potential that depends on s: evolve has no route for them
    setup = BentCylinderSetup(**SMALL)
    H0, Hso, _, _ = bent_cylinder_operators(setup)
    H = H0 + Hso
    patch, walled = setup.patch(), _walled_s_grid(setup)
    ramp = np.cos(2.0 * math.pi * H.grid.mesh()[1] / setup.s_length)
    pkt = gaussian_wavepacket(H.grid, (0.0, 5.0), (0.05, 1.5), 2.0, "up")
    for op in (HermitianOperator(H.matrix, None, H.terms),
               assemble_H0(patch, walled) + assemble_Hso(patch, walled),
               H + dynamics._spin_diagonal(H.grid, "ramp", ramp, ramp)):
        with pytest.raises(GridError, match="does not split"):
            evolve(op, pkt, 1e-3, 10)


def _cayley_records(H, pkt, dt, steps, observables, record_every):
    """Observables of implicit-midpoint (Cayley) steps psi' = 2 A^-1 psi -
    psi, A = 1 + i dt H / 2, at steps 0, record_every, ..., steps: second
    order in dt."""
    lu = spla.splu((sp.identity(H.dim) + 0.5j * dt * H.matrix).tocsc())
    mats = {name: getattr(op, "matrix", op)
            for name, op in observables.items()}
    psi = pkt.flat()
    records = {name: [] for name in mats}
    for step in range(steps + 1):
        if step:
            psi = 2.0 * lu.solve(psi) - psi
        if step % record_every == 0:
            for name, mat in mats.items():
                records[name].append(np.vdot(psi, mat @ psi).real
                                     / np.vdot(psi, psi).real)
    return {name: np.array(values) for name, values in records.items()}


def test_cayley_converges_to_the_block_route_at_second_order():
    # Cayley steps of the window's operator against the exact block
    # route.  The packet vanishes at the theta walls like the lowest
    # transverse mode: a Gaussian cut off by the walls holds modes with
    # E dt >> 1, which lowers the observed order (to ~1.1 for widths
    # (0.05, 1.3) here).
    setup = BentCylinderSetup(**SMALL)
    H0, Hso, theta_op, ps_op = bent_cylinder_operators(setup)
    H = H0 + Hso
    grid = H.grid
    Q1, Q2 = grid.mesh()
    values = np.zeros((grid.n1, grid.n2, 2), dtype=complex)
    values[:, :, 0] = (np.cos(math.pi * Q1 / (2.0 * setup.theta0))
                       * np.exp(-(Q2 - 5.0)**2 / (4.0 * 0.8**2) + 2j * Q2))
    pkt = SpinorField(grid, values).normalized()
    s_op = sp.kron(sp.diags(Q2.ravel()), sp.eye(2)).tocsr()
    obs = {"theta": theta_op, "p_s": ps_op, "s": s_op}
    errors = []
    for dt in (2e-3, 1e-3, 5e-4):
        steps = int(round(0.4 / dt))
        exact = evolve(H, pkt, dt, steps, observables=obs,
                       record_every=steps // 8)
        cayley = _cayley_records(H, pkt, dt, steps, obs, steps // 8)
        assert len(exact.times) == 9
        errors.append(max(np.abs(exact.observables[k] - cayley[k]).max()
                          for k in obs))
    order = np.polyfit(np.log([1.0, 0.5, 0.25]), np.log(errors), 1)[0]
    assert order == pytest.approx(2.0, abs=0.2)


def _window_operator(n_s, theta_c, zeeman=0.0, **overrides):
    """H0 + Hso (+ zeeman sigma_3) of a small bent window, n_theta = 8
    unless ``overrides`` set it or other ``BentCylinderSetup`` fields."""
    setup = BentCylinderSetup(**{"n_theta": 8, "n_s": n_s, "s_length": 6.0,
                                 "theta_c": theta_c, **overrides})
    H0, Hso, theta_op, _ = bent_cylinder_operators(setup)
    H = H0 + Hso
    if zeeman:
        ones = np.ones((setup.n_theta, n_s))
        H = H + dynamics._spin_diagonal(H.grid, "sigma3", zeeman * ones,
                                        -zeeman * ones)
    return H, theta_op


def _assert_block_route_matches(H, theta_op, kept, exact):
    """``evolve`` of two random spinors against ``exact(t, psi)`` =
    e^{-iHt} psi, with ``kept`` blocks diagonalized.  A random spinor has
    weight on every block and on both spins."""
    split = _fourier_blocks(H)
    assert len(dynamics._block_eigh(split)[0]) == kept
    rng = np.random.default_rng(5)
    grid = H.grid
    pkts = [SpinorField(grid, rng.standard_normal((grid.n1, grid.n2, 2))
                        + 1j * rng.standard_normal((grid.n1, grid.n2, 2)))
            for _ in range(2)]
    probe = rng.standard_normal((H.dim, H.dim)) \
        + 1j * rng.standard_normal((H.dim, H.dim))
    probe = probe + probe.conj().T
    # theta is read from |psi|^2, the dense probe and its sparse band
    # from products with the state
    obs = {"theta": theta_op, "probe": probe,
           "band": sp.csr_matrix(np.triu(np.tril(probe, 1), -1))}
    dt, steps, every = 2e-3, 20, 5
    trajs = evolve(H, pkts, dt, steps, observables=obs, record_every=every)
    for pkt, traj in zip(pkts, trajs):
        for i, t in enumerate(traj.times):
            assert t == pytest.approx(i * every * dt)
            psi = exact(t, pkt.flat())
            norm = np.vdot(psi, psi).real
            assert abs(traj.norms[i] - math.sqrt(grid.h1 * grid.h2 * norm)) \
                <= 1e-12 * traj.norms[0]
            for name, op in obs.items():
                mat = getattr(op, "matrix", op)
                value = np.vdot(psi, mat @ psi).real / norm
                scale = np.abs(mat).max()
                assert abs(traj.observables[name][i] - value) <= 1e-12 * scale


@pytest.mark.parametrize("n_s,theta_c,zeeman,kept", [
    (16, 0.0, 0.0, 9), (16, math.pi, 0.0, 9),      # n/2 pairs with itself
    (15, 0.0, 0.0, 8), (15, math.pi, 0.0, 8),
    (16, 0.0, 3.0, 16), (15, math.pi, 3.0, 15)])   # sigma_3: T-odd
def test_block_route_matches_the_dense_exponential(n_s, theta_c, zeeman,
                                                   kept):
    # Kramers pairs diagonalize blocks 0 .. n // 2 and apply each V_m to
    # blocks m and n - m; a T-odd term takes all n blocks
    H, theta_op = _window_operator(n_s, theta_c, zeeman)
    assert _fourier_blocks(H).kramers == (not zeeman)
    dense = H.matrix.toarray()
    _assert_block_route_matches(
        H, theta_op, kept,
        lambda t, psi: scipy.linalg.expm(-1j * t * dense) @ psi)


def test_block_route_matches_the_exponential_above_192_rows():
    # blocks of 2 n_theta = 194 rows, above the whole-matrix dense cutoff
    # that once also capped the blocks.  A wide tube keeps ||H|| small, so
    # e^{-iHt} psi comes from SciPy's truncated Taylor series
    # (expm_multiply) on the sparse matrix, not a dense exponential of the
    # dim-1552 matrix.
    H, theta_op = _window_operator(8, 0.0, n_theta=97, rho=20.0, R=400.0)
    assert _fourier_blocks(H).lines.shape[1] == 194
    _assert_block_route_matches(
        H, theta_op, 5,
        lambda t, psi: spla.expm_multiply(-1j * t * H.matrix, psi))


def test_complex_blocks_match_the_dense_exponential():
    # complex blocks: the window with an imaginary on-site sigma_y term
    # (time reversal broken, all n blocks diagonalized), and the sheared
    # plane, whose g^{12} cross term makes H_{+1} antisymmetric (Kramers
    # pairs, n // 2 + 1 blocks)
    H, theta_op = _window_operator(16, 0.0)
    sigma_y = 0.05 * np.array([[0.0, -1j], [1j, 0.0]])
    H = H + HermitianOperator(sp.kron(sp.eye(H.dim // 2), sigma_y,
                                      format="csr"), H.grid, ("sigma_y",))
    plane = make_surface("generic", x="q1 + 0.3*q2", y="q2", z="0",
                         domain=((0.0, 1.0), (0.0, 1.0)),
                         periodic=(True, True))
    grid = Grid.for_patch(plane, 12, 8)
    q2 = grid.mesh()[1]
    for op, obs, kept in (
            (H, theta_op, 16),
            (assemble_Heff(plane, grid),
             dynamics._spin_diagonal(grid, "q2", q2, q2), 7)):
        split = _fourier_blocks(op)
        assert split.block(1).dtype == np.complex128
        assert dynamics._block_eigh(split)[1].dtype == np.complex128
        dense = op.matrix.toarray()
        _assert_block_route_matches(
            op, obs, kept,
            lambda t, psi: scipy.linalg.expm(-1j * t * dense) @ psi)


def test_real_blocks_evolve_as_the_complex_route(monkeypatch):
    # the window's blocks are real: a real eigenvector stack and real
    # GEMMs, against the complex route the same operator takes when its
    # blocks are formed complex
    H, packets, obs = _two_packets()
    assert dynamics._block_eigh(_fourier_blocks(H))[1].dtype == np.float64
    real = evolve(H, packets, 2e-3, 60, observables=obs, record_every=5)
    monkeypatch.setattr(hamiltonian._FourierBlocks, "real_blocks",
                        property(lambda self: False))
    assert dynamics._block_eigh(_fourier_blocks(H))[1].dtype \
        == np.complex128
    cplx = evolve(H, packets, 2e-3, 60, observables=obs, record_every=5)
    for a, b in zip(real, cplx):
        assert np.array_equal(a.times, b.times)
        assert np.abs(a.norms - b.norms).max() <= 1e-12 * a.norms[0]
        for name, op in obs.items():
            scale = abs(getattr(op, "matrix", op)).max()
            diff = a.observables[name] - b.observables[name]
            assert np.abs(diff).max() <= 1e-12 * scale, name


def test_kramers_test_accepts_time_reversal_invariant_blocks():
    # the bent window and torus H_eff pair block n - m with block m; a
    # sigma_3 term breaks time reversal and the pairing
    torus = make_surface("torus", rho=1.0, R=3.0)
    heff = assemble_Heff(torus, Grid.for_patch(torus, 8, 16))
    for op in (heff, _window_operator(16, 0.0)[0],
               _window_operator(15, math.pi)[0]):
        split = _fourier_blocks(op)
        assert split.kramers
        J = np.kron(np.eye(split.lines.shape[1] // 2), [[0, 1], [-1, 0]])
        for m in range(split.n):
            mirror = J @ split.block(m).conj() @ J.T
            assert np.abs(mirror - split.block(-m % split.n)).max() \
                <= 1e-12 * np.abs(split.block(m)).max()
    assert not _fourier_blocks(_window_operator(16, 0.0, 1e-6)[0]).kramers


def test_time_reverse_inverts_and_squares_to_minus_one():
    rng = np.random.default_rng(2)
    c = rng.standard_normal((3, 8, 2)) + 1j * rng.standard_normal((3, 8, 2))
    reverse = _fourier_blocks(_window_operator(16, 0.0)[0]).time_reverse
    assert np.array_equal(reverse(reverse(c), inverse=True), c)
    assert np.array_equal(reverse(reverse(c)), -c)
    # J = i sigma_y per node: (up, down) -> (down, -up), then conjugated
    assert np.array_equal(reverse(c)[:, 0::2], c[:, 1::2].conj())
    assert np.array_equal(reverse(c)[:, 1::2], -c[:, 0::2].conj())


def _both_splits(n_s):
    """(three-point, spectral) splits of H0 on one small window."""
    setup = BentCylinderSetup(n_theta=8, n_s=n_s, s_length=6.0)
    return (_fourier_blocks(bent_cylinder_operators(setup)[0]),
            dynamics._window_blocks(setup)[0])


@pytest.mark.parametrize("n_s", [15, 16, 96, 384])
def test_block_symbols_have_exact_parity(n_s):
    # kramers and partners pair block n - m with block m: p(n - m) =
    # -p(m) and q(n - m) = q(m) bitwise, the Nyquist block (p = 0) its
    # own partner
    mirror = -np.arange(n_s) % n_s
    for split in _both_splits(n_s):
        p, q = split.symbols
        assert np.array_equal(p[mirror], -p)
        assert np.array_equal(q[mirror], q)


def test_splits_of_different_symbols_do_not_add():
    three_point, spectral = _both_splits(16)
    with pytest.raises(GridError, match="different splits"):
        three_point + spectral


@pytest.mark.parametrize("theta_c", [0.0, math.pi])
def test_force_report_equals_the_commutator_expectations(theta_c):
    # the report's per-block force products, run on the three-point splits
    # of the window's H0 and Hso, against <psi|F|psi> of the explicit
    # commutators of force_operators on the same operators, at n_s = 384
    # (at theta_c = pi on a 20x160 grid the explicit products' own
    # round-off of theta ~ pi reaches 2e-9)
    setup = BentCylinderSetup(theta_c=theta_c, n_s=384)
    H0, Hso, theta_op, _ = bent_cylinder_operators(setup)
    h0, hso = _fourier_blocks(H0), _fourier_blocks(Hso)
    # three-point splits: p_s has the centred difference's symbol
    m = np.arange(setup.n_s)
    for split in (h0, hso):
        assert np.abs(split.momenta() - np.sin(2.0 * math.pi * m / setup.n_s)
                      / H0.grid.h2).max() <= 1e-13 / H0.grid.h2
    F_pm, F_so = force_operators(H0, Hso, theta_op, rho=setup.rho)
    pkts = [gaussian_wavepacket(H0.grid, (theta_c, setup.s_length / 3.0),
                                (0.02, 2.0), 8.0, spin) for spin in (+1, -1)]
    theta = theta_op.matrix.diagonal().real[h0.lines[0]]
    coeffs = h0.to_blocks(np.column_stack([p.flat() for p in pkts]))
    forces = dynamics._block_forces(h0, hso, theta, coeffs, setup.rho)
    for col, pkt in enumerate(pkts):
        for got, op in zip(forces[:, col], (F_pm, F_so)):
            want = pkt.expectation(op).real
            assert abs(got - want) <= 1e-9 * abs(want)


def _fourier_matrices(n, length):
    """The periodic Fourier differentiation matrices D1, D2 on n points
    of [0, length) (Trefethen, Spectral Methods in MATLAB, ch. 3): exact
    on every resolved wave, and on the Nyquist wave of even n D1 gives 0
    and D2 -(pi n / length)^2."""
    h = 2.0 * math.pi / n
    j = np.arange(n)
    diff = j[:, None] - j[None, :]
    off = diff != 0
    sign = np.where(diff % 2 == 0, 1.0, -1.0)
    x = np.where(off, 0.5 * h * diff, 1.0)
    if n % 2 == 0:
        D1 = np.where(off, 0.5 * sign / np.tan(x), 0.0)
        D2 = np.where(off, -0.5 * sign / np.sin(x) ** 2,
                      -math.pi**2 / (3.0 * h**2) - 1.0 / 6.0)
    else:
        D1 = np.where(off, 0.5 * sign / np.sin(x), 0.0)
        D2 = np.where(off, -0.5 * sign / (np.sin(x) * np.tan(x)),
                      -math.pi**2 / (3.0 * h**2) + 1.0 / 12.0)
    scale = 2.0 * math.pi / length
    return D1 * scale, D2 * scale**2


def _fourier_window(setup):
    """Dense H0 and Hso of the window with Fourier derivatives along s,
    from the closed-form coefficients: theta terms three-point, and per
    theta node (1/2) g^{ss} (-D2 - 2 i sigma_3 w_s D1 + w_s^2) and
    i X^s D1, with g^{ss} = R^2 / (R + rho cos theta)^2,
    w_s = -sin(theta) / (2R) and X^s = R cos(theta) /
    (2 (R + rho cos theta)^2) sigma_1."""
    grid = setup.grid()
    rho, R = setup.rho, setup.R
    th = grid.q1
    H0, Hso = (op.matrix.toarray() for op in
               _closed_form_bent_operators(setup, grid, s_terms=False))
    D1, D2 = _fourier_matrices(grid.n2, setup.s_length)
    I_s, I_2 = np.eye(grid.n2), np.eye(2)
    sigma3 = np.diag([1.0, -1.0])
    g_ss = R**2 / (R + rho * np.cos(th)) ** 2
    w_s = -np.sin(th) / (2.0 * R)
    x_s = R * np.cos(th) / (2.0 * (R + rho * np.cos(th)) ** 2)
    for i in range(grid.n1):
        node = np.zeros((grid.n1, grid.n1))
        node[i, i] = 1.0
        H0 = H0 + 0.5 * g_ss[i] * np.kron(node, (
            np.kron(-D2 + w_s[i]**2 * I_s, I_2)
            - 2j * w_s[i] * np.kron(D1, sigma3)))
        Hso = Hso + 1j * x_s[i] * np.kron(node, np.kron(D1, SIGMA1))
    return H0, Hso


@pytest.mark.parametrize("n_s", [16, 17])
@pytest.mark.parametrize("theta_c", [0.0, math.pi])
def test_spectral_blocks_are_the_fourier_operator_blocks(n_s, theta_c):
    # each spectral block of H0, Hso and their sum is the Fourier block
    # lift(1, m)^H H lift(1, m) of the dense operator with the Fourier
    # differentiation matrices along s; it is Hermitian and real, and
    # block n - m is the time reverse of block m, the Nyquist block of
    # n_s = 16 (its own partner) included.  The symbol of p_s on each
    # block is that of -i D1
    setup = BentCylinderSetup(n_theta=8, n_s=n_s, s_length=6.0,
                              theta_c=theta_c)
    h0, hso = dynamics._window_blocks(setup)
    H0, Hso = _fourier_window(setup)
    b = h0.lines.shape[1]
    J = np.kron(np.eye(b // 2), [[0, 1], [-1, 0]])
    p_s = np.kron(np.eye(setup.n_theta), np.kron(
        -1j * _fourier_matrices(n_s, setup.s_length)[0], np.eye(2)))
    for m, k in enumerate(h0.momenta()):
        lift = h0.lift(np.eye(b), m)
        assert np.abs(lift.conj().T @ p_s @ lift - k * np.eye(b)).max() \
            <= 1e-12 * np.abs(h0.momenta()).max(), m
    # the wrapped wavenumber, 0 on the Nyquist block of n_s = 16
    wrapped = np.fft.fftfreq(n_s, setup.s_length / n_s) * (2.0 * math.pi)
    if n_s % 2 == 0:
        wrapped[n_s // 2] = 0.0
    for split in (h0, hso, h0 + hso):
        assert np.abs(split.momenta() - wrapped).max() \
            <= 1e-13 * np.abs(wrapped).max()
    for split, dense in ((h0, H0), (hso, Hso), (h0 + hso, H0 + Hso)):
        assert split.real_blocks and split.kramers
        assert split.kept == n_s // 2 + 1
        for m in range(n_s):
            block = split.block(m)
            lift = split.lift(np.eye(b), m)
            want = lift.conj().T @ dense @ lift
            scale = np.abs(want).max()
            assert block.dtype == np.float64
            assert np.abs(block - want).max() <= 1e-12 * scale, m
            assert np.abs(block - block.T).max() <= 1e-12 * scale, m
            mirror = J @ block.conj() @ J.T
            assert np.abs(mirror - split.block(-m % n_s)).max() \
                <= 1e-12 * scale, m


def test_spectral_block_forces_equal_the_fourier_commutators():
    # the block force route on the spectral blocks against <psi|F|psi> of
    # the explicit commutators of the dense Fourier window, for both spins
    # and a packet with weight on every block
    setup = BentCylinderSetup(n_theta=8, n_s=16, s_length=6.0, rho=1.5,
                              R=12.0, theta0=0.05)
    h0, hso = dynamics._window_blocks(setup)
    H0, Hso = _fourier_window(setup)
    grid = setup.grid()
    th = np.diag(np.repeat(grid.mesh()[0].ravel(), 2))
    H = H0 + Hso
    theta_dot = -1j * (th @ H - H @ th)
    rng = np.random.default_rng(3)
    psi = (rng.standard_normal((grid.dim, 2))
           + 1j * rng.standard_normal((grid.dim, 2)))
    q1 = grid.mesh()[0]
    forces = dynamics._block_forces(h0, hso, h0.rows(q1, q1),
                                    h0.to_blocks(psi), setup.rho)
    for col in range(2):
        v = psi[:, col]
        for got, h in zip(forces[:, col], (H0, Hso)):
            F = -1j * setup.rho**2 * (theta_dot @ h - h @ theta_dot)
            want = (np.vdot(v, F @ v) / np.vdot(v, v)).real
            assert abs(got - want) <= 1e-9 * np.abs(F).max()


def test_spectral_window_converges_in_s():
    # with the s axis exact the default n_s = 96 is converged: the
    # deflection, F_pm and <p_s> agree with n_s = 192 to 1e-6, and <p_s>
    # equals k_s (the three-point s axis read 7.488 at n_s = 384)
    reports = []
    for n_s in (96, 192):
        setup = BentCylinderSetup(n_s=n_s)
        rep = force_equality_report(setup, k_s=8.0)
        out = spin_hall_run(setup, k_s=8.0)
        reports.append((out["deflection"]["up"], out["deflection"]["down"],
                        rep.f_pm[+1], rep.f_pm[-1], rep.mean_ps[+1],
                        rep.mean_ps[-1]))
    assert BentCylinderSetup().n_s == 96
    for a, b in zip(*reports):
        assert abs(a - b) <= 1e-6 * abs(b)
    for ps in reports[0][4:]:
        assert ps == pytest.approx(8.0, rel=1e-6)


@pytest.mark.parametrize("n_s", [96, 192])
def test_default_packets_carry_k_s_across_the_seam(n_s):
    # the default packets start at s = 10 with sigma_s = 2, so their tail
    # reaches the seam s = 0 = s_length at 1.9e-3 of the peak; summed over
    # the periodic images they are smooth there and <p_s> is k_s to
    # round-off on the exact s axis (cut at the seam it read 7.9999993 at
    # n_s = 96)
    rep = force_equality_report(BentCylinderSetup(n_s=n_s), k_s=8.0)
    for s in (+1, -1):
        assert rep.mean_ps[s] == pytest.approx(8.0, rel=1e-9)
    # moving the centre by the period s_length = 30 gives the same state
    # (up to the phase e^{i k_s 30}), and the walled theta axis keeps the
    # Gaussian profile
    grid = BentCylinderSetup(n_s=n_s).grid()
    a, b = (gaussian_wavepacket(grid, (0.0, s_c), (0.02, 2.0), 8.0, +1)
            for s_c in (1.0, 31.0))
    assert np.abs(a.values * np.exp(240j) - b.values).max() \
        <= 1e-12 * np.abs(a.values).max()
    theta = grid.q1[:, None]
    envelope = np.exp(-theta**2 / (4.0 * 0.02**2))
    ratio = a.values[:, :, 0] / envelope
    assert np.abs(ratio - ratio[grid.n1 // 2]).max() \
        <= 1e-12 * np.abs(ratio).max()


def test_block_observables_match_the_operator_route():
    # evolve on a split reads theta and sigma_3 from the block
    # coefficients, p_s from the symbol of each block and s from the line
    # densities; on the three-point split of the window they equal the
    # records of the operator route with the CSR observables
    H, packets, obs = _two_packets()
    grid = H.grid
    ones = np.ones((grid.n1, grid.n2))
    obs["sigma3"] = dynamics._spin_diagonal(grid, "sigma3", ones, -ones)
    split = _fourier_blocks(H)
    theta = grid.mesh()[0]
    kinds = {"theta": ("rows", split.rows(theta, theta)),
             "p_s": ("blocks", split.momenta()), "s": ("lines", grid.q2),
             "sigma3": ("rows", split.rows(ones, -ones))}
    for stop in (None, lambda snap: snap["s"] > 3.5):
        ops = evolve(H, packets, 2e-3, 100, observables=obs, record_every=5,
                     stop_when=stop)
        blocks = evolve(split, packets, 2e-3, 100, observables=kinds,
                        record_every=5, stop_when=stop)
        for a, b in zip(ops, blocks):
            assert np.array_equal(a.times, b.times)
            assert np.abs(a.norms - b.norms).max() <= 1e-13
            for name in kinds:
                diff = a.observables[name] - b.observables[name]
                assert np.abs(diff).max() <= 1e-12 * max(
                    1.0, np.abs(a.observables[name]).max()), name
    with pytest.raises(ValueError, match="kind"):
        evolve(split, packets, 2e-3, 10, observables={"x": ("nodes", ones)})


def test_spectral_split_needs_a_periodic_axis_and_geometry_along_it():
    setup = BentCylinderSetup(**SMALL)
    patch, grid = setup.patch(), setup.grid()
    geo = hamiltonian._grid_geometry(patch, grid)
    with pytest.raises(GridError, match="periodic"):
        hamiltonian._spectral_blocks(grid, geo, 0)
    # the torus's tube angle: the geometry varies along it
    torus = make_surface("torus", rho=1.0, R=3.0)
    tgrid = Grid.for_patch(torus, 16, 16)
    with pytest.raises(GridError, match="varies"):
        hamiltonian._spectral_blocks(
            tgrid, hamiltonian._grid_geometry(torus, tgrid), 0)
    # the sheared plane: its g^{12} cross term couples the axes
    plane = make_surface("generic", x="q1 + 0.3*q2", y="q2", z="0",
                         domain=((0.0, 1.0), (0.0, 1.0)),
                         periodic=(True, True))
    pgrid = Grid.for_patch(plane, 12, 8)
    with pytest.raises(GridError, match="cross term"):
        hamiltonian._spectral_blocks(
            pgrid, hamiltonian._grid_geometry(plane, pgrid), 1)


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
