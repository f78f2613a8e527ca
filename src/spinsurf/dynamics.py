"""Bent-cylinder dynamics: forces from commutators and spin-Hall wavepackets.

The bent cylinder is the torus patch in coordinates (theta, s) restricted
to a small angular window theta in [theta_c - theta0, theta_c + theta0]
(hard walls), with theta_c = 0 the outer (K > 0) side and theta_c = pi
the inner (K < 0) side.  Its H0 and Hso come from the general route: one
geometry pass of the torus patch on the window grid, fed to the same
stencil builders as any other surface.  The closed-form coefficients
(sqrt(g) = rho (R + rho cos theta)/R, w_s = -sin(theta)/(2R), ...) are
kept in the test suite as the oracle these operators are checked against.

Heisenberg forces: theta_dot = -i [theta, H], then
theta_ddot_pm = -i [theta_dot, H0] and theta_ddot_so = -i [theta_dot, Hso];
F = m rho^2 theta_ddot.  For sigma_3-polarized packets the two routes give
equal Lorentz-like forces, opposite for the two spin species.
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
from .frames import SIGMA3
from .hamiltonian import (Grid, HermitianOperator, SpinorField,
                          _check_hermitian, _factor_shifted, _grid_geometry,
                          build_h0_operator, build_soi_operator)
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
    """Geometry, window, and grid of a bent-cylinder experiment."""

    rho: float = 1.0
    R: float = 20.0
    theta0: float = 0.1
    theta_c: float = 0.0
    s_length: float = 30.0
    n_theta: int = 40
    n_s: int = 384
    bc_s: str = "wall"

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
            bc=("wall", self.bc_s),
            domain=((self.theta_c - self.theta0, self.theta_c + self.theta0),
                    (0.0, self.s_length)))


def bent_cylinder_operators(setup: BentCylinderSetup):
    """(H0, Hso, theta_op, p_s op) on the bent-cylinder window grid."""
    patch, grid = setup.patch(), setup.grid()
    geo = _grid_geometry(patch, grid)
    H0 = build_h0_operator(grid, geo)
    _check_hermitian(H0.matrix, "bent H0")
    Hso = build_soi_operator(grid, geo.X)
    _check_hermitian(Hso.matrix, "bent Hso")
    theta_op = _diagonal_operator(grid, grid.mesh()[0])
    ps_op = _momentum_s_operator(grid)
    return H0, Hso, theta_op, ps_op


def _diagonal_operator(grid: Grid, values) -> HermitianOperator:
    v = np.repeat(np.asarray(values, dtype=float).ravel(), 2)
    return HermitianOperator(matrix=sp.diags(v).tocsr(), grid=grid,
                             terms=("diagonal",))


def _momentum_s_operator(grid: Grid) -> HermitianOperator:
    """-i d_s by centered differences (per spin component)."""
    fwd = sp.eye(grid.n2, k=1)
    if grid.bc[1] == "periodic":
        fwd = fwd + sp.eye(grid.n2, k=1 - grid.n2)
    d_s = sp.kron(sp.eye(grid.n1), (fwd - fwd.T) * (-1j / (2.0 * grid.h2)))
    return HermitianOperator(matrix=sp.kron(d_s, sp.eye(2), format="csr"),
                             grid=grid, terms=("p_s",))


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
    f_pm = (rho**2) * (-1j) * (theta_dot @ h0 - h0 @ theta_dot)
    f_so = (rho**2) * (-1j) * (theta_dot @ hso - hso @ theta_dot)
    grid = H0.grid
    return (HermitianOperator(matrix=f_pm.tocsr(), grid=grid, terms=("F_pm",)),
            HermitianOperator(matrix=f_so.tocsr(), grid=grid, terms=("F_so",)))


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
    fixes the sigma_3 polarization.  Widths below 4 grid spacings raise
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
    Q1, Q2 = grid.mesh()
    envelope = np.exp(-(Q1 - center[0])**2 / (4.0 * s_th**2)
                      - (Q2 - center[1])**2 / (4.0 * s_s**2))
    phase = np.exp(1j * k_s * Q2)
    values = np.zeros((grid.n1, grid.n2, 2), dtype=complex)
    values[:, :, spin_idx] = envelope * phase
    return SpinorField(grid, values).normalized()


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


def evolve(op: HermitianOperator, fields, dt: float, steps: int,
           observables: Optional[dict] = None, record_every: int = 1,
           stop_when=None):
    """Implicit-midpoint (Cayley) unitary evolution, norm preserving.

    Steps psi' = (1 + i dt H/2)^{-1} (1 - i dt H/2) psi = 2 A^{-1} psi - psi
    with A = 1 + i dt H/2 factored once.  ``fields`` is one SpinorField or
    a sequence of them on one grid; the running packets advance together
    as one multi-column solve.  Accuracy requires dt * E of the occupied
    modes to be small; stability is unconditional.  Observables is a dict
    name -> operator; ``stop_when(obs_snapshot)`` may end a packet's run
    early (the ballistic-window rule) while the others keep stepping.
    Returns a Trajectory, or Trajectories for a sequence of fields.
    """
    single = isinstance(fields, SpinorField)
    fields = [fields] if single else list(fields)
    lu = _factor_shifted(op.matrix, 1.0, scale=0.5j * dt)
    mats = {k: obs.matrix if isinstance(obs, HermitianOperator) else obs
            for k, obs in (observables or {}).items()}
    cell = fields[0].grid.h1 * fields[0].grid.h2
    psi = np.column_stack([f.flat() for f in fields])
    logs = [[] for _ in fields]           # per packet: (t, norm, snapshot)
    active = list(range(len(fields)))     # packet of each column of psi

    def record(t):
        sq = np.einsum("ij,ij->j", psi.conj(), psi).real
        values = {k: np.einsum("ij,ij->j", psi.conj(), m @ psi).real / sq
                  for k, m in mats.items()}
        for col, p in enumerate(active):
            logs[p].append((t, math.sqrt(cell * sq[col]),
                            {k: float(v[col]) for k, v in values.items()}))

    record(0.0)
    for step in range(1, steps + 1):
        psi = 2.0 * lu.solve(psi) - psi
        if step % record_every == 0 or step == steps:
            record(step * dt)
            if stop_when is not None:
                keep = [c for c, p in enumerate(active)
                        if not stop_when(logs[p][-1][2])]
                psi, active = psi[:, keep], [active[c] for c in keep]
                if not active:
                    break
    trajs = [Trajectory(times=np.array([r[0] for r in log]),
                        norms=np.array([r[1] for r in log]),
                        observables={k: np.array([r[2][k] for r in log])
                                     for k in mats})
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
        def keyed(d):
            return {("up" if s > 0 else "down"): d[s] for s in (+1, -1)}
        return {
            "F_pm": keyed(self.f_pm), "F_so": keyed(self.f_so),
            "analytic_each": keyed(self.analytic_each),
            "analytic_total": keyed(self.analytic_total),
            "rel_pm_vs_so": keyed(self.rel_pm_vs_so),
            "rel_vs_analytic": keyed(self.rel_vs_analytic),
            "mean_theta": keyed(self.mean_theta),
            "mean_ps": keyed(self.mean_ps),
        }


def force_equality_report(setup: BentCylinderSetup, k_s: float = 8.0,
                          widths=(0.02, 2.0), s_center: Optional[float] = None
                          ) -> ForceReport:
    """Compare <F_pm> and <F_so> on sigma_3-polarized packets.

    Builds the four operators, prepares one packet per spin species at
    the window center, and reports the matrix expectation values next to
    the closed-form prediction evaluated at (<theta>, <p_s>).
    """
    H0, Hso, theta_op, ps_op = bent_cylinder_operators(setup)
    F_pm, F_so = force_operators(H0, Hso, theta_op, rho=setup.rho)
    grid = H0.grid
    if s_center is None:
        s_center = setup.s_length / 3.0

    f_pm, f_so, ana_each, ana_tot = {}, {}, {}, {}
    rel_eq, rel_ana, mean_th, mean_ps = {}, {}, {}, {}
    for spin in (+1, -1):
        pkt = gaussian_wavepacket(grid, (setup.theta_c, s_center), widths,
                                  k_s, spin, rho=setup.rho)
        th = pkt.expectation(theta_op).real
        ps = pkt.expectation(ps_op).real
        fp = pkt.expectation(F_pm).real
        fs = pkt.expectation(F_so).real
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
                  record_every: int = 5, s_center: Optional[float] = None):
    """Evolve spin-up and spin-down packets; report the theta deflections.

    The measured interval follows the ballistic-window rule: recording
    stops once the packet has traveled 10 s-widths or its center comes
    within 5 widths of an s-wall.  Returns a dict with both trajectories
    and the deflection summary (mean of <theta> - theta_c over the
    window per spin).
    """
    H0, Hso, theta_op, ps_op = bent_cylinder_operators(setup)
    grid = H0.grid
    if s_center is None:
        s_center = setup.s_length / 3.0
    s_op = _diagonal_operator(grid, grid.mesh()[1])
    sigma3_op = HermitianOperator(
        matrix=sp.kron(sp.eye(grid.nodes), sp.csr_matrix(SIGMA3)).tocsr(),
        grid=grid, terms=("sigma3",))

    obs = {"theta": theta_op, "s": s_op, "p_s": ps_op, "sigma3": sigma3_op}
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
    trajs = evolve(H0 + Hso, packets, dt, steps, observables=obs,
                   record_every=record_every, stop_when=left_window)
    d_up, d_dn = (float(np.mean(t.observables["theta"] - setup.theta_c))
                  for t in trajs)
    return {"setup": setup, "trajectories": {"up": trajs[0], "down": trajs[1]},
            "deflection": {"up": d_up, "down": d_dn},
            "opposite_sign": d_up * d_dn < 0.0,
            "asymmetry": abs(d_up + d_dn) / max(abs(d_up), 1e-300)}
