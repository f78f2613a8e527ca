"""The four benchmark workloads: inputs from a seed, one checked pass each.

Each workload is a class with

* ``__init__(seed, small=False)``: build every input (patches, grids,
  random points, gauge phases, eigensolver seeds, CLI configs).  This is
  the part ``setup_s`` times; nothing here assembles or solves.
* ``run_pass(checks)``: do one pass of the work and record every output
  check in ``checks``.  ``wall_s`` times this call, checks included.

``small=True`` selects the reduced sizes the self-test runs.  The seed is
the only source of randomness; the library receives only the generated
values.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import traceback

import numpy as np

import spinsurf.cli as cli
import spinsurf.dynamics as dynamics
import spinsurf.frames as frames
import spinsurf.gauge as gauge
import spinsurf.hamiltonian as hamiltonian
import spinsurf.spectra as spectra
import spinsurf.surfaces as surfaces

# The expression torus: the torus(rho=1, R=2) written out, so the library
# differentiates it numerically instead of using the closed-form jet.
EXPRESSION_TORUS = {"x": "(2+cos(q1))*cos(q2)", "y": "(2+cos(q1))*sin(q2)",
                    "z": "sin(q1)"}

# Bounds from the acceptance suite (tests/test_acceptance.py).
CURL_TOL = 1e-8
# The expression torus has a finite-difference jet (4th-order, step
# 1e-3 of the period) under the curl's own 4th-order difference (step
# 1e-5 of the period).  The nested stencils leave a truncation and
# round-off floor near 1e-8 (2e-8 to 3e-8 at the worst of 40-60 seeded
# points), so the analytic-surface bound cannot hold there.  1e-6 is
# still far below the terms of the identity (|K|/2 reaches 0.5 on this
# torus), so a wrong sign or factor in it fails at almost every point.
CURL_TOL_NUMERIC_JET = 1e-6
RING_LADDER = np.repeat([0.0, 1.0, 3.0, 6.0], 4)
RING_TOL = 1e-3
FLUX_SPHERE_TOL = 2e-6
FLUX_TORUS_TOL = 1e-8
HERMITICITY_TOL = 1e-12
TIME_REVERSAL_TOL = 1e-12       # relative to max |H_ij|
NORM_DRIFT_TOL = 1e-10
CRITERION_7_POINTS = ((("sphere", {"r": 1.0}), (1.1, 0.7)),
                      (("torus", {"rho": 1.0, "R": 3.0}), (0.8, 2.0)),
                      (("torus", {"rho": 1.0, "R": 3.0}), (2.4, 7.0)))


class Checks:
    """Attempted and failed output checks of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    @contextlib.contextmanager
    def guard(self, name, expected):
        """Count an exception as failures of the checks not yet recorded.

        ``expected`` is the number of checks the block records when it
        runs to the end, so a raising block counts as many attempts as a
        clean one.
        """
        before = self.attempted
        try:
            yield
        except Exception as exc:  # any library error is a failed output
            missing = max(expected - (self.attempted - before), 1)
            self.attempted += missing
            self.failed += missing
            last = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.failures.append(f"{name}: raised {last}")


def _torus():
    return surfaces.make_surface("torus", rho=1.0, R=3.0)


def _sphere():
    return surfaces.make_surface("sphere", r=1.0)


def _expression_torus():
    two_pi = 2.0 * math.pi
    return surfaces.make_surface(
        "generic", **EXPRESSION_TORUS,
        domain=((0.0, two_pi), (0.0, two_pi)), periodic=(True, True))


def _random_points(rng, patch, count):
    """Uniform points with a 12 % margin from every chart edge."""
    (a0, a1), (b0, b1) = patch.domain
    pad1 = 0.12 * (a1 - a0)
    pad2 = 0.12 * (b1 - b0)
    q1 = rng.uniform(a0 + pad1, a1 - pad1, count)
    q2 = rng.uniform(b0 + pad2, b1 - pad2, count)
    return [(float(u), float(v)) for u, v in zip(q1, q2)]


class SpinHall:
    """Force report and spin-Hall evolution on the default bent cylinder."""

    name = "spin-hall"

    def __init__(self, seed, small=False):
        # Nothing in this workload is random: the seed only labels the run.
        if small:
            # packet widths stay above 4 grid spacings on the coarser grid
            self.setup = dynamics.BentCylinderSetup(n_theta=20, n_s=160)
            self.widths = (0.045, 2.0)
            self.steps = 60
        else:
            self.setup = dynamics.BentCylinderSetup()
            self.widths = (0.02, 2.0)
            self.steps = 400

    def run_pass(self, checks):
        with checks.guard("force_equality_report", 5):
            rep = dynamics.force_equality_report(self.setup, k_s=8.0,
                                                 widths=self.widths)
            for s in (+1, -1):
                checks.check(f"rel_pm_vs_so[{s:+d}]",
                             rep.rel_pm_vs_so[s] < 0.05,
                             f"{rep.rel_pm_vs_so[s]:.3e}")
                checks.check(f"rel_vs_analytic[{s:+d}]",
                             rep.rel_vs_analytic[s] < 0.10,
                             f"{rep.rel_vs_analytic[s]:.3e}")
            checks.check("F_pm opposite per spin",
                         rep.f_pm[+1] * rep.f_pm[-1] < 0.0)
        with checks.guard("spin_hall_run", 4):
            out = dynamics.spin_hall_run(self.setup, k_s=8.0,
                                         widths=self.widths, dt=8e-4,
                                         steps=self.steps)
            checks.check("deflections of opposite sign",
                         bool(out["opposite_sign"]), str(out["deflection"]))
            checks.check("asymmetry < 0.05", out["asymmetry"] < 0.05,
                         f"{out['asymmetry']:.3e}")
            for name, traj in out["trajectories"].items():
                drift = float(np.abs(traj.norms - traj.norms[0]).max()
                              / traj.norms[0])
                checks.check(f"norm drift {name}", drift <= NORM_DRIFT_TOL,
                             f"{drift:.3e}")


class TorusSpectrum:
    """Lowest 16 pairs of H_eff on three torus grids and the ring operator."""

    name = "torus-spectrum"

    def __init__(self, seed, small=False):
        rng = np.random.default_rng(seed)
        self.patch = _torus()
        sizes = (16, 24, 48) if small else (32, 64, 96)
        self.grids = [hamiltonian.Grid.for_patch(self.patch, n, n)
                      for n in sizes]
        self.eig_seeds = [int(s) for s in rng.integers(0, 2**31, len(sizes) + 1)]

    def run_pass(self, checks):
        for grid, seed in zip(self.grids, self.eig_seeds):
            # 16 pairs; every cluster a Kramers pair (or a pair of pairs)
            with checks.guard(f"torus {grid.n1}x{grid.n2}", 2):
                H = hamiltonian.assemble_Heff(self.patch, grid)
                res = spectra.eigensolve(H, k=16, which="lowest", seed=seed,
                                         return_vectors=False)
                # eigensolve raises on a broken residual contract; this
                # records that it held
                checks.check("residual contract", True)
                mults = [m for _, m in res.clusters]
                checks.check(f"torus {grid.n1}x{grid.n2} Kramers pairs",
                             all(m % 2 == 0 for m in mults), str(mults))
        with checks.guard("ring", 2):
            op = spectra.cylinder_ring_operator(1.0, 256)
            res = spectra.eigensolve(op, k=16, which="lowest",
                                     seed=self.eig_seeds[-1],
                                     return_vectors=False)
            rel = np.abs(res.values - RING_LADDER) / np.maximum(
                np.abs(RING_LADDER), 1.0)
            checks.check("ring ladder 0,1,3,6", rel.max() < RING_TOL,
                         f"max rel err {rel.max():.3e}")
            mults = [m for _, m in spectra.degeneracy_clusters(res.values,
                                                               tol=1e-2)]
            checks.check("ring ladder 4-fold", mults == [4, 4, 4, 4],
                         str(mults))


class OperatorAssembly:
    """Whole-grid H0 + Hso assembly and operator checks, no solve."""

    name = "operator-assembly"

    def __init__(self, seed, small=False):
        rng = np.random.default_rng(seed)
        torus, sphere, expr = _torus(), _sphere(), _expression_torus()
        if small:
            shapes = ((torus, 24, 24), (torus, 32, 32), (sphere, 16, 32),
                      (expr, 16, 16))
        else:
            shapes = ((torus, 256, 256), (torus, 384, 384),
                      (sphere, 192, 384), (expr, 128, 128))
        self.cases = []
        for patch, n1, n2 in shapes:
            grid = hamiltonian.Grid.for_patch(patch, n1, n2)
            Q1, Q2 = grid.mesh()
            c = rng.standard_normal(4)
            per1 = 2.0 * math.pi / (grid.domain[0][1] - grid.domain[0][0])
            per2 = 2.0 * math.pi / (grid.domain[1][1] - grid.domain[1][0])
            theta = (c[0] * np.sin(per1 * Q1) + c[1] * np.cos(2.0 * per1 * Q1)
                     + c[2] * np.sin(per2 * Q2) + c[3])
            self.cases.append((patch, grid, theta))

    def run_pass(self, checks):
        for patch, grid, theta in self.cases:
            label = f"{patch.kind} {grid.n1}x{grid.n2}"
            with checks.guard(label, 4):
                H = hamiltonian.assemble_Heff(patch, grid)
                herm = hamiltonian.hermiticity_defect(H)
                checks.check(f"{label} hermiticity", herm <= HERMITICITY_TOL,
                             f"{herm:.3e}")
                tr = hamiltonian.time_reversal_defect(H)
                checks.check(f"{label} time reversal",
                             tr <= TIME_REVERSAL_TOL * H.max_norm(),
                             f"{tr:.3e}")
                Hg = hamiltonian.gauge_conjugate(H, theta)
                herm_g = hamiltonian.hermiticity_defect(Hg)
                checks.check(f"{label} gauge-rotated hermiticity",
                             herm_g <= HERMITICITY_TOL, f"{herm_g:.3e}")
                # a diagonal unitary similarity keeps every |H_ij|
                drift = _magnitude_drift(H.matrix, Hg.matrix)
                checks.check(f"{label} gauge-rotated magnitudes",
                             drift <= HERMITICITY_TOL, f"{drift:.3e}")


def _magnitude_drift(a, b):
    a = a.tocsr()
    b = b.tocsr()
    a.sort_indices()
    b.sort_indices()
    if a.nnz != b.nnz or not (np.array_equal(a.indices, b.indices)
                              and np.array_equal(a.indptr, b.indptr)):
        return math.inf
    top = max(float(np.abs(a.data).max()), 1e-300)
    return float(np.abs(np.abs(a.data) - np.abs(b.data)).max()) / top


# CLI experiments run on each default surface config, in this order.
CLI_EXPERIMENTS = ("geometry-report", "field-map", "flux", "expansions",
                   "conductance")
CLI_CONFIGS = {"torus": "[surface]\nkind = torus\nrho = 1.0\nR = 3.0\n",
               "sphere": "[surface]\nkind = sphere\nr = 1.0\n"}


class PointwiseGauge:
    """Pointwise gauge diagnostics, flux, expansions and the CLI."""

    name = "pointwise-gauge"

    def __init__(self, seed, small=False, workdir=None):
        rng = np.random.default_rng(seed)
        torus, sphere, expr = _torus(), _sphere(), _expression_torus()
        counts = (6, 6, 2) if small else (300, 300, 60)
        self.points = [
            (torus, _random_points(rng, torus, counts[0]), CURL_TOL),
            (sphere, _random_points(rng, sphere, counts[1]), CURL_TOL),
            (expr, _random_points(rng, expr, counts[2]), CURL_TOL_NUMERIC_JET),
        ]
        self.flux_cases = ((sphere, 2.0, FLUX_SPHERE_TOL),
                           (torus, 0.0, FLUX_TORUS_TOL))
        self.expansion_cases = [
            (surfaces.make_surface(kind, **params), point)
            for (kind, params), point in CRITERION_7_POINTS]
        if small:
            self.expansion_cases = self.expansion_cases[:1]
        if workdir is None:
            raise ValueError("pointwise-gauge needs a work directory")
        self.workdir = workdir
        # nine digits for every seed: the CLI writes it into each CSV
        # header, and cli.artifact_bytes must not depend on the seed
        self.cli_seed = int(rng.integers(10**8, 10**9))
        self.configs = {}
        os.makedirs(workdir, exist_ok=True)
        for name, text in CLI_CONFIGS.items():
            path = os.path.join(workdir, f"{name}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.configs[name] = path

    def run_pass(self, checks):
        for patch, points, tol in self.points:
            for q in points:
                with checks.guard(f"{patch.kind} point", 2):
                    resid, _ = gauge.curl_matches_w(patch, q)
                    checks.check(f"{patch.kind} curl residual at {q}",
                                 resid < tol, f"{resid:.3e}")
                    s = gauge.pseudo_field_at(patch, q)
                    dev = abs(s.curl_A_sigma3 + 0.5 * s.K)
                    checks.check(f"{patch.kind} curl_A sigma3 + K/2 at {q}",
                                 dev < tol, f"{dev:.3e}")
        for patch, expected, tol in self.flux_cases:
            with checks.guard(f"{patch.kind} flux", 1):
                phi = gauge.flux(patch).phi_over_phi0
                checks.check(f"{patch.kind} flux", abs(phi - expected) < tol,
                             f"{phi:.12g}")
        for patch, point in self.expansion_cases:
            with checks.guard(f"{patch.kind} expansions", 1):
                rep = frames.expansion_report(patch, point)
                checks.check(f"{patch.kind} expansions at {point}",
                             rep.passed, "; ".join(rep.failures()))
        self._run_cli(checks)

    def _run_cli(self, checks):
        """Run every experiment twice and --compare the second to the first."""
        for surface, cfg in self.configs.items():
            for exp in CLI_EXPERIMENTS:
                label = f"cli {exp} {surface}"
                first = os.path.join(self.workdir, "first", surface, exp)
                second = os.path.join(self.workdir, "second", surface, exp)
                for out in (first, second):
                    shutil.rmtree(out, ignore_errors=True)
                names = []
                with checks.guard(label, 2):
                    codes = [_cli(["--config", cfg, "--out", out,
                                   "--experiment", exp,
                                   "--seed", str(self.cli_seed)])
                             for out in (first, second)]
                    checks.check(f"{label} exit codes", codes == [0, 0],
                                 str(codes))
                    names = sorted(os.listdir(first))
                    checks.check(f"{label} artifacts",
                                 bool(names)
                                 and names == sorted(os.listdir(second)),
                                 str(names))
                for name in names:
                    with checks.guard(f"{label} compare {name}", 1):
                        code = _cli(["--compare", os.path.join(second, name),
                                     os.path.join(first, name)])
                        checks.check(f"{label} compare {name}", code == 0,
                                     f"exit {code}")


def _cli(argv):
    """Run the CLI entry point in-process with its output swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


WORKLOADS = {w.name: w for w in (SpinHall, TorusSpectrum, OperatorAssembly,
                                 PointwiseGauge)}
