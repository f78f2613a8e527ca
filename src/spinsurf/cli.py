"""Command-line runner: experiments from plain-text configs to CSV/JSON.

Usage:
    spinsurf --config run.cfg --out results/ [--experiment NAME] [--seed N] [--si]
    spinsurf --compare a.csv b.csv --tol 1e-9

Config format is key=value with [section] headers (a bare key=value file
is treated as the [surface] section).  Every experiment runs off defaults
when only `kind = cylinder` is given.  CSV artifacts carry a '#'-prefixed
header with units and the config hash; scalar results are JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import constants
from .constants import PhysicalScale
from .dynamics import (BentCylinderSetup, force_equality_report, spin_hall_run)
from .errors import ConfigError, SpinsurfError
from .frames import expansion_report, frame_fields
from .gauge import flux
from .hamiltonian import Grid, assemble_Heff
from .spectra import (conductance_curve, cylinder_ring_operator,
                      degeneracy_clusters, eigensolve)
from .surfaces import _as_bool, _surface_from_section, read_config

__all__ = ["RunConfig", "run", "compare", "main"]

EXPERIMENTS = ("geometry-report", "field-map", "flux", "spectrum",
               "conductance", "forces", "evolve", "expansions")


@dataclass
class RunConfig:
    raw_text: str
    sections: dict
    experiment: str = "spectrum"
    out_dir: str = "."
    seed: int = 0
    si: bool = False
    scale: PhysicalScale = field(default_factory=PhysicalScale)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:12]

    def section(self, name) -> dict:
        return self.sections.get(name, {})

    def get(self, section, key, cast, default):
        raw = self.section(section).get(key)
        if raw is None:
            return default
        try:
            return _as_bool(raw) if cast is bool else cast(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}",
                              key=key) from None


def load_config(path, experiment=None, out_dir=".", seed=0, si=False
                ) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    sections = read_config(text)
    cfg = RunConfig(raw_text=text, sections=sections, out_dir=out_dir,
                    seed=seed, si=si)
    cfg.experiment = experiment or cfg.get("run", "experiment", str, "spectrum")
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {cfg.experiment!r}; choose from "
            f"{EXPERIMENTS}", key="experiment")
    length_nm = cfg.get("scale", "length_nm", float, 1.0)
    mass_ratio = cfg.get("scale", "mass_ratio", float, 1.0)
    cfg.scale = PhysicalScale(length_m=length_nm * 1e-9,
                              mass_kg=mass_ratio * constants.M_ELECTRON)
    return cfg


def _surface(cfg: RunConfig):
    sec = cfg.section("surface")
    if not sec:
        raise ConfigError("config needs a [surface] section", key="surface")
    return _surface_from_section(sec)


def _csv_header(cfg, experiment, columns, units):
    return [f"# spinsurf {experiment}",
            f"# config_hash={cfg.config_hash} seed={cfg.seed}",
            f"# units: {units}",
            "# columns: " + ",".join(columns)]


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(line + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12e}"


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# Experiments
# ----------------------------------------------------------------------

def _exp_geometry(cfg, patch):
    n1 = cfg.get("grid", "n1", int, 48)
    n2 = cfg.get("grid", "n2", int, 48)
    grid = Grid.for_patch(patch, n1, n2)
    Q1, Q2 = grid.mesh()
    ff = frame_fields(patch, Q1, Q2)
    rows = zip(Q1.ravel(), Q2.ravel(), ff.g[0, 0].ravel(), ff.g[0, 1].ravel(),
               ff.g[1, 1].ravel(), ff.sqrt_g.ravel(), ff.K.ravel(),
               ff.M.ravel())
    path = os.path.join(cfg.out_dir, "geometry_report.csv")
    _write_csv(path, _csv_header(cfg, "geometry-report",
                                 ["q1", "q2", "g11", "g12", "g22", "sqrtg",
                                  "K", "M"],
                                 "lengths in L0, curvatures in 1/L0^n"),
               rows)
    summary = {"kind": patch.kind, "params": patch.params,
               "K_min": float(ff.K.min()), "K_max": float(ff.K.max())}
    jpath = os.path.join(cfg.out_dir, "geometry_report.json")
    _write_json(jpath, summary)
    return [path, jpath], f"geometry-report: K in [{ff.K.min():.4g}, {ff.K.max():.4g}]"

def _exp_field_map(cfg, patch):
    n1 = cfg.get("grid", "n1", int, 32)
    n2 = cfg.get("grid", "n2", int, 32)
    grid = Grid.for_patch(patch, n1, n2)
    Q1, Q2 = grid.mesh()
    ff = frame_fields(patch, Q1, Q2)
    B = 0.5 * ff.K
    cols = ["q1", "q2", "K", "B", "w1", "w2"]
    arrays = [Q1.ravel(), Q2.ravel(), ff.K.ravel(), B.ravel(),
              ff.w[0].ravel(), ff.w[1].ravel()]
    units = "B in hbar/(e L0^2)"
    if cfg.si:
        cols.append("B_tesla")
        arrays.append(cfg.scale.b_tesla(B).ravel())
        units += f"; SI at L0 = {cfg.scale.length_m:g} m"
    path = os.path.join(cfg.out_dir, "field_map.csv")
    _write_csv(path, _csv_header(cfg, "field-map", cols, units),
               zip(*arrays))
    return [path], f"field-map: B in [{B.min():.4g}, {B.max():.4g}]"

def _exp_flux(cfg, patch):
    n1 = cfg.get("flux", "n1", int, 96)
    n2 = cfg.get("flux", "n2", int, 96)
    res = flux(patch, n1=n1, n2=n2)
    payload = {"phi_over_phi0": res.phi_over_phi0, "genus": res.genus,
               "error_estimate": res.error_estimate}
    path = os.path.join(cfg.out_dir, "flux.json")
    _write_json(path, payload)
    return [path], (f"flux: Phi/Phi0 = {res.phi_over_phi0:.6f} "
                    f"(genus {res.genus}, err ~ {res.error_estimate:.2e})")

def _exp_spectrum(cfg, patch):
    k = cfg.get("spectrum", "k", int, 16)
    with_conn = cfg.get("spectrum", "with_connection", bool, True)
    if patch.kind == "cylinder":
        n = cfg.get("spectrum", "n", int, 256)
        rho = patch.params["rho"]
        op = cylinder_ring_operator(rho, n, with_connection=with_conn)
    else:
        if "with_connection" in cfg.section("spectrum"):
            # the grid route always assembles the connection
            raise ConfigError(
                f"[spectrum] with_connection applies only to a cylinder, "
                f"not a {patch.kind}", key="with_connection")
        n1 = cfg.get("grid", "n1", int, 24)
        n2 = cfg.get("grid", "n2", int, 24)
        grid = Grid.for_patch(patch, n1, n2)
        op = assemble_Heff(patch, grid)
    result = eigensolve(op, k, which="lowest", return_vectors=False,
                        seed=cfg.seed)
    # grid-aware clustering for discretized spectra
    spread = max(result.values[-1] - result.values[0], 1e-300)
    clusters = degeneracy_clusters(result.values, tol=1e-3 * spread)
    rows = []
    cid = 0
    count = 0
    for i, v in enumerate(result.values):
        if count >= clusters[cid][1]:
            cid += 1
            count = 0
        rows.append((i, v, cid, clusters[cid][1]))
        count += 1
    path = os.path.join(cfg.out_dir, "spectrum.csv")
    units = "E in hbar^2/(m L0^2)"
    if cfg.si:
        units += f"; 1 unit = {cfg.scale.energy_ev:.6e} eV"
    _write_csv(path, _csv_header(cfg, "spectrum",
                                 ["index", "energy", "cluster_id",
                                  "multiplicity"], units), rows)
    jpath = os.path.join(cfg.out_dir, "spectrum.json")
    _write_json(jpath, {"clusters": [[v, m] for v, m in clusters],
                        "with_connection": with_conn})
    return [path, jpath], (f"spectrum: lowest {k}, first cluster "
                           f"multiplicity {clusters[0][1]}")

def _exp_conductance(cfg, patch):
    rho = patch.params.get("rho", 1.0)
    e_max = cfg.get("conductance", "e_max", float, 8.0)
    n_pts = cfg.get("conductance", "n_points", int, 400)
    e_grid = np.linspace(0.0, e_max, n_pts)
    paths = []
    summary = {}
    for with_conn, tag in ((True, "with"), (False, "without")):
        curve = conductance_curve(rho, e_grid, with_connection=with_conn)
        path = os.path.join(cfg.out_dir, f"conductance_{tag}.csv")
        _write_csv(path, _csv_header(cfg, "conductance",
                                     ["E", "N", "G_over_e2h"],
                                     "E in hbar^2/(m L0^2), G in e^2/h"),
                   zip(curve.energies, curve.channels, curve.g_over_e2h))
        paths.append(path)
        summary[tag] = {"thresholds": curve.thresholds.tolist(),
                        "variant": curve.variant}
    jpath = os.path.join(cfg.out_dir, "conductance.json")
    _write_json(jpath, summary)
    paths.append(jpath)
    return paths, "conductance: with/without curves written"

def _bent_setup(cfg):
    return BentCylinderSetup(
        rho=cfg.get("forces", "rho", float, 1.0),
        R=cfg.get("forces", "R", float, 20.0),
        theta0=cfg.get("forces", "theta0", float, 0.1),
        theta_c=cfg.get("forces", "theta_c", float, 0.0),
        s_length=cfg.get("forces", "s_length", float, 30.0),
        n_theta=cfg.get("forces", "n_theta", int, 40),
        n_s=cfg.get("forces", "n_s", int, 384),
    )

def _packet_widths(cfg, setup):
    """Packet widths from config, defaulting to grid-resolvable values."""
    grid = setup.grid()
    w_th = cfg.get("forces", "width_theta", float, max(0.02, 4.5 * grid.h1))
    w_s = cfg.get("forces", "width_s", float, max(2.0, 4.5 * grid.h2))
    return (w_th, w_s)


def _exp_forces(cfg, patch):
    setup = _bent_setup(cfg)
    rep = force_equality_report(setup,
                                k_s=cfg.get("forces", "k_s", float, 8.0),
                                widths=_packet_widths(cfg, setup))
    path = os.path.join(cfg.out_dir, "forces.json")
    _write_json(path, rep.as_dict())
    eq = rep.rel_pm_vs_so[+1]
    return [path], f"forces: |F_pm - F_so|/|F_pm| = {eq:.3e}"

def _exp_evolve(cfg, patch):
    setup = _bent_setup(cfg)
    out = spin_hall_run(
        setup,
        k_s=cfg.get("forces", "k_s", float, 8.0),
        widths=_packet_widths(cfg, setup),
        dt=cfg.get("evolve", "dt", float, 8e-4),
        steps=cfg.get("evolve", "steps", int, 400),
        record_every=cfg.get("evolve", "record_every", int, 5))
    up = out["trajectories"]["up"]
    dn = out["trajectories"]["down"]
    n = min(len(up.times), len(dn.times))
    rows = zip(up.times[:n],
               up.observables["theta"][:n], dn.observables["theta"][:n],
               up.observables["p_s"][:n],
               up.observables["sigma3"][:n], dn.observables["sigma3"][:n])
    path = os.path.join(cfg.out_dir, "evolve.csv")
    _write_csv(path, _csv_header(cfg, "evolve",
                                 ["t", "mean_theta_up", "mean_theta_down",
                                  "mean_ps", "sigma3_up", "sigma3_down"],
                                 "t in m L0^2/hbar"), rows)
    jpath = os.path.join(cfg.out_dir, "evolve.json")
    _write_json(jpath, {"deflection": out["deflection"],
                        "opposite_sign": bool(out["opposite_sign"]),
                        "asymmetry": out["asymmetry"]})
    return [path, jpath], (f"evolve: deflections "
                           f"{out['deflection']['up']:.3e} / "
                           f"{out['deflection']['down']:.3e}")

def _exp_expansions(cfg, patch):
    q1 = cfg.get("expansions", "q1", float, None)
    q2 = cfg.get("expansions", "q2", float, None)
    if q1 is None or q2 is None:
        (a0, a1), (b0, b1) = patch.domain
        q1 = a0 + 0.37 * (a1 - a0)
        q2 = b0 + 0.53 * (b1 - b0)
    rep = expansion_report(patch, (q1, q2))
    payload = {
        "point": list(rep.point),
        "passed": rep.passed,
        "checks": [{"name": c.name, "expected_order": c.expected_order,
                    "fitted_slope": (None if math.isinf(c.fitted_slope)
                                     else c.fitted_slope),
                    "exact_zero": c.exact_zero, "passed": c.passed}
                   for c in rep.checks],
        "tetrad_max_residual": float(rep.tetrad_residuals.max()),
        "tetrad_tol": rep.tetrad_tol,
    }
    path = os.path.join(cfg.out_dir, "expansions.json")
    _write_json(path, payload)
    return [path], f"expansions: passed={rep.passed}"


_RUNNERS = {
    "geometry-report": _exp_geometry,
    "field-map": _exp_field_map,
    "flux": _exp_flux,
    "spectrum": _exp_spectrum,
    "conductance": _exp_conductance,
    "forces": _exp_forces,
    "evolve": _exp_evolve,
    "expansions": _exp_expansions,
}


def run(cfg: RunConfig):
    """Execute the configured experiment; returns (paths, summary line)."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    patch = _surface(cfg)
    paths, summary = _RUNNERS[cfg.experiment](cfg, patch)
    return paths, summary


# ----------------------------------------------------------------------
# Artifact comparison (regression harness)
# ----------------------------------------------------------------------

def _load_artifact(path):
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            return "json", json.load(fh), None
    kind = None
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if line.startswith("# spinsurf "):
                    kind = line.split()[2]
                elif line.startswith("# columns:"):
                    columns = line.split(":", 1)[1].strip().split(",")
                continue
            if line:
                rows.append([float(x) for x in line.split(",")])
    return kind or "csv", np.array(rows), columns


def compare(path_a, path_b, tol=1e-9):
    """Fieldwise relative comparison of two artifacts of the same type.

    Returns a dict {passed, max_rel_diff, diffs}; raises ConfigError on
    experiment-type mismatch.
    """
    kind_a, data_a, cols_a = _load_artifact(path_a)
    kind_b, data_b, cols_b = _load_artifact(path_b)
    if kind_a != kind_b:
        raise ConfigError(
            f"artifact type mismatch: {kind_a!r} vs {kind_b!r}")
    diffs = []
    if kind_a == "json":
        _json_diffs(data_a, data_b, "", diffs, tol)
    else:
        if data_a.shape != data_b.shape:
            diffs.append(("shape", math.inf,
                          f"{data_a.shape} vs {data_b.shape}"))
        else:
            denom = np.maximum(np.abs(data_a), 1.0)
            rel = np.abs(data_a - data_b) / denom
            for j in range(data_a.shape[1] if data_a.ndim == 2 else 0):
                worst = float(rel[:, j].max()) if len(rel) else 0.0
                if worst > tol:
                    row = int(np.argmax(rel[:, j]))
                    name = cols_a[j] if cols_a and j < len(cols_a) else f"col{j}"
                    diffs.append((name, worst, f"row {row}"))
    max_rel = max((d[1] for d in diffs), default=0.0)
    return {"passed": not diffs, "max_rel_diff": max_rel,
            "diffs": [{"field": d[0], "rel_diff": d[1], "where": d[2]}
                      for d in diffs]}


def _json_diffs(a, b, prefix, out, tol):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                out.append((f"{prefix}{k}", math.inf, "missing key"))
                continue
            _json_diffs(a[k], b[k], f"{prefix}{k}.", out, tol)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append((prefix.rstrip("."), math.inf, "length mismatch"))
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _json_diffs(x, y, f"{prefix}{i}.", out, tol)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        rel = abs(a - b) / max(abs(a), 1.0)
        if rel > tol:
            out.append((prefix.rstrip("."), rel, "value"))
    elif a != b:
        out.append((prefix.rstrip("."), math.inf, f"{a!r} vs {b!r}"))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinsurf",
        description="spin-1/2 dynamics on curved surfaces: experiments "
                    "from config files")
    parser.add_argument("--config", help="path to the run configuration")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--experiment", choices=EXPERIMENTS, default=None,
                        help="override the experiment named in the config")
    parser.add_argument("--si", action="store_true",
                        help="add SI-converted columns using [scale]")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two artifacts instead of running")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="comparison tolerance")
    args = parser.parse_args(argv)

    try:
        if args.compare:
            report = compare(args.compare[0], args.compare[1], tol=args.tol)
            print(json.dumps(report, indent=2))
            return 0 if report["passed"] else 1
        if not args.config:
            parser.error("--config is required unless --compare is given")
        cfg = load_config(args.config, experiment=args.experiment,
                          out_dir=args.out, seed=args.seed, si=args.si)
        paths, summary = run(cfg)
        print(summary)
        for p in paths:
            print(f"  wrote {p}")
        return 0
    except SpinsurfError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if isinstance(exc, ConfigError):
            if exc.key:
                payload["error"]["key"] = exc.key
            if exc.line:
                payload["error"]["line"] = exc.line
        print(json.dumps(payload), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": {"type": "OSError", "message": str(exc)}}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
