"""Command-line runner: experiments from plain-text configs to CSV/JSON.

Usage:
    spinsurf --config run.cfg --out results/ [--experiment NAME] [--seed N] [--si]
    spinsurf --compare a.csv b.csv --tol 1e-9

Config format is key=value with [section] headers (a bare key=value file
is treated as the [surface] section).  Every key is declared in _SCHEMA,
and every experiment runs off defaults when only `kind = cylinder` is
given.  An unknown section or key, a badly typed value, or a numeric
value below its least, exits 2 before any experiment runs.  CSV
artifacts carry a '#'-prefixed header with units and the config hash;
scalar results are JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .surfaces import (SurfacePatch, _as_bool, _surface_from_section,
                       read_config)

__all__ = ["RunConfig", "run", "compare", "main"]

# the least node counts of the bent-cylinder window's grid
_WINDOW_LEAST = {"n_theta": 8, "n_s": 8}

# section -> key -> (type, default, least).  A None default is filled in
# by the experiment that reads it: the grid size (48 / 32 / 24 by
# experiment), the packet widths (from the grid spacing), the expansion
# point (from the domain).  least bounds a numeric value from below: an
# int must be >= least, a float > least (None: no bound here).  [surface]
# is checked by make_surface.
_SCHEMA = {
    "run": {"experiment": (str, "spectrum", None)},
    "scale": {"length_nm": (float, 1.0, 0.0),
              "mass_ratio": (float, 1.0, 0.0)},
    "grid": {"n1": (int, None, 8), "n2": (int, None, 8)},
    "flux": {"n1": (int, 96, 16), "n2": (int, 96, 16)},
    "spectrum": {"k": (int, 16, 1), "n": (int, 256, 8),
                 "with_connection": (bool, True, None)},
    "conductance": {"e_max": (float, 8.0, 0.0),
                    "n_points": (int, 400, 1)},
    # the window's keys and defaults are BentCylinderSetup's fields
    "forces": {**{f.name: (type(f.default), f.default,
                           _WINDOW_LEAST.get(f.name))
                  for f in dataclasses.fields(BentCylinderSetup)},
               "k_s": (float, 8.0, None),
               "width_theta": (float, None, None),
               "width_s": (float, None, None)},
    "evolve": {"dt": (float, 8e-4, 0.0), "steps": (int, 400, 1),
               "record_every": (int, 5, 1)},
    "expansions": {"q1": (float, None, None), "q2": (float, None, None)},
}

# keys read only by the cylinder's 1D ring route; the grid route of any
# other surface always assembles the connection on its own grid
_CYLINDER_ONLY = (("spectrum", "n"), ("spectrum", "with_connection"))


@dataclass
class RunConfig:
    raw_text: str
    values: dict  # section -> key -> value, every _SCHEMA key resolved
    patch: SurfacePatch
    experiment: str = "spectrum"
    out_dir: str = "."
    seed: int = 0
    si: bool = False
    scale: PhysicalScale = field(default_factory=PhysicalScale)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:12]


def _resolve(sections) -> dict:
    """Every _SCHEMA value, typed, with defaults filled in.  ConfigError
    names an unknown section, an unknown key, a badly typed value or a
    value below its least."""
    for name in sections:
        if name not in _SCHEMA:
            raise ConfigError(f"unknown config section [{name}]; expected "
                              f"one of {['surface', *_SCHEMA]}", key=name)
    values = {}
    for name, keys in _SCHEMA.items():
        values[name] = {key: default for key, (_, default, _) in keys.items()}
        for key, raw in sections.get(name, {}).items():
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{name}]; "
                                  f"expected one of {list(keys)}", key=key)
            cast, _, least = keys[key]
            try:
                value = _as_bool(raw) if cast is bool else cast(raw)
            except ValueError:
                raise ConfigError(f"bad value for [{name}] {key}: {raw!r}",
                                  key=key) from None
            if least is not None and not (
                    value >= least if cast is int else value > least):
                raise ConfigError(
                    f"[{name}] {key} = {value} is out of range; it must be "
                    f"{_range(cast, least)}", key=key)
            values[name][key] = value
    return values


def _range(cast, least):
    """The valid range of a numeric key, as the README table writes it."""
    return f"{'>=' if cast is int else '>'} {least}"


def load_config(path, experiment=None, out_dir=".", seed=0, si=False
                ) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    sections = read_config(text)
    surface = sections.pop("surface", None)
    values = _resolve(sections)
    experiment = experiment or values["run"]["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from "
            f"{EXPERIMENTS}", key="experiment")
    if not surface:
        raise ConfigError("config needs a [surface] section", key="surface")
    patch = _surface_from_section(surface)
    for name, key in _CYLINDER_ONLY:
        if patch.kind != "cylinder" and key in sections.get(name, {}):
            raise ConfigError(f"[{name}] {key} applies only to a cylinder, "
                              f"not a {patch.kind}", key=key)
    if experiment in ("forces", "evolve"):
        _check_bent_surface(surface, patch, values["forces"], experiment)
    scale = values["scale"]
    return RunConfig(
        raw_text=text, values=values, patch=patch, experiment=experiment,
        out_dir=out_dir, seed=seed, si=si,
        scale=PhysicalScale(length_m=scale["length_nm"] * 1e-9,
                            mass_kg=scale["mass_ratio"] * constants.M_ELECTRON))


def _check_bent_surface(surface, patch, forces, experiment):
    """forces and evolve run the bent cylinder of [forces]: a shape key
    written in [surface] must be rho or R and equal the [forces] value."""
    for key in surface:
        if key == "kind":
            continue
        if key not in ("rho", "R"):
            raise ConfigError(
                f"[surface] {key} does not apply to {experiment}, which runs "
                f"the bent cylinder of [forces] (rho, R)", key=key)
        if patch.params[key] != forces[key]:
            raise ConfigError(
                f"[surface] {key} = {patch.params[key]:g} differs from "
                f"[forces] {key} = {forces[key]:g}, the bent cylinder "
                f"{experiment} runs", key=key)


def _write_csv(path, cfg, columns, units, rows):
    formats = {}   # the row format per tuple of value types

    def line(row):
        row = tuple(row)
        kinds = tuple(map(type, row))
        if kinds not in formats:   # ints as ints, the rest as floats
            formats[kinds] = ",".join(
                "%d" if issubclass(k, (int, np.integer)) else "%.12e"
                for k in kinds) + "\n"
        return formats[kinds] % row

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# spinsurf {cfg.experiment}\n"
                 f"# config_hash={cfg.config_hash} seed={cfg.seed}\n"
                 f"# units: {units}\n"
                 f"# columns: {','.join(columns)}\n")
        fh.write("".join(map(line, rows)))


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# Experiments: each returns ([(file name, artifact)], summary line), an
# artifact being a JSON payload or a CSV's (columns, units, rows).
# ----------------------------------------------------------------------

def _grid(cfg, n):
    """The [grid] of cfg.patch; an unset size defaults to n."""
    n1, n2 = (n if v is None else v for v in cfg.values["grid"].values())
    return Grid.for_patch(cfg.patch, n1, n2)


def _exp_geometry(cfg):
    Q1, Q2 = _grid(cfg, 48).mesh()
    ff = frame_fields(cfg.patch, Q1, Q2)
    rows = zip(Q1.ravel(), Q2.ravel(), ff.g[0, 0].ravel(), ff.g[0, 1].ravel(),
               ff.g[1, 1].ravel(), ff.sqrt_g.ravel(), ff.K.ravel(),
               ff.M.ravel())
    columns = ["q1", "q2", "g11", "g12", "g22", "sqrtg", "K", "M"]
    summary = {"kind": cfg.patch.kind, "params": cfg.patch.params,
               "K_min": float(ff.K.min()), "K_max": float(ff.K.max())}
    return ([("geometry_report.csv",
              (columns, "lengths in L0, curvatures in 1/L0^n", rows)),
             ("geometry_report.json", summary)],
            f"geometry-report: K in [{ff.K.min():.4g}, {ff.K.max():.4g}]")

def _exp_field_map(cfg):
    Q1, Q2 = _grid(cfg, 32).mesh()
    ff = frame_fields(cfg.patch, Q1, Q2)
    B = 0.5 * ff.K
    cols = ["q1", "q2", "K", "B", "w1", "w2"]
    arrays = [Q1.ravel(), Q2.ravel(), ff.K.ravel(), B.ravel(),
              ff.w[0].ravel(), ff.w[1].ravel()]
    units = "B in hbar/(e L0^2)"
    if cfg.si:
        cols.append("B_tesla")
        arrays.append(cfg.scale.b_tesla(B).ravel())
        units += f"; SI at L0 = {cfg.scale.length_m:g} m"
    return ([("field_map.csv", (cols, units, zip(*arrays)))],
            f"field-map: B in [{B.min():.4g}, {B.max():.4g}]")

def _exp_flux(cfg):
    res = flux(cfg.patch, **cfg.values["flux"])
    payload = {"phi_over_phi0": res.phi_over_phi0, "genus": res.genus,
               "error_estimate": res.error_estimate}
    return [("flux.json", payload)], (
        f"flux: Phi/Phi0 = {res.phi_over_phi0:.6f} "
        f"(genus {res.genus}, err ~ {res.error_estimate:.2e})")

def _exp_spectrum(cfg):
    opts = cfg.values["spectrum"]
    if cfg.patch.kind == "cylinder":
        op = cylinder_ring_operator(cfg.patch.params["rho"], opts["n"],
                                    with_connection=opts["with_connection"])
    else:
        op = assemble_Heff(cfg.patch, _grid(cfg, 24))
    if opts["k"] >= op.dim:
        raise ConfigError(f"[spectrum] k = {opts['k']} must be below the "
                          f"operator's dimension {op.dim}", key="k")
    result = eigensolve(op, opts["k"], which="lowest", return_vectors=False,
                        seed=cfg.seed)
    # grid-aware clustering for discretized spectra
    spread = max(result.values[-1] - result.values[0], 1e-300)
    clusters = degeneracy_clusters(result.values, tol=1e-3 * spread)
    mult = np.array([m for _, m in clusters])
    cid = np.repeat(np.arange(len(clusters)), mult)
    units = "E in hbar^2/(m L0^2)"
    if cfg.si:
        units += f"; 1 unit = {cfg.scale.energy_ev:.6e} eV"
    rows = zip(range(len(cid)), result.values, cid, mult[cid])
    return ([("spectrum.csv",
              (["index", "energy", "cluster_id", "multiplicity"], units,
               rows)),
             ("spectrum.json", {"clusters": [[v, m] for v, m in clusters],
                                "with_connection": opts["with_connection"]})],
            f"spectrum: lowest {opts['k']}, first cluster "
            f"multiplicity {clusters[0][1]}")

def _exp_conductance(cfg):
    rho = cfg.patch.params.get("rho", 1.0)
    opts = cfg.values["conductance"]
    e_grid = np.linspace(0.0, opts["e_max"], opts["n_points"])
    artifacts = []
    summary = {}
    for with_conn, tag in ((True, "with"), (False, "without")):
        curve = conductance_curve(rho, e_grid, with_connection=with_conn)
        artifacts.append((f"conductance_{tag}.csv", (
            ["E", "N", "G_over_e2h"], "E in hbar^2/(m L0^2), G in e^2/h",
            zip(curve.energies, curve.channels, curve.g_over_e2h))))
        summary[tag] = {"thresholds": curve.thresholds.tolist(),
                        "variant": curve.variant}
    artifacts.append(("conductance.json", summary))
    return artifacts, "conductance: with/without curves written"

def _bent_setup(cfg):
    """The [forces] bent cylinder, packet momentum k_s and packet widths
    (which default to grid-resolvable values)."""
    opts = cfg.values["forces"]
    setup = BentCylinderSetup(**{
        f.name: opts[f.name] for f in dataclasses.fields(BentCylinderSetup)})
    grid = setup.grid()
    widths = (max(0.02, 4.5 * grid.h1) if opts["width_theta"] is None
              else opts["width_theta"],
              max(2.0, 4.5 * grid.h2) if opts["width_s"] is None
              else opts["width_s"])
    return setup, opts["k_s"], widths


def _exp_forces(cfg):
    setup, k_s, widths = _bent_setup(cfg)
    rep = force_equality_report(setup, k_s=k_s, widths=widths)
    eq = rep.rel_pm_vs_so[+1]
    return ([("forces.json", rep.as_dict())],
            f"forces: |F_pm - F_so|/|F_pm| = {eq:.3e}")

def _exp_evolve(cfg):
    setup, k_s, widths = _bent_setup(cfg)
    out = spin_hall_run(setup, k_s=k_s, widths=widths, **cfg.values["evolve"])
    up = out["trajectories"]["up"]
    dn = out["trajectories"]["down"]
    n = min(len(up.times), len(dn.times))
    rows = zip(up.times[:n],
               up.observables["theta"][:n], dn.observables["theta"][:n],
               up.observables["p_s"][:n],
               up.observables["sigma3"][:n], dn.observables["sigma3"][:n])
    columns = ["t", "mean_theta_up", "mean_theta_down", "mean_ps",
               "sigma3_up", "sigma3_down"]
    # the asymmetry |d_up + d_dn| / |d_up| is a remainder of nearly
    # cancelling deflections, so their round-off moves it by its own size:
    # it is printed, not written
    return ([("evolve.csv", (columns, "t in m L0^2/hbar", rows)),
             ("evolve.json", {"deflection": out["deflection"],
                              "opposite_sign": bool(out["opposite_sign"])})],
            f"evolve: deflections {out['deflection']['up']:.3e} / "
            f"{out['deflection']['down']:.3e}, asymmetry "
            f"{out['asymmetry']:.1e}")

def _exp_expansions(cfg):
    q1, q2 = cfg.values["expansions"].values()
    (a0, a1), (b0, b1) = cfg.patch.domain
    if q1 is None:
        q1 = a0 + 0.37 * (a1 - a0)
    if q2 is None:
        q2 = b0 + 0.53 * (b1 - b0)
    rep = expansion_report(cfg.patch, (q1, q2))
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
    return [("expansions.json", payload)], f"expansions: passed={rep.passed}"


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
EXPERIMENTS = tuple(_RUNNERS)


def run(cfg: RunConfig):
    """Execute the configured experiment and write its artifacts; returns
    (paths, summary line).  An experiment that raises writes nothing,
    not even the output directory."""
    artifacts, summary = _RUNNERS[cfg.experiment](cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    paths = []
    for name, artifact in artifacts:
        path = os.path.join(cfg.out_dir, name)
        if name.endswith(".json"):
            _write_json(path, artifact)
        else:
            _write_csv(path, cfg, *artifact)
        paths.append(path)
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

    A CSV value's difference is relative to the largest finite magnitude
    in its column of either file, and a JSON number's in a list to the
    largest finite magnitude among the numbers of that list in either
    file, so a round-off zero beside larger siblings reads as round-off.
    Any other JSON number's is relative to the larger of its two
    magnitudes.  Returns a dict {passed, max_rel_diff, diffs}:
    ``diffs`` lists the fields whose relative difference exceeds
    ``tol``, and ``max_rel_diff`` is the largest relative difference of
    any field, within ``tol`` or not.  Raises ConfigError (key ``tol``)
    unless ``tol`` is finite and >= 0, and on experiment-type mismatch.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"tolerance must be finite and >= 0, got {tol}",
                          key="tol")
    kind_a, data_a, cols_a = _load_artifact(path_a)
    kind_b, data_b, cols_b = _load_artifact(path_b)
    if kind_a != kind_b:
        raise ConfigError(
            f"artifact type mismatch: {kind_a!r} vs {kind_b!r}")
    fields = []            # (field, rel_diff, where), each compared field
    if kind_a == "json":
        _json_diffs(data_a, data_b, "", fields)
    else:
        if data_a.shape != data_b.shape:
            fields.append(("shape", math.inf,
                           f"{data_a.shape} vs {data_b.shape}"))
        else:
            finite = np.isfinite(data_a) & np.isfinite(data_b)
            scale = np.where(finite, np.maximum(abs(data_a), abs(data_b)),
                             0.0).max(axis=0, initial=0.0)
            rel = _rel_diff(data_a, data_b, scale)
            for j in range(data_a.shape[1] if data_a.ndim == 2 else 0):
                row = int(np.argmax(rel[:, j]))
                name = cols_a[j] if cols_a and j < len(cols_a) else f"col{j}"
                fields.append((name, float(rel[row, j]), f"row {row}"))
    diffs = [d for d in fields if d[1] > tol]
    return {"passed": not diffs,
            "max_rel_diff": max((d[1] for d in fields), default=0.0),
            "diffs": [{"field": d[0], "rel_diff": d[1], "where": d[2]}
                      for d in diffs]}


def _rel_diff(a, b, scale):
    """|a - b| / scale, elementwise, and 0 where a == b.  A non-finite
    value matches only the same non-finite value (rel 0); any other
    pairing is inf."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / scale
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    return np.where(same, 0.0, np.where(np.isfinite(a) & np.isfinite(b),
                                        rel, math.inf))


def _json_diffs(a, b, prefix, out, scale=None):
    """Append (field, rel_diff, where) for each field of ``a`` and ``b``;
    ``scale`` is the list scale of a number in a list."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                out.append((f"{prefix}{k}", math.inf, "missing key"))
                continue
            _json_diffs(a[k], b[k], f"{prefix}{k}.", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append((prefix.rstrip("."), math.inf, "length mismatch"))
            return
        scale = max((abs(v) for v in a + b if isinstance(v, (int, float))
                     and math.isfinite(v)), default=0.0)
        for i, (x, y) in enumerate(zip(a, b)):
            _json_diffs(x, y, f"{prefix}{i}.", out, scale)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if scale is None:
            scale = max(abs(a), abs(b))
        out.append((prefix.rstrip("."), float(_rel_diff(a, b, scale)),
                    "value"))
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
