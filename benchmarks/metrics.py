"""Per-layer metrics from the spans of one traced pass (stdlib only).

A span is a list [name, start, end, parent, pass, attrs] where parent
indexes the same list (-1 for a top-level span).  A span's self time is
its duration minus the time its direct child spans cover; calls are
sequential, so that is the sum of the children's durations.
"""

_NAME, _START, _END, _PARENT, _PASS, _ATTRS = range(6)


# Each `.s` metric sums the self time of these span names.
SELF_TIME = {
    "surfaces.jet.s": ("surfaces.jet",),
    "frames.frame_fields.s": ("frames.frame_fields",),
    "frames.expansion_report.s": ("frames.expansion_report",),
    "gauge.pseudo_field_at.s": ("gauge.pseudo_field_at",
                                "gauge.curl_matches_w"),
    "gauge.flux.s": ("gauge.flux",),
    "hamiltonian.assemble_H0.s": ("hamiltonian.assemble_H0",),
    "hamiltonian.assemble_Hso.s": ("hamiltonian.assemble_Hso",),
    "hamiltonian.checks.s": ("hamiltonian.checks",),
    "dynamics.operators.s": ("dynamics.operators",),
    "dynamics.splu.s": ("dynamics.splu",),
    "cli.run.s": ("cli.run",),
    "cli.compare.s": ("cli.compare",),
}

# Names printed in the traced report with the unit each carries.
REPORT_UNITS = {
    **{name: "s" for name in SELF_TIME},
    "surfaces.jet.calls": "count", "surfaces.jet.points": "count",
    "frames.frame_fields.calls": "count",
    "frames.frame_fields.points": "count",
    "gauge.pseudo_field_at.calls": "count",
    "gauge.frame_fields_per_point": "count",
    "hamiltonian.frame_fields_per_assembly": "count",
    "hamiltonian.nnz": "count",
    "spectra.eigensolve.dense.s": "s", "spectra.eigensolve.sparse.s": "s",
    "spectra.eigsh.calls": "count", "spectra.opinv.fill": "count",
    "spectra.opinv.solves": "count",
    "dynamics.splu.calls": "count", "dynamics.lu.fill": "count",
    "dynamics.cayley.steps": "count", "dynamics.cayley.step_ms": "ms",
    "dynamics.norm_drift": "ratio",
    "cli.artifact_bytes": "bytes",
}

# Counts that depend on the run's seed (ARPACK's start vector sets the
# number of Lanczos iterations); every other count is the same for any
# seed.
SEED_DEPENDENT_COUNTS = ("spectra.opinv.solves",)


def _self_times(spans):
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[_PARENT] >= 0:
            child[rec[_PARENT]] += rec[_END] - rec[_START]
    return [rec[_END] - rec[_START] - c for rec, c in zip(spans, child)]


def _ancestors(spans, index):
    parent = spans[index][_PARENT]
    while parent >= 0:
        yield parent
        parent = spans[parent][_PARENT]


def _under(spans, index, names):
    return any(spans[p][_NAME] in names for p in _ancestors(spans, index))


def pass_metrics(spans):
    """Per-layer metrics of one pass from its spans."""
    selft = _self_times(spans)
    by_name = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[_NAME], []).append(i)

    def total(names, values):
        return sum(values[i] for n in names for i in by_name.get(n, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum((spans[i][_ATTRS] or {}).get(key, 0)
                   for i in by_name.get(name, ()))

    out = {name: total(names, selft) for name, names in SELF_TIME.items()}
    duration = [rec[_END] - rec[_START] for rec in spans]

    ff = by_name.get("frames.frame_fields", ())
    out["surfaces.jet.calls"] = count("surfaces.jet")
    out["surfaces.jet.points"] = attr_sum("surfaces.jet", "points")
    out["frames.frame_fields.calls"] = len(ff)
    out["frames.frame_fields.points"] = attr_sum("frames.frame_fields",
                                                 "points")

    pfa = count("gauge.pseudo_field_at")
    out["gauge.pseudo_field_at.calls"] = pfa
    in_point = sum(1 for i in ff
                   if _under(spans, i, ("gauge.pseudo_field_at",)))
    out["gauge.frame_fields_per_point"] = in_point / pfa if pfa else 0.0

    heff = count("hamiltonian.assemble_Heff")
    in_asm = sum(1 for i in ff
                 if _under(spans, i, ("hamiltonian.assemble_Heff",)))
    out["hamiltonian.frame_fields_per_assembly"] = in_asm / heff if heff else 0.0
    out["hamiltonian.nnz"] = (attr_sum("hamiltonian.assemble_H0", "nnz")
                              + attr_sum("hamiltonian.assemble_Hso", "nnz"))

    # eigensolve spans have only spectra-layer children (eigsh and the
    # ARPACK factor), so a path's time is the spans' whole duration
    for path, method in (("dense", "dense-eigh"),
                         ("sparse", "shift-invert-lanczos")):
        out[f"spectra.eigensolve.{path}.s"] = sum(
            duration[i] for i in by_name.get("spectra.eigensolve", ())
            if (spans[i][_ATTRS] or {}).get("path") == method)
    out["spectra.eigsh.calls"] = count("spectra.eigsh")
    out["spectra.opinv.fill"] = attr_sum("spectra.opinv.splu", "fill")
    out["spectra.opinv.solves"] = attr_sum("spectra.opinv.splu", "solves")

    splu_calls = count("dynamics.splu")
    out["dynamics.splu.calls"] = splu_calls
    out["dynamics.lu.fill"] = (attr_sum("dynamics.splu", "fill") // splu_calls
                               if splu_calls else 0)
    steps = attr_sum("dynamics.splu", "solves")
    out["dynamics.cayley.steps"] = steps
    # evolve's self time excludes its factorization: what is left is the
    # stepping loop (right-hand side, solve, observables)
    evolve_self = total(("dynamics.evolve",), selft)
    out["dynamics.cayley.step_ms"] = 1e3 * evolve_self / steps if steps else 0.0
    out["dynamics.norm_drift"] = max(
        [(spans[i][_ATTRS] or {}).get("norm_drift", 0.0)
         for i in by_name.get("dynamics.evolve", ())] or [0.0])

    out["cli.artifact_bytes"] = attr_sum("cli.run", "bytes")
    return out


def share_name(name):
    """JSON name of a time metric reported as a share of the pass."""
    stem = name[:-len(".s")] if name.endswith(".s") else name.rsplit(".", 1)[0]
    return stem + ".share"


def json_metrics(layer, wall):
    """The per-layer metrics the final JSON line carries.

    Layer times go out as their share of the traced pass (in %): a layer
    that a workload bypasses has no spans there, and a time metric that
    read exactly 0 on every run would be indistinguishable from a stuck
    clock.  The seconds themselves are printed in the traced report.
    """
    out = {}
    for name, unit in REPORT_UNITS.items():
        value = layer[name]
        if unit in ("s", "ms"):
            seconds = value * (1e-3 * layer["dynamics.cayley.steps"]
                               if unit == "ms" else 1.0)
            out[share_name(name)] = (100.0 * seconds / wall, "%")
        else:
            out[name] = (value, unit)
    return out


def count_names():
    return [n for n, u in REPORT_UNITS.items() if u in ("count", "bytes")]


def differing_counts(per_pass):
    """Count metrics whose value differs between passes of one run."""
    return [n for n in count_names() if len({p[n] for p in per_pass}) > 1]
