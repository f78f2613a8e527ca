"""Spans around the library's layer boundaries, and the per-layer metrics.

Tracing replaces module attributes in the traced process only: each
public function of a layer, in every module namespace that calls it, is
swapped for a wrapper that records a span (name, start, end, parent,
pass).  ``scipy.sparse.linalg.splu`` and the ``splu`` that ARPACK binds
by name in its own module are swapped for proxies whose factor objects
count ``.solve`` calls.  Nothing under ``src/`` changes.  The spans
feed ``metrics.pass_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np
import scipy.sparse.linalg as spla

import spinsurf.cli as cli
import spinsurf.dynamics as dynamics
import spinsurf.frames as frames
import spinsurf.gauge as gauge
import spinsurf.hamiltonian as hamiltonian
import spinsurf.spectra as spectra
import spinsurf.surfaces as surfaces

from metrics import _ATTRS, _END, _NAME, _PARENT, _PASS, _START

ARPACK_MODULE = "scipy.sparse.linalg._eigen.arpack.arpack"


def _points(args, _kwargs, _result):
    # (self, q1, q2) for SurfacePatch.jet, (patch, q1, q2) for frame_fields
    q1, q2 = args[1], args[2]
    return {"points": int(np.broadcast(np.asarray(q1), np.asarray(q2)).size)}


def _nnz(_args, _kwargs, result):
    return {"nnz": int(result.matrix.nnz)}


def _eig_path(_args, _kwargs, result):
    return {"path": result.diagnostics.get("method", "")}


def _norm_drift(_args, _kwargs, traj):
    norms = traj.norms
    return {"norm_drift": float(np.abs(norms - norms[0]).max() / norms[0])}


def _artifact_bytes(args, _kwargs, result):
    paths, _summary = result
    return {"experiment": args[0].experiment,
            "bytes": sum(os.path.getsize(p) for p in paths)}


def _targets():
    """(owner, attribute, span name, attrs) for every wrapped callable.

    A function is wrapped in each namespace that looks it up, so calls
    from inside the library are seen as well as the benchmark's own.
    """
    arpack = importlib.import_module(ARPACK_MODULE)
    jet = [(surfaces.SurfacePatch, "jet", "surfaces.jet", _points)]
    frame = [(mod, "frame_fields", "frames.frame_fields", _points)
             for mod in (frames, hamiltonian, gauge, cli)]
    frame += [(mod, "expansion_report", "frames.expansion_report", None)
              for mod in (frames, cli)]
    gaug = [(gauge, "pseudo_field_at", "gauge.pseudo_field_at", None),
            (gauge, "curl_matches_w", "gauge.curl_matches_w", None),
            (gauge, "flux", "gauge.flux", None),
            (cli, "flux", "gauge.flux", None)]
    # build_h0_operator / build_soi_operator are the H0 and Hso assemblers
    # the bent cylinder calls directly; they carry the same span names.
    ham = [(hamiltonian, "assemble_H0", "hamiltonian.assemble_H0", _nnz),
           (hamiltonian, "assemble_Hso", "hamiltonian.assemble_Hso", _nnz),
           (dynamics, "build_h0_operator", "hamiltonian.assemble_H0", _nnz),
           (dynamics, "build_soi_operator", "hamiltonian.assemble_Hso", _nnz),
           (hamiltonian, "assemble_Heff", "hamiltonian.assemble_Heff", None),
           (cli, "assemble_Heff", "hamiltonian.assemble_Heff", None),
           (hamiltonian, "_check_hermitian", "hamiltonian.checks", None),
           (hamiltonian, "hermiticity_defect", "hamiltonian.checks", None),
           (hamiltonian, "time_reversal_defect", "hamiltonian.checks", None),
           (hamiltonian, "gauge_conjugate", "hamiltonian.gauge_conjugate",
            None)]
    spec = [(spectra, "eigensolve", "spectra.eigensolve", _eig_path),
            (cli, "eigensolve", "spectra.eigensolve", _eig_path),
            (spla, "eigsh", "spectra.eigsh", None),
            (spectra, "cylinder_ring_operator",
             "spectra.cylinder_ring_operator", None)]
    dyn = [(dynamics, "bent_cylinder_operators", "dynamics.operators", None),
           (dynamics, "force_operators", "dynamics.operators", None),
           (dynamics, "evolve", "dynamics.evolve", _norm_drift),
           (dynamics, "force_equality_report",
            "dynamics.force_equality_report", None),
           (dynamics, "spin_hall_run", "dynamics.spin_hall_run", None)]
    clis = [(cli, "run", "cli.run", _artifact_bytes),
            (cli, "compare", "cli.compare", None)]
    factor = [(spla, "splu", "dynamics.splu", None),
              (arpack, "splu", "spectra.opinv.splu", None)]
    return jet + frame + gaug + ham + spec + dyn + clis, factor


class _CountingFactor:
    """A SuperLU factor whose ``solve`` calls are counted on its span."""

    def __init__(self, lu, attrs):
        self._lu = lu
        self._attrs = attrs

    def solve(self, rhs, *args, **kwargs):
        self._attrs["solves"] += 1
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans in memory while installed; restores on uninstall."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_index = -1
        self._saved = []

    def _wrap(self, name, fn, attrs_fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.pass_index, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if attrs_fn is not None:
                rec[_ATTRS] = attrs_fn(args, kwargs, result)
            return result
        return wrapper

    def _wrap_factor(self, name, fn):
        inner = self._wrap(name, fn, None)
        spans = self.spans

        @functools.wraps(fn)
        def factor(matrix, *args, **kwargs):
            index = len(spans)
            lu = inner(matrix, *args, **kwargs)
            attrs = {"fill": int(lu.L.nnz + lu.U.nnz), "solves": 0}
            spans[index][_ATTRS] = attrs
            return _CountingFactor(lu, attrs)
        return factor

    def install(self):
        plain, factor = _targets()
        for owner, attr, name, attrs_fn in plain:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, attrs_fn))
        for owner, attr, name, _ in factor:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap_factor(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def pass_spans(self, index):
        """The spans of one pass, with parents indexed within the pass."""
        rows = [(i, rec) for i, rec in enumerate(self.spans)
                if rec[_PASS] == index]
        if not rows:
            return []
        lo = rows[0][0]
        return [[rec[_NAME], rec[_START], rec[_END],
                 rec[_PARENT] - lo if rec[_PARENT] >= 0 else -1,
                 rec[_PASS], rec[_ATTRS]] for _, rec in rows]

    def write(self, path, header):
        """Write the header line, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, pss, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "pass": pss, "attrs": attrs}) + "\n")
