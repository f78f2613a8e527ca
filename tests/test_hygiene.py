"""Source hygiene of the package, checked with the standard-library ast.

* every import in a module is used by that module (``__init__.py``
  re-exports, so it is exempt);
* every module-level private name (``_name``) is read somewhere in the
  package, so a deletion cannot leave an orphaned helper or table behind;
* no module uses a bare ``assert`` statement: ``python -O`` strips them,
  so guards on results raise package errors instead;
* no module binds a top-level ``def`` or ``class`` name twice, so a name
  looked up on the module is the function that the module's own tables
  captured;
* only ``hamiltonian`` builds a stencil from ``scipy.sparse`` pieces
  (``kron``, ``diags``, ``eye``), and ``_check_hermitian`` is called only
  in ``_write_csr``, so every operator is written, and checked, by the
  one node-block writer;
* only ``hamiltonian`` knows the interleaved spin layout: no other
  module slices with a step of 2 (``0::2``, ``1::2``) or writes the
  matrix of J = i sigma_y, the spin map of time reversal;
* only ``hamiltonian`` reads ``.kramers``: it decides how many Fourier
  blocks carry the spectrum and which block pairs with which, and
  ``spectra`` and ``dynamics`` read both from ``.partners()``;
* only ``hamiltonian`` reads ``.real_blocks``: it decides whether a
  Fourier block is real, and ``spectra`` and ``dynamics`` follow the
  dtype of what ``block`` returns;
* only ``hamiltonian`` reads ``.couplings`` and ``.symbols``: the one
  form B_m = C_0 + p_m C_1 + q_m C_2 of a Fourier split is its own, and
  ``spectra`` and ``dynamics`` take the blocks from ``block`` and the
  symbol of -i d from ``momenta``;
* only ``hamiltonian`` forms split-axis wavenumbers and symbols: no
  other module reads ``fftfreq`` or ``_wavenumbers``, and no
  function of another module that works on a Fourier split reads ``pi``,
  ``sin``, ``cos`` or ``tan``; it takes them from ``block`` and
  ``momenta``;
* only ``hamiltonian`` names a split axis: no other module reads
  ``.isometry_axis`` or passes an int literal to ``_spectral_blocks`` or
  ``_transverse_operators``, so a split built from geometry runs along
  the patch's isometry axis, which ``_isometry_line`` reads;
* ``hamiltonian`` calls ``frame_fields`` only in ``_frame_fields_on``,
  so no grid evaluation (``frame_fields(patch, *grid.mesh())``) skips
  the one line it reads along a patch's isometry axis;
* only ``spectra`` reads ``_DENSE_CUTOFF`` and calls ``splu``: the
  cutoff means only "solve a whole matrix densely", and the one sparse
  factorization serves shift-invert;
* ``dynamics`` imports nothing from ``scipy.sparse.linalg``: it
  propagates on Fourier blocks and factors nothing;
* no call builds a ``HermitianOperator`` with ``grid=None``, by keyword
  or in place: every operator the package builds carries its grid, so
  each one that splits reaches the Fourier-block route;
* every function the benchmark's tracer wraps still exists under the
  name it looks up, so a rename shows here and not only in traced runs;
* every ``method`` that ``eigensolve`` reports falls in one of the
  benchmark's per-route buckets;
* the tracer's norm-drift reading of an ``evolve`` result on the exact
  Fourier-block route is round-off.
"""

import ast
import importlib
import pathlib

import numpy as np
import scipy.sparse as sp

from spinsurf.dynamics import (BentCylinderSetup, bent_cylinder_operators,
                               evolve, gaussian_wavepacket)
from spinsurf.hamiltonian import Grid, assemble_Heff
from spinsurf.spectra import cylinder_ring_operator, eigensolve
from spinsurf.surfaces import make_surface

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinsurf"


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _read_names(tree):
    """Every name a module loads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _module_level_names(tree):
    """Names bound by the module's top-level statements."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.For)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = _read_names(tree) | _exported(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def test_no_orphaned_private_names():
    modules = _modules()
    read = set().union(*(_read_names(tree) for tree in modules.values()))
    orphans = [f"{name}: {ident}" for name, tree in modules.items()
               for ident in _module_level_names(tree)
               if ident.startswith("_") and not ident.startswith("__")
               and ident not in read]
    assert not orphans, orphans


def test_no_bare_asserts():
    found = [f"{name}:{node.lineno}" for name, tree in _modules().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_top_level_definition_twice():
    twice = []
    for name, tree in _modules().items():
        seen = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name in seen:
                    twice.append(f"{name}: {node.name}")
                seen.add(node.name)
    assert not twice, twice


def _sparse_stencil_calls(tree):
    """Calls of scipy.sparse's kron, diags or eye, through a module alias
    or an imported name."""
    pieces = {"kron", "diags", "eye"}
    aliases, bare = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "scipy.sparse"}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "sparse"}
        elif (isinstance(node, ast.ImportFrom)
              and node.module == "scipy.sparse"):
            bare |= {alias.asname or alias.name for alias in node.names
                     if alias.name in pieces}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if ((isinstance(func, ast.Attribute) and func.attr in pieces
             and isinstance(func.value, ast.Name)
             and func.value.id in aliases)
                or (isinstance(func, ast.Name) and func.id in bare)):
            yield node.lineno


def _calls_of(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def test_stencils_and_the_hermiticity_check_live_in_hamiltonian():
    modules = _modules()
    stencils = [f"{name}:{line}" for name, tree in modules.items()
                if name != "hamiltonian.py"
                for line in _sparse_stencil_calls(tree)]
    assert not stencils, stencils
    checks = [f"{name}:{node.lineno}" for name, tree in modules.items()
              for node in _calls_of(tree, "_check_hermitian")]
    writer = next(node for node in modules["hamiltonian.py"].body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_write_csr")
    in_writer = [f"hamiltonian.py:{node.lineno}"
                 for node in _calls_of(writer, "_check_hermitian")]
    assert in_writer and checks == in_writer, checks


def _spin_layout_uses(tree):
    """Lines that slice with a constant step of 2 or write the literal
    [[0, 1], [-1, 0]] of J = i sigma_y."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Slice)
                and isinstance(node.step, ast.Constant)
                and node.step.value == 2):
            yield node.lineno
        elif isinstance(node, ast.List):
            try:
                if ast.literal_eval(node) == [[0, 1], [-1, 0]]:
                    yield node.lineno
            except ValueError:
                pass


def test_spin_layout_lives_in_hamiltonian():
    found = [f"{name}:{line}" for name, tree in _modules().items()
             if name != "hamiltonian.py"
             for line in _spin_layout_uses(tree)]
    assert not found, found
    # the rule sees the layout where it is
    assert list(_spin_layout_uses(_modules()["hamiltonian.py"]))
    assert sorted(_spin_layout_uses(ast.parse(
        "a[1::2] = b[0::2]\nJ = [[0, 1], [-1, 0]]"))) == [1, 1, 2]


def _attribute_reads(tree, attr):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == attr]


def test_kramers_is_read_only_in_hamiltonian():
    modules = _modules()
    found = [f"{name}:{line}" for name, tree in modules.items()
             if name != "hamiltonian.py"
             for line in _attribute_reads(tree, "kramers")]
    assert not found, found
    for name in ("spectra.py", "dynamics.py"):
        assert _attribute_reads(modules[name], "partners"), name


def test_real_blocks_is_read_only_in_hamiltonian():
    modules = _modules()
    found = [f"{name}:{line}" for name, tree in modules.items()
             if name != "hamiltonian.py"
             for line in _attribute_reads(tree, "real_blocks")]
    assert not found, found
    # the rule sees the read where it is
    assert _attribute_reads(modules["hamiltonian.py"], "real_blocks")


def test_split_form_is_read_only_in_hamiltonian():
    modules = _modules()
    for attr in ("couplings", "symbols"):
        found = [f"{name}:{line}" for name, tree in modules.items()
                 if name != "hamiltonian.py"
                 for line in _attribute_reads(tree, attr)]
        assert not found, (attr, found)
        # the rule sees the reads where they are
        assert _attribute_reads(modules["hamiltonian.py"], attr), attr
    for name in ("spectra.py", "dynamics.py"):
        assert _attribute_reads(modules[name], "block"), name
    assert _attribute_reads(modules["dynamics.py"], "momenta")


# attributes only a Fourier split (``hamiltonian._FourierBlocks``) has
_SPLIT_ATTRIBUTES = {"block", "partners", "lift", "to_blocks", "from_blocks",
                     "time_reverse", "momenta", "rows"}
_WAVENUMBER_NAMES = {"pi", "tau", "sin", "cos", "tan"}
_WRAP_NAMES = {"fftfreq", "rfftfreq", "_wavenumbers"}


def _wavenumber_uses(tree):
    """Lines that read a name of ``_WRAP_NAMES``, or read a name of
    ``_WAVENUMBER_NAMES`` in a function that reads a split attribute."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            if (getattr(node, "id", None) or getattr(node, "attr", None)) \
                    in _WRAP_NAMES:
                yield node.lineno
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
            continue
        if not _SPLIT_ATTRIBUTES & {node.attr for node in ast.walk(func)
                                    if isinstance(node, ast.Attribute)}:
            continue
        for node in ast.walk(func):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and name in _WAVENUMBER_NAMES):
                yield node.lineno


def test_split_wavenumbers_are_formed_only_in_hamiltonian():
    modules = _modules()
    found = [f"{name}:{line}" for name, tree in modules.items()
             if name != "hamiltonian.py"
             for line in sorted(set(_wavenumber_uses(tree)))]
    assert not found, found
    # the rule sees the wavenumbers where they are formed (the symbols of
    # both split forms and the sweep order), and each form
    ham = modules["hamiltonian.py"]
    seen = set(_wavenumber_uses(ham))
    formed = {func.name: range(func.lineno, func.end_lineno + 1)
              for func in ast.walk(ham) if isinstance(func, ast.FunctionDef)
              and func.name in ("_fourier_blocks", "_spectral_blocks",
                                "_sweep_order")}
    assert len(formed) == 3, formed
    for name, lines in formed.items():
        assert seen.intersection(lines), name
    assert sorted(set(_wavenumber_uses(ast.parse(
        "order = np.fft.fftfreq(n)\n"
        "def f(split, m):\n"
        "    return split.block(m), math.sin(2 * math.pi * m / split.n)\n"
        "def g(c, m):\n"
        "    return math.cos(m) * c\n")))) == [1, 3]


def _split_axis_uses(tree):
    """Lines that read ``.isometry_axis`` or pass an int literal to
    ``_spectral_blocks`` or ``_transverse_operators``."""
    lines = _attribute_reads(tree, "isometry_axis")
    for name in ("_spectral_blocks", "_transverse_operators"):
        for node in _calls_of(tree, name):
            args = node.args + [kw.value for kw in node.keywords]
            if any(isinstance(a, ast.Constant) and type(a.value) is int
                   for a in args):
                lines.append(node.lineno)
    return sorted(lines)


def test_split_axis_is_named_only_in_hamiltonian():
    modules = _modules()
    found = [f"{name}:{line}" for name, tree in modules.items()
             if name != "hamiltonian.py" for line in _split_axis_uses(tree)]
    assert not found, found
    # the rule sees the axis where it is read, and each form of a named one
    assert _split_axis_uses(modules["hamiltonian.py"])
    assert _split_axis_uses(ast.parse(
        "h0, hso = _spectral_blocks(grid, geo, 1)\n"
        "ring = hamiltonian._transverse_operators(grid, geo, axis=0)\n"
        "h0, hso = _spectral_blocks(patch, grid)\n"
        "axis = patch.isometry_axis\n")) == [1, 2, 4]


def _frame_fields_outside(tree, owner):
    """Lines that call ``frame_fields`` outside the top-level function
    ``owner``."""
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == owner
              for node in _calls_of(fn, "frame_fields")}
    for node in _calls_of(tree, "frame_fields"):
        if id(node) not in inside:
            yield node.lineno


def test_hamiltonian_evaluates_frame_fields_on_lines():
    tree = _modules()["hamiltonian.py"]
    assert _calls_of(tree, "frame_fields")
    found = list(_frame_fields_outside(tree, "_frame_fields_on"))
    assert not found, found
    # the rule sees a whole-grid call beside the line-aware one
    assert list(_frame_fields_outside(ast.parse(
        "def _frame_fields_on(patch, mesh):\n"
        "    return frame_fields(patch, *mesh)\n"
        "def assemble(patch, grid):\n"
        "    return frame_fields(patch, *grid.mesh())\n"),
        "_frame_fields_on")) == [4]


def test_dense_cutoff_and_splu_live_in_spectra():
    modules = _modules()
    cutoff = [name for name, tree in modules.items()
              if "_DENSE_CUTOFF" in _read_names(tree)]
    splu = [name for name, tree in modules.items() if _calls_of(tree, "splu")]
    assert cutoff == splu == ["spectra.py"], (cutoff, splu)


def _sparse_linalg_imports(tree):
    """Lines that import ``scipy.sparse.linalg`` or a name from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("scipy.sparse.linalg")
                   for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if ((node.module or "").startswith("scipy.sparse.linalg")
                    or (node.module == "scipy.sparse"
                        and any(alias.name == "linalg"
                                for alias in node.names))):
                yield node.lineno


def test_dynamics_imports_no_sparse_solver():
    assert not list(_sparse_linalg_imports(_modules()["dynamics.py"]))
    # the rule sees each form of the import
    assert sorted(_sparse_linalg_imports(ast.parse(
        "import scipy.sparse.linalg as spla\n"
        "from scipy.sparse.linalg import splu\n"
        "from scipy.sparse import linalg\n"))) == [1, 2, 3]


def _gridless_operators(tree):
    """Lines that call ``HermitianOperator`` with a grid of None, by
    keyword or as the second positional argument."""
    for node in _calls_of(tree, "HermitianOperator"):
        grids = [kw.value for kw in node.keywords if kw.arg == "grid"]
        grids += node.args[1:2]
        if any(isinstance(g, ast.Constant) and g.value is None
               for g in grids):
            yield node.lineno


def test_every_operator_is_built_with_its_grid():
    modules = _modules()
    found = [f"{name}:{line}" for name, tree in modules.items()
             for line in _gridless_operators(tree)]
    assert not found, found
    # the rule sees each form of the call, and not a grid
    assert sorted(_gridless_operators(ast.parse(
        "HermitianOperator(m, None, t)\n"
        "hamiltonian.HermitianOperator(matrix=m, grid=None, terms=t)\n"
        "HermitianOperator(m, grid, t)\n"))) == [1, 2]


def test_tracing_targets_resolve(monkeypatch):
    # benchmarks/tracing.py imports its sibling modules by bare name
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    plain, factor = importlib.import_module("tracing")._targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in plain + factor
               if not callable(getattr(owner, attr, None))]
    assert not missing, missing


def test_every_eigensolve_method_has_a_benchmark_bucket(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    metrics = importlib.import_module("metrics")
    torus = make_surface("torus", rho=1.0, R=3.0)
    runs = {       # route: (operator, which, expected fourier_axis)
        "dense": (cylinder_ring_operator(1.0, 16).matrix, "lowest", None),
        "Fourier blocks": (assemble_Heff(torus, Grid.for_patch(torus, 8, 16)),
                           "lowest", 1),
        "shift-invert lowest": (cylinder_ring_operator(1.0, 256).matrix,
                                "lowest", None),
        "shift-invert nearest": (sp.csr_matrix(np.diag(np.arange(300.0))),
                                 "nearest", None),
    }
    unbucketed = []
    for route, (op, which, axis) in runs.items():
        d = eigensolve(op, k=4, which=which, target=5.5, seed=0,
                       return_vectors=False).diagnostics
        assert d["fourier_axis"] == axis, route
        # one eigensolve span lasting 1 s, labelled as the tracer does
        span = ["spectra.eigensolve", 0.0, 1.0, -1, 0, {"path": d["method"]}]
        out = metrics.pass_metrics([span])
        if (out["spectra.eigensolve.dense.s"]
                + out["spectra.eigensolve.sparse.s"]) != 1.0:
            unbucketed.append(f"{route}: {d['method']}")
    assert not unbucketed, unbucketed


def test_block_route_norm_drift_reads_round_off(monkeypatch):
    # the spin-hall workload's norm-drift span reads evolve's result
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    norm_drift = importlib.import_module("tracing")._norm_drift
    setup = BentCylinderSetup(n_theta=20, n_s=160)
    H0, Hso, _, _ = bent_cylinder_operators(setup)
    packets = [gaussian_wavepacket(H0.grid, (0.0, 10.0), (0.045, 2.0), 8.0,
                                   spin) for spin in (+1, -1)]
    trajs = evolve(H0 + Hso, packets, 8e-4, 60, record_every=5)
    assert norm_drift((), {}, trajs)["norm_drift"] <= 1e-12
