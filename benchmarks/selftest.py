"""Self-test of the benchmark itself, at reduced sizes.

    python3 benchmarks/selftest.py

1. Each workload runs through run.py end to end, untraced and traced;
   the last line must be the result object with every metric that
   BENCHMARK.json names, and no check may fail.
2. Each workload runs in this process clean, then with a library output
   corrupted: the corruption must show up as failed checks, with as many
   attempted as in the clean pass (an exception counts too).
3. The count check flags a count that changed between two runs.
4. In a directory holding only BENCHMARK.json and benchmarks/, run.py
   must exit non-zero without printing a result.

Exits 0 when every test passes.
"""

import contextlib
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import spinsurf.cli as cli  # noqa: E402
import spinsurf.dynamics as dynamics  # noqa: E402
import spinsurf.gauge as gauge  # noqa: E402
import spinsurf.hamiltonian as hamiltonian  # noqa: E402
import spinsurf.spectra as spectra  # noqa: E402
from spinsurf.errors import EigensolverError  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        FAILURES.append(message)


@contextlib.contextmanager
def patched(owner, attr, make):
    """Replace owner.attr by make(original) for the duration."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def drifting_norms(evolve):
    def corrupt(*args, **kwargs):
        traj = evolve(*args, **kwargs)
        traj.norms = traj.norms * (1.0 + 1e-6 * np.arange(len(traj.norms)))
        return traj
    return corrupt


def shifted_values(eigensolve):
    def corrupt(*args, **kwargs):
        res = eigensolve(*args, **kwargs)
        res.values = res.values + 1e-2
        return res
    return corrupt


def raising(_fn):
    def corrupt(*_args, **_kwargs):
        raise EigensolverError("injected by the self-test")
    return corrupt


def non_hermitian(assemble):
    def corrupt(*args, **kwargs):
        op = assemble(*args, **kwargs)
        m = op.matrix.tolil()
        m[0, 1] += 1e-6 * op.max_norm()
        op.matrix = m.tocsr()
        return op
    return corrupt


def perturbed_curvature(pseudo_field_at):
    def corrupt(*args, **kwargs):
        s = pseudo_field_at(*args, **kwargs)
        return dataclasses.replace(s, K=s.K * (1.0 + 1e-6))
    return corrupt


def second_write_perturbed(write_json):
    def corrupt(path, payload):
        if f"{os.sep}second{os.sep}" in path:
            payload = json.loads(json.dumps(payload), parse_float=lambda x:
                                 float(x) * (1.0 + 1e-6) + 1e-6)
        return write_json(path, payload)
    return corrupt


CORRUPTIONS = {
    "spin-hall": [("norm drift", dynamics, "evolve", drifting_norms)],
    "torus-spectrum": [
        ("shifted eigenvalues", spectra, "eigensolve", shifted_values),
        ("eigensolver error", spectra, "eigensolve", raising)],
    "operator-assembly": [
        ("non-Hermitian entry", hamiltonian, "assemble_Heff",
         non_hermitian)],
    "pointwise-gauge": [
        ("perturbed K", gauge, "pseudo_field_at", perturbed_curvature),
        ("artifact differs", cli, "_write_json", second_write_perturbed)],
}


def in_process(name, workdir):
    kwargs = {"workdir": workdir} if name == "pointwise-gauge" else {}
    work = workloads.WORKLOADS[name](7, small=True, **kwargs)
    clean = workloads.Checks()
    work.run_pass(clean)
    expect(clean.attempted > 0 and clean.failed == 0,
           f"{name}: clean reduced pass, {clean.failed} of "
           f"{clean.attempted} checks failed {clean.failures[:3]}")
    for label, owner, attr, make in CORRUPTIONS[name]:
        checks = workloads.Checks()
        with patched(owner, attr, make):
            work.run_pass(checks)
        expect(checks.failed > 0 and checks.attempted == clean.attempted,
               f"{name}: {label} -> {checks.failed} of {checks.attempted} "
               f"checks failed")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def end_to_end(name, bench):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             name, "--seed", "5", "--seconds", "2", "--trace", str(trace),
             "--small"], cwd=ROOT, capture_output=True, text=True,
            timeout=170)
        out = last_json(proc.stdout) if proc.returncode == 0 else None
        if out is None:
            expect(False, f"{name} trace {trace}: exit {proc.returncode} "
                          f"{proc.stderr[-300:]}")
            continue
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        expect(set(out) == {"correct", "attempted", "failed", "metrics"}
               and out["correct"] and out["failed"] == 0
               and got == wanted,
               f"{name} trace {trace}: correct={out['correct']} "
               f"attempted={out['attempted']} failed={out['failed']}, "
               f"metrics match BENCHMARK.json: {got == wanted}")
        if trace:
            expect("COUNT MISMATCH" not in proc.stdout,
                   f"{name}: counts repeat between passes and runs")


def count_flags():
    layer = {n: 1 for n in run.metrics.count_names()}
    workload = f"selftest-{os.getpid()}"
    first = run.check_counts(workload, 1, layer)
    layer["frames.frame_fields.calls"] = 2
    second = run.check_counts(workload, 1, layer)
    os.remove(os.path.join(run.OUT, "counts", f"{workload}.json"))
    expect(not first and any("frames.frame_fields.calls" in f
                             for f in second),
           f"count check flags a changed count: {second}")


def bare_directory():
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "spin-hall",
             "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp,
            capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"without src/: exit {proc.returncode}, no result printed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(run.OUT, exist_ok=True)
    workdir = os.path.join(run.OUT, "work", f"selftest-{os.getpid()}")
    try:
        for name in run.WORKLOADS:
            in_process(name, workdir)
            end_to_end(name, bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    count_flags()
    bare_directory()
    print(f"{len(FAILURES)} self-test failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
