"""spinsurf benchmark: run one workload, check its outputs, print metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in one child process
(a closed loop with one caller: each pass starts when the last one has
ended) for about S seconds of passes; a few more short-lived children
measure set-up.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  See
benchmarks/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("spin-hall", "torus-spectrum", "operator-assembly",
             "pointwise-gauge")
SETUP_PROBES = 5      # set-up-only processes per run, plus the workload's
DEADLINE_S = 170.0    # every child is killed by then; a run ends within 180 s


def _fail(message):
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def tail_percentile(samples):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            return p, cut[int(round(p * 10)) - 1]
    return None


def describe(name, samples, unit):
    line = (f"{name:<16} median {statistics.median(samples):.6g} {unit} "
            f"(n={len(samples)}")
    tail = tail_percentile(samples)
    if tail is not None:
        line += f", p{tail[0]:g} {tail[1]:.6g} {unit}"
    return line + ")"


def source_digest():
    """sha256 over src/**/*.py: identifies the code when git is absent."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is its own git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.samefile(lines[0], ROOT) else None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread.  numpy and scipy each bundle an OpenBLAS with its
    # own pool, so default pools would run 2 * nproc - 1 threads; idle
    # OpenBLAS workers also spin for a while after each call, which made
    # spin-hall 15 % slower and doubled its CPU time on 2 cores.  With one
    # thread the process never runs more threads than nproc, and CPU time
    # above wall time shows parallelism the program itself adds.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, role, workdir, deadline, spans=None):
    """Start one worker; return (its JSON result, seconds to ready).

    The worker is killed, and waited for, if it is still running at the
    ``time.monotonic()`` deadline.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.small:
        cmd.append("--small")
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} process still running at the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, result["ready"] - t0


def check_counts(key, seed, layer):
    """Flag count metrics that differ from an earlier traced run.

    ``key`` names the workload, its size and the source digest: runs of
    other code are not compared.  Seed-independent counts are compared
    with every earlier run under the key, the others only with earlier
    runs of the same seed.
    """
    path = os.path.join(OUT, "counts", f"{key}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    except (OSError, ValueError):
        seen = {"any_seed": {}, "by_seed": {}}
    same_seed = seen["by_seed"].setdefault(str(seed), {})
    flags = []
    for name in metrics.count_names():
        ref = (same_seed if name in metrics.SEED_DEPENDENT_COUNTS
               else seen["any_seed"])
        if name in ref and ref[name] != layer[name]:
            flags.append(f"{name}: {ref[name]} before, {layer[name]} now")
        ref.setdefault(name, layer[name])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return flags


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes (used by the self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spinsurf", "__init__.py")):
        return _fail(f"no spinsurf package under {SRC}")

    tag = (f"{args.workload}{'-small' if args.small else ''}"
           f"-seed{args.seed}-trace{args.trace}")
    workdir = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    spans = os.path.join(OUT, "spans", f"{tag}.jsonl") if args.trace else None
    if spans:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = []
        for i in range(SETUP_PROBES):
            _, ready = run_child(args, "setup", f"{workdir}-probe{i}",
                                 deadline)
            setup.append(ready)
        res, ready = run_child(args, "run", workdir, deadline, spans=spans)
        setup.append(ready)
    except (RuntimeError, OSError, ValueError, KeyError, IndexError) as exc:
        return _fail(str(exc))
    finally:
        for i in range(SETUP_PROBES):
            shutil.rmtree(f"{workdir}-probe{i}", ignore_errors=True)
        shutil.rmtree(workdir, ignore_errors=True)

    env = {"nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           **res["versions"], "blas": res["blas"],
           "process_threads": res["threads"],
           "commit": git_commit(), "src_sha256": source_digest(),
           "seed": args.seed, "workload": args.workload,
           "seconds": args.seconds, "trace": args.trace,
           "small": args.small, "machine": platform.machine()}
    walls = res["walls"]
    error_rate = res["failed"] / max(res["attempted"], 1)
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'})")
    print("env " + json.dumps(env, sort_keys=True))
    print(describe("setup_s", setup, "s"))
    print(describe("wall_s", walls, "s"))
    print(f"{'peak_rss_mb':<16} {res['peak_rss_mb']:.1f} MB")
    print(f"{'error_rate':<16} {error_rate:.6g} ratio "
          f"({res['failed']} failed of {res['attempted']} checks)")
    print(describe("process.cpu_s", res["cpus"], "s"))
    for failure in res["failures"]:
        print(f"  FAILED {failure}")

    record = {"env": env, "setup_s": setup, "wall_s": walls,
              "peak_rss_mb": res["peak_rss_mb"], "cpu_s": res["cpus"],
              "attempted": res["attempted"], "failed": res["failed"],
              "failures": res["failures"]}
    if args.trace:
        layers = res["layers"]
        layer = {n: statistics.median(p[n] for p in layers)
                 for n in layers[0]}
        t_wall = statistics.median(res["traced_walls"])
        overhead = t_wall - statistics.median(walls)
        flags = [f"{n}: differs between passes"
                 for n in metrics.differing_counts(layers)]
        key = "-".join([args.workload] + ["small"] * args.small
                       + [env["src_sha256"]])
        flags += check_counts(key, args.seed, layer)
        print(describe("traced wall_s", res["traced_walls"], "s"))
        for name, unit in metrics.REPORT_UNITS.items():
            value = layer[name]
            shown = (f"{int(value)}" if float(value).is_integer()
                     else f"{value:.6g}")
            print(f"  {name:<40} {shown} {unit}")
        print(f"  {'trace.overhead_s':<40} {overhead:.6g} s")
        for flag in flags:
            print(f"  COUNT MISMATCH {flag}")
        if not flags:
            print("  counts repeat exactly")
        values = metrics.json_metrics(layer, t_wall)
        values["process.cpu_s"] = (statistics.median(res["traced_cpus"]), "s")
        values["process.blas_threads"] = (
            max([b["threads"] or 0 for b in res["blas"]] or [0]), "count")
        values["process.threads"] = (res["threads"], "count")
        values["trace.overhead_s"] = (overhead, "s")
        record.update(layers=layers, traced_wall_s=res["traced_walls"],
                      count_flags=flags, spans=os.path.relpath(spans, ROOT))
    else:
        values = {"setup_s": (statistics.median(setup), "s"),
                   "wall_s": (statistics.median(walls), "s"),
                   "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    record["metrics"] = {k: v for k, (v, _) in values.items()}
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
