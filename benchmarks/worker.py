"""One workload in one process: set up, run timed passes, report JSON.

Started by ``run.py``, never by hand.  ``--role setup`` stops once the
inputs are ready (a set-up sample); ``--role run`` goes on to the passes.
Either way the last stdout line is a JSON object whose ``ready`` field is
the ``time.monotonic()`` reading at the moment the inputs were ready, so
the parent measures set-up from before the process was started.
"""

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time


def _threads():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _openblas_libs():
    """Paths of the OpenBLAS libraries mapped into this process."""
    paths = []
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path and path not in paths:
                paths.append(path)
    return paths


def _openblas_call(path, stem):
    """Call the getter openblas_<stem> in one library, if it exports it."""
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                if stem == "get_config":
                    fn.restype = ctypes.c_char_p
                return fn()
    return None


def blas_record():
    """Name, build and thread count of each OpenBLAS in the process."""
    out = []
    for path in _openblas_libs():
        config = _openblas_call(path, "get_config")
        out.append({"library": os.path.basename(path),
                    "config": config.decode() if config else None,
                    "threads": _openblas_call(path, "get_num_threads")})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import workloads

    kwargs = {"workdir": args.workdir} if args.workload == "pointwise-gauge" else {}
    work = workloads.WORKLOADS[args.workload](args.seed, small=args.small,
                                              **kwargs)
    ready = time.monotonic()
    if args.role == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    checks = workloads.Checks()
    threads = _threads()

    def passes(budget, tracer=None):
        nonlocal threads
        walls, cpus, layers = [], [], []
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.pass_index = len(walls)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            work.run_pass(checks)
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - cpu0)
            threads = max(threads, _threads())
            if tracer is not None:
                layers.append(metrics.pass_metrics(
                    tracer.pass_spans(len(walls) - 1)))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > budget:
                return walls, cpus, layers

    result = {"ready": ready}
    if args.trace:
        import metrics
        import tracing
        # untraced passes first, then the same work traced: the difference
        # of the medians is the tracing overhead
        walls, cpus, _ = passes(args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t_walls, t_cpus, layers = passes(args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        result.update(traced_walls=t_walls, traced_cpus=t_cpus, layers=layers)
        if args.spans:
            tracer.write(args.spans, {"workload": args.workload,
                                      "seed": args.seed})
    else:
        walls, cpus, _ = passes(args.seconds)

    result.update(
        walls=walls, cpus=cpus, attempted=checks.attempted,
        failed=checks.failed, failures=checks.failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        threads=threads, blas=blas_record(),
        versions={"numpy": numpy.__version__, "scipy": scipy.__version__})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
