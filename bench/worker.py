"""One pass of one workload in a fresh process; prints a JSON record.

    python3 bench/worker.py --root ROOT --workload NAME --seed N \
        --trace 0|1 --scratch DIR
    python3 bench/worker.py --root ROOT --setup-only

The first thing timed is the import of conetrace with its numpy, scipy
and sympy stack (`setup_s`).  `wall_s` runs from the first task to the
last checked result.  Run it through bench/run.py, which pins the BLAS
thread count in the environment.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _import_package(src):
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import sympy  # noqa: F401
    import conetrace
    import conetrace.cli  # noqa: F401
    import conetrace.config  # noqa: F401
    here = os.path.realpath(os.path.dirname(conetrace.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"conetrace imported from {here}, not from {src}")


def _versions():
    import numpy
    import scipy
    import sympy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def _plain(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return float(value)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch")
    ap.add_argument("--spans", help="write the traced spans here (JSON lines)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_package(os.path.join(args.root, "src"))
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracing
    import workloads

    make_inputs, run = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    inputs = make_inputs(args.seed)
    p = workloads.Pass(args.seed, args.scratch, tracer)

    cpu0, wall0 = time.process_time(), time.perf_counter()
    run(p, inputs)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    record = {
        "inputs": inputs,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(p.tasks),
        "failed": sum(not t["ok"] for t in p.tasks),
        "tasks": p.tasks,
        "golden_values": {k: _plain(v) for k, v in p.observed.items()},
        "versions": _versions(),
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        shares = tracing.layer_self_seconds(tracer.spans)
        record["layer_self_s"] = shares
        record["intended_frac"] = sum(
            shares.get(layer, 0.0)
            for layer in workloads.INTENDED[args.workload]) / wall_s
        record["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
