"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run is a series of passes.  Each pass is a fresh Python process
(bench/worker.py) that imports conetrace from ./src, makes the
workload's inputs from the seed, runs its tasks and checks each result
against its oracle.  Passes repeat until --seconds have gone by, so a
run measures for at least that long and stops at the next pass
boundary.  Processes that only import the package, one before the
passes and as many after them as needed, bring the set-up samples (one
per pass, plus these) up to SETUP_SAMPLES.  BLAS and
OpenMP run single-threaded, pinned in the children's environment.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the
median over the passes (set-up time: over all import samples).  --trace
1 wraps the package's public functions, records spans and reports the
per-layer metrics instead.  Every metric is printed as `name value unit`
and the last line is one JSON object with the verdict and the metrics.
A record of the run, with the machine, every pass and every task, goes
to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREADS = "1"


def _env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # conetrace must come from ./src
    return env


def _worker(extra, deadline):
    """Run bench/worker.py; its record is the last line it prints."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT)] + extra
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left in the run for another process")
    # run() kills the child on timeout and waits for it to end
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    """The checked-out commit, read from .git without running git (the
    benchmark may run in an export that has no repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def machine_record(seed, versions):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **versions,
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
        "commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker before the exception propagates
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "conetrace" / "__init__.py").is_file():
        sys.stderr.write(f"no conetrace sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    scratch = RESULTS / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        # import-only probes go before and after the passes, so the set-up
        # samples are spread over the run rather than taken back to back
        setups = [_worker(["--setup-only"], deadline)["setup_s"]]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            extra = ["--workload", args.workload, "--seed", str(args.seed),
                     "--trace", str(args.trace), "--scratch", str(scratch)]
            if args.trace:
                spans = RESULTS / "spans" / f"{stamp}-pass{len(passes)}.jsonl"
                spans.parent.mkdir(exist_ok=True)
                extra += ["--spans", str(spans)]
            passes.append(_worker(extra, deadline))
        setups += [p["setup_s"] for p in passes]  # each pass imports once
        setups += [_worker(["--setup-only"], deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES - len(setups))]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    def median(key):
        return statistics.median(p[key] for p in passes)

    if args.trace:
        values = {m["name"]: statistics.median(p["layers"][m["name"]]
                                               for p in passes)
                  for m in declared if m["name"] in passes[0]["layers"]}
        values["trace.wall_s"] = median("wall_s")
        values["trace.intended_frac"] = median("intended_frac")
    else:
        values = {"wall_s": median("wall_s"),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": median("peak_rss_mb")}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes),
        "machine": machine_record(args.seed, passes[0]["versions"]),
        "fail_frac": failed / attempted,
        "cpu_s": median("cpu_s"),
        "setup_samples": setups,
        "pass_records": passes,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }
    path = RESULTS / f"{stamp}.json"
    path.write_text(json.dumps(record, indent=1))

    for p in passes:
        for task in p["tasks"]:
            if not task["ok"]:
                print(f"FAILED {task['task']}: " + "; ".join(task["details"]))
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} pass(es), {attempted} tasks")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {record['fail_frac']:.6g} 1")
    print(f"cpu_s {record['cpu_s']:.6g} s")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
