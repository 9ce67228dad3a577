"""Summaries of benchmark records (the JSON files run.py writes).

    python3 bench/stats.py report [DIR]
        Steadiness of one commit: per workload and end-to-end metric the
        median, quartiles, spread (IQR / median) and min/max over the
        untraced runs, flagged where the spread exceeds the metric's
        bound; from traced runs, the tracing overhead (traced minus
        untraced median wall_s), the intended layers' share of traced
        wall time, and whether the count metrics repeat for a seed.

    python3 bench/stats.py compare PARENT_DIR CHANGE_DIR
        Parent and change runs paired by workload and seed: per workload
        and end-to-end metric the medians, quartiles, the change's win
        fraction and a verdict (improved, no worse, worse, unresolved).

    python3 bench/stats.py pairs PARENT_ROOT CHANGE_ROOT [--seeds 1-10]
        Runs the untraced benchmark in two checkouts in alternating
        pairs (the side that goes first alternates), then compares.

DIR defaults to bench/results.  Records are read from DIR only, not
from its subdirectories.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = SPEC["end_to_end"]
MIN_PAIRS = 10  # choosing-metrics section 8: at least ten pairs


def load(directory, trace=0):
    """{workload: [record, ...]} of one trace mode, oldest first."""
    out = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == trace:
            out[rec["workload"]].append(rec)
    return out


def value(rec, name):
    return rec["result"]["metrics"][name]["value"]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(parent, change, pairs, metric):
    """choosing-metrics section 8 applied to one metric of one workload.

    parent, change: the runs of each side; pairs: (parent, change) per
    seed.  Improved needs at least MIN_PAIRS pairs, 9 in 10 pair wins
    and a median gap wider than the parent's own IQR; otherwise a median worse by more than the
    bound is worse, and a spread wider than the bound is unresolved
    unless every change run beats every parent run."""
    direction, bound = metric["better"], metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in pairs)
    win_frac = wins / len(pairs) if pairs else float("nan")
    if (len(pairs) >= MIN_PAIRS and win_frac >= 0.9
            and abs(cm - pm) > p3 - p1 and better(cm, pm, direction)):
        return win_frac, "improved"
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    if spread > bound:
        best_parent = min(parent) if direction == "lower" else max(parent)
        if all(better(c, best_parent, direction) for c in change):
            return win_frac, "no worse"
        return win_frac, "unresolved"
    worse_by = (cm - pm) / abs(pm) if direction == "lower" else (pm - cm) / abs(pm)
    return win_frac, "worse" if worse_by > bound else "no worse"


def compare(parent_dir, change_dir):
    parent, change = load(parent_dir), load(change_dir)
    print(f"{'workload':15} {'metric':12} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'pairs':>5} {'win':>5}  verdict")
    for workload in sorted(set(parent) & set(change)):
        by_seed = {r["seed"]: r for r in parent[workload]}
        matched = [(by_seed[r["seed"]], r) for r in change[workload]
                   if r["seed"] in by_seed]
        for metric in END_TO_END:
            name = metric["name"]
            pv = [value(r, name) for r in parent[workload]]
            cv = [value(r, name) for r in change[workload]]
            pairs = [(value(p, name), value(c, name)) for p, c in matched]
            win, word = verdict(pv, cv, pairs, metric)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:15} {name:12} {fmt(quartiles(pv)):>30} "
                  f"{fmt(quartiles(cv)):>30} {len(pairs):5d} {win:5.2f}  {word}")


def report(directory):
    untraced, traced = load(directory, 0), load(directory, 1)
    print(f"{'workload':15} {'metric':12} {'n':>3} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6} {'min':>10} {'max':>10}")
    for workload in sorted(untraced):
        runs = untraced[workload]
        for metric in END_TO_END:
            vals = [value(r, metric["name"]) for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med)
            flag = "  SPREAD > BOUND" if spread > metric["bound"] else ""
            print(f"{workload:15} {metric['name']:12} {len(vals):3d} {med:10.4g} "
                  f"{q1:10.4g} {q3:10.4g} {spread:7.3f} {metric['bound']:6.2f} "
                  f"{min(vals):10.4g} {max(vals):10.4g}{flag}")
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"{workload:15} {'fail_frac':12} {len(runs):3d} "
              f"{failed / attempted:10.4g}")
    for workload in sorted(traced):
        runs = traced[workload]
        wall = statistics.median(value(r, "trace.wall_s") for r in runs)
        share = statistics.median(value(r, "trace.intended_frac") for r in runs)
        line = f"{workload:15} traced wall_s {wall:.4g} s, intended layers {share:.1%}"
        if workload in untraced:
            base = statistics.median(value(r, "wall_s") for r in untraced[workload])
            line += f", tracing overhead {wall - base:+.3g} s"
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        by_seed = defaultdict(list)
        for r in runs:
            by_seed[r["seed"]].append(tuple(value(r, c) for c in counts))
        repeated = [len(set(v)) == 1 for v in by_seed.values() if len(v) > 1]
        if repeated:
            line += f", counts repeat: {'yes' if all(repeated) else 'NO'}"
        print(line)


def _seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def pairs(parent_root, change_root, seeds, workloads):
    roots = [Path(parent_root).resolve(), Path(change_root).resolve()]
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for root in (roots if i % 2 == 0 else roots[::-1]):
                cmd = SPEC["command"] + ["--workload", workload, "--seed",
                                         str(seed), "--seconds",
                                         str(SPEC["run_seconds"]), "--trace", "0"]
                done = subprocess.run(cmd, cwd=root, capture_output=True,
                                      text=True)
                last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"{root.name} {workload} seed {seed}: {last[0]}")
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    return 1
    compare(roots[0] / "bench" / "results", roots[1] / "bench" / "results")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="benchmark record summaries")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("report")
    p.add_argument("directory", nargs="?", default=str(BENCH / "results"))
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    p = sub.add_parser("pairs")
    p.add_argument("parent_root")
    p.add_argument("change_root")
    p.add_argument("--seeds", default="1-10", type=_seed_range)
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in SPEC["workloads"]])
    args = ap.parse_args(argv)
    if args.cmd == "report":
        report(args.directory)
    elif args.cmd == "compare":
        compare(args.parent, args.change)
    else:
        return pairs(args.parent_root, args.change_root, args.seeds,
                     args.workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
