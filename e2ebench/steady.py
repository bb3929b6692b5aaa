#!/usr/bin/env python3
"""Steadiness helper for e2ebench: the spread behind BENCHMARK.json's bounds.

Run from the repository root. Timed mode (the default) runs each
workload --runs times, each with its own seed, and prints for every
end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the quartile spread as a share of the median, next to the
metric's bound:

    python3 e2ebench/steady.py --workloads tenant_fleet --runs 5

--exact runs each workload's traced pass twice with one seed and once
with another. It checks that both seeds print the same metric names
and that every count marked exact in NOTES.md repeats exactly for the
repeated seed:

    python3 e2ebench/steady.py --exact
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT = [
    "service.scheduler.dispatches",
    "service.scheduler.migrated",
    "service.scheduler.preempted",
    "service.prepare_cache.hit_ratio",
    "service.prepare_cache.evictions",
    "blocking.blocked_frac",
    "accel.model_solve_us",
    "accel.model_energy_uj",
    "cluster.adc_conversions_per_apply",
    "cluster.groups_executed_per_apply",
    "solver.iterations_per_solve",
    "solver.vector_bytes_per_iter",
    "threadpool.lanes",
]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed")
    return result["metrics"]


def timed(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {}
        for i in range(args.runs):
            seed = args.seed + i
            metrics = run(workload, seed, args.seconds, 0)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in metrics.items()), flush=True)
            for name, m in metrics.items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  spread < bound/3")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            ok = spread < bound / 3
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.2%} {bound:>6.2f}  {'yes' if ok else 'NO'}")
        print(flush=True)
    print(f"largest spread / bound (setup_s excepted): {worst:.2f}")


def exact(args, spec):
    names = [m["name"] for m in spec["per_layer"]]
    bad = 0
    for workload in args.workloads:
        a = run(workload, args.seed, args.seconds, 1)
        b = run(workload, args.seed, args.seconds, 1)
        c = run(workload, args.seed + 1, args.seconds, 1)
        if list(a) != names or list(c) != names:
            print(f"{workload}: metric names differ from BENCHMARK.json")
            bad += 1
        for name in EXACT:
            same = a[name]["value"] == b[name]["value"]
            bad += not same
            print(f"{workload} {name:<36} seed {args.seed}: "
                  f"{a[name]['value']:.10g} / {b[name]['value']:.10g} "
                  f"{'repeats' if same else 'DIFFERS'}; "
                  f"seed {args.seed + 1}: {c[name]['value']:.10g}")
    print("exact counts repeat" if bad == 0 else f"{bad} problems")
    return bad


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", type=lambda s: s.split(","),
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--exact", action="store_true")
    args = parser.parse_args()
    if args.exact:
        return 1 if exact(args, spec) else 0
    timed(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
