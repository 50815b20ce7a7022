#!/usr/bin/env python3
"""Steadiness and determinism self-check of the serve benchmark.

Usage, from the repository root:

    python3 perfbench/steady.py [--workloads a,b] [--seeds N] [--first-seed S]
                                [--sets N] [--seconds S] [--trace]

For each workload it makes `--sets` sets of runs of `perfbench/run.py`, one
run per seed in each set, and reports for every end-to-end metric and set
the median, the quartiles (Python's `statistics.quantiles(values, n=4)`) and
the spread: the distance between the quartiles as a share of the median. A
spread at or above the metric's bound in BENCHMARK.json fails; one above a
third of the bound is flagged. Each later set's median is compared with the
first set's: a change in the metric's worse direction by more than its bound
fails. Every seed must give the same serve-CSV fingerprint in every set,
every run must be `correct`, and its metric names must match BENCHMARK.json.
With `--trace` it also makes one traced run per workload and checks its
per-layer metric names. The exit code is 0 only if every check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    fingerprint = next((l.split()[1] for l in lines if l.startswith("fingerprint ")), None)
    return json.loads(lines[-1]), fingerprint, out.stderr


def spread_of(values):
    """(median, q1, q3, spread) of `values`."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = [m["name"] for m in bench["per_layer"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    problems = []
    for workload in args.workloads.split(","):
        # values[set][metric] is the list of that metric over the seeds.
        values = [{name: [] for name in metrics} for _ in range(args.sets)]
        fingerprints = {}
        for k in range(args.sets):
            for seed in seeds:
                result, fingerprint, stderr = run_once(workload, seed, args.seconds, False)
                first = fingerprints.setdefault(seed, fingerprint)
                if fingerprint != first:
                    problems.append(f"{workload} seed {seed}: fingerprint {fingerprint} in set "
                                    f"{k + 1} != {first} in set 1")
                if not result["correct"]:
                    problems.append(f"{workload} set {k + 1} seed {seed}: incorrect\n{stderr}")
                if set(result["metrics"]) != set(metrics):
                    problems.append(f"{workload} seed {seed}: metric names differ from "
                                    "BENCHMARK.json")
                    continue
                for name in metrics:
                    values[k][name].append(result["metrics"][name]["value"])
                print(f"  {workload} set {k + 1} seed {seed}: " + ", ".join(
                    f"{n}={v['value']:.5g}" for n, v in result["metrics"].items()), flush=True)
        print(f"{workload}: {args.sets} sets x {len(seeds)} seeds")
        print(f"  {'metric':<22}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'worse':>9}{'bound':>7}")
        for name, m in metrics.items():
            bound = m["bound"]
            base = statistics.median(values[0][name])
            for k in range(args.sets):
                med, q1, q3, spread = spread_of(values[k][name])
                # How much worse this set's median is than the first set's.
                change = (med - base) / base if base else 0.0
                worse = change if m["better"] == "lower" else -change
                flag = ""
                if spread >= bound:
                    flag = "FAIL"
                    problems.append(f"{workload} {name} set {k + 1}: spread {spread:.4f} >= "
                                    f"bound {bound}")
                elif spread > bound / 3:
                    flag = "wide"
                if worse > bound:
                    flag += " MOVED"
                    problems.append(f"{workload} {name} set {k + 1}: median {worse:+.4f} worse "
                                    f"than set 1, bound {bound}")
                print(f"  {name:<22}{k + 1:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
                      f"{worse:>+9.4f}{bound:>7}  {flag}")
        if args.trace:
            result, _, stderr = run_once(workload, seeds[0], args.seconds, True)
            if not result["correct"]:
                problems.append(f"{workload} traced: incorrect\n{stderr}")
            if list(result["metrics"]) != per_layer:
                problems.append(f"{workload} traced: metric names differ from BENCHMARK.json")
            print(f"  traced run: correct={result['correct']}, "
                  f"{len(result['metrics'])} per-layer metrics")
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
