#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread and records a baseline.

Runs the command in BENCHMARK.json several times per workload, each time
with another seed, in one or more sets. For every end-to-end metric it
reports the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread, (q3 - q1) / median, against the metric's bound; with two or
more sets it also compares each later set's median with the first set's.
Raw values and summaries go to a JSON file.

Run from the repository root:

    python3 benchmark/spread.py --runs 10 --sets 2 \
        --out benchmark/results/baseline.json

Exits non-zero when a run fails, a spread other than setup_s exceeds its
bound, or a later set's median is worse than the first set's by more than
the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    return {
        "seed": seed,
        "wall_s": wall,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "below_third_of_bound": spread < bound / 3,
    }


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: every workload")
    parser.add_argument("--out", default=None, help="write the JSON record here")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = opts.seconds if opts.seconds is not None else spec["run_seconds"]
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    sets = []
    for k in range(opts.sets):
        seeds = [opts.seed_base + k * opts.runs + i for i in range(opts.runs)]
        record = {"seeds": seeds, "workloads": {}}
        for w in workloads:
            runs = []
            for seed in seeds:
                runs.append(run_once(spec["command"], w, seed, seconds, 0))
                print(f"set {k + 1} {w} seed {seed}: "
                      + " ".join(f"{m}={v:.6g}" for m, v in runs[-1]["metrics"].items()),
                      flush=True)
            summary = {m["name"]: summarize([r["metrics"][m["name"]] for r in runs], m["bound"])
                       for m in metrics}
            record["workloads"][w] = {"runs": runs, "summary": summary}
        sets.append(record)

    ok = True
    print(f"\n{'workload':<14} {'metric':<12} {'set':>3} {'median':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for m in metrics:
            for k, record in enumerate(sets):
                s = record["workloads"][w]["summary"][m["name"]]
                flag = ""
                if m["name"] != "setup_s" and s["spread"] > m["bound"]:
                    flag, ok = "SPREAD > BOUND", False
                elif not s["below_third_of_bound"]:
                    flag = "spread >= bound/3"
                print(f"{w:<14} {m['name']:<12} {k + 1:>3} {s['median']:>12.6g} "
                      f"{s['spread']:>8.4f} {m['bound']:>6} {flag}")

    comparison = {}
    for w in workloads:
        comparison[w] = {}
        for m in metrics:
            first = sets[0]["workloads"][w]["summary"][m["name"]]["median"]
            for k, record in enumerate(sets[1:], start=2):
                later = record["workloads"][w]["summary"][m["name"]]["median"]
                worse = (later - first) / first if m["better"] == "lower" else (first - later) / first
                within = worse <= m["bound"]
                ok &= within
                comparison[w].setdefault(m["name"], []).append(
                    {"set": k, "first_median": first, "median": later,
                     "worse_by": worse, "bound": m["bound"], "within_bound": within})
                if not within:
                    print(f"{w} {m['name']}: set {k} median worse by {worse:.3f} "
                          f"(bound {m['bound']})")

    if opts.out:
        doc = {
            "command": spec["command"],
            "run_seconds": seconds,
            "git_revision": git_revision(),
            "host_cpus": os.cpu_count(),
            "sets": sets,
            "comparison": comparison,
            "accepted": ok,
        }
        os.makedirs(os.path.dirname(opts.out) or ".", exist_ok=True)
        with open(opts.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    print("\nall spreads and medians within bounds" if ok else "\nOUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
