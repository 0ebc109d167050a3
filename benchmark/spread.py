#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports each metric's spread.

    python3 benchmark/spread.py [--workload W ...] [--runs N] [--sets K]
                                [--seed S | --vary-seeds] [--out FILE]

Each set is N sequential end-to-end runs of `benchmark/run.sh`, one process
per run, each measuring for the binary's default 15 s (run_seconds).
For every workload, set and metric it records the values, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, which is the
distance between the quartiles as a share of the median. With several sets it
also records how far each later set's median moved from the first set's, as
a share of the first. --vary-seeds gives run i of every set the seed S + i;
otherwise every run uses seed S. Prints a table and, with --out, writes JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["testbed_alexnet6", "longtail_int8_lossy", "hier_lazy_32k",
             "async_afo_ckpt"]


def run_once(workload, seed):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"spread.py: {' '.join(cmd)} failed:\n{proc.stdout}"
                 f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"spread.py: {workload} seed {seed} failed its checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--vary-seeds", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {"runs": args.runs, "sets": args.sets, "seed": args.seed,
              "vary_seeds": args.vary_seeds, "workloads": {}}
    for w in args.workload or WORKLOADS:
        sets = []
        for _ in range(args.sets):
            runs = [run_once(w, args.seed + (i if args.vary_seeds else 0))
                    for i in range(args.runs)]
            sets.append({m: summarize([r[m] for r in runs]) for m in runs[0]})
        entry = {"sets": sets}
        if len(sets) > 1:
            entry["median_shift"] = {
                m: [(s[m]["median"] - sets[0][m]["median"]) /
                    sets[0][m]["median"] if sets[0][m]["median"] else 0.0
                    for s in sets[1:]]
                for m in sets[0]}
        report["workloads"][w] = entry
        for m in sets[0]:
            cells = "  ".join(f"med {s[m]['median']:.6g} spread "
                              f"{s[m]['spread']:.4f}" for s in sets)
            shift = ""
            if len(sets) > 1:
                shift = "  shift " + " ".join(
                    f"{x:+.4f}" for x in entry["median_shift"][m])
            print(f"{w:20s} {m:26s} {cells}{shift}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
