#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json on several seeds and appends one
row of medians, quartile spreads and the host to perfbench/trajectory.jsonl.

    python3 perfbench/trajectory.py --seeds 101-110 --label <commit>

Run it from the root of a checkout, on the parent commit and on a change,
with the same seeds: the rows are what a performance claim compares. The
spread of a metric is the distance between its first and third quartile
(statistics.quantiles, n=4) as a share of its median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return {"median": med, "min": min(values),
            "spread": (q[2] - q[0]) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("101-110"))
    ap.add_argument("--label", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    row = {"label": args.label, "trace": args.trace, "seeds": args.seeds,
           "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values, correct = {}, True
        for seed in args.seeds:
            argv = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace)]
            out = subprocess.run(argv, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or len(lines) < 2:
                sys.exit("%s seed %d failed:\n%s" % (workload, seed,
                                                     out.stderr[-2000:]))
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            row["host"] = detail["host"]
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: correct=%s" % (workload, seed,
                                              result["correct"]), flush=True)
        row["workloads"][workload] = {
            "correct": correct,
            "metrics": {k: summarize(v) for k, v in sorted(values.items())}}
        for name, s in sorted(row["workloads"][workload]["metrics"].items()):
            print("  %-28s median %-14.6g spread %.4f" % (name, s["median"],
                                                         s["spread"]))
    with open(os.path.join(HERE, "trajectory.jsonl"), "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
