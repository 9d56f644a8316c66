#!/usr/bin/env python3
"""Steadiness check: run one workload over several seeds and report, per
end-to-end metric, the median and the spread between quartiles as a share
of the median, next to a third of the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload verify_generated --seeds 1-10

Runs are sequential, each through perfbench/run.py with --trace 0 and the
benchmark's run_seconds. Per-seed metric lines go to stderr as they finish.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds",
                                  str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed with code %d" % (seed, out.returncode))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: incorrect result %s" % (seed, result))
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print("seed %d: %s" % (seed, line), file=sys.stderr, flush=True)
        for k in values:
            values[k].append(result["metrics"][k]["value"])

    print("%-18s %12s %9s %9s" % ("metric", "median", "spread", "bound/3"))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print("%-18s %12.5g %9.4f %9.4f" % (m["name"], med, (q3 - q1) / med,
                                            m["bound"] / 3))


if __name__ == "__main__":
    main()
