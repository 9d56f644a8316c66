#!/usr/bin/env python3
"""Gate the simd backend's matmul speedup over scalar (stdlib only).

Usage: check_bench_regression.py BENCH.json [--mode tensor]
                                 [--min-ratio 2.0]
                                 [--out BENCH_tensor.json]

Reads a google-benchmark ``--benchmark_out`` JSON file. Rows are named
``BM_Matmul/<backend>/<n>`` and carry a ``GFLOP/s`` counter (each row has
already asserted numerical equivalence against the scalar reference, so a
throughput number here is also a correctness certificate — see
bench/micro_tensor.cpp). Writes a summary artifact with per-size
scalar/simd GFLOP/s and the speedup ratio, then fails (exit 1) if the
ratio at the LARGEST common size is below --min-ratio: the largest size is
the least noise-prone and the closest to the pipeline's real working set.
Missing simd rows (CPU without AVX2+FMA, or rows that errored) fail the
gate too — CI runners are x86_64, so absence there means the dispatch
broke.
"""

import argparse
import json
import re
import sys

ROW = re.compile(r"^BM_Matmul/(scalar|simd)/(\d+)$")


def load_rows(path):
    """-> {backend: {n: gflops}} from a --benchmark_out JSON file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = {"scalar": {}, "simd": {}}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        match = ROW.match(bench.get("name", ""))
        if not match:
            continue
        if bench.get("error_occurred"):
            print(f"error row: {bench['name']}: "
                  f"{bench.get('error_message', 'unknown error')}")
            continue
        gflops = bench.get("GFLOP/s")
        if not isinstance(gflops, (int, float)) or gflops <= 0:
            print(f"row {bench['name']} has no positive GFLOP/s counter")
            continue
        rows[match.group(1)][int(match.group(2))] = gflops / 1e9
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json")
    parser.add_argument("--mode", choices=("tensor",), default="tensor",
                        help="which gate to run (only: tensor)")
    parser.add_argument("--min-ratio", type=float, default=2.0,
                        help="minimum simd:scalar GFLOP/s ratio at the "
                             "largest common size (default: 2.0)")
    parser.add_argument("--out", default="BENCH_tensor.json",
                        help="summary artifact path "
                             "(default: BENCH_tensor.json)")
    args = parser.parse_args()

    rows = load_rows(args.bench_json)
    sizes = sorted(set(rows["scalar"]) & set(rows["simd"]))
    summary = {
        "schema": "dpoaf.bench_tensor",
        "version": 1,
        "min_ratio": args.min_ratio,
        "sizes": [
            {
                "n": n,
                "scalar_gflops": round(rows["scalar"][n], 3),
                "simd_gflops": round(rows["simd"][n], 3),
                "ratio": round(rows["simd"][n] / rows["scalar"][n], 3),
            }
            for n in sizes
        ],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    if not sizes:
        print(f"no comparable BM_Matmul scalar/simd row pairs in "
              f"{args.bench_json} (scalar sizes: {sorted(rows['scalar'])}, "
              f"simd sizes: {sorted(rows['simd'])})")
        return 1
    for entry in summary["sizes"]:
        print(f"n={entry['n']}: scalar {entry['scalar_gflops']} GFLOP/s, "
              f"simd {entry['simd_gflops']} GFLOP/s, "
              f"ratio {entry['ratio']}x")
    gate = summary["sizes"][-1]
    if gate["ratio"] < args.min_ratio:
        print(f"FAIL: simd:scalar ratio {gate['ratio']}x at n={gate['n']} "
              f"is below the {args.min_ratio}x floor")
        return 1
    print(f"OK: simd:scalar ratio {gate['ratio']}x at n={gate['n']} "
          f"meets the {args.min_ratio}x floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
