#!/usr/bin/env python3
"""Gate the simd backend's matmul and GELU speedups over scalar (stdlib only).

Usage: check_bench_regression.py BENCH.json [--mode tensor]
                                 [--min-ratio 2.0]
                                 [--out BENCH_tensor.json]

Reads a google-benchmark ``--benchmark_out`` JSON file with two row
families (each row has already asserted numerical equivalence against the
scalar reference, so a throughput number here is also a correctness
certificate — see bench/micro_tensor.cpp):

- ``BM_Matmul/<backend>/<n>`` rows carry a ``GFLOP/s`` counter. The gate
  is the simd:scalar ratio at the LARGEST common size (--min-ratio): the
  largest size is the least noise-prone and the closest to the pipeline's
  real working set.
- ``BM_Gelu/<backend>`` rows carry an ``elem/s`` counter (GELU forward +
  backward over one minibatch's MLP activations). The gate is their
  simd:scalar ratio, at a fixed floor of GELU_MIN_RATIO.

Writes a summary artifact with the per-size matmul GFLOP/s, the GELU
throughputs and the ratios, then fails (exit 1) if either ratio is below
its floor. Missing simd rows (CPU without AVX2+FMA, or rows that errored)
fail the gate too — CI runners are x86_64, so absence there means the
dispatch broke.
"""

import argparse
import json
import re
import sys

MATMUL_ROW = re.compile(r"^BM_Matmul/(scalar|simd)/(\d+)$")
GELU_ROW = re.compile(r"^BM_Gelu/(scalar|simd)$")
# Minimum simd:scalar BM_Gelu elem/s ratio; the AVX2 kernel measures
# roughly 16-40x, so 4x only trips when the vector path stops being used.
GELU_MIN_RATIO = 4.0


def rate(bench, counter):
    """The row's positive `counter` value, or None (with a message)."""
    if bench.get("error_occurred"):
        print(f"error row: {bench['name']}: "
              f"{bench.get('error_message', 'unknown error')}")
        return None
    value = bench.get(counter)
    if not isinstance(value, (int, float)) or value <= 0:
        print(f"row {bench['name']} has no positive {counter} counter")
        return None
    return value


def load_rows(path):
    """-> ({backend: {n: gflops}}, {backend: elem_per_s}) from a
    --benchmark_out JSON file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    matmul = {"scalar": {}, "simd": {}}
    gelu = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "")
        match = MATMUL_ROW.match(name)
        if match:
            gflops = rate(bench, "GFLOP/s")
            if gflops is not None:
                matmul[match.group(1)][int(match.group(2))] = gflops / 1e9
            continue
        match = GELU_ROW.match(name)
        if match:
            elems = rate(bench, "elem/s")
            if elems is not None:
                gelu[match.group(1)] = elems
    return matmul, gelu


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json")
    parser.add_argument("--mode", choices=("tensor",), default="tensor",
                        help="which gate to run (only: tensor)")
    parser.add_argument("--min-ratio", type=float, default=2.0,
                        help="minimum simd:scalar matmul GFLOP/s ratio at "
                             "the largest common size (default: 2.0)")
    parser.add_argument("--out", default="BENCH_tensor.json",
                        help="summary artifact path "
                             "(default: BENCH_tensor.json)")
    args = parser.parse_args()

    rows, gelu = load_rows(args.bench_json)
    sizes = sorted(set(rows["scalar"]) & set(rows["simd"]))
    have_gelu = "scalar" in gelu and "simd" in gelu
    summary = {
        "schema": "dpoaf.bench_tensor",
        "version": 2,
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
        "gelu": {
            "min_ratio": GELU_MIN_RATIO,
            "scalar_elem_per_s": gelu.get("scalar"),
            "simd_elem_per_s": gelu.get("simd"),
            "ratio": (round(gelu["simd"] / gelu["scalar"], 3)
                      if have_gelu else None),
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    failed = False
    if not sizes:
        print(f"no comparable BM_Matmul scalar/simd row pairs in "
              f"{args.bench_json} (scalar sizes: {sorted(rows['scalar'])}, "
              f"simd sizes: {sorted(rows['simd'])})")
        failed = True
    else:
        for entry in summary["sizes"]:
            print(f"n={entry['n']}: scalar {entry['scalar_gflops']} GFLOP/s, "
                  f"simd {entry['simd_gflops']} GFLOP/s, "
                  f"ratio {entry['ratio']}x")
        gate = summary["sizes"][-1]
        if gate["ratio"] < args.min_ratio:
            print(f"FAIL: matmul simd:scalar ratio {gate['ratio']}x at "
                  f"n={gate['n']} is below the {args.min_ratio}x floor")
            failed = True
        else:
            print(f"OK: matmul simd:scalar ratio {gate['ratio']}x at "
                  f"n={gate['n']} meets the {args.min_ratio}x floor")

    if not have_gelu:
        print(f"no BM_Gelu scalar/simd row pair in {args.bench_json} "
              f"(backends: {sorted(gelu)})")
        failed = True
    else:
        ratio = summary["gelu"]["ratio"]
        verdict = "FAIL" if ratio < GELU_MIN_RATIO else "OK"
        print(f"{verdict}: gelu simd:scalar ratio {ratio}x "
              f"(scalar {gelu['scalar'] / 1e6:.1f} M elem/s, simd "
              f"{gelu['simd'] / 1e6:.1f} M elem/s) against the "
              f"{GELU_MIN_RATIO}x floor")
        failed = failed or ratio < GELU_MIN_RATIO
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
