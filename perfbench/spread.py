#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload given, runs the command from BENCHMARK.json (or
--bin) once per seed and prints, per metric, the median and the
interquartile range as a share of the median, computed exactly as
`statistics.quantiles(values, n=4)` gives the quartiles.

    python3 perfbench/spread.py --workloads fleet gateway cluster \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0] [--bin PATH]

Run from the repository root. Each run's full output goes to
perfbench/out/spread-<workload>-<seed>-trace<k>.log.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=["fleet", "gateway", "cluster"])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--bin", default=None, help="run this binary instead of the BENCHMARK.json command")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    base = [args.bin] if args.bin else bench["command"]
    kind = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    os.makedirs("perfbench/out", exist_ok=True)

    for w in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = base + ["--workload", w, "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            log = f"perfbench/out/spread-{w}-{seed}-trace{args.trace}.log"
            with open(log, "w") as f:
                f.write(p.stdout)
                f.write(p.stderr)
            if p.returncode != 0:
                print(f"{w} seed {seed}: exit {p.returncode}, see {log}", file=sys.stderr)
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            brief = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items() if k in bounds)
            print(f"{w} seed {seed} ({wall:.0f} s, failed {res['failed']}/{res['attempted']}): {brief}", flush=True)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"\n{w}: metric, median, IQR/median, bound")
        for k, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(k)
            flag = "" if b is None else ("  OK" if spread <= b / 3 else ("  within bound" if spread <= b else "  OVER BOUND"))
            print(f"  {k:<42} {med:>14.6g} {spread:>8.4f} {b if b is not None else '-':>6}{flag}")
        print(flush=True)


if __name__ == "__main__":
    main()
