#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and metric this prints the median of the runs and the
distance between the first and third quartile (Python's
`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --workloads query_hot,mixed --seeds 1-5

`--bin PATH` runs an already built perfbench binary instead of the
BENCHMARK.json command (which builds through cargo first).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    command = [args.bin] if args.bin else bench["command"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            argv = command + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(args.seconds), "--trace", args.trace]
            out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(seeds(args.seeds))} runs")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
            note = f"bound {bound}" if bound else ""
            print(f"  {name:40s} median {med:14.6g}  spread {spread:7.4f}  {note}")
            if args.values:
                print("      " + " ".join(f"{v:.6g}" for v in vs))
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
