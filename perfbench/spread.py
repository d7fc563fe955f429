#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread, the figure each bound in BENCHMARK.json is
set against.

    python3 perfbench/spread.py --workload serve-cell --seeds 1-10 --seconds 20

Spread is (Q3 - Q1) / median over the runs, with the quartiles from
statistics.quantiles(values, n=4). A metric is marked when its spread is
at or above a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        line = json.loads(out.stdout.strip().splitlines()[-1])
        for name in bounds:
            values[name].append(line["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)

    worst = 0.0
    for name, xs in values.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / q2
        mark = "" if spread < bounds[name] / 3 else "  <-- at or above bound/3"
        if name != "setup_s":
            worst = max(worst, spread / bounds[name])
        print(f"{name:18s} median {q2:12.5g}  spread {spread:6.3f}  bound {bounds[name]}{mark}")
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
