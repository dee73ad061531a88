#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how much each
end-to-end metric spreads.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--workloads serve,arena] [--out FILE]

For each workload of BENCHMARK.json (or those named), runs
`perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0`
for `--runs` consecutive seeds and prints, per end-to-end metric, the
median and the quartile spread (Q3 - Q1) / median, with quartiles as
`statistics.quantiles(values, n=4)` gives them, next to the metric's
bound, and the spread of the uncalibrated ops/s for comparison.  Exits
1 if a run fails its checks or a spread other than setup_s exceeds its
bound.  `--out` saves every run's values as JSON.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    raw = re.search(r"^ops_per_s .*\(raw ([0-9.]+) ops/s", out, re.M)
    result["raw_ops_per_s"] = float(raw.group(1)) if raw else None
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()
    ok = True
    saved = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: checks failed "
                      f"({result['failed']} of {result['attempted']} ops)")
                ok = False
            runs.append(dict(result["metrics"],
                             raw_ops_per_s={"value": result["raw_ops_per_s"]}))
        saved[workload] = runs
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r[name]["value"] for r in runs]
            s = spread(values)
            within = s <= metric["bound"]
            if name != "setup_s" and not within:
                ok = False
            print(f"{workload:<11} {name:<12} median {statistics.median(values):12.6g} "
                  f"{metric['unit']:<6} spread {s:6.3f} bound {metric['bound']}"
                  f"{'' if within else '  OVER'}")
        raw = [r["raw_ops_per_s"]["value"] for r in runs]
        if None not in raw:
            print(f"{workload:<11} {'(raw ops/s)':<12} median {statistics.median(raw):12.6g} "
                  f"{'ops/s':<6} spread {spread(raw):6.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
