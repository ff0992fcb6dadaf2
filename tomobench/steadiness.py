"""Repeat the benchmark with distinct seeds and summarize each metric's spread.

    python3 tomobench/steadiness.py --runs 10 --seconds 20 [--workload NAME ...] [--trace 1]

Runs ``run.py`` one run at a time from the checkout's root, with seeds
1..runs (or --first-seed on), and prints, per workload and metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median.  The raw results go to
``tomobench/out/steadiness-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("ENV ")), {})
    return {"seed": seed, "result": json.loads(lines[-1]), "env": env}


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "min": min(values), "max": max(values),
        }
    failed = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    out["failed_share"] = sorted(failed)
    out["correct"] = all(r["result"]["correct"] for r in runs)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        default=None, help="repeatable; default: all three")
    args = parser.parse_args()
    workloads = args.workload or ["n4_search", "n6_refine", "n6_report"]
    raw, summary = {}, {}
    for workload in workloads:
        raw[workload] = []
        for k in range(args.runs):
            seed = args.first_seed + k
            raw[workload].append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: "
                  + json.dumps(raw[workload][-1]["result"]["metrics"]), flush=True)
        summary[workload] = summarize(raw[workload])
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "summary": summary, "raw": raw}, fh, indent=1)
    for workload, metrics in summary.items():
        print(f"== {workload}  correct={metrics['correct']} failed_share={metrics['failed_share']}")
        for name, s in metrics.items():
            if isinstance(s, dict):
                print(f"  {name:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                      f"  spread {s['spread']:.4f}  [{s['min']:.6g}, {s['max']:.6g}]")
    print(f"raw results: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
