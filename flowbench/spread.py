"""Run one workload over several seeds and report each metric's spread.

    python3 flowbench/spread.py --workload train_desk --seeds 1-10 --seconds 50

Runs flowbench/run.py untraced once per seed, one run at a time, from the
current directory (the repository root). For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, and optionally writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return {**json.loads(lines[-1]), "wall_s": time.perf_counter() - t0}


def summarize(results: list[dict]) -> dict[str, dict]:
    table = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        table[name] = {"median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else float("nan"),
                       "unit": results[0]["metrics"][name]["unit"], "values": vals}
    return table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--json", help="write the runs and the summary here")
    args = p.parse_args(argv)

    results = []
    for seed in parse_seeds(args.seeds):
        res = run_once(args.workload, seed, args.seconds)
        results.append(res)
        print(f"seed {seed}: {res['wall_s']:.1f} s, correct={res['correct']} "
              f"attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()), flush=True)
    if len(results) < 2:
        return 0
    table = summarize(results)
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, row in table.items():
        print(f"{name:32s} {row['median']:12.5g} {row['q1']:12.5g} {row['q3']:12.5g} "
              f"{row['spread']:8.4f}  {row['unit']}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": results, "summary": table}, f, indent=1)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
