#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload bg --seeds 1-10 [--seconds 15]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles with n=4) and the spread, (q3 - q1) / median.  A
metric is marked steady ("ok") when its spread is below a third of its
bound in BENCHMARK.json.  With --out, the summary is also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        bound = bounds.get(name)
        verdict = "" if bound is None else f"  bound {bound:g}: {'ok' if s['spread'] <= bound / 3 else 'WIDE'}"
        print(f"{name:34s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
              f"spread {s['spread']:.4f}{verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seeds": parse_seeds(args.seeds),
            "seconds": args.seconds,
            "all_correct": all(r["correct"] for r in runs), "metrics": summary,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
