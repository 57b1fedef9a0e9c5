"""Repeat benchmark runs over seeds and report each metric's spread.

    python3 bench/spread.py --workloads device-5h,revisit-qa --seeds 1-10 --seconds 30

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints for every metric its median, quartiles (``statistics.quantiles``,
n=4) and the quartile distance as a share of the median, plus the share
of failed operations.  Each run's JSON result is appended to ``--out``
(default ``.bench_results/spread.jsonl``) with its workload, seed, wall
time and stderr log, so sets of runs made at different times can be
compared afterwards.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(runs: list[dict]) -> None:
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    for workload, group in by_workload.items():
        shares = {r["failed"] / r["attempted"] for r in group}
        print(f"{workload}: {len(group)} runs, failed share {sorted(shares)}, "
              f"correct {all(r['correct'] for r in group)}")
        for name in group[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in group]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:28s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_results" / "spread.jsonl"))
    args = parser.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            started = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            run = {"workload": workload, "seed": seed, "started": started, "wall_s": time.time() - started,
                   "log": proc.stderr.splitlines(), **json.loads(proc.stdout.strip().splitlines()[-1])}
            with out.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(run) + "\n")
            runs.append(run)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in run["metrics"].items()), flush=True)
    summarize(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
