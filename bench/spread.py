"""Run the benchmark once per seed and report each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median) per
workload, next to its bound.

Usage:
    python3 bench/spread.py [--workload NAME ...] [--seeds 10] [--first-seed 0]
                            [--seconds S] [--out FILE]

Runs are sequential.  ``--out`` writes every run's result and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    runs, summary = {}, {}
    for name in args.workload or names:
        runs[name] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                return 1
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            result["provenance"] = json.loads(lines[-2].split(" ", 1)[1])
            runs[name].append(result)
            values = " ".join(f"{k}={v['value']:.6g}"
                              for k, v in sorted(result["metrics"].items()))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}",
                  flush=True)
        summary[name] = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[name]]
            row = {"median": statistics.median(values),
                   "spread": spread(values) if len(values) > 1 else None,
                   "bound": metric["bound"]}
            summary[name][metric["name"]] = row
            shown = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
            print(f"  {name} {metric['name']}: median {row['median']:.6g} "
                  f"{metric['unit']}, spread {shown} (bound {metric['bound']})")
    if args.out:
        args.out.write_text(json.dumps({"runs": runs, "summary": summary},
                                       indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
