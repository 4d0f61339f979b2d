"""Regenerate bench/pins.json: the canonical report hash of every workload
for each pinned CLI seed.

Usage: python3 bench/pin.py [--workload NAME ...]

Run it only at a commit whose reports are known to be right; every later
benchmark run counts a report with another hash as a failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import PINS, cli_args, report_hash, require_source, run_child
from workloads import PINNED_SEEDS, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    require_source()
    doc = json.loads(PINS.read_text()) if PINS.exists() else {}
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        hashes = []
        for cli_seed in range(PINNED_SEEDS):
            child = run_child(cli_args(workload, cli_seed))
            if child.code != 0:
                print(f"{name} seed {cli_seed}: exit {child.code}\n"
                      f"{child.stderr.decode(errors='replace')}", file=sys.stderr)
                return 1
            hashes.append(report_hash(child.stdout))
            print(f"{name} seed {cli_seed}: {child.wall_s:.3f} s {hashes[-1]}",
                  flush=True)
        doc[name] = {"argv": list(workload.argv), "hashes": hashes}
        PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
