"""Benchmark of the rearrange_lab CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it measures the package in the
checkout's src/.  ``--trace 0`` runs the workload's CLI invocation as a
closed loop with one client: one ``python -m rearrange_lab`` process at a
time, each started after the previous one exited, for ``--seconds``
seconds.  Before each invocation a setup probe times interpreter start,
import and flag parsing up to the first trial.  Every report is checked
against the hash pinned for its workload and CLI seed (bench/pins.json).
``--trace 1`` runs one invocation, then replays it in this process with a
span around each call into a layer (bench/replay.py) and reports the
per-layer metrics.

The metric names and units come from BENCHMARK.json.  The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}.  The
full record, with every sample, the spans and the provenance, is written
under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from harness import (BENCH, OUT, ROOT, BenchError, check_cli, cli_args,
                     cli_seed_for, load_pins, provenance, require_source,
                     run_child)
from workloads import WORKLOADS

#: a run makes at least this many invocations, however long they take
MIN_INVOCATIONS = 5

#: and starts no new one after this many seconds; past MIN_INVOCATIONS
#: it starts one only if it is expected to end within --seconds
MAX_RUN_S = 120.0

#: no child outlives this many seconds after the benchmark started
HARD_LIMIT_S = 170.0

_STARTED = time.perf_counter()

#: repeats of the in-process import timing behind cli.import_s
IMPORT_PROBES = 3

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import rearrange_lab.cli; "
                 "print(time.perf_counter() - t)")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _tail(values, higher_is_worse=True):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it on the worse side, or None with fewer than 11."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values, reverse=not higher_is_worse)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _summary_line(name, unit, value, values, higher_is_worse):
    line = (f"  {name:<12} {value:.6g} {unit}; per invocation median "
            f"{statistics.median(values):.6g}")
    tail = _tail(values, higher_is_worse)
    if tail:
        line += f", p{tail[0]:.0f} {tail[1]:.6g}"
    else:
        line += ", no tail percentile (fewer than 11 samples)"
    return line + f" (n={len(values)})"


def _child(args):
    return run_child(args, HARD_LIMIT_S - (time.perf_counter() - _STARTED))


def _fits(start, cycles, seconds) -> bool:
    """Whether another setup probe and invocation, at the median length
    of those made so far, ends within ``seconds`` of ``start``."""
    elapsed = time.perf_counter() - start
    return elapsed < MAX_RUN_S and elapsed + statistics.median(cycles) <= seconds


def end_to_end(workload, cli_seed, pinned, seconds, record) -> dict:
    probe = [str(BENCH / "setup_probe.py"), *workload.cli_argv(cli_seed)]
    cli = cli_args(workload, cli_seed)
    _child(probe)  # warm-up: byte-compiles and pages in the package
    setups, runs, failures, cycles = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while attempted < MIN_INVOCATIONS or _fits(start, cycles, seconds):
        attempted += 1
        began = time.perf_counter()
        setup = _child(probe)
        child = _child(cli)
        _, reason = check_cli(child, pinned)
        if setup.code != 0:
            reason = f"setup probe exit {setup.code}: " \
                     f"{setup.stderr[-300:].decode(errors='replace')}"
        if reason:
            failures.append(reason)
        else:
            setups.append(setup.wall_s)
            runs.append(child)
        cycles.append(time.perf_counter() - began)
    timed = runs or [child]
    setup_s = statistics.median(setups) if setups else setup.wall_s
    trial_s = [max(c.wall_s - setup_s, 1e-9) for c in timed]
    samples = {
        "units_per_s": [workload.units / t for t in trial_s],
        "run_s": [c.wall_s for c in timed],
        "setup_s": setups or [setup.wall_s],
        "peak_rss_mb": [c.peak_rss_mb for c in timed],
    }
    record.update(samples=samples, failures=failures)
    lines = [f"{workload.name}: {attempted} invocations, {len(failures)} failed, "
             f"failed_share {len(failures) / attempted:.6g}"]
    metrics = {}
    for spec in _spec()["end_to_end"]:
        values = samples[spec["name"]]
        value = statistics.median(values)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        lines.append(_summary_line(spec["name"], spec["unit"], value, values,
                                   spec["better"] == "lower"))
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics, "lines": lines}


def _import_s() -> float:
    times = []
    for _ in range(IMPORT_PROBES):
        child = _child(["-c", _IMPORT_PROBE])
        if child.code != 0:
            raise BenchError(f"importing rearrange_lab.cli failed: {child.stderr[-300:]!r}")
        times.append(float(child.stdout))
    return statistics.median(times)


def _layer_value(name, durations, extra):
    if name in extra:
        return extra[name]
    span, _, stat = name.rpartition(".")
    times = durations.get(span, [])
    if stat == "calls":
        return len(times)
    if stat == "busy_s":
        return sum(times)
    if stat == "p50_us":
        return statistics.median(times) * 1e6 if times else 0.0
    raise BenchError(f"no source for per-layer metric {name}")


def traced(workload, cli_seed, pinned, seconds, record) -> dict:
    import replay

    # layer metrics a workload does not exercise read 0
    extra = dict.fromkeys(("exec.speedup_2t", "verify.fixture_share",
                           "verify.recheck.failed", "verify.grazes",
                           "verify.violations"), 0)
    extra["cli.import_s"] = _import_s()
    child = _child(cli_args(workload, cli_seed))
    report, reason = check_cli(child, pinned)
    replay_problems = ["no report to replay"] if report is None else []
    durations = {}
    if report is not None:
        if workload.command == "verify":
            rep = replay.replay_verify(workload, cli_seed, report, seconds)
        else:
            rep = replay.replay_search(workload, cli_seed, report, pinned, seconds)
        replay_problems = rep["problems"]
        durations = rep["tracer"].durations()
        extra.update(rep["extra"])
        extra["trace.overhead_share"] = rep["overhead_share"]
        extra["verify.report_json.busy_s"] = replay.report_json_busy_s(report)
        record["spans"] = rep["tracer"].spans
        record["notes"] = rep["notes"]
    problems = ([reason] if reason else []) + replay_problems
    record["problems"] = problems
    metrics = {}
    for spec in _spec()["per_layer"]:
        value = 0 if report is None else _layer_value(spec["name"], durations, extra)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    lines = [f"{workload.name} traced replay: "
             + ("; ".join(problems) if problems else "matches the CLI report")]
    lines += [f"  {k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    # attempts: the CLI invocation and the replay checked against it
    return {"correct": not problems, "attempted": 2,
            "failed": bool(reason) + bool(replay_problems),
            "metrics": metrics, "lines": lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        require_source()
        pins = load_pins()
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cli_seed = cli_seed_for(args.seed)
    pinned = pins[workload.name][cli_seed]
    record = {"provenance": provenance(workload, args.seed)}
    try:
        if args.trace:
            result = traced(workload, cli_seed, pinned, args.seconds, record)
        else:
            result = end_to_end(workload, cli_seed, pinned, args.seconds, record)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    lines = result.pop("lines")
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    print("\n".join(lines))
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
