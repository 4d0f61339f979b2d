"""Shared pieces of the benchmark: locating the source tree, running one
child process with its wall time and peak RSS, checking a CLI report
against its pinned hash, and the provenance block."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from workloads import PINNED_SEEDS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"
OUT = BENCH / "out"

#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, stale pins)."""


def require_source() -> None:
    """Import rearrange_lab from this checkout's src/, never from an
    installed copy."""
    if not (SRC / "rearrange_lab" / "__init__.py").is_file():
        raise BenchError(f"no package at {SRC / 'rearrange_lab'}")
    sys.path.insert(0, str(SRC))
    import rearrange_lab

    if Path(rearrange_lab.__file__).resolve().parent != SRC / "rearrange_lab":
        raise BenchError(f"imported rearrange_lab from {rearrange_lab.__file__}")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REARRANGE_LAB_PRECISION", None)  # the workloads use the default
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass
class Child:
    args: list
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(args, timeout_s: float = CHILD_TIMEOUT_S) -> Child:
    """Run ``python <args>`` from the checkout root and wait for it.

    Wall time runs from just before the process is created until it has
    been reaped; the peak RSS is that child's own, from wait4.
    """
    err = []
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    killer = threading.Timer(timeout_s, proc.kill)
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer.start()
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(list(args), proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out, err[0] if err else b"")


def cli_args(workload, cli_seed: int) -> list:
    return ["-m", "rearrange_lab", *workload.cli_argv(cli_seed)]


def cli_seed_for(seed: int) -> int:
    return seed % PINNED_SEEDS


def load_pins() -> dict:
    """{workload name: [hash per CLI seed]}; refuses pins made for other
    workload arguments."""
    doc = json.loads(PINS.read_text())
    pins = {}
    for name, workload in WORKLOADS.items():
        entry = doc.get(name)
        if entry is None or entry["argv"] != list(workload.argv) \
                or len(entry["hashes"]) != PINNED_SEEDS:
            raise BenchError(f"{PINS.name} has no current pins for {name}; "
                             "regenerate them with bench/pin.py")
        pins[name] = entry["hashes"]
    return pins


def report_hash(stdout: bytes) -> str:
    from rearrange_lab.verify import canonical_hash

    return canonical_hash(json.loads(stdout))


def check_cli(child: Child, pinned: str):
    """(report document, failure reason or None) for one CLI invocation.

    A run fails if it exits non-zero, prints a traceback, prints no JSON
    report, or prints a report whose canonical hash is not the pinned one.
    """
    if child.code != 0:
        return None, f"exit code {child.code}: {child.stderr[-300:].decode(errors='replace')}"
    if b"Traceback" in child.stderr:
        return None, "traceback on stderr"
    try:
        doc = json.loads(child.stdout)
    except ValueError:
        return None, "stdout is not a JSON report"
    digest = report_hash(child.stdout)
    if digest != pinned:
        return doc, f"canonical_hash {digest} != pinned {pinned}"
    return doc, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def provenance(workload, seed: int) -> dict:
    import rearrange_lab

    cli_seed = cli_seed_for(seed)
    return {
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "versions": {
            "rearrange_lab": rearrange_lab.__version__,
            "mpmath": _version("mpmath"),
            "scipy": _version("scipy"),
            "numpy": _version("numpy"),
        },
        "workload": workload.name,
        "seed": seed,
        "cli_seed": cli_seed,
        "argv": [sys.executable, *cli_args(workload, cli_seed)],
        "bench_argv": sys.argv,
    }
