"""Report drift check: each benchmark workload, run in-process at CLI
seed 0, reproduces the first report hash pinned in bench/pins.json, the
bit-sensitive float Lorentz workload reproduces its hash at every pinned
CLI seed, and so do the exact thm32 workload and the search workload.  Also checks
that the norm workload runs without scipy, that the traced replay of
the verify workloads (what ``bench/run.py --trace 1`` runs) reproduces
their reports, and that the search's pins hold under a compensated
built-in `sum`.  bench/ is only read."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from rearrange_lab.cli import run
from rearrange_lab.verify import canonical_hash

BENCH = Path(__file__).resolve().parent.parent / "bench"
_BENCH_WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))
WORKLOADS = _BENCH_WORKLOADS["WORKLOADS"]
PINNED_SEEDS = _BENCH_WORKLOADS["PINNED_SEEDS"]
PINS = json.loads((BENCH / "pins.json").read_text())
REPLAY = runpy.run_path(str(BENCH / "replay.py"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_report_matches_pin(name, capsys):
    workload = WORKLOADS[name]
    assert PINS[name]["argv"] == list(workload.argv)
    assert run(workload.cli_argv(0)) == 0
    report = json.loads(capsys.readouterr().out)
    assert canonical_hash(report) == PINS[name]["hashes"][0]


@pytest.mark.parametrize("cli_seed", range(PINNED_SEEDS))
def test_lorentz_workload_matches_every_pin(cli_seed, capsys):
    workload = WORKLOADS["thm43-lorentz-float"]
    assert run(workload.cli_argv(cli_seed)) == 0
    report = json.loads(capsys.readouterr().out)
    assert canonical_hash(report) == \
        PINS["thm43-lorentz-float"]["hashes"][cli_seed]


@pytest.mark.parametrize("cli_seed", range(PINNED_SEEDS))
def test_thm32_workload_matches_pins(cli_seed, capsys):
    workload = WORKLOADS["thm32-exact-64"]
    assert run(workload.cli_argv(cli_seed)) == 0
    report = json.loads(capsys.readouterr().out)
    assert canonical_hash(report) == PINS["thm32-exact-64"]["hashes"][cli_seed]


@pytest.mark.parametrize("cli_seed", range(PINNED_SEEDS))
def test_search_workload_matches_every_pin(cli_seed, capsys):
    workload = WORKLOADS["search-thm43-1t"]
    assert run(workload.cli_argv(cli_seed)) == 0
    report = json.loads(capsys.readouterr().out)
    assert canonical_hash(report) == \
        PINS["search-thm43-1t"]["hashes"][cli_seed]


@pytest.mark.parametrize("cli_seed", range(4))
def test_search_pins_do_not_depend_on_the_builtin_sum(cli_seed, capsys,
                                                      compensated_sum):
    """The search's float norms and centerings add through `dot`, so a
    compensated built-in `sum` (Python 3.12 and later) leaves its reports
    as pinned."""
    test_search_workload_matches_every_pin(cli_seed, capsys)


@pytest.mark.parametrize("name", ["thm43-lorentz-float", "thm32-exact-64"])
def test_traced_replay_reproduces_the_report(name, capsys):
    """The replay recomputes every trial through the public kernels and
    finds the CLI report's minimum gap, argmin and configuration, and the
    direct 113-bit recheck probe raises nothing."""
    workload = WORKLOADS[name]
    assert run(workload.cli_argv(0)) == 0
    report = json.loads(capsys.readouterr().out)
    replay = REPLAY["replay_verify"](workload, 0, report, seconds=0)
    assert replay["problems"] == []
    assert replay["notes"] == []
    assert replay["extra"]["verify.recheck.failed"] == 0


def test_norm_workload_runs_without_scipy():
    """scipy is a test dependency only: a fresh interpreter running the
    thm43-lorentz-float workload never imports it."""
    script = (
        "import contextlib, io, runpy, sys\n"
        "from rearrange_lab.cli import run\n"
        f"workloads = runpy.run_path({str(BENCH / 'workloads.py')!r})\n"
        "argv = workloads['WORKLOADS']['thm43-lorentz-float'].cli_argv(0)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(argv) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
