"""Report drift check: each benchmark workload, run in-process at CLI
seed 0, reproduces the first report hash pinned in bench/pins.json, the
bit-sensitive float Lorentz workload reproduces its hash at every pinned
CLI seed, and so do the exact thm32 workload and the search workload.  Also checks
that the norm workload runs without scipy, that no workload loads mpmath
or hashlib, that the traced replay of
the verify workloads (what ``bench/run.py --trace 1`` runs) reproduces
their reports, and that the search's pins hold under a compensated
built-in `sum`.  bench/ is only read."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import LAZY_MODULES, child_env

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


def _loaded_after_run(argv, **env):
    """Run the CLI on argv in a fresh interpreter: (exit code, the modules
    of LAZY_MODULES loaded after the run)."""
    script = (
        "import contextlib, io, json, sys\n"
        "from rearrange_lab.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run({list(argv)!r})\n"
        f"print(json.dumps([code, [m for m in {LAZY_MODULES!r} "
        "if m in sys.modules]]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=child_env(**env))
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout))


@pytest.mark.parametrize("argv", [
    *(WORKLOADS[name].cli_argv(0) for name in sorted(WORKLOADS)),
    ["verify", "--suite", "all", "--trials", "40"],
    ["verify", "--suite", "thm41", "--mode", "float", "--trials", "40",
     "--exponents", "1,3/2,3,3/2,3"],
], ids=[*sorted(WORKLOADS), "verify-all", "thm41-float-3/2"])
def test_runs_at_53_bits_load_neither_mpmath_nor_hashlib(argv):
    """Exact and double runs, fractional powers included, never import
    mpmath, and the seeded generators hash without hashlib where CPython
    has a built-in SHA-256."""
    assert _loaded_after_run(argv) == (0, [])


def test_a_wider_precision_loads_mpmath():
    """REARRANGE_LAB_PRECISION above 53 imports mpmath on its first use,
    and the run exits as before."""
    argv = WORKLOADS["thm43-lorentz-float"].cli_argv(0)
    assert _loaded_after_run(argv, REARRANGE_LAB_PRECISION="113") == \
        (0, ["mpmath"])


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


def test_traced_search_replay_reproduces_the_report(capsys):
    """The search replay's objective equals thm43_sides' norm form, and
    the in-process search at 1 and 2 threads gives the pinned report."""
    name = "search-thm43-1t"
    workload = WORKLOADS[name]
    assert run(workload.cli_argv(0)) == 0
    report = json.loads(capsys.readouterr().out)
    replay = REPLAY["replay_search"](workload, 0, report,
                                     PINS[name]["hashes"][0], seconds=0)
    assert replay["problems"] == []


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
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
