"""Report drift check: each benchmark workload, run in-process at CLI
seed 0, reproduces the first report hash pinned in bench/pins.json.
bench/ is only read."""

import json
import runpy
from pathlib import Path

import pytest

from rearrange_lab.cli import run
from rearrange_lab.verify import canonical_hash

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
PINS = json.loads((BENCH / "pins.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_report_matches_pin(name, capsys):
    workload = WORKLOADS[name]
    assert PINS[name]["argv"] == list(workload.argv)
    assert run(workload.cli_argv(0)) == 0
    report = json.loads(capsys.readouterr().out)
    assert canonical_hash(report) == PINS[name]["hashes"][0]
