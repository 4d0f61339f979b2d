import json
from fractions import Fraction as F

import pytest

from rearrange_lab.cli import run
from rearrange_lab.oscillation import decomposition_from_json
from rearrange_lab.rearrange import profile_from_json
from rearrange_lab.spaces import space_from_json

INSTANCE = {
    "space": {"weights": ["0.2", "0.3", "0.5"]},
    "functions": {"f": ["3", "-1", "2"]},
}
ZERO_MEAN = {
    "space": {"weights": ["1/4", "1/4", "1/4", "1/4"]},
    "functions": {"g": ["3", "1", "-2", "-2"], "f": ["1", "0", "-1", "0"]},
}


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(INSTANCE))
    return str(path)


@pytest.fixture
def zero_mean_file(tmp_path):
    path = tmp_path / "zero_mean.json"
    path.write_text(json.dumps(ZERO_MEAN))
    return str(path)


def test_rearrange_command(instance_file, capsys):
    assert run(["rearrange", "--input", instance_file, "--function", "f"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"segments": [["3", "0.2"], ["2", "0.5"], ["1", "0.3"]]}
    profile_from_json(doc)  # output re-ingests


def test_decompose_command(zero_mean_file, capsys):
    assert run(["decompose", "--input", zero_mean_file, "--function", "g"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"blocks": [
        {"a": "1", "A": [0, 1], "b": "1", "B": [2, 3]},
        {"a": "2", "A": [0], "b": "1", "B": [2, 3]},
    ]}
    decomposition_from_json(doc, space_from_json(ZERO_MEAN["space"]))


def test_decompose_requires_zero_mean(instance_file, capsys):
    assert run(["decompose", "--input", instance_file, "--function", "f"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: NotZeroMean:")
    assert err.count("\n") == 1


def test_unknown_function_is_input_error(instance_file, capsys):
    assert run(["rearrange", "--input", instance_file, "--function", "q"]) == 2
    assert capsys.readouterr().err.startswith("error: InputError:")


def test_missing_file_is_input_error(capsys):
    assert run(["rearrange", "--input", "/nonexistent.json",
                "--function", "f"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert run(["verify", "--suite", "thm32", "--bogus"]) == 2
    assert capsys.readouterr().err.startswith("error: FlagError:")


def test_invalid_exponents_exit_2(capsys):
    assert run(["verify", "--suite", "thm41", "--trials", "5",
                "--exponents", "1,2,2,3,3"]) == 2
    assert "1/r" in capsys.readouterr().err


def test_valid_exponents_accepted(capsys):
    code = run(["verify", "--suite", "thm41", "--trials", "20", "--atoms", "2",
                "--seed", "1", "--exponents", "1,2,2,3,1.5"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["exponents"] == ["1", "2", "2", "3", "3/2"]


def test_verify_stdout_deterministic(capsys):
    args = ["verify", "--suite", "thm32", "--trials", "100", "--atoms", "3",
            "--seed", "7", "--mode", "exact"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args + ["--threads", "8"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["suite"] == "thm32"
    assert doc["violations"] == []
    assert doc["trials"] == 100


def test_verify_writes_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "lemma31", "--trials", "50",
                "--atoms", "3", "--seed", "2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout


def test_verify_norm_flag_inline_and_file(tmp_path, capsys):
    descriptor = {"kind": "lorentz",
                  "phi": [["0", "0"], ["0.25", "0.5"], ["1", "1"]]}
    args = ["verify", "--suite", "thm43", "--trials", "30", "--atoms", "2",
            "--seed", "3"]
    assert run(args + ["--norm", json.dumps(descriptor)]) == 0
    inline = capsys.readouterr().out
    path = tmp_path / "norm.json"
    path.write_text(json.dumps(descriptor))
    assert run(args + ["--norm", f"@{path}"]) == 0
    from_file = capsys.readouterr().out
    assert inline == from_file
    assert json.loads(inline)["config"]["norm"] == descriptor


def test_verify_exact_mode_rejects_rooty_exponents(capsys):
    assert run(["verify", "--suite", "thm41", "--mode", "exact",
                "--trials", "5", "--exponents", "1,2,2,2,2"]) == 2


def test_search_command(capsys):
    args = ["search", "--target", "thm32-ratio", "--iters", "60",
            "--restarts", "2", "--seed", "5"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["target"] == "thm32-ratio"
    assert float(doc["best_ratio"]) <= 1 + 1e-9
    assert doc["violation"] is None


def test_search_infeasible_exits_3(capsys):
    assert run(["search", "--target", "thm32-ratio", "--atoms", "1"]) == 3
    assert capsys.readouterr().err.startswith("error: InfeasibleProblem:")


def test_landscape_command(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert run(["landscape", "--target", "thm41-ratio", "--grid", "7",
                "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "param1,param2,lhs,rhs,ratio"
    assert len(lines) == 8
    assert run(["landscape", "--target", "thm32-ratio", "--grid", "3"]) == 0
    assert capsys.readouterr().out.count("\n") == 4


def test_precision_env_var(monkeypatch, capsys):
    monkeypatch.setenv("REARRANGE_LAB_PRECISION", "64")
    assert run(["verify", "--suite", "thm41", "--trials", "10",
                "--atoms", "2", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["precision"] == 64
    monkeypatch.setenv("REARRANGE_LAB_PRECISION", "bogus")
    assert run(["verify", "--suite", "thm32", "--trials", "5"]) == 2


def test_verify_all_aggregates(capsys):
    assert run(["verify", "--suite", "all", "--trials", "20", "--atoms", "2",
                "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    suites = [entry["suite"] for entry in doc["suites"]]
    assert suites == ["thm32", "lemma31", "thm41", "thm43", "rearrange"]


@pytest.mark.parametrize("argv", [
    ["rearrange", "--function", "f"],
    ["verify", "--suite", "thm32", "--trials", "-5"],
    ["verify", "--suite", "thm32", "--trials", "5", "--threads", "0"],
    ["search", "--target", "thm32-ratio", "--iters", "5", "--threads", "0"],
], ids=["non-string-weight", "negative-trials", "zero-threads",
        "search-zero-threads"])
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    if argv[0] == "rearrange":
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"space": {"weights": [1]},
                                    "functions": {"f": ["1"]}}))
        argv = argv + ["--input", str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InputError:")
    assert captured.err.count("\n") == 1
