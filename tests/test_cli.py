import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import rearrange_lab.verify as verify_mod
from rearrange_lab import cli, errors
from rearrange_lab.cli import FlagError, run
from rearrange_lab.spaces import space_from_json

from conftest import LAZY_MODULES, child_env
from test_power import BUGS
from oracles import decomposition_from_json, profile_from_json

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


def test_landscape_is_no_subcommand(capsys):
    """The two-atom landscape table equalled L1 for every r.i. norm and
    was removed; its old invocation is argparse's invalid choice, and
    the help lists only the four subcommands that remain."""
    assert run(["landscape", "--target", "thm41-ratio", "--grid", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: FlagError: argument command: invalid choice: 'landscape'")
    assert captured.err.count("\n") == 1
    with pytest.raises(SystemExit):
        run(["--help"])
    assert "{rearrange,decompose,verify,search}" in capsys.readouterr().out


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
    assert run(args) == 0
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


def test_verify_exact_mode_accepts_lorentz_associate(capsys):
    """Associate(Lorentz) and its associate, the Lorentz norm, are both
    root-free, so thm43 runs in exact mode with that norm."""
    descriptor = {"kind": "associate", "base": {"kind": "lorentz", "phi": [
        ["0", "0"], ["1/2", "3/4"], ["1", "1"]]}}
    assert run(["verify", "--suite", "thm43", "--mode", "exact", "--atoms",
                "5", "--trials", "20", "--seed", "3",
                "--norm", json.dumps(descriptor)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["mode"] == "exact"
    assert doc["trials"] == 20 and doc["violations"] == []


@pytest.mark.parametrize("mode,descriptor", [
    ("exact", {"kind": "lorentz", "phi": [["0", "0"], ["1/2", "3/4"],
                                          ["1", "1"]]}),
    ("float", {"kind": "associate", "base": {"kind": "lorentz", "phi": [
        ["0", "0"], ["1/2", "3/4"], ["1", "1"]]}}),
])
def test_verify_lorentz_kinds_on_weighted_spaces(mode, descriptor, capsys):
    """thm43 with a Lorentz norm or its associate runs on random-rational
    weights, and exits 0 with no violation."""
    assert run(["verify", "--suite", "thm43", "--weights", "random-rational",
                "--mode", mode, "--atoms", "7", "--trials", "60",
                "--seed", "3", "--norm", json.dumps(descriptor)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["weight_scheme"] == "random-rational"
    assert doc["violations"] == [] and doc["grazes"] == 0


def test_verify_exact_mode_rejects_rooty_exponents(capsys):
    """One check and one message for both product rules: thm41 with L2
    exponents and thm43 with its default norm L2."""
    for suite, argv in (("thm41", ["--exponents", "1,2,2,2,2"]),
                        ("thm43", [])):
        assert run(["verify", "--suite", suite, "--mode", "exact",
                    "--trials", "5", *argv]) == 2
        assert capsys.readouterr().err == (
            f"error: InputError: exact mode for {suite} needs every norm "
            "of its forms exactly evaluable\n")


@pytest.fixture
def three_quarter_product_rule(monkeypatch):
    """A planted bug: the product rule's RHS at 3/4 of its value, in the
    trials and in the 113-bit rechecks alike."""
    real = verify_mod._product_rule

    def product_rule(f, g, forms, precision=None):
        return {label: (lhs, rhs * 3 / 4) for label, (lhs, rhs)
                in real(f, g, forms, precision).items()}

    monkeypatch.setattr(verify_mod, "_product_rule", product_rule)


def test_certified_violation_exits_1_and_still_reports(
        three_quarter_product_rule, capsys):
    assert run(["verify", "--suite", "thm43", "--atoms", "4", "--seed", "0",
                "--trials", "200"]) == 1
    doc = json.loads(capsys.readouterr().out)
    violations = doc["violations"]
    assert violations
    assert doc["histogram"]["violation"] == len(violations)
    indices = [v["trial_index"] for v in violations]
    assert indices == sorted(set(indices))
    first = violations[0]
    assert first["instance"]["trial_index"] == first["trial_index"]
    assert first["form"] in ("thm43-norm_form", "thm43-associate_form")
    recheck = first["recheck"]
    assert recheck["mode"] == "float113"
    assert F(recheck["rhs"]) < F(recheck["lhs"])


def test_certified_search_excess_exits_1(three_quarter_product_rule, capsys):
    assert run(["search", "--target", "thm43-ratio", "--atoms", "3",
                "--iters", "30", "--restarts", "2", "--seed", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert float(doc["best_ratio"]) > 1 + 1e-9
    violation = doc["violation"]
    assert violation["ratio"] == doc["best_ratio"]
    assert violation["recheck_mode"] == "float113"
    assert violation["instance"] == doc["best_instance"]


def test_certified_thm32_search_excess_is_rechecked_exactly(monkeypatch,
                                                           capsys):
    """thm32's certifying arithmetic is exact, so a search excess under a
    doubled LHS (test_power's bug) is rechecked and certified exactly."""
    bug, plant = BUGS["thm32-lhs-x2"][:2]
    monkeypatch.setattr(verify_mod, bug, plant(getattr(verify_mod, bug)))
    assert run(["search", "--target", "thm32-ratio", "--atoms", "3",
                "--iters", "30", "--restarts", "2", "--seed", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert float(doc["best_ratio"]) > 1 + 1e-9
    violation = doc["violation"]
    assert violation["ratio"] == doc["best_ratio"]
    assert violation["recheck_mode"] == "exact"
    assert violation["instance"] == doc["best_instance"]


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


def test_thm43_search_with_a_generated_norm(capsys):
    """The search reads the norm form only, so a norm without an
    associate evaluation can be searched; verify needs both forms."""
    norm = json.dumps({"kind": "generated", "base": {"kind": "lp", "p": "1"},
                       "p": "2"})
    assert run(["search", "--target", "thm43-ratio", "--atoms", "4",
                "--iters", "20", "--restarts", "1", "--norm", norm]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0 < float(doc["best_ratio"]) <= 1 + 1e-9
    assert doc["violation"] is None
    assert run(["verify", "--suite", "thm43", "--trials", "3",
                "--norm", norm]) == 2
    assert capsys.readouterr().err == (
        "error: InputError: no associate evaluation for base kind Generated\n")


def test_search_infeasible_exits_3(capsys):
    assert run(["search", "--target", "thm32-ratio", "--atoms", "1"]) == 3
    assert capsys.readouterr().err.startswith("error: InfeasibleProblem:")


def test_precision_env_var(monkeypatch, capsys):
    monkeypatch.setenv("REARRANGE_LAB_PRECISION", "64")
    assert run(["verify", "--suite", "thm41", "--trials", "10",
                "--atoms", "2", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["precision"] == 64
    monkeypatch.setenv("REARRANGE_LAB_PRECISION", "bogus")
    assert run(["verify", "--suite", "thm32", "--trials", "5"]) == 2


@pytest.mark.parametrize("precision", ["2", "24", "52"])
def test_precision_below_a_double_exits_2(precision, monkeypatch, capsys):
    """Below 53 bits the program's own rounded weights would fail the
    weight-sum check; the variable is refused first, by name."""
    monkeypatch.setenv("REARRANGE_LAB_PRECISION", precision)
    assert run(["verify", "--suite", "thm41", "--mode", "float",
                "--atoms", "6", "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: InputError: REARRANGE_LAB_PRECISION must be at least 53 "
        f"(a double), got {precision}\n")
    monkeypatch.setenv("REARRANGE_LAB_PRECISION", "53")
    assert run(["verify", "--suite", "thm41", "--mode", "float",
                "--atoms", "6", "--trials", "5"]) == 0


def test_rearrange_suite_in_float_mode_exits_2(capsys):
    assert run(["verify", "--suite", "rearrange", "--mode", "float",
                "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: InputError: the rearrange suite runs in "
                            "exact mode only\n")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_all_takes_no_mode(mode, capsys):
    assert run(["verify", "--suite", "all", "--mode", mode,
                "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: FlagError: ")
    assert captured.err.count("\n") == 1


#: every error class the CLI can meet, with its exit code
EXIT_CODES = {
    errors.RearrangeLabError: 2,
    errors.InputError: 2,
    FlagError: 2,
    errors.ExactUnavailable: 2,
    errors.PreconditionViolated: 3,
    errors.NotZeroMean: 3,
    errors.EmptyInput: 3,
    errors.InfeasibleProblem: 3,
}


def test_exit_code_table_covers_every_error_class():
    classes = {c for c in vars(errors).values() if isinstance(c, type)
               and issubclass(c, errors.RearrangeLabError)}
    assert set(EXIT_CODES) == classes | {FlagError}


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda c: c.__name__)
def test_each_error_exits_with_its_code(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_search_command", fail)
    assert cls.exit_code == EXIT_CODES[cls]
    assert run(["search", "--target", "thm32-ratio"]) == EXIT_CODES[cls]
    assert capsys.readouterr().err == f"error: {cls.__name__}: boom\n"


def test_verify_all_checks_every_config_before_any_suite_runs(
        monkeypatch, capsys):
    """A --norm that thm43 cannot evaluate ends the run with exit 2
    before thm32, lemma31 or thm41 runs, and nothing reaches stdout."""
    def spy(cfg):
        raise AssertionError(f"the {cfg.suite} suite ran")

    monkeypatch.setattr(verify_mod, "run_suite", spy)
    monkeypatch.setattr(cli, "run_suite", spy)
    norm = '{"kind":"generated","base":{"kind":"lp","p":"1"},"p":"2"}'
    assert run(["verify", "--suite", "all", "--trials", "5",
                "--norm", norm]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: InputError: no associate evaluation "
                            "for base kind Generated\n")


def test_verify_all_aggregates(capsys):
    assert run(["verify", "--suite", "all", "--trials", "20", "--atoms", "2",
                "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    suites = [entry["suite"] for entry in doc["suites"]]
    assert suites == ["thm32", "lemma31", "thm41", "thm43", "rearrange"]


@pytest.mark.parametrize("argv", [
    ["rearrange", "--function", "f"],
    ["verify", "--suite", "thm32", "--trials", "-5"],
    ["search", "--target", "thm32-ratio", "--iters", "5", "--threads", "0"],
], ids=["non-string-weight", "negative-trials", "search-zero-threads"])
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


#: one small run of each command that writes an --out file
_SMALL_RUNS = {
    "verify": ["verify", "--suite", "thm32", "--atoms", "3", "--trials", "2"],
    "search": ["search", "--target", "thm32-ratio", "--iters", "2",
               "--restarts", "1"],
}


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_unwritable_out_exits_2_with_one_line(command, where, tmp_path,
                                              capsys):
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" \
        else tmp_path
    assert run(_SMALL_RUNS[command] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: InputError: cannot write {out}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--input", "--norm"])
def test_non_utf8_file_exits_2_with_one_line(flag, tmp_path, capsys):
    path = tmp_path / "latin-1.json"
    path.write_bytes('{"kind": "lp", "p": "2", "note": "\u00e9"}'
                     .encode("latin-1"))
    argv = ["rearrange", "--input", str(path), "--function", "f"] \
        if flag == "--input" else \
        ["verify", "--suite", "thm43", "--trials", "2", "--norm", f"@{path}"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: InputError: cannot read {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--input", "--norm @file", "--norm"])
def test_too_deeply_nested_json_exits_2_with_one_line(flag, tmp_path, capsys):
    text = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(text)
    argv = ["rearrange", "--input", str(path), "--function", "f"] \
        if flag == "--input" else \
        ["verify", "--suite", "thm43", "--trials", "2", "--norm",
         f"@{path}" if flag == "--norm @file" else text]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InputError: invalid ")
    assert captured.err.count("\n") == 1


def test_verify_has_no_threads_flag(capsys):
    """verify runs its trials in order in one thread; --threads is no
    verify flag (search keeps it)."""
    assert run(["verify", "--suite", "thm32", "--trials", "5",
                "--threads", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: FlagError:")
    assert captured.err.count("\n") == 1


def test_cli_import_loads_no_executor():
    """Importing the CLI does not load concurrent.futures or the modules
    of LAZY_MODULES; only a search with threads > 1 imports the first, and
    only a precision other than 53 bits mpmath."""
    script = ("import sys, rearrange_lab.cli\n"
              "print(any(m in sys.modules for m in "
              f"{('concurrent.futures', *LAZY_MODULES)!r}))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env=child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


_NEAR_TEN_TO_2999 = 10**2999


@pytest.mark.parametrize("weights", [
    ["1e3000000"],
    ["1e5000"],
    [f"1/{_NEAR_TEN_TO_2999 + 7}", f"1/{_NEAR_TEN_TO_2999 + 9}"],
], ids=["exponent-3000000", "exponent-5000", "3000-digit-denominators"])
def test_huge_scalar_literals_are_input_errors(weights, tmp_path, capsys):
    """A far-out decimal exponent is refused at parse time, and a weight
    sum of thousands of digits is reported in a short rendering."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"space": {"weights": weights},
                                "functions": {"f": ["1"] * len(weights)}}))
    started = time.perf_counter()
    code = run(["rearrange", "--input", str(path), "--function", "f"])
    assert time.perf_counter() - started < 1
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InputError:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("norm", [
    {"kind": "lp", "p": "2000"},
    {"kind": "generated", "base": {"kind": "lp", "p": "1"}, "p": "2000"},
], ids=["lp", "generated"])
def test_float_power_overflow_is_an_input_error(norm, capsys):
    assert run(["verify", "--suite", "thm43", "--trials", "3",
                "--norm", json.dumps(norm)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InputError:")
    assert "p = 2000" in captured.err and "53-bit" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ["--suite", "thm43", "--norm", '{"kind": "lp", "p": "1e5"}'],
    ["--suite", "thm41", "--exponents", "1e5,1e5,inf,1e5,inf"],
    ["--suite", "thm43", "--norm", json.dumps(
        {"kind": "generated", "base": {"kind": "lp", "p": "1"}, "p": "1e5"})],
], ids=["lp", "thm41", "generated"])
def test_exact_root_is_refused_before_the_power(flags, capsys):
    """An exact run refuses a root it cannot take before it raises the
    values to the p-th power, which at p = 1e5 took seconds."""
    started = time.perf_counter()
    code = run(["verify", "--mode", "exact", "--atoms", "8", "--trials", "1",
                *flags])
    assert time.perf_counter() - started < 1
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InputError: exact mode for ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("doc,norm", [
    ({"space": {"weights": ["1"]}, "functions": []}, None),
    ({"space": {"weights": "1"}, "functions": {"f": ["2"]}}, None),
    (None, {"kind": "lorentz", "phi": {"00": "x", "11": "y"}}),
], ids=["functions-list", "weights-string", "phi-object"])
def test_misshapen_documents_are_input_errors(doc, norm, tmp_path, capsys):
    """A list or string where an object belongs, or the reverse, was
    read through its items, characters or keys."""
    if doc is not None:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        argv = ["rearrange", "--input", str(path), "--function", "f"]
    else:
        argv = ["verify", "--suite", "thm43", "--trials", "3",
                "--norm", json.dumps(norm)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InputError:")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# fuzzing: every malformed document ends in exit 2 or 3 with one error line

_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-9, 9)
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.text(max_size=4))
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_NON_OBJECTS = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=3),
                            max_leaves=6)
_LITERALS = st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "0.25", "2", "7/3"])
#: a string or an object standing where a list belongs, also one whose
#: characters or keys are literals
_NON_LISTS = (_JSON_SCALARS | _LITERALS | st.text("01/", max_size=4)
              | st.dictionaries(_LITERALS | st.text("01", max_size=2), _JSON,
                                max_size=3))
#: strings and values that are never a scalar literal
_BAD_LITERALS = (st.sampled_from(["", "x", "1/0", "nan", "1//2", "--1",
                                  "0x1", "1 2"])
                 | st.none() | st.booleans() | st.integers(-9, 9)
                 | st.floats(allow_nan=False) | st.lists(_JSON, max_size=2))


@st.composite
def _malformed_instances(draw):
    """A valid n-atom instance of f, g with exactly one defect injected."""
    n = draw(st.integers(1, 4))
    doc = {"space": {"weights": [f"1/{n}"] * n},
           "functions": {name: draw(st.lists(_LITERALS, min_size=n, max_size=n))
                         for name in ("f", "g")}}
    defect = draw(st.sampled_from([
        "document", "no-space", "space", "weights", "weight-literal",
        "weight-sign", "weight-sum", "no-weights", "functions", "values",
        "value-literal", "length", "missing-f",
    ]))
    weights, f = doc["space"]["weights"], doc["functions"]["f"]
    if defect == "document":
        return draw(_NON_OBJECTS)
    if defect == "no-space":
        del doc["space"]
    elif defect == "space":
        doc["space"] = draw(_NON_OBJECTS)
    elif defect == "weights":
        doc["space"]["weights"] = draw(_NON_LISTS)
    elif defect == "weight-literal":
        weights[draw(st.integers(0, n - 1))] = draw(_BAD_LITERALS)
    elif defect == "weight-sign":
        weights[draw(st.integers(0, n - 1))] = draw(st.sampled_from(["0", "-1/2"]))
    elif defect == "weight-sum":
        weights.append(draw(st.sampled_from(["1/7", "1", "0.5"])))
    elif defect == "no-weights":
        doc["space"]["weights"] = []
    elif defect == "functions":
        doc["functions"] = draw(_NON_OBJECTS)
    elif defect == "values":
        doc["functions"]["f"] = draw(_NON_LISTS)
    elif defect == "value-literal":
        f[draw(st.integers(0, n - 1))] = draw(_BAD_LITERALS)
    elif defect == "length":
        doc["functions"]["f"] = f[:-1] if draw(st.booleans()) else f + ["1"]
    else:
        doc["functions"]["h"] = doc["functions"].pop("f")
    return doc


_PHI = [["0", "0"], ["1/2", "3/4"], ["1", "1"]]


@st.composite
def _malformed_norms(draw):
    """A norm descriptor that is invalid, or valid only up to one defect,
    possibly wrapped in valid associate and generated layers."""
    defect = draw(st.sampled_from([
        "non-object", "no-kind", "kind", "lp-p", "phi", "phi-point",
        "phi-shape", "generated-p", "no-evaluation",
    ]))
    if defect == "non-object":
        return draw(_NON_OBJECTS)
    if defect == "no-kind":
        doc = draw(st.dictionaries(st.sampled_from(["p", "phi", "base", "Kind"]),
                                   _JSON, max_size=3))
    elif defect == "kind":
        doc = {"kind": draw(st.sampled_from(["", "LP", "sup", "dual"])
                            | st.none() | st.integers() | st.lists(_JSON_SCALARS)),
               "p": "2"}
    elif defect == "lp-p":
        doc = {"kind": "lp", "p": draw(_BAD_LITERALS | st.sampled_from(["1/2", "0"]))}
    elif defect == "phi":
        doc = {"kind": "lorentz", "phi": draw(_NON_LISTS)}
    elif defect == "phi-point":
        phi = [list(point) for point in _PHI]
        phi[draw(st.integers(0, 2))] = draw(
            _BAD_LITERALS | st.lists(_LITERALS, max_size=1)
            | st.lists(_LITERALS, min_size=3, max_size=4))
        doc = {"kind": "lorentz", "phi": phi}
    elif defect == "phi-shape":
        doc = {"kind": "lorentz", "phi": draw(st.sampled_from([
            [["0", "0"], ["1", "1/2"]],                   # does not end at (1, 1)
            [["0", "1/4"], ["1", "1"]],                   # does not start at (0, 0)
            [["0", "0"], ["1/2", "1/4"], ["1", "1"]],     # convex
            [["0", "0"], ["1/2", "1"], ["1/2", "1"], ["1", "1"]],
            [["0", "0"], ["1/2", "1"], ["1", "3/4"]],     # decreasing
            [["0", "0"]],
        ]))}
    elif defect == "generated-p":
        doc = {"kind": "generated", "base": {"kind": "lp", "p": "2"},
               "p": draw(_BAD_LITERALS | st.sampled_from(["1/2", "0"]))}
    else:
        doc = {"kind": "associate", "base": {
            "kind": "generated", "base": {"kind": "lorentz", "phi": _PHI},
            "p": "2"}}
    for layer in draw(st.lists(st.sampled_from(["associate", "generated"]),
                               max_size=2)):
        doc = ({"kind": "associate", "base": doc} if layer == "associate"
               else {"kind": "generated", "base": doc, "p": "2"})
    return doc


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_error(code, out, err):
    assert code in (2, 3), err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["rearrange", "decompose"])
@given(doc=_malformed_instances())
@settings(max_examples=200, deadline=None)
def test_fuzz_malformed_instances(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        _assert_clean_error(*_run_quietly(
            [command, "--input", path, "--function", "f"]))


@given(doc=_malformed_norms())
@settings(max_examples=200, deadline=None)
def test_fuzz_malformed_norm_descriptors(doc):
    _assert_clean_error(*_run_quietly(
        ["verify", "--suite", "thm43", "--trials", "3",
         "--norm", json.dumps(doc)]))
