"""Command-line interface.

Subcommands: rearrange, decompose, verify and search.  All
numeric I/O uses string literals so exact values survive the CLI
boundary; given identical flags and inputs, stdout is byte-identical
across runs.

Exit codes: 0 success / no violations; 1 certified violation found (the
report is still written); otherwise the ``exit_code`` of the error: 2
input or flag error, 3 precondition violation in the input data.  Errors
print a single machine-parsable line to stderr: ``error: <Category>:
<message>``.

``verify --mode`` defaults to the suite's own arithmetic: exact for
thm32, lemma31 and rearrange, float for thm41 and thm43.  The rearrange
suite runs exactly only, and ``--suite all`` runs each suite in its own
arithmetic, so it takes no ``--mode``.

The environment variable REARRANGE_LAB_PRECISION sets the float-mode
significand width in bits, at least 53 (default 53; rechecks always run
at 113).  mpmath evaluates every width other than 53 and is imported on
its first use, so a run at 53 bits that needs no recheck never loads it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InputError, RearrangeLabError
from .norms import norm_from_json
from .oscillation import decomposition_to_json, zero_mean_decompose
from .rearrange import decreasing_rearrangement, profile_to_json
from .scalars import DOUBLE_PRECISION, parse_exponent
from .search import TARGETS, SearchProblem, search
from .spaces import Instance
from .verify import (SUITE_IDS, TrialConfig, canonical_json, check_precision,
                     run_suite)


class FlagError(InputError):
    """A command-line flag problem (``exit_code`` 2)."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems as single-line errors."""

    def error(self, message):
        raise FlagError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rearrange-lab", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_re = sub.add_parser("rearrange", help="decreasing rearrangement of a function")
    p_re.add_argument("--input", required=True, help="instance JSON file")
    p_re.add_argument("--function", required=True, help="function name in the instance")

    p_de = sub.add_parser("decompose", help="zero-mean two-level block decomposition")
    p_de.add_argument("--input", required=True)
    p_de.add_argument("--function", required=True)

    p_ve = sub.add_parser("verify", help="run a verification suite")
    p_ve.add_argument("--suite", required=True, choices=SUITE_IDS + ("all",))
    p_ve.add_argument("--trials", type=int, default=10000)
    p_ve.add_argument("--atoms", type=int, default=4)
    p_ve.add_argument("--seed", type=int, default=0)
    p_ve.add_argument("--mode", choices=("exact", "float"), default=None)
    p_ve.add_argument("--weights", choices=("equal", "random-rational"),
                      default="equal")
    p_ve.add_argument("--norm", default=None,
                      help="norm descriptor JSON, inline or @file (thm43)")
    p_ve.add_argument("--exponents", default=None,
                      help="r,p1,q1,p2,q2 with 1/r = 1/p1+1/q1 = 1/p2+1/q2 (thm41)")
    p_ve.add_argument("--out", default=None, help="also write the report here")

    p_se = sub.add_parser("search", help="extremal ratio search")
    p_se.add_argument("--target", required=True, choices=tuple(TARGETS))
    p_se.add_argument("--iters", type=int, default=1000)
    p_se.add_argument("--restarts", type=int, default=8)
    p_se.add_argument("--seed", type=int, default=0)
    p_se.add_argument("--atoms", type=int, default=2)
    p_se.add_argument("--norm", default=None)
    p_se.add_argument("--exponents", default=None)
    p_se.add_argument("--threads", type=int, default=1)
    p_se.add_argument("--out", default=None)
    return parser


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 ({exc.reason})") \
            from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _parse_norm_flag(text):
    if text is None:
        return None
    if text.startswith("@"):
        doc = _load_json_file(text[1:])
    else:
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"invalid norm descriptor JSON: {exc}") from exc
    return norm_from_json(doc)


def _parse_exponents_flag(text):
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(parse_exponent(p) for p in parts)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_function(args):
    functions = _load_instance(args.input).functions
    if args.function not in functions:
        raise InputError(
            f"no function named {args.function!r} in {args.input}"
        )
    return functions[args.function]


def _load_instance(path) -> Instance:
    return Instance.from_json(_load_json_file(path))


def _emit(text: str, out_path=None) -> None:
    """Write text to out_path, if given, and then to stdout."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(
                f"cannot write {out_path}: {exc.strerror}") from exc
    sys.stdout.write(text)


def _precision_from_env() -> int:
    raw = os.environ.get("REARRANGE_LAB_PRECISION")
    if raw is None:
        return DOUBLE_PRECISION
    try:
        precision = int(raw)
    except ValueError as exc:
        raise InputError(
            f"REARRANGE_LAB_PRECISION must be an integer, got {raw!r}"
        ) from exc
    return check_precision(precision, "REARRANGE_LAB_PRECISION")


def _verify_command(args) -> int:
    if args.suite == "all" and args.mode is not None:
        raise FlagError("--suite all runs each suite in its own arithmetic "
                        "and takes no --mode")
    precision = _precision_from_env()
    norm = _parse_norm_flag(args.norm)
    exponents = _parse_exponents_flag(args.exponents)
    suites = SUITE_IDS if args.suite == "all" else (args.suite,)
    # every config is built, and so checked, before any suite runs
    configs = [TrialConfig(
        suite=suite, atoms=args.atoms, weight_scheme=args.weights,
        trials=args.trials, seed=args.seed, mode=args.mode,
        precision=precision, exponents=exponents, norm=norm)
        for suite in suites]
    reports = [run_suite(cfg) for cfg in configs]
    if args.suite == "all":
        doc = {"suites": [r.to_json_dict() for r in reports]}
    else:
        doc = reports[0].to_json_dict()
    _emit(canonical_json(doc), args.out)
    return 1 if any(r.violations for r in reports) else 0


def _search_command(args) -> int:
    problem = SearchProblem(target=args.target, atoms=args.atoms,
                            exponents=_parse_exponents_flag(args.exponents),
                            norm=_parse_norm_flag(args.norm))
    result = search(problem, args.iters, args.restarts, seed=args.seed,
                    threads=args.threads)
    _emit(canonical_json(result.to_json_dict()), args.out)
    return 1 if result.violation else 0


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "rearrange":
            profile = decreasing_rearrangement(_load_function(args))
            _emit(canonical_json(profile_to_json(profile)))
            return 0
        if args.command == "decompose":
            decomposition = zero_mean_decompose(_load_function(args))
            _emit(canonical_json(decomposition_to_json(decomposition)))
            return 0
        if args.command == "verify":
            return _verify_command(args)
        if args.command == "search":
            return _search_command(args)
        raise InputError(f"unknown command {args.command!r}")
    except RearrangeLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
