"""Command-line interface.

Subcommands: rearrange, decompose, verify, search, landscape.  All
numeric I/O uses string literals so exact values survive the CLI
boundary; given identical flags and inputs, stdout is byte-identical
across runs.

Exit codes: 0 success / no violations; 1 certified violation found (the
report is still written); 2 input or flag error; 3 precondition violation
in the input data.  Errors print a single machine-parsable line to
stderr: ``error: <Category>: <message>``.

The environment variable REARRANGE_LAB_PRECISION sets the float-mode
significand width in bits (default 53; rechecks always run at 113).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (ExactUnavailable, InfeasibleProblem, InputError,
                     PreconditionViolated, RearrangeLabError,
                     TooManyFreeParameters)
from .norms import norm_from_json
from .oscillation import decomposition_to_json, zero_mean_decompose
from .rearrange import decreasing_rearrangement, profile_to_json
from .scalars import DOUBLE_PRECISION, parse_exponent
from .search import SearchProblem, landscape_csv, landscape_rows, search
from .verify import (SUITE_IDS, TrialConfig, canonical_json, run_suite,
                     validate_exponents)

_EXACT_DEFAULT_SUITES = ("thm32", "lemma31", "rearrange")


class _FlagError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems as single-line errors."""

    def error(self, message):
        raise _FlagError(message)


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
    p_se.add_argument("--target", required=True,
                      choices=("thm32-ratio", "thm41-ratio", "thm43-ratio"))
    p_se.add_argument("--iters", type=int, default=1000)
    p_se.add_argument("--restarts", type=int, default=8)
    p_se.add_argument("--seed", type=int, default=0)
    p_se.add_argument("--atoms", type=int, default=2)
    p_se.add_argument("--norm", default=None)
    p_se.add_argument("--exponents", default=None)
    p_se.add_argument("--threads", type=int, default=1)
    p_se.add_argument("--out", default=None)

    p_la = sub.add_parser("landscape", help="ratio table over a parameter grid")
    p_la.add_argument("--target", required=True,
                      choices=("thm32-ratio", "thm41-ratio", "thm43-ratio"))
    p_la.add_argument("--grid", type=int, default=101)
    p_la.add_argument("--norm", default=None)
    p_la.add_argument("--exponents", default=None)
    p_la.add_argument("--out", default=None, help="CSV output file (stdout otherwise)")
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
        exps = tuple(parse_exponent(p) for p in parts)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return validate_exponents(exps)


def _load_function(args):
    space, functions = _load_instance(args.input)
    if args.function not in functions:
        raise InputError(
            f"no function named {args.function!r} in {args.input}"
        )
    return functions[args.function]


def _load_instance(path):
    from .spaces import instance_from_json

    return instance_from_json(_load_json_file(path))


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(text: str, out_path=None) -> None:
    """Write text to out_path, if given, and then to stdout."""
    if out_path:
        _write_file(out_path, text)
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
    if precision < 2:
        raise InputError("REARRANGE_LAB_PRECISION must be at least 2")
    return precision


def _verify_command(args) -> int:
    precision = _precision_from_env()
    norm_flag = _parse_norm_flag(args.norm)
    exps_flag = _parse_exponents_flag(args.exponents)
    suites = SUITE_IDS if args.suite == "all" else (args.suite,)
    reports = []
    for suite in suites:
        mode = args.mode
        if mode is None:
            mode = "exact" if suite in _EXACT_DEFAULT_SUITES else "float"
        elif args.suite == "all" and suite not in _EXACT_DEFAULT_SUITES:
            mode = "float"
        cfg = TrialConfig(
            suite=suite,
            atoms=args.atoms,
            weight_scheme=args.weights,
            trials=args.trials,
            seed=args.seed,
            mode=mode,
            precision=precision,
            exponents=exps_flag if suite == "thm41" else None,
            norm=norm_flag if suite == "thm43" else None,
        )
        reports.append(run_suite(cfg))
    if args.suite == "all":
        doc = {"suites": [r.to_json_dict() for r in reports]}
    else:
        doc = reports[0].to_json_dict()
    _emit(canonical_json(doc), args.out)
    return 1 if any(r.violations for r in reports) else 0


def _search_command(args) -> int:
    problem = SearchProblem(
        target=args.target,
        atoms=args.atoms,
        exponents=_parse_exponents_flag(args.exponents),
        norm=_parse_norm_flag(args.norm),
    )
    result = search(problem, args.iters, args.restarts, seed=args.seed,
                    threads=args.threads)
    _emit(canonical_json(result.to_json_dict()), args.out)
    return 1 if result.violation else 0


def _landscape_command(args) -> int:
    problem = SearchProblem(
        target=args.target,
        atoms=2,
        exponents=_parse_exponents_flag(args.exponents),
        norm=_parse_norm_flag(args.norm),
    )
    rows = landscape_rows(problem, args.grid)
    csv_text = landscape_csv(rows)
    if args.out:
        _write_file(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


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
        if args.command == "landscape":
            return _landscape_command(args)
        raise InputError(f"unknown command {args.command!r}")
    except _FlagError as exc:
        print(f"error: FlagError: {exc}", file=sys.stderr)
        return 2
    except (InputError, ExactUnavailable) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (PreconditionViolated, InfeasibleProblem,
            TooManyFreeParameters) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except RearrangeLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
