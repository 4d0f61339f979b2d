"""Traced replay of a workload, for the per-layer metrics.

The replay repeats one CLI invocation's work in this process by calling
the public functions of each module in the order the CLI does, with a
span around every call it makes.  Nothing under src/ is patched or
wrapped, so a span covers exactly one call made here, callees included.
Each verify replay recomputes the per-trial gaps and must reproduce the
CLI report's minimum gap, its argmin trial and its configuration; a
replay that diverges makes the run incorrect, so its layer numbers are
never used.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, field

from rearrange_lab.norms import (Associate, LorentzLambda, Lp, dual_exponent,
                                 norm, norm_from_json)
from rearrange_lab.oscillation import bilinear_form
from rearrange_lab.rearrange import (decreasing_rearrangement,
                                     profile_integrate_product)
from rearrange_lab.scalars import (DOUBLE_PRECISION, INF, QUAD_PRECISION,
                                   binary_context, format_scalar)
from rearrange_lab.search import RHS_FLOOR, SearchProblem, search
from rearrange_lab.spaces import (SimpleFunction, center, multiply,
                                  to_binary_function, to_binary_space)
from rearrange_lab.verify import (TrialConfig, canonical_hash, canonical_json,
                                  generate_instance, thm43_sides)

#: thm43 instances given to the direct 113-bit recheck probe
RECHECK_PROBES = 16

#: each search move tries five candidates, each one objective evaluation
CANDIDATES_PER_MOVE = 5

#: untraced/traced replay pairs made however short the run
MIN_PAIRS = 3


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._open.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def durations(self) -> dict:
        out = {}
        for name, start, end, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out


@dataclass
class Replay:
    """What a replay pass saw, beside its spans."""

    gaps: list = field(default_factory=list)
    form_gaps: dict = field(default_factory=dict)
    instances: int = 0
    fixtures: int = 0


def _passes(one_pass, seconds):
    """An untraced warm-up pass (lazy imports such as scipy's LP), then
    untraced and traced passes in turn for ``seconds``.  Returns the last
    traced pass's tracer and result, and trace.overhead_share: the median
    traced over the median untraced pass time, minus one."""
    one_pass(Tracer(False))
    times = {False: [], True: []}
    start = time.perf_counter()
    while len(times[True]) < MIN_PAIRS or time.perf_counter() - start < seconds:
        for enabled in (False, True):
            tr = Tracer(enabled)
            began = time.perf_counter()
            result = one_pass(tr)
            times[enabled].append(time.perf_counter() - began)
    overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1
    return tr, result, overhead


def _min_gap(gaps):
    """The smallest gap and its first trial, as the CLI reduces them."""
    where = min(range(len(gaps)), key=gaps.__getitem__)
    return gaps[where], where


def _instance(tr, cfg, index, seen: Replay):
    inst = tr.call("verify.generate_instance", generate_instance, cfg, index)
    seen.instances += 1
    if inst.space.n != cfg.atoms:
        seen.fixtures += 1
    return inst


# ---------------------------------------------------------------------------
# verify suites

def _thm32(tr, cfg, seen):
    for i in range(cfg.trials):
        inst = _instance(tr, cfg, i, seen)
        f, g, h = (inst.functions[k] for k in "fgh")
        omega = frozenset(range(inst.space.n))
        lhs = tr.call("oscillation.bilinear_form", bilinear_form,
                      omega, omega, f, g, h)
        profiles = [tr.call("rearrange.decreasing_rearrangement",
                            decreasing_rearrangement, x) for x in (f, g, h)]
        rhs = 2 * tr.call("rearrange.profile_integrate_product",
                          profile_integrate_product, profiles)
        seen.gaps.append(rhs - lhs)


def _collapse(X):
    """Associates of Lp norms are Lp norms, as norms.norm evaluates them."""
    if isinstance(X, Associate):
        base = _collapse(X.base)
        return Lp(dual_exponent(base.p)) if isinstance(base, Lp) else Associate(base)
    return X


def norm_kind(X) -> str:
    """Span label of a norm descriptor."""
    X = _collapse(X)
    if isinstance(X, Lp):
        return "lp_inf" if X.p == INF else "lp"
    if isinstance(X, Associate) and isinstance(X.base, LorentzLambda):
        return "lorentz_associate"
    if isinstance(X, Associate) and isinstance(X.base, Associate) \
            and isinstance(X.base.base, LorentzLambda):
        return "second_associate_lp"
    return type(X).__name__.lower()


def thm43_forms(tr, f, g, X, precision):
    """verify.thm43_sides, one public call per span, in the same order and
    with the same arithmetic, so the floats agree bit for bit."""
    def nrm(Y, u):
        return tr.call(f"norms.norm.{norm_kind(Y)}", norm, Y, u,
                       precision=precision)

    def ctr(u):
        return tr.call("spaces.center", center, u)

    fg_centered = ctr(tr.call("spaces.multiply", multiply, f, g))
    f_centered, g_centered = ctr(f), ctr(g)
    sup_f = nrm(Lp(INF), f)
    sup_g = nrm(Lp(INF), g)
    norm_form = (
        nrm(X, fg_centered),
        sup_f * nrm(X, g_centered) + sup_g * nrm(X, f_centered),
    )
    associate_form = (
        nrm(Lp(1), fg_centered),
        nrm(X, f) * nrm(Associate(X), g_centered)
        + nrm(Associate(X), g) * nrm(X, f_centered),
    )
    return {"norm_form": norm_form, "associate_form": associate_form}


def _binary(inst, precision):
    space = to_binary_space(inst.space, precision)
    return {k: to_binary_function(v, space, precision)
            for k, v in inst.functions.items()}


def _thm43(tr, cfg, seen):
    for i in range(cfg.trials):
        inst = _instance(tr, cfg, i, seen)
        work = tr.call("spaces.to_binary", _binary, inst, cfg.precision)
        with binary_context(cfg.precision):
            forms = thm43_forms(tr, work["f"], work["g"], cfg.norm,
                                cfg.precision)
        trial_gap = None
        for label, (lhs, rhs) in forms.items():
            gap = rhs - lhs
            seen.form_gaps.setdefault(label, []).append(gap)
            if trial_gap is None or gap < trial_gap:
                trial_gap = gap
        seen.gaps.append(trial_gap)


_SUITES = {"thm32": _thm32, "thm43": _thm43}


def verify_config(workload, cli_seed) -> TrialConfig:
    """The TrialConfig the CLI builds for this workload's flags."""
    flag = workload.flag
    argv = workload.argv
    return TrialConfig(
        suite=flag("--suite"),
        atoms=int(flag("--atoms")),
        weight_scheme=flag("--weights") if "--weights" in argv else "equal",
        trials=int(flag("--trials")),
        seed=cli_seed,
        mode=flag("--mode"),
        precision=DOUBLE_PRECISION,
        norm=norm_from_json(json.loads(flag("--norm")))
        if "--norm" in argv else None,
    )


def _fidelity(cfg, seen, report) -> list:
    """Where the replay disagrees with the CLI report (empty when none)."""
    problems = []
    best, where = _min_gap(seen.gaps)
    if report.get("config") != cfg.canonical_dict():
        problems.append("config differs from the CLI report")
    if format_scalar(best) != report.get("min_gap"):
        problems.append(f"min_gap {format_scalar(best)} != {report.get('min_gap')}")
    argmin = (report.get("argmin_instance") or {}).get("trial_index")
    if where != argmin:
        problems.append(f"argmin trial {where} != {argmin}")
    if seen.form_gaps:
        forms = {k: format_scalar(min(v)) for k, v in seen.form_gaps.items()}
        if forms != report.get("form_min_gaps"):
            problems.append("form_min_gaps differ")
    return problems


def _recheck_probe(tr, cfg) -> list:
    """Run the 113-bit recheck directly on the first instances; returns
    the exceptions raised, one line each.  They are counted, never
    skipped."""
    failed = []

    def recheck(inst):
        quad = _binary(inst, QUAD_PRECISION)
        with binary_context(QUAD_PRECISION):
            return thm43_sides(quad["f"], quad["g"], cfg.norm,
                               precision=QUAD_PRECISION)

    for i in range(min(RECHECK_PROBES, cfg.trials)):
        try:
            tr.call("verify.recheck", recheck, generate_instance(cfg, i))
        except Exception as exc:  # noqa: BLE001 - every failure is measured
            failed.append(f"trial {i}: {type(exc).__name__}: {exc}")
    return failed


def replay_verify(workload, cli_seed, report, seconds) -> dict:
    """Untraced and traced replays of one verify invocation."""
    cfg = verify_config(workload, cli_seed)

    def one_pass(tr):
        seen = Replay()
        _SUITES[cfg.suite](tr, cfg, seen)
        return seen

    tr, seen, overhead = _passes(one_pass, seconds)
    problems = _fidelity(cfg, seen, report)
    recheck_errors = _recheck_probe(tr, cfg) if cfg.suite == "thm43" else []
    return {
        "tracer": tr,
        "problems": problems,
        "notes": recheck_errors,
        "overhead_share": overhead,
        "extra": {
            "verify.fixture_share": seen.fixtures / seen.instances,
            "verify.recheck.failed": len(recheck_errors),
            "verify.grazes": report["grazes"],
            "verify.violations": len(report["violations"]),
        },
    }


# ---------------------------------------------------------------------------
# search

def search_problem(workload) -> SearchProblem:
    return SearchProblem(target=workload.flag("--target"),
                         atoms=int(workload.flag("--atoms")))


def _objective_states(problem, cli_seed, count):
    rng = random.Random(f"bench-objective:{cli_seed}")
    return [{name: [rng.uniform(-1.0, 1.0) for _ in range(problem.atoms)]
             for name in problem.free_functions} for _ in range(count)]


def _norm_form(tr, problem, space, state):
    f = SimpleFunction(tuple(state["f"]), space)
    g = SimpleFunction(tuple(state["g"]), space)
    return thm43_forms(tr, f, g, problem.norm, DOUBLE_PRECISION)["norm_form"]


def _objective(tr, problem, space, state):
    """search's objective at float precision: the thm43 norm-form ratio,
    or None below the search's RHS floor."""
    lhs, rhs = _norm_form(tr, problem, space, state)
    return float(lhs) / float(rhs) if rhs > RHS_FLOOR else None


def replay_search(workload, cli_seed, report, pinned, seconds) -> dict:
    """Objective replay over as many evaluations as one invocation makes,
    plus the search itself at 1 and 2 threads for exec.speedup_2t."""
    problem = search_problem(workload)
    space = problem.space()
    iters = int(workload.flag("--iters"))
    restarts = int(workload.flag("--restarts"))
    states = _objective_states(problem, cli_seed,
                               iters * restarts * CANDIDATES_PER_MOVE)
    problems = []
    for state in states[:8]:
        f = SimpleFunction(tuple(state["f"]), space)
        g = SimpleFunction(tuple(state["g"]), space)
        expected = thm43_sides(f, g, problem.norm,
                               precision=DOUBLE_PRECISION)["norm_form"]
        if _norm_form(Tracer(False), problem, space, state) != expected:
            problems.append("objective replica differs from thm43_sides")
            break

    def one_pass(tr):
        for state in states:
            tr.call("search.objective", _objective, tr, problem, space, state)

    tr, _, overhead = _passes(one_pass, seconds)
    walls = {1: [], 2: []}
    for threads in (1, 2, 2, 1):
        start = time.perf_counter()
        result = search(problem, iters, restarts, seed=cli_seed, threads=threads)
        walls[threads].append(time.perf_counter() - start)
        digest = canonical_hash(result.to_json_dict())
        if digest != pinned:
            problems.append(f"in-process search at {threads} threads: "
                            f"hash {digest} != pinned {pinned}")
    return {
        "tracer": tr,
        "problems": problems,
        "notes": [],
        "overhead_share": overhead,
        "extra": {
            "exec.speedup_2t": statistics.median(walls[1])
            / statistics.median(walls[2]),
            "verify.violations": int(report["violation"] is not None),
        },
    }


def report_json_busy_s(report) -> float:
    """Median time of serializing the CLI's report document."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        canonical_json(report)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
