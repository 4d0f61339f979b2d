"""Randomized verification suites with reproducible reports.

Every suite draws deterministic instances from (seed, trial index),
evaluates both sides of its inequality, and reduces the per-trial gaps
(RHS - LHS) into a `VerificationReport`.  Exact mode is the authority for
the root-free suites; the product-rule suites run in binary floating
point and re-check any negative gap at 113-bit precision before
certifying a violation, so floating-point grazes are logged rather than
reported as counterexamples.

One runner serves the inequality suites: the table `_TRIALS` gives each
the (LHS, RHS) pairs of its forms as a function of (config, functions,
precision) and its judge, root-free (a negative gap is rechecked exactly)
or rooted (rechecked at 113 bits).  The rearrange suite checks properties
rather than an inequality and has its own trial function.

Suite ids: thm32 (the rearrangement bound for the oscillation form),
lemma31 (its off-support cross-term bound), thm41 (the Lp product rule),
thm43 (the rearrangement-invariant-norm product rule, both forms), and
rearrange (the rearrangement machinery bundle).
"""

from __future__ import annotations

import hashlib
import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import norms as norms_mod
from .errors import InputError
from .norms import (Associate, Lp, exactly_evaluable, hardy_littlewood_check,
                    norm)
from .oscillation import bilinear_form, lemma31_bound
from .rearrange import (decreasing_rearrangement, equimeasurable,
                        indicator_difference_rearrangement, layer_decompose,
                        layer_reconstruct, lp_moments_agree,
                        nonexpansive_holds, profile_integrate_product,
                        profile_leq, truncation_ladder)
from .scalars import (DOUBLE_PRECISION, INF, QUAD_PRECISION, binary_context,
                      format_exponent, format_scalar)
from .spaces import (DiscreteSpace, SimpleFunction, center, equal_space,
                     instance_to_json, multiply, to_binary_function,
                     to_binary_space)

SUITE_IDS = ("thm32", "lemma31", "thm41", "thm43", "rearrange")

#: certification threshold for the 113-bit recheck, relative to scale
QUAD_CERTIFY_RTOL = Fraction(1, 2**80)

DEFAULT_EXPONENTS = (Fraction(1), INF, Fraction(1), INF, Fraction(1))


def _invexp(p):
    return Fraction(0) if p == INF else 1 / Fraction(p)


def validate_exponents(exponents) -> tuple:
    """Check the product-rule scaling 1/r = 1/p1 + 1/q1 = 1/p2 + 1/q2."""
    if len(exponents) != 5:
        raise InputError("need five exponents r,p1,q1,p2,q2")
    r, p1, q1, p2, q2 = exponents
    for p in exponents:
        if p != INF and Fraction(p) < 1:
            raise InputError("exponents must lie in [1, inf]")
    if _invexp(p1) + _invexp(q1) != _invexp(r) or \
            _invexp(p2) + _invexp(q2) != _invexp(r):
        raise InputError(
            "exponents violate 1/r = 1/p1 + 1/q1 = 1/p2 + 1/q2"
        )
    return tuple(exponents)


@dataclass(frozen=True)
class TrialConfig:
    """Configuration of one verification run."""

    suite: str
    atoms: int = 4
    weight_scheme: str = "equal"  # equal | random-rational
    lattice_max: int = 8          # values are k / lattice_den, |k| <= lattice_max
    lattice_den: int = 4
    trials: int = 10000
    seed: int = 0
    mode: str = "exact"           # exact | float
    precision: int = DOUBLE_PRECISION
    exponents: tuple = None
    norm: object = None
    threads: int = 1              # execution detail, not part of the canonical config

    def __post_init__(self):
        if self.suite not in SUITE_IDS:
            raise InputError(f"unknown suite {self.suite!r}")
        if self.atoms < 1:
            raise InputError("need at least one atom")
        if self.trials < 1:
            raise InputError("need at least one trial")
        if self.threads < 1:
            raise InputError("need at least one thread")
        if self.weight_scheme not in ("equal", "random-rational"):
            raise InputError(f"unknown weight scheme {self.weight_scheme!r}")
        if self.mode not in ("exact", "float"):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.suite == "thm41":
            exps = self.exponents or DEFAULT_EXPONENTS
            object.__setattr__(self, "exponents", validate_exponents(exps))
            if self.mode == "exact" and any(
                p != INF and p != 1 for p in self.exponents
            ):
                raise InputError(
                    "exact mode for thm41 needs all exponents in {1, inf}"
                )
        if self.suite == "thm43":
            X = self.norm if self.norm is not None else Lp(2)
            object.__setattr__(self, "norm", X)
            if self.mode == "exact" and not (
                exactly_evaluable(X) and exactly_evaluable(Associate(X))
            ):
                raise InputError(
                    "exact mode for thm43 needs an exactly evaluable norm pair"
                )

    def canonical_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "atoms": self.atoms,
            "weight_scheme": self.weight_scheme,
            "lattice_max": self.lattice_max,
            "lattice_den": self.lattice_den,
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
            "precision": self.precision,
        }
        if self.exponents is not None:
            out["exponents"] = [format_exponent(p) for p in self.exponents]
        if self.norm is not None:
            out["norm"] = norms_mod.norm_to_json(self.norm)
        return out


@dataclass(frozen=True)
class Instance:
    space: DiscreteSpace
    functions: dict
    trial_index: int

    def to_json(self) -> dict:
        doc = instance_to_json(self.space, self.functions)
        doc["trial_index"] = self.trial_index
        return doc


def _trial_rng(seed: int, index: int) -> random.Random:
    key = f"{seed}:{index}".encode()
    digest = hashlib.sha256(key).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw_weights(cfg: TrialConfig, rng: random.Random):
    if cfg.weight_scheme == "equal":
        return tuple(Fraction(1, cfg.atoms) for _ in range(cfg.atoms))
    numerators = [rng.randint(1, 64) for _ in range(cfg.atoms)]
    total = sum(numerators)
    return tuple(Fraction(k, total) for k in numerators)


def _draw_values(cfg: TrialConfig, rng: random.Random, n: int):
    return tuple(
        Fraction(rng.randint(-cfg.lattice_max, cfg.lattice_max), cfg.lattice_den)
        for _ in range(n)
    )


def _two_level_fixture(index: int) -> Instance:
    """Structured two-level instances: g = 1 on A minus 1 on B, with the
    support of f meeting each of A, B, and the off-support region in all
    eight on/off patterns, under sixteen sign/shape variations."""
    pattern, variation = index % 8, index // 8
    space = equal_space(6)
    g = SimpleFunction(
        (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1),
         Fraction(0), Fraction(0)), space
    )
    f_vals = [Fraction(0)] * 6
    anchors = (0, 2, 4)  # one atom each inside A, B, and the complement
    for bit, atom in enumerate(anchors):
        if pattern >> bit & 1:
            f_vals[atom] = Fraction(-1 if variation >> bit & 1 else 1)
    if variation >> 3 & 1:
        h_vals = tuple(Fraction(1 if i % 2 == 0 else -1) for i in range(6))
    else:
        h_vals = tuple(Fraction(1) for _ in range(6))
    return Instance(
        space,
        {"f": SimpleFunction(tuple(f_vals), space),
         "g": g, "h": SimpleFunction(h_vals, space)},
        index,
    )


_REARRANGE_FIXTURE_WEIGHTS = (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))


def generate_instance(cfg: TrialConfig, index: int) -> Instance:
    """Deterministic instance for (cfg.seed, index), honoring the suite's
    hypotheses (value lattices, exact centering)."""
    if cfg.suite == "thm32" and index < 128:
        return _two_level_fixture(index)
    if cfg.suite == "rearrange" and index == 0:
        space = DiscreteSpace(_REARRANGE_FIXTURE_WEIGHTS)
        return Instance(
            space,
            {"f": SimpleFunction((Fraction(3), Fraction(-1), Fraction(2)), space),
             "g": SimpleFunction((Fraction(1), Fraction(0), Fraction(-1)), space)},
            index,
        )
    rng = _trial_rng(cfg.seed, index)
    space = DiscreteSpace(_draw_weights(cfg, rng))
    n = cfg.atoms
    functions = {}
    if cfg.suite in ("thm32", "lemma31"):
        if cfg.suite == "lemma31":
            f = SimpleFunction(
                tuple(Fraction(rng.randint(-1, 1)) for _ in range(n)), space
            )
            h = SimpleFunction(
                tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(n)), space
            )
        else:
            f = SimpleFunction(_draw_values(cfg, rng, n), space)
            h = SimpleFunction(_draw_values(cfg, rng, n), space)
        g = center(SimpleFunction(_draw_values(cfg, rng, n), space))
        functions = {"f": f, "g": g, "h": h}
    elif cfg.suite in ("thm41", "thm43", "rearrange"):
        f = SimpleFunction(_draw_values(cfg, rng, n), space)
        g = SimpleFunction(_draw_values(cfg, rng, n), space)
        functions = {"f": f, "g": g}
    return Instance(space, functions, index)


def _binary_instance(inst: Instance, precision: int) -> Instance:
    space = to_binary_space(inst.space, precision)
    funcs = {
        name: to_binary_function(f, space, precision)
        for name, f in inst.functions.items()
    }
    return Instance(space, funcs, inst.trial_index)


# ---------------------------------------------------------------------------
# inequality sides (shared with the extremal search)

def thm32_sides(f: SimpleFunction, g: SimpleFunction, h: SimpleFunction):
    """LHS = oscillation form over the whole space; RHS = twice the
    product integral of the three rearrangements."""
    space = f.space
    omega = frozenset(range(space.n))
    lhs = bilinear_form(omega, omega, f, g, h)
    rhs = 2 * profile_integrate_product([
        decreasing_rearrangement(f),
        decreasing_rearrangement(g),
        decreasing_rearrangement(h),
    ])
    return lhs, rhs


def thm41_sides(f: SimpleFunction, g: SimpleFunction, exponents,
                precision=None):
    r, p1, q1, p2, q2 = exponents
    lhs = norm(Lp(r), center(multiply(f, g)), precision=precision)
    rhs = (
        norm(Lp(p1), f, precision=precision)
        * norm(Lp(q1), center(g), precision=precision)
        + norm(Lp(p2), g, precision=precision)
        * norm(Lp(q2), center(f), precision=precision)
    )
    return lhs, rhs


def thm43_sides(f: SimpleFunction, g: SimpleFunction, X, precision=None):
    """Both conclusions: the X-norm form and the associate form."""
    fg_centered = center(multiply(f, g))
    f_centered, g_centered = center(f), center(g)
    sup_f = norm(Lp(INF), f, precision=precision)
    sup_g = norm(Lp(INF), g, precision=precision)
    norm_form = (
        norm(X, fg_centered, precision=precision),
        sup_f * norm(X, g_centered, precision=precision)
        + sup_g * norm(X, f_centered, precision=precision),
    )
    associate_form = (
        norm(Lp(1), fg_centered, precision=precision),
        norm(X, f, precision=precision)
        * norm(Associate(X), g_centered, precision=precision)
        + norm(Associate(X), g, precision=precision)
        * norm(X, f_centered, precision=precision),
    )
    return {"norm_form": norm_form, "associate_form": associate_form}


# ---------------------------------------------------------------------------
# trial outcomes and reduction

@dataclass
class TrialOutcome:
    gap: object = None
    graze: bool = False
    violation: dict = None
    form_gaps: dict = None
    passed_properties: tuple = ()


def _certificate(inst: Instance, label, lhs, rhs, recheck_mode, re_lhs, re_rhs):
    return {
        "form": label,
        "instance": inst.to_json(),
        "lhs": format_scalar(lhs),
        "rhs": format_scalar(rhs),
        "recheck": {
            "mode": recheck_mode,
            "lhs": format_scalar(re_lhs),
            "rhs": format_scalar(re_rhs),
        },
    }


def _judge_rootfree(cfg, inst, label, lhs, rhs, exact_sides):
    """Gap handling for suites whose recheck can run in exact arithmetic."""
    gap = rhs - lhs
    out = TrialOutcome(gap=gap)
    if gap < 0:
        e_lhs, e_rhs = exact_sides()
        if e_rhs - e_lhs < 0:
            out.violation = _certificate(
                inst, label, lhs, rhs, "exact", e_lhs, e_rhs
            )
        else:
            out.graze = True
    return out


def _judge_rooted(cfg, inst, label, lhs, rhs, quad_sides):
    """Gap handling for the product-rule suites: negative float gaps are
    re-evaluated at 113-bit precision before certification."""
    gap = rhs - lhs
    out = TrialOutcome(gap=gap)
    if cfg.mode == "exact":
        if gap < 0:
            out.violation = _certificate(inst, label, lhs, rhs, "exact", lhs, rhs)
        return out
    if gap < 0:
        with binary_context(QUAD_PRECISION):
            q_lhs, q_rhs = quad_sides()
            scale = max(1.0, abs(float(q_lhs)), abs(float(q_rhs)))
            if float(q_rhs - q_lhs) < -float(QUAD_CERTIFY_RTOL) * scale:
                out.violation = _certificate(
                    inst, label, lhs, rhs, f"float{QUAD_PRECISION}", q_lhs, q_rhs
                )
            else:
                out.graze = True
    return out


def _thm32_forms(cfg, fns, precision):
    return {None: thm32_sides(fns["f"], fns["g"], fns["h"])}


def _lemma31_forms(cfg, fns, precision):
    return {None: lemma31_bound(fns["f"], fns["g"], fns["h"])}


def _thm41_forms(cfg, fns, precision):
    return {None: thm41_sides(fns["f"], fns["g"], cfg.exponents,
                              precision=precision)}


def _thm43_forms(cfg, fns, precision):
    return thm43_sides(fns["f"], fns["g"], cfg.norm, precision=precision)


#: suite -> (forms, judge).  forms(cfg, functions, precision) returns
#: {label: (lhs, rhs)}, label None for a suite with a single form;
#: precision None means exact arithmetic.
_TRIALS = {
    "thm32": (_thm32_forms, _judge_rootfree),
    "lemma31": (_lemma31_forms, _judge_rootfree),
    "thm41": (_thm41_forms, _judge_rooted),
    "thm43": (_thm43_forms, _judge_rooted),
}


def _run_trial(cfg: TrialConfig, index: int) -> TrialOutcome:
    inst = generate_instance(cfg, index)
    if cfg.suite == "rearrange":
        return _run_rearrange_trial(cfg, inst)
    forms, judge = _TRIALS[cfg.suite]

    def evaluate(precision):
        work = inst if precision is None else _binary_instance(inst, precision)
        with binary_context(precision or DOUBLE_PRECISION):
            return forms(cfg, work.functions, precision)

    # the root-free judge rechecks exactly, the rooted one at 113 bits
    recheck = None if judge is _judge_rootfree else QUAD_PRECISION
    sides = evaluate(None if cfg.mode == "exact" else cfg.precision)
    judged = {
        label: judge(
            cfg, inst, cfg.suite if label is None else f"{cfg.suite}-{label}",
            lhs, rhs, lambda label=label: evaluate(recheck)[label],
        )
        for label, (lhs, rhs) in sides.items()
    }
    outs = judged.values()
    return TrialOutcome(
        gap=min(out.gap for out in outs),
        graze=any(out.graze for out in outs),
        violation=next((out.violation for out in outs if out.violation), None),
        form_gaps={label: out.gap for label, out in judged.items()},
    )


_REARRANGE_PROPERTIES = (
    "equimeasurability",
    "lp_preservation",
    "layer_roundtrip",
    "indicator_identity",
    "nonexpansiveness",
    "monotone_ladder",
    "hardy_littlewood",
)


def _run_rearrange_trial(cfg, inst):
    """All rearrangement-machinery properties on one instance; the gap
    reported is the worst inequality margin (Hardy-Littlewood and
    non-expansiveness)."""
    f, g = inst.functions["f"], inst.functions["g"]
    passed, failed = [], []

    prof = decreasing_rearrangement(f)
    _record(passed, failed, "equimeasurability", equimeasurable(f, prof))

    ok = all(lp_moments_agree(f, p) for p in (1, 2, 3, INF))
    _record(passed, failed, "lp_preservation", ok)

    cake_ok = layer_reconstruct(layer_decompose(f)).values == f.values
    _record(passed, failed, "layer_roundtrip", cake_ok)

    levels = sorted({abs(v) for v in f.values}) + [Fraction(0)]
    thresholds = set(levels)
    thresholds.update((a + b) / 2 for a, b in zip(levels, levels[1:]))
    ind_ok = all(
        left == right
        for left, right in (
            indicator_difference_rearrangement(f, t) for t in sorted(thresholds)
        )
    )
    _record(passed, failed, "indicator_identity", ind_ok)

    nonexp_ok = all(nonexpansive_holds(f, g, p) for p in (1, 2, INF))
    _record(passed, failed, "nonexpansiveness", nonexp_ok)

    ladder = truncation_ladder(f, 16)
    ladder_ok = all(
        profile_leq(a, b) for a, b in zip(ladder, ladder[1:])
    ) and ladder[-1] == prof
    _record(passed, failed, "monotone_ladder", ladder_ok)

    hl_lhs, hl_rhs = hardy_littlewood_check(f, g)
    sup_g = decreasing_rearrangement(g).sup
    l1_f = sum(abs(v) * w for v, w in zip(f.values, f.space.weights))
    chain_ok = hl_lhs <= hl_rhs <= sup_g * l1_f
    _record(passed, failed, "hardy_littlewood", chain_ok)

    out = TrialOutcome(
        gap=hl_rhs - hl_lhs,
        passed_properties=tuple(passed),
    )
    if failed:
        out.violation = {
            "form": "rearrange",
            "instance": inst.to_json(),
            "failed_properties": list(failed),
            "recheck": {"mode": "exact", "failed_properties": list(failed)},
        }
    return out


def _record(passed, failed, name, ok):
    (passed if ok else failed).append(name)


# ---------------------------------------------------------------------------
# reports

_HISTOGRAM_BINS = (
    ("violation", None),
    ("graze", None),
    ("zero", None),
    ("(0,1e-9]", 1e-9),
    ("(1e-9,1e-6]", 1e-6),
    ("(1e-6,1e-3]", 1e-3),
    ("(1e-3,1]", 1.0),
    ("(1,inf)", float("inf")),
)


def _bin_gap(outcome: TrialOutcome) -> str:
    if outcome.violation is not None:
        return "violation"
    if outcome.graze:
        return "graze"
    g = float(outcome.gap)
    if g <= 0:
        return "zero"
    for label, upper in _HISTOGRAM_BINS[3:]:
        if g <= upper:
            return label
    return "(1,inf)"


@dataclass
class VerificationReport:
    suite: str
    trials: int
    min_gap: object
    argmin_index: int
    argmin_instance: dict
    violations: list
    grazes: int
    histogram: dict
    config: dict
    properties: dict = None
    form_min_gaps: dict = None

    def to_json_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "trials": self.trials,
            "min_gap": format_scalar(self.min_gap),
            "argmin_instance": self.argmin_instance,
            "violations": self.violations,
            "grazes": self.grazes,
            "histogram": self.histogram,
            "config": self.config,
        }
        if self.properties is not None:
            out["properties"] = self.properties
        if self.form_min_gaps is not None:
            out["form_min_gaps"] = {
                k: format_scalar(v) for k, v in self.form_min_gaps.items()
            }
        return out


def canonical_json(doc: dict) -> str:
    """Stable serialization used for stdout and hashing."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def canonical_hash(doc: dict) -> str:
    """SHA-256 of the canonical serialization, timestamp excluded."""
    trimmed = {k: v for k, v in doc.items() if k != "timestamp"}
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_suite(cfg: TrialConfig) -> VerificationReport:
    """Run every trial of the configured suite and reduce the outcomes.

    Trials are independent; with cfg.threads > 1 they are evaluated on a
    thread pool and reduced in trial order, so the report is identical
    under any schedule.
    """
    indices = range(cfg.trials)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(lambda i: _run_trial(cfg, i), indices))
    else:
        outcomes = [_run_trial(cfg, i) for i in indices]

    histogram = {label: 0 for label, _ in _HISTOGRAM_BINS}
    min_gap, argmin_index = None, None
    violations, grazes = [], 0
    prop_passes = {name: 0 for name in _REARRANGE_PROPERTIES} \
        if cfg.suite == "rearrange" else None
    form_min = {} if cfg.suite == "thm43" else None

    for i, out in enumerate(outcomes):
        histogram[_bin_gap(out)] += 1
        if min_gap is None or out.gap < min_gap:
            min_gap, argmin_index = out.gap, i
        if out.violation is not None:
            violations.append(dict(out.violation, trial_index=i))
        if out.graze:
            grazes += 1
        if prop_passes is not None:
            for name in out.passed_properties:
                prop_passes[name] += 1
        if form_min is not None:
            for label, gap in out.form_gaps.items():
                if label not in form_min or gap < form_min[label]:
                    form_min[label] = gap

    return VerificationReport(
        suite=cfg.suite,
        trials=cfg.trials,
        min_gap=min_gap,
        argmin_index=argmin_index,
        argmin_instance=generate_instance(cfg, argmin_index).to_json(),
        violations=violations,
        grazes=grazes,
        histogram=histogram,
        config=cfg.canonical_dict(),
        properties=prop_passes,
        form_min_gaps=form_min,
    )
