"""Randomized verification suites with reproducible reports.

Every suite draws deterministic instances from (seed, trial index),
evaluates both sides of its inequality, and reduces the per-trial gaps
(RHS - LHS) into a `VerificationReport`.

Certification is per suite.  The table `_TRIALS`, which the extremal
search reads too, defines each inequality by its forms and by the
arithmetic that certifies it: exact for the root-free thm32 and lemma31,
113 bits for the product rules thm41 and thm43.  A negative float gap is
re-evaluated in that arithmetic and certified by the one rule
`_certified`; otherwise it is logged as a graze.  The rearrange suite
checks properties rather than an inequality and has its own trial.

Suite ids: thm32 (the rearrangement bound for the oscillation form),
lemma31 (its off-support cross-term bound), thm41 (the Lp product rule),
thm43 (the rearrangement-invariant-norm product rule, both forms), and
rearrange (the rearrangement machinery bundle).
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import norms as norms_mod
from .errors import InputError
from .norms import (L1, LINF, Associate, Lp, exactly_evaluable,
                    hardy_littlewood_check, norm)
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


def _keyed_rng(key: str) -> random.Random:
    """A reproducible generator seeded by the SHA-256 of key."""
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw_weights(cfg: TrialConfig, rng: random.Random):
    if cfg.weight_scheme == "equal":
        return tuple(Fraction(1, cfg.atoms) for _ in range(cfg.atoms))
    numerators = [rng.randint(1, 64) for _ in range(cfg.atoms)]
    total = sum(numerators)
    return tuple(Fraction(k, total) for k in numerators)


@functools.cache
def _lattice(lattice_max: int, lattice_den: int) -> tuple:
    """The lattice values k / lattice_den for k = -lattice_max ..
    lattice_max, in order."""
    return tuple(Fraction(k, lattice_den)
                 for k in range(-lattice_max, lattice_max + 1))


def _draw_values(cfg: TrialConfig, rng: random.Random, n: int):
    lattice = _lattice(cfg.lattice_max, cfg.lattice_den)
    return tuple(
        lattice[rng.randint(-cfg.lattice_max, cfg.lattice_max) + cfg.lattice_max]
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
    rng = _keyed_rng(f"{cfg.seed}:{index}")
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


def _binary_instance(inst: Instance, precision) -> Instance:
    """inst rounded to binary floats of `precision` bits, or for None
    converted to exact rationals (binary floats convert exactly)."""
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


def thm43_sides(f: SimpleFunction, g: SimpleFunction, X, precision=None,
                labels=None):
    """The conclusions named in labels, in that order (None: both): the
    X-norm form (5 norms) and the associate form (5 norms, two of them
    in X').  The centerings they share are computed once, and a form not
    asked for is not evaluated."""
    fg_centered = center(multiply(f, g))
    f_centered, g_centered = center(f), center(g)

    def nrm(Y, u):
        return norm(Y, u, precision=precision)

    forms = {
        "norm_form": lambda: (
            nrm(X, fg_centered),
            nrm(LINF, f) * nrm(X, g_centered) + nrm(LINF, g) * nrm(X, f_centered),
        ),
        "associate_form": lambda: (
            nrm(L1, fg_centered),
            nrm(X, f) * nrm(Associate(X), g_centered)
            + nrm(Associate(X), g) * nrm(X, f_centered),
        ),
    }
    return {label: forms[label]()
            for label in (forms if labels is None else labels)}


# ---------------------------------------------------------------------------
# trial outcomes and reduction

@dataclass
class TrialOutcome:
    gap: object = None
    graze: bool = False
    violation: dict = None
    form_gaps: dict = None
    passed_properties: tuple = ()


def _recheck_mode(precision) -> str:
    return "exact" if precision is None else f"float{precision}"


def _certified(lhs, rhs, precision) -> bool:
    """The one certification rule: sides in the arithmetic `precision`
    names (None: exact) confirm LHS > RHS when exact ones differ at all,
    binary ones by more than QUAD_CERTIFY_RTOL relative to their scale."""
    if precision is None:
        return rhs - lhs < 0
    with binary_context(precision):
        scale = max(1.0, abs(float(lhs)), abs(float(rhs)))
        return float(rhs - lhs) < -float(QUAD_CERTIFY_RTOL) * scale


def _judge(cfg, inst, label, lhs, rhs, recheck_sides):
    """A negative exact gap is a violation; a negative float gap is one
    only if recheck_sides(), the sides in the suite's certifying
    arithmetic, pass `_certified`, and a graze otherwise."""
    gap = rhs - lhs
    out = TrialOutcome(gap=gap)
    if gap < 0:
        exact = cfg.mode == "exact"
        precision = None if exact else _TRIALS[cfg.suite][1]
        re_lhs, re_rhs = (lhs, rhs) if exact else recheck_sides()
        if _certified(re_lhs, re_rhs, precision):
            out.violation = {
                "form": label,
                "instance": inst.to_json(),
                "lhs": format_scalar(lhs),
                "rhs": format_scalar(rhs),
                "recheck": {"mode": _recheck_mode(precision),
                            "lhs": format_scalar(re_lhs),
                            "rhs": format_scalar(re_rhs)},
            }
        else:
            out.graze = True
    return out


def _thm32_forms(cfg, fns, precision, labels):
    return {None: thm32_sides(fns["f"], fns["g"], fns["h"])}


def _lemma31_forms(cfg, fns, precision, labels):
    return {None: lemma31_bound(fns["f"], fns["g"], fns["h"])}


def _thm41_forms(cfg, fns, precision, labels):
    return {None: thm41_sides(fns["f"], fns["g"], cfg.exponents,
                              precision=precision)}


def _thm43_forms(cfg, fns, precision, labels):
    return thm43_sides(fns["f"], fns["g"], cfg.norm, precision=precision,
                       labels=labels)


#: suite -> (forms, certifying precision; None is exact).  forms(cfg,
#: functions, precision, labels) returns {label: (lhs, rhs)} for the
#: labels asked for, every form for labels None; a single-form suite has
#: the one label None.  cfg supplies the exponents or the norm.
_TRIALS = {
    "thm32": (_thm32_forms, None),
    "lemma31": (_lemma31_forms, None),
    "thm41": (_thm41_forms, QUAD_PRECISION),
    "thm43": (_thm43_forms, QUAD_PRECISION),
}


def _evaluate(cfg, functions, precision, labels=None) -> dict:
    """The forms of cfg.suite named in labels (None: every form) on
    functions in `precision`'s arithmetic; no other form is evaluated."""
    forms, _ = _TRIALS[cfg.suite]
    with binary_context(precision or DOUBLE_PRECISION):
        return forms(cfg, functions, precision, labels)


def _recheck(cfg, inst: Instance, label):
    """One form of inst, and only that one, re-evaluated in cfg.suite's
    certifying arithmetic."""
    precision = _TRIALS[cfg.suite][1]
    work = _binary_instance(inst, precision)
    return _evaluate(cfg, work.functions, precision, (label,))[label]


def _run_trial(cfg: TrialConfig, index: int) -> TrialOutcome:
    inst = generate_instance(cfg, index)
    if cfg.suite == "rearrange":
        return _run_rearrange_trial(cfg, inst)
    precision = None if cfg.mode == "exact" else cfg.precision
    work = inst if precision is None else _binary_instance(inst, precision)
    judged = {
        label: _judge(
            cfg, inst, cfg.suite if label is None else f"{cfg.suite}-{label}",
            lhs, rhs, lambda label=label: _recheck(cfg, inst, label),
        )
        for label, (lhs, rhs) in _evaluate(cfg, work.functions,
                                           precision).items()
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
