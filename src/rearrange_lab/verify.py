"""Randomized verification suites with reproducible reports.

Every suite draws deterministic instances from (seed, trial index),
evaluates both sides of its inequality, and reduces the per-trial gaps
(RHS - LHS) into a `VerificationReport`.

Certification is per suite.  The table `_TRIALS`, which the extremal
search reads too, defines each inequality by its forms and by the
arithmetic that certifies it: exact for the root-free thm32 and lemma31,
113 bits for the product rules thm41 and thm43.  `judge` converts one
instance, drawn or not, to the run's arithmetic with `Instance.to_binary`
and evaluates every form of it there.  A negative gap goes to the one
recheck helper `_certify`, which the search's certificate uses too: it
converts the instance the same way to the certifying arithmetic (exact
for an exact run), re-evaluates that form alone and certifies it by the
one rule `_certified`; a form it does not certify is logged as a graze.  A
`TrialConfig` judges trial 0's instance once, and so refuses a norm that
its run cannot evaluate.  The rearrange suite checks properties rather
than an inequality, exactly, in its own trial, which returns
{property: passed}.

Suite ids: thm32 (the rearrangement bound for the oscillation form),
lemma31 (its off-support cross-term bound), thm41 and thm43 (the product
rule ||fg - E fg||_Y0 <= ||f||_Y1 ||g - E g||_Y2 + ||g||_Y3 ||f - E f||_Y4
in Lp norms and, in two forms, in an r.i. norm X: one kernel evaluates
every form), and rearrange (the rearrangement machinery bundle).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# SHA-256 from CPython's built-in module, as `random` takes its SHA-512:
# hashlib would load OpenSSL for this one hash, and the digest is the same.
try:
    from _sha256 import sha256  # CPython 3.11 and earlier
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        from hashlib import sha256

from . import norms as norms_mod
from .errors import ExactUnavailable, InputError
from .norms import L1, LINF, Associate, Lp, hardy_littlewood_check, norm
from .oscillation import bilinear_form, lemma31_bound
from .rearrange import (decreasing_rearrangement, equimeasurable,
                        indicator_difference_rearrangement, layer_decompose,
                        layer_reconstruct, lp_moments, nonexpansive_moments,
                        profile_integrate_product, profile_leq,
                        truncation_ladder)
from .scalars import (DOUBLE_PRECISION, INF, QUAD_PRECISION, binary_context,
                      dot, format_exponent, format_scalar, in_lowest_terms,
                      kept)
from .spaces import (DiscreteSpace, Instance, SimpleFunction, center,
                     equal_space, multiply)

#: certification threshold for the 113-bit recheck, relative to scale
QUAD_CERTIFY_RTOL = Fraction(1, 2**80)

DEFAULT_EXPONENTS = (Fraction(1), INF, Fraction(1), INF, Fraction(1))

#: random instance values are k / LATTICE_DEN with |k| <= LATTICE_MAX
LATTICE_MAX = 8
LATTICE_DEN = 4
_LATTICE_UNIT = Fraction(1, LATTICE_DEN)
#: bits per draw of a lattice index, as random.randint takes them
_LATTICE_BITS = (2 * LATTICE_MAX + 1).bit_length()


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


def suite_parameters(suite, exponents=None, norm=None) -> tuple:
    """(exponents, norm) as suite reads them: given exponents validated,
    the defaults DEFAULT_EXPONENTS (thm41) and Lp(2) (thm43) applied, and
    None for a parameter the suite does not read."""
    if exponents is not None:
        exponents = validate_exponents(exponents)
    if suite == "thm41":
        return exponents or DEFAULT_EXPONENTS, None
    if suite == "thm43":
        return None, Lp(2) if norm is None else norm
    return None, None


def parameters_json(exponents, norm) -> dict:
    """The canonical rendering of the parameters a suite reads."""
    out = {}
    if exponents is not None:
        out["exponents"] = [format_exponent(p) for p in exponents]
    if norm is not None:
        out["norm"] = norms_mod.norm_to_json(norm)
    return out


def check_int(value, name: str) -> int:
    """value, an int and not a bool; `name` is what the error calls it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return value


def check_precision(precision: int, name: str) -> int:
    """The float-mode significand width, an int at least a double's;
    `name` is what the error message calls it."""
    if check_int(precision, name) < DOUBLE_PRECISION:
        raise InputError(f"{name} must be at least {DOUBLE_PRECISION} "
                         f"(a double), got {precision}")
    return precision


@dataclass(frozen=True)
class TrialConfig:
    """Configuration of one verification run.  Mode None is the suite's
    default arithmetic, its certifying one in `_TRIALS`: exact for
    thm32, lemma31 and rearrange, float for thm41 and thm43.  The config
    judges trial 0's instance once with `judge`, in the run's arithmetic,
    so a norm the run cannot evaluate (an inexact root in exact mode, an
    associate without an evaluation in any mode) is an InputError before
    any trial."""

    suite: str
    atoms: int = 4
    weight_scheme: str = "equal"  # equal | random-rational
    trials: int = 10000
    seed: int = 0
    mode: str = None              # exact | float | None
    precision: int = DOUBLE_PRECISION
    exponents: tuple = None
    norm: object = None

    def __post_init__(self):
        if self.suite not in SUITE_IDS:
            raise InputError(f"unknown suite {self.suite!r}")
        exponents, X = suite_parameters(self.suite, self.exponents, self.norm)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "norm", X)
        if check_int(self.atoms, "atoms") < 1:
            raise InputError("need at least one atom")
        if check_int(self.trials, "trials") < 1:
            raise InputError("need at least one trial")
        check_int(self.seed, "seed")
        if self.weight_scheme not in ("equal", "random-rational"):
            raise InputError(f"unknown weight scheme {self.weight_scheme!r}")
        check_precision(self.precision, "precision")
        forms, certifying = _TRIALS[self.suite]
        if self.mode is None:
            object.__setattr__(
                self, "mode", "exact" if certifying is None else "float")
        if self.mode not in ("exact", "float"):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.mode == "float" and forms is None:
            raise InputError(f"the {self.suite} suite runs in exact mode only")
        try:
            judge(self, generate_instance(self, 0))
        except ExactUnavailable:
            raise InputError(f"exact mode for {self.suite} needs every "
                             "norm of its forms exactly evaluable") from None

    def canonical_dict(self) -> dict:
        return {
            "suite": self.suite,
            "atoms": self.atoms,
            "weight_scheme": self.weight_scheme,
            "lattice_max": LATTICE_MAX,
            "lattice_den": LATTICE_DEN,
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
            "precision": self.precision,
            **parameters_json(self.exponents, self.norm),
        }


def _keyed_rng(key: str) -> random.Random:
    """A reproducible generator seeded by the SHA-256 of key."""
    digest = sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw_space(cfg: TrialConfig, rng: random.Random) -> DiscreteSpace:
    """The shared equal-weight space, which draws nothing, or a fresh
    space of random rational weights."""
    if cfg.weight_scheme == "equal":
        return equal_space(cfg.atoms)
    numerators = [rng.randint(1, 64) for _ in range(cfg.atoms)]
    total = dot(numerators)
    return DiscreteSpace(tuple(Fraction(k, total) for k in numerators))


def _lattice_function(rng: random.Random,
                      space: DiscreteSpace) -> SimpleFunction:
    """A function of lattice values k / LATTICE_DEN, one per atom, each k
    drawn as rng.randint(-LATTICE_MAX, LATTICE_MAX) draws it:
    getrandbits(_LATTICE_BITS) until the result indexes the lattice, so
    the random stream is that of randint.  The function is built from
    the int draws over the lattice unit."""
    getrandbits = rng.getrandbits
    top = 2 * LATTICE_MAX
    ks = []
    for _ in range(space.n):
        r = getrandbits(_LATTICE_BITS)
        while r > top:
            r = getrandbits(_LATTICE_BITS)
        ks.append(r - LATTICE_MAX)
    return SimpleFunction.from_numerators(
        *in_lowest_terms(ks, _LATTICE_UNIT), space)


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
    space = _draw_space(cfg, rng)
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
            f = _lattice_function(rng, space)
            h = _lattice_function(rng, space)
        g = center(_lattice_function(rng, space))
        functions = {"f": f, "g": g, "h": h}
    elif cfg.suite in ("thm41", "thm43", "rearrange"):
        f = _lattice_function(rng, space)
        g = _lattice_function(rng, space)
        functions = {"f": f, "g": g}
    return Instance(space, functions, index)


# ---------------------------------------------------------------------------
# inequality sides (shared with the extremal search)

def thm32_sides(f: SimpleFunction, g: SimpleFunction, h: SimpleFunction):
    """LHS = oscillation form over the whole space; RHS = twice the
    product integral of the three rearrangements."""
    space = f.space
    lhs = bilinear_form(space.all_atoms, space.all_atoms, f, g, h)
    rhs = 2 * profile_integrate_product([
        decreasing_rearrangement(f),
        decreasing_rearrangement(g),
        decreasing_rearrangement(h),
    ])
    return lhs, rhs


def _product_rule(f: SimpleFunction, g: SimpleFunction, forms: dict,
                  precision=None) -> dict:
    """{label: (lhs, rhs)} for each form {label: (Y0, ..., Y4)}: the norms
    `norm` takes of fgc = fg - E fg, f, gc = g - E g, g and fc = f - E f,
    each function made once by `multiply` and `center`; f and g keep
    their centred functions and the norms taken (`_kept`) for when they
    come back."""
    kept_f, kept_g = _kept(f), _kept(g)
    fgc, fc, gc = center(multiply(f, g)), kept_f["centred"], kept_g["centred"]
    sides = {}
    for label, (Y0, Y1, Y2, Y3, Y4) in forms.items():
        sides[label] = norm(Y0, fgc, precision=precision), (
            _kept_norm(kept_f, Y1, f, precision)
            * _kept_norm(kept_g, Y2, gc, precision)
            + _kept_norm(kept_g, Y3, g, precision)
            * _kept_norm(kept_f, Y4, fc, precision))
    return sides


def _kept(f: SimpleFunction) -> dict:
    """f's memo, kept on f: center(f) under "centred" and the norms of both;
    new per call for mpf values, whose mean rounds at the working
    precision."""
    memo = {} if "mpf" in f.space.families else kept(f, "_kernel", dict)
    if "centred" not in memo:
        memo["centred"] = center(f)
    return memo


def _kept_norm(memo, Y, f, precision):
    """norm(Y, f) kept in memo by the ids of f (the function or its centred
    one) and of Y, which the entry holds so that no other takes its id."""
    key = id(Y), id(f), precision
    entry = memo.get(key)
    if entry is None or entry[0] is not Y:
        entry = memo[key] = Y, norm(Y, f, precision=precision)
    return entry[1]


def _norm_table(suite, exponents=None, X=None, labels=None) -> dict:
    """{label: (Y0, ..., Y4)} of the forms of suite named in labels, in that
    order (None: all): thm41's Lp form, thm43's X-norm and associate
    forms of X, and none for any other suite."""
    if suite == "thm41":
        return {None: tuple(map(Lp, exponents))}
    if suite != "thm43":
        return {}
    forms = {"norm_form": (X, LINF, X, LINF, X),
             "associate_form": (L1, X, Associate(X), Associate(X), X)}
    return forms if labels is None else {label: forms[label]
                                         for label in labels}


def thm41_sides(f: SimpleFunction, g: SimpleFunction, exponents,
                precision=None):
    return _product_rule(f, g, _norm_table("thm41", exponents),
                         precision)[None]


def thm43_sides(f: SimpleFunction, g: SimpleFunction, X, precision=None,
                labels=None):
    """The forms named in labels, in that order (None: both)."""
    return _product_rule(f, g, _norm_table("thm43", X=X, labels=labels),
                         precision)


# ---------------------------------------------------------------------------
# trial outcomes and reduction

@dataclass
class TrialOutcome:
    gap: object = None
    graze: bool = False
    violation: dict = None
    form_gaps: dict = None          # {label: gap}, in form order
    passed_properties: dict = None  # {property: passed}, rearrange only


def _certified(lhs, rhs, precision) -> bool:
    """The one certification rule: sides in the arithmetic `precision`
    names (None: exact) confirm LHS > RHS when exact ones differ at all,
    binary ones by more than QUAD_CERTIFY_RTOL relative to their scale."""
    if precision is None:
        return rhs - lhs < 0
    with binary_context(precision):
        scale = max(1.0, abs(float(lhs)), abs(float(rhs)))
        return float(rhs - lhs) < -float(QUAD_CERTIFY_RTOL) * scale


def _thm32_forms(cfg, fns, precision, labels):
    return {None: thm32_sides(fns["f"], fns["g"], fns["h"])}


def _lemma31_forms(cfg, fns, precision, labels):
    return {None: lemma31_bound(fns["f"], fns["g"], fns["h"])}


def _product_forms(cfg, fns, precision, labels):
    tables = kept(cfg, "_norm_tables", dict)  # one per labels, kept on cfg
    forms = tables.get(labels) or tables.setdefault(labels, _norm_table(
        cfg.suite, cfg.exponents, cfg.norm, labels))
    return _product_rule(fns["f"], fns["g"], forms, precision)


#: suite -> (forms, certifying precision; None is exact), which is also
#: the suite's default mode.  forms(cfg, functions, precision, labels)
#: returns {label: (lhs, rhs)} for the labels asked for, every form for
#: labels None; a single-form suite has the one label None.  cfg supplies
#: the exponents or the norm.  Forms None: the suite checks properties
#: in exact mode only.
_TRIALS = {
    "thm32": (_thm32_forms, None),
    "lemma31": (_lemma31_forms, None),
    "thm41": (_product_forms, QUAD_PRECISION),
    "thm43": (_product_forms, QUAD_PRECISION),
    "rearrange": (None, None),
}

SUITE_IDS = tuple(_TRIALS)


def _evaluate(cfg, functions, precision, labels=None) -> dict:
    """The forms of cfg.suite named in labels (None: every form) on
    functions in `precision`'s arithmetic; no other form is evaluated."""
    forms, _ = _TRIALS[cfg.suite]
    with binary_context(precision or DOUBLE_PRECISION):
        return forms(cfg, functions, precision, labels)


def _certify(cfg, inst: Instance, label, precision) -> tuple:
    """(`_certified`'s verdict, the recheck block {"mode", "lhs", "rhs"})
    for one form of inst, and only that one, re-evaluated in the
    certifying arithmetic of a run in `precision` (None: exact): exact
    for an exact run, cfg.suite's in `_TRIALS` for a float one."""
    certifying = None if precision is None else _TRIALS[cfg.suite][1]
    lhs, rhs = _evaluate(cfg, inst.to_binary(certifying).functions,
                         certifying, (label,))[label]
    return _certified(lhs, rhs, certifying), {
        "mode": "exact" if certifying is None else f"float{certifying}",
        "lhs": format_scalar(lhs), "rhs": format_scalar(rhs)}


def judge(cfg: TrialConfig, inst: Instance) -> TrialOutcome:
    """Every form of inst, judged in form order in the run's arithmetic,
    to which `Instance.to_binary` converts it first: the gap is the first
    smallest form gap (RHS - LHS, taken in the arithmetic of the sides).
    A negative gap is a violation if `_certify` certifies its form, and a
    graze otherwise; the first certified form is the violation.  The
    rearrange suite, exact only, judges its properties."""
    precision = None if cfg.mode == "exact" else cfg.precision
    work = inst.to_binary(precision)
    if cfg.suite == "rearrange":
        return _run_rearrange_trial(cfg, work)
    out = TrialOutcome(form_gaps={})
    with binary_context(precision or DOUBLE_PRECISION):
        for label, (lhs, rhs) in _evaluate(cfg, work.functions,
                                           precision).items():
            gap = out.form_gaps[label] = rhs - lhs
            if out.gap is None or gap < out.gap:
                out.gap = gap
            if gap < 0:
                certified, recheck = _certify(cfg, inst, label, precision)
                if not certified:
                    out.graze = True
                elif out.violation is None:
                    out.violation = {
                        "form": cfg.suite if label is None
                        else f"{cfg.suite}-{label}",
                        "instance": inst.to_json(),
                        "lhs": format_scalar(lhs),
                        "rhs": format_scalar(rhs),
                        "recheck": recheck,
                    }
    return out


def _run_rearrange_trial(cfg, inst):
    """All rearrangement-machinery properties on one instance; the gap
    reported is the worst inequality margin (Hardy-Littlewood and
    non-expansiveness)."""
    f, g = inst.functions["f"], inst.functions["g"]
    passed = {}

    prof = decreasing_rearrangement(f)
    passed["equimeasurability"] = equimeasurable(f, prof)

    passed["lp_preservation"] = all(
        m_f == m_p for m_f, m_p in (lp_moments(f, p) for p in (1, 2, 3, INF)))

    passed["layer_roundtrip"] = \
        layer_reconstruct(layer_decompose(f)).values == f.values

    # between consecutive levels a < t < b, {f > t} and {-f > t} are the
    # sets at a, so the levels of |f| and 0 decide the identity for all t
    passed["indicator_identity"] = all(
        left == right for left, right in (
            indicator_difference_rearrangement(f, t)
            for t in {abs(v) for v in f.values} | {Fraction(0)}))

    passed["nonexpansiveness"] = all(
        lhs <= rhs for lhs, rhs in
        (nonexpansive_moments(f, g, p) for p in (1, 2, INF)))

    ladder = truncation_ladder(f, 16)
    passed["monotone_ladder"] = all(
        profile_leq(a, b) for a, b in zip(ladder, ladder[1:])
    ) and ladder[-1] == prof

    hl_lhs, hl_rhs = hardy_littlewood_check(f, g)
    sup_g = decreasing_rearrangement(g).sup
    l1_f = dot(map(abs, f.values), f.space.weights)
    passed["hardy_littlewood"] = hl_lhs <= hl_rhs <= sup_g * l1_f

    out = TrialOutcome(gap=hl_rhs - hl_lhs, passed_properties=passed)
    failed = [name for name, ok in passed.items() if not ok]
    if failed:
        out.violation = {
            "form": "rearrange",
            "instance": inst.to_json(),
            "failed_properties": failed,
            "recheck": {"mode": "exact", "failed_properties": list(failed)},
        }
    return out


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
    return sha256(blob.encode()).hexdigest()


def run_suite(cfg: TrialConfig) -> VerificationReport:
    """Run the trials of the configured suite in order and reduce the
    outcomes: the passes of each property an outcome carries, and the
    minimum gap of each labelled form (a single-form suite's one gap,
    labelled None, is min_gap itself)."""
    histogram = {label: 0 for label, _ in _HISTOGRAM_BINS}
    min_gap, argmin_index = None, None
    violations, grazes = [], 0
    prop_passes, form_min = {}, {}

    for i in range(cfg.trials):
        out = judge(cfg, generate_instance(cfg, i))
        histogram[_bin_gap(out)] += 1
        if min_gap is None or out.gap < min_gap:
            min_gap, argmin_index = out.gap, i
        if out.violation is not None:
            violations.append(dict(out.violation, trial_index=i))
        if out.graze:
            grazes += 1
        if out.passed_properties:
            for name, ok in out.passed_properties.items():
                prop_passes[name] = prop_passes.get(name, 0) + ok
        if out.form_gaps:
            for label, gap in out.form_gaps.items():
                if label is not None and (
                        label not in form_min or gap < form_min[label]):
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
        properties=prop_passes or None,
        form_min_gaps=form_min or None,
    )
