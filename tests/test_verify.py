import json
import subprocess
import sys
from fractions import Fraction as F

from conftest import child_env, same_bits
from test_power import BUGS
from oracles import (exact_scalar, former_random_instance,
                     reference_draw_values)

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

from rearrange_lab.cli import run
from rearrange_lab.errors import InputError
from rearrange_lab.norms import (Associate, ConcaveWeight, Generated, L1,
                                 LorentzLambda, Lp, norm_from_json)
from rearrange_lab import verify as verify_mod
from rearrange_lab.rearrange import decreasing_rearrangement
from rearrange_lab.scalars import (INF, QUAD_PRECISION, binary_context,
                                   format_scalar)
from rearrange_lab.search import SearchProblem, search
from rearrange_lab.spaces import (DiscreteSpace, SimpleFunction, equal_space,
                                  integrate)
from rearrange_lab.verify import (QUAD_CERTIFY_RTOL, SUITE_IDS, Instance,
                                  TrialConfig, _certify,
                                  _evaluate, _keyed_rng, _lattice_function,
                                  canonical_hash, canonical_json,
                                  generate_instance, judge, run_suite,
                                  thm32_sides, thm41_sides, thm43_sides,
                                  validate_exponents)

PHI = ConcaveWeight(((0, 0), (F(1, 4), F(1, 2)), (1, 1)))
LORENTZ = norm_from_json(
    {"kind": "lorentz", "phi": [["0", "0"], ["1/4", "1/2"], ["1", "1"]]})
#: the norm of the thm43-lorentz-float benchmark workload
LORENTZ_ASSOCIATE = norm_from_json(
    {"kind": "associate", "base": {"kind": "lorentz", "phi": [
        ["0", "0"], ["1/2", "3/4"], ["1", "1"]]}})


def test_exponent_validation():
    validate_exponents((F(1), INF, F(1), INF, F(1)))
    validate_exponents((F(2), INF, F(2), INF, F(2)))
    validate_exponents((F(1), INF, F(1), F(4), F(4, 3)))
    validate_exponents((F(1), F(2), F(2), F(3), F(3, 2)))
    with pytest.raises(InputError):
        validate_exponents((F(1), F(2), F(2), F(3), F(3)))
    with pytest.raises(InputError):
        validate_exponents((F(1), F(2), F(2)))
    with pytest.raises(InputError):
        validate_exponents((F(1, 2), F(1), F(1), F(1), F(1)))


def test_config_validation():
    with pytest.raises(InputError):
        TrialConfig(suite="thm99")
    with pytest.raises(InputError):
        TrialConfig(suite="thm41", mode="exact",
                    exponents=(F(1), F(2), F(2), F(2), F(2)))
    TrialConfig(suite="thm41", mode="exact")  # default tuple is root-free
    with pytest.raises(InputError):
        TrialConfig(suite="thm43", mode="exact", norm=Lp(2))
    TrialConfig(suite="thm43", mode="exact", norm=L1)
    TrialConfig(suite="thm43", mode="exact", norm=LorentzLambda(PHI))


@pytest.mark.parametrize("field,value", [
    ("precision", "64"), ("precision", None), ("precision", 60.5),
    ("precision", 64.0), ("precision", True), ("atoms", "8"),
    ("atoms", 8.0), ("atoms", True), ("trials", 5.0), ("trials", None),
    ("seed", True), ("seed", 1.0), ("seed", None),
])
def test_config_integers_are_checked_as_ints(field, value):
    """A non-int or bool count, width or seed is an input error naming
    the field: a string or None raised TypeError, 60.5 and 64.0 ran, True
    ran as one atom, and a bool, float or None seed ran and was written
    into the report."""
    config = dict(suite="thm41", mode="float", atoms=6, trials=5)
    config[field] = value
    with pytest.raises(InputError,
                       match=rf"^{field} must be an integer, got "):
        TrialConfig(**config)


@pytest.mark.parametrize("field,value", [
    ("atoms", 3.0), ("atoms", "3"), ("atoms", True), ("iters", "10"),
    ("iters", 10.0), ("restarts", 2.0), ("restarts", True),
    ("threads", None), ("seed", True), ("seed", 1.0), ("seed", None),
])
def test_search_integers_are_checked_as_ints(field, value):
    run = dict(atoms=3, iters=10, restarts=1, threads=1, seed=0)
    run[field] = value
    with pytest.raises(InputError,
                       match=rf"^{field} must be an integer, got "):
        search(SearchProblem(target="thm43-ratio", atoms=run.pop("atoms")),
               **run)


@pytest.mark.parametrize("precision", [0, 24, 52])
def test_precision_below_a_double_is_refused_by_name(precision):
    """A library caller meets the CLI's floor, not a weight-sum error
    that blames the input for the program's own rounding."""
    with pytest.raises(InputError, match=(
            "^precision must be at least 53 "
            rf"\(a double\), got {precision}$")):
        run_suite(TrialConfig(suite="thm41", mode="float",
                              precision=precision, atoms=6, trials=5))
    run_suite(TrialConfig(suite="thm41", mode="float", precision=53,
                          atoms=6, trials=5))


@pytest.mark.parametrize("precision", [53, 64, 113])
def test_precision_at_or_above_a_double_is_kept(precision):
    """The floor refuses nothing from 53 bits up; the report carries the
    width the caller asked for."""
    assert verify_mod.check_precision(precision, "precision") == precision
    report = run_suite(TrialConfig(suite="thm41", mode="float",
                                   precision=precision, atoms=6, trials=5))
    assert report.to_json_dict()["config"]["precision"] == precision


@pytest.mark.parametrize("suite,mode", [
    ("thm32", "exact"), ("lemma31", "exact"), ("thm41", "float"),
    ("thm43", "float"), ("rearrange", "exact"),
])
def test_default_mode_is_the_arithmetic_that_runs(suite, mode):
    """Mode None is the suite's certifying arithmetic, and the report's
    config names the arithmetic its gaps were taken in."""
    assert TrialConfig(suite=suite).mode == mode
    rep = run_suite(TrialConfig(suite=suite, atoms=3, trials=4, seed=1))
    assert rep.config["mode"] == mode
    assert isinstance(rep.min_gap, float) == (mode == "float")


def test_rearrange_suite_refuses_float_mode():
    with pytest.raises(InputError,
                       match="^the rearrange suite runs in exact mode only$"):
        TrialConfig(suite="rearrange", mode="float")


@pytest.mark.parametrize("suite,kept", [
    ("thm32", {}), ("lemma31", {}), ("rearrange", {}),
    ("thm41", {"exponents": ["2", "4", "4", "4", "4"]}),
    ("thm43", {"norm": {"kind": "lp", "p": "3"}}),
])
def test_config_lists_only_the_parameters_the_suite_reads(suite, kept):
    cfg = TrialConfig(suite=suite, mode="float" if kept else None,
                      exponents=(F(2), F(4), F(4), F(4), F(4)), norm=Lp(3))
    assert {k: v for k, v in cfg.canonical_dict().items()
            if k in ("exponents", "norm")} == kept


def test_generator_determinism_and_contracts():
    cfg = TrialConfig(suite="thm32", atoms=5, trials=10, seed=3)
    a = generate_instance(cfg, 500)
    b = generate_instance(cfg, 500)
    assert a.space.weights == b.space.weights
    assert all(a.functions[k].values == b.functions[k].values for k in a.functions)
    assert integrate(a.functions["g"]) == 0  # centered exactly
    c = generate_instance(cfg, 501)
    assert any(a.functions[k].values != c.functions[k].values for k in a.functions)


def test_generator_lemma31_lattices():
    cfg = TrialConfig(suite="lemma31", atoms=6, trials=10, seed=1)
    for idx in range(200, 220):
        inst = generate_instance(cfg, idx)
        assert all(v in (-1, 0, 1) for v in inst.functions["f"].values)
        assert all(abs(v) <= 1 for v in inst.functions["h"].values)
        assert integrate(inst.functions["g"]) == 0


def test_generator_two_level_fixtures():
    cfg = TrialConfig(suite="thm32", atoms=4, trials=200, seed=0)
    seen_patterns = set()
    for idx in range(128):
        inst = generate_instance(cfg, idx)
        g = inst.functions["g"]
        assert g.values == (1, 1, -1, -1, 0, 0)
        f = inst.functions["f"]
        pattern = tuple(bool(f.values[i]) for i in (0, 2, 4))
        seen_patterns.add(pattern)
        assert integrate(g) == 0
    assert len(seen_patterns) == 8


def test_generator_weight_schemes():
    cfg = TrialConfig(suite="rearrange", atoms=4, weight_scheme="random-rational",
                      trials=10, seed=5)
    inst = generate_instance(cfg, 3)
    assert sum(inst.space.weights) == 1
    assert all(w > 0 for w in inst.space.weights)
    eq = generate_instance(TrialConfig(suite="rearrange", atoms=4, trials=10), 3)
    assert eq.space is equal_space(4)


def test_thm32_sides_fixtures():
    sp = equal_space(2)
    f, g = SimpleFunction((1, 1), sp), SimpleFunction((1, -1), sp)
    assert thm32_sides(f, g, SimpleFunction((-1, 1), sp)) == (2, 2)
    lhs, rhs = thm32_sides(f, g, SimpleFunction((1, -1), sp))
    assert rhs - lhs == 4
    zero = SimpleFunction((0, 0), sp)
    assert thm32_sides(f, zero, SimpleFunction((1, -1), sp)) == (0, 0)


def test_suites_run_clean_smoke():
    for suite, kwargs in (
        ("thm32", {}),
        ("lemma31", {}),
        ("thm41", {"mode": "float",
                   "exponents": (F(1), INF, F(1), F(4), F(4, 3))}),
        ("thm43", {"mode": "float", "norm": LorentzLambda(PHI)}),
        ("rearrange", {}),
    ):
        cfg = TrialConfig(suite=suite, atoms=3, trials=150, seed=2, **kwargs)
        rep = run_suite(cfg)
        assert rep.trials == 150
        assert not rep.violations
        assert rep.min_gap >= (0 if cfg.mode == "exact" else -1e-9)


def test_report_reproducible_and_canonical():
    cfg = TrialConfig(suite="thm32", atoms=3, trials=120, seed=9)
    doc1 = run_suite(cfg).to_json_dict()
    doc2 = run_suite(cfg).to_json_dict()
    assert canonical_json(doc1) == canonical_json(doc2)
    assert canonical_hash(doc1) == canonical_hash(doc2)
    # a timestamp does not change the canonical hash
    stamped = dict(doc1, timestamp="2026-08-10T00:00:00")
    assert canonical_hash(stamped) == canonical_hash(doc1)
    assert json.loads(canonical_json(doc1)) == doc1


@pytest.mark.parametrize("key", ["", "0:6", "search:0:3", "thm43:7:150",
                                 "\u00e9 non-ascii"])
def test_built_in_sha256_is_hashlibs(key):
    """The built-in SHA-256 behind `_keyed_rng` and `canonical_hash` gives
    hashlib's digest, so a Python that renames the built-in module fails
    here and not only in the golden hashes."""
    import hashlib
    import random

    reference = hashlib.sha256(key.encode()).digest()
    assert verify_mod.sha256(key.encode()).digest() == reference
    seed = int.from_bytes(reference[:8], "big")
    assert _keyed_rng(key).getstate() == random.Random(seed).getstate()
    doc = {"key": key, "timestamp": "ignored"}
    assert canonical_hash(doc) == hashlib.sha256(
        json.dumps({"key": key}, sort_keys=True,
                   separators=(",", ":")).encode()).hexdigest()


def test_sha256_falls_back_to_hashlib_without_a_built_in_module():
    """On a CPython built without `_sha256` and `_sha2`, verify takes
    hashlib's sha256, and the golden key streams stay as they are."""
    script = (
        "import hashlib, sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "from rearrange_lab import verify\n"
        "assert verify.sha256 is hashlib.sha256\n"
        "print(verify._keyed_rng('thm43:7:150').getrandbits(64))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env=child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{_keyed_rng('thm43:7:150').getrandbits(64)}\n"


def test_histogram_counts_sum_to_trials():
    cfg = TrialConfig(suite="thm32", atoms=4, trials=300, seed=1)
    rep = run_suite(cfg)
    assert sum(rep.histogram.values()) == 300
    assert rep.histogram["violation"] == 0


def test_report_argmin_is_regenerable():
    cfg = TrialConfig(suite="thm32", atoms=3, trials=200, seed=12)
    rep = run_suite(cfg)
    inst = generate_instance(cfg, rep.argmin_index)
    assert rep.argmin_instance == inst.to_json()


def test_thm43_lp2_matches_thm41_tuple_on_shared_instances():
    exps = (F(2), INF, F(2), INF, F(2))
    cfg = TrialConfig(suite="thm43", atoms=4, trials=300, seed=21,
                      mode="float", norm=Lp(2))
    cfg41 = TrialConfig(suite="thm41", atoms=4, trials=300, seed=21,
                        mode="float", exponents=exps)
    for idx in range(300):
        inst43 = generate_instance(cfg, idx)
        inst41 = generate_instance(cfg41, idx)
        assert inst43.to_json() == inst41.to_json()  # shared instances
        f, g = inst43.functions["f"], inst43.functions["g"]
        lhs43, rhs43 = thm43_sides(f, g, Lp(2), precision=53)["norm_form"]
        lhs41, rhs41 = thm41_sides(f, g, exps, precision=53)
        scale = max(1.0, abs(float(rhs41)))
        assert abs(float(lhs43) - float(lhs41)) <= 1e-12 * scale
        assert abs(float(rhs43) - float(rhs41)) <= 1e-12 * scale


def _force_sides(monkeypatch, suite, sides, recheck_sides=None):
    """Make suite's forms give `sides` in the trial's arithmetic and
    `recheck_sides` (None: the real forms) in the 113-bit recheck."""
    real, certifying = verify_mod._TRIALS[suite]

    def forms(cfg, fns, precision, labels):
        if precision != QUAD_PRECISION:
            return sides
        if recheck_sides is None:
            return real(cfg, fns, precision, labels)
        return {label: recheck_sides[label] for label in labels}

    monkeypatch.setitem(verify_mod._TRIALS, suite, (forms, certifying))


def test_judges_certify_real_violations(monkeypatch):
    """Feed the trial impossible pairs of sides to confirm the
    certificate machinery emits (and that grazes stay uncertified)."""
    cfg = TrialConfig(suite="thm32", atoms=2, trials=1, seed=0)
    _force_sides(monkeypatch, "thm32", {None: (F(3), F(1))})
    out = judge(cfg, generate_instance(cfg, 0))
    assert out.violation is not None
    assert out.violation["form"] == "thm32"
    assert out.violation["recheck"]["mode"] == "exact"
    _force_sides(monkeypatch, "thm32", {None: (F(1), F(3))})
    out = judge(cfg, generate_instance(cfg, 0))
    assert out.violation is None and not out.graze

    fcfg = TrialConfig(suite="thm41", atoms=2, trials=1, seed=0, mode="float")
    _force_sides(monkeypatch, "thm41", {None: (1.0 + 1e-13, 1.0)},
                 {None: (F(1), F(1))})
    graze = judge(fcfg, generate_instance(fcfg, 0))
    assert graze.graze and graze.violation is None
    _force_sides(monkeypatch, "thm41", {None: (2.0, 1.0)},
                 {None: (F(2), F(1))})
    real = judge(fcfg, generate_instance(fcfg, 0))
    assert real.violation is not None
    assert "float113" in real.violation["recheck"]["mode"]


def test_trial_takes_first_minimum_any_graze_and_first_violation(monkeypatch):
    """The trial's gap is the smallest form gap, it grazes if any form
    does, and its violation is the first certified form's."""
    cfg = TrialConfig(suite="thm43", atoms=2, trials=1, seed=0, mode="float")
    _force_sides(
        monkeypatch, "thm43",
        {"norm_form": (2.0, 1.0), "associate_form": (3.0, 1.0)},
        {"norm_form": (F(1), F(1)), "associate_form": (F(3), F(1))})
    out = judge(cfg, generate_instance(cfg, 0))
    assert out.gap == -2.0
    assert out.form_gaps == {"norm_form": -1.0, "associate_form": -2.0}
    assert out.graze
    assert out.violation["form"] == "thm43-associate_form"

    _force_sides(
        monkeypatch, "thm43",
        {"norm_form": (2.0, 1.0), "associate_form": (1.0, 0.0)},
        {"norm_form": (F(2), F(1)), "associate_form": (F(3), F(1))})
    out = judge(cfg, generate_instance(cfg, 0))
    assert out.gap == -1.0 and not out.graze
    assert out.violation["form"] == "thm43-norm_form"


#: thm32 equality witnesses: (space, f, g, h, LHS = RHS)
_THM32_WITNESSES = {
    "equal-atoms": (equal_space(2), (1, 1), (1, -1), (-1, 1), F(2)),
    "weights-1/3-2/3": (DiscreteSpace((F(1, 3), F(2, 3))), (1, 1),
                        (F(2, 3), F(-1, 3)), (-1, 1), F(8, 9)),
}


@pytest.mark.parametrize("name", sorted(_THM32_WITNESSES))
def test_judge_takes_an_instance_it_did_not_draw(name, monkeypatch):
    """thm32's equality witnesses, judged as given: gap 0 and no
    violation.  With the RHS planted at 3/4 (test_power's bug), each is
    a violation that the exact recheck certifies."""
    space, *values, sides = _THM32_WITNESSES[name]
    inst = Instance(space, {n: SimpleFunction(tuple(map(F, v)), space)
                            for n, v in zip("fgh", values)}, None)
    assert thm32_sides(*inst.functions.values()) == (sides, sides)
    cfg = TrialConfig(suite="thm32", atoms=space.n, trials=1)
    out = judge(cfg, inst)
    assert out.gap == 0 and out.form_gaps == {None: 0}
    assert out.violation is None and not out.graze

    bug, plant = BUGS["thm32-rhs-3/4"][:2]
    monkeypatch.setattr(verify_mod, bug, plant(getattr(verify_mod, bug)))
    out = judge(cfg, inst)
    assert out.gap == -sides / 4
    assert out.violation == {
        "form": "thm32", "instance": inst.to_json(),
        "lhs": format_scalar(sides), "rhs": format_scalar(sides * 3 / 4),
        "recheck": {"mode": "exact", "lhs": format_scalar(sides),
                    "rhs": format_scalar(sides * 3 / 4)}}


def test_judge_converts_a_double_instance_to_the_exact_run(monkeypatch):
    """An exact run judges a double instance in exact rationals: the gap
    of the equal-atom thm32 witness is the Fraction 0, and under the
    planted RHS of 3/4 it is a violation that the exact recheck
    certifies.  A drawn exact instance is converted to itself."""
    space = DiscreteSpace((0.5, 0.5))
    inst = Instance(space, {n: SimpleFunction(v, space) for n, v in zip(
        "fgh", ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)))})
    cfg = TrialConfig(suite="thm32", mode="exact", atoms=2, trials=1)
    out = judge(cfg, inst)
    assert type(out.gap) is F and out.gap == 0
    assert out.violation is None and not out.graze
    drawn = generate_instance(cfg, 200)
    assert drawn.to_binary(None) is drawn

    bug, plant = BUGS["thm32-rhs-3/4"][:2]
    monkeypatch.setattr(verify_mod, bug, plant(getattr(verify_mod, bug)))
    out = judge(cfg, inst)
    assert type(out.gap) is F and out.gap == F(-1, 2)
    assert out.violation["recheck"] == {"mode": "exact", "lhs": "2",
                                        "rhs": "1.5"}


def test_hardy_littlewood_upper_bound_catches_a_doubled_rhs(monkeypatch):
    """f = g = (1/4, 0) on two equal atoms: the integrals of |fg| and
    f*g* are both 1/32, which is also sup g* times |f|_1.  So the planted
    RHS of 1/16 passes the lower bound and fails only the upper one; a
    sum sup g* + |f|_1 = 3/8 in its place would let it pass."""
    space = equal_space(2)
    f = SimpleFunction((F(1, 4), F(0)), space)
    inst = Instance(space, {"f": f, "g": f})
    cfg = TrialConfig(suite="rearrange", atoms=2, trials=1)
    assert judge(cfg, inst).violation is None

    bug, plant = BUGS["rearrange-hardy-littlewood-rhs-x2"][:2]
    monkeypatch.setattr(verify_mod, bug, plant(getattr(verify_mod, bug)))
    out = judge(cfg, inst)
    assert out.violation["failed_properties"] == ["hardy_littlewood"]


def test_float_gaps_are_taken_at_the_working_precision():
    """At 80 bits a form's gap RHS - LHS is rounded to 80 bits, not to
    the 53 bits of mpmath's default context."""
    cfg = TrialConfig(suite="thm41", mode="float", atoms=6, trials=400,
                      seed=3, precision=80)
    rep = run_suite(cfg)
    assert rep.argmin_index == 183
    assert format_scalar(rep.min_gap) == \
        "0.4756944444444444444444446282623583451173"


# canonical report hashes; a change to any of them changes a report
GOLDEN_HASHES = [
    (dict(suite="thm32", atoms=8, trials=160, seed=1),
     "dcd34d26be882723ead3f9367c5ff9520aa6aea13b8d6835c34c0794c6a8c365"),
    (dict(suite="thm32", mode="float", atoms=8, trials=160, seed=2),
     "60c1bc3d123415e7cfcd1b6edcb503f9247e7f0c8852c14c53ed8aafe41ed8b4"),
    (dict(suite="lemma31", atoms=6, trials=60, seed=3),
     "db958cf93436d9d5fe03fdef0e6416ebda64fb58913135e5b2e87d1416c7ac32"),
    (dict(suite="thm41", mode="float", atoms=6, trials=60, seed=4,
          exponents=(F(2), F(4), F(4), F(4), F(4))),
     "33df6d1d3c9ce5e1bf21bd91c633aafb3905a4b81c2bf84be89ac98f673f5e76"),
    (dict(suite="thm43", mode="exact", norm=LORENTZ, atoms=6, trials=40,
          seed=5),
     "f2616b6da3e1dd49b8e8f6282389dd3cef11e1f53d86a5cbc9524dfee5132726"),
    (dict(suite="thm43", mode="float", norm=LORENTZ_ASSOCIATE, atoms=6,
          trials=20, seed=6),
     "cbe9feca04c8135c7d1a6f3ef4f365ceef47ec4fa57f36f25af4b7fcac3d90b1"),
    (dict(suite="rearrange", weight_scheme="random-rational", atoms=6,
          trials=20, seed=7),
     "97afadb1053c963497ba0ada3311db2a6224786cac950cb7f023402683866182"),
    (None,
     "7eb82abcb89866a5700d20dd8ba44f79724fb054da8a436faf34f5ea9e76dcb7"),
    (dict(suite="thm32", mode="exact", weight_scheme="random-rational",
          atoms=8, trials=160, seed=8),
     "386f2d6ad31c0d09592549e9f8376c4bc0b6a50bd9c0e61c5b362b3a2ec33b9a"),
    (dict(suite="lemma31", weight_scheme="random-rational", atoms=6,
          trials=60, seed=9),
     "f4243ab7e9e447119b779a6c99de498da8677ac794c56de21b1b2080d9a15265"),
    # 32 random 64-atom trials past the 128 fixture trials
    (dict(suite="thm32", mode="exact", atoms=64, trials=160, seed=10),
     "fa10657d222c776ddd49ebecb4f68877165dfc35169915576a1f765eb5d779cb"),
    (dict(suite="rearrange", atoms=8, trials=40, seed=11),
     "9df350cce6ce212fa49fd2c6792778b8ce11c22966af20fcfa02a2d534435605"),
    # Lorentz kinds on weighted spaces: no violation, graze or negative gap
    (dict(suite="thm43", mode="exact", norm=LORENTZ,
          weight_scheme="random-rational", atoms=6, trials=40, seed=12),
     "41754f1e855d2dac0f752432bd5e476f18c89830ac3dc5e6a17d8410fc06f29f"),
    (dict(suite="thm43", mode="float", norm=LORENTZ_ASSOCIATE,
          weight_scheme="random-rational", atoms=6, trials=40, seed=13),
     "7f8ef95dc18f63e39382c928748df3e4a67590bc76cd3ac5b55a265072684344"),
]


GOLDEN_IDS = [k["suite"] + "-" + str(k["seed"]) if k else "search"
              for k, _ in GOLDEN_HASHES]

#: the goldens the compensated-`sum` guard reruns: the float thm41 and
#: thm43 reports and the search
FLOAT_GOLDEN_IDS = ["thm41-4", "thm43-6", "thm43-13", "search"]


def _golden_hash(kwargs):
    if kwargs is None:
        doc = search(SearchProblem("thm32-ratio", atoms=3), 60, 2,
                     seed=1).to_json_dict()
    else:
        doc = run_suite(TrialConfig(**kwargs)).to_json_dict()
    return canonical_hash(doc)


@pytest.mark.parametrize("kwargs,expected", GOLDEN_HASHES, ids=GOLDEN_IDS)
def test_report_hashes_are_stable(kwargs, expected):
    assert _golden_hash(kwargs) == expected


@pytest.mark.parametrize(
    "kwargs,expected",
    [golden for golden, name in zip(GOLDEN_HASHES, GOLDEN_IDS)
     if name in FLOAT_GOLDEN_IDS],
    ids=FLOAT_GOLDEN_IDS,
)
def test_float_goldens_do_not_depend_on_the_builtin_sum(kwargs, expected,
                                                        compensated_sum):
    """Every float sum goes through `dot`, so a compensated built-in `sum`
    (Python 3.12 and later) leaves the reports as they are."""
    assert _golden_hash(kwargs) == expected


@pytest.mark.parametrize("n", [1, 6, 64])
def test_draw_values_is_the_randint_stream(n):
    """Lattice values drawn through getrandbits are those randint drew, and
    the generator ends in the same state."""
    for seed in range(200):
        rng, reference = _keyed_rng(f"{seed}:{n}"), _keyed_rng(f"{seed}:{n}")
        f = _lattice_function(rng, equal_space(n))
        assert f.values == reference_draw_values(reference, n)
        assert rng.getstate() == reference.getstate()


@given(st.sampled_from(SUITE_IDS),
       st.sampled_from(["equal", "random-rational"]),
       st.integers(1, 12), st.integers(0, 2**32), st.integers(128, 10**6))
@settings(max_examples=150)
def test_random_instances_are_the_former_fraction_draws(suite, weights, atoms,
                                                        seed, index):
    """Instances drawn as int lattice numerators equal those the former
    generator drew as Fractions: values of the same types, and the
    numerator pair it would have kept."""
    cfg = TrialConfig(suite=suite, weight_scheme=weights, atoms=atoms,
                      seed=seed, trials=1)
    inst = generate_instance(cfg, index)
    space, functions = former_random_instance(cfg, index)
    assert inst.space == space and list(inst.functions) == list(functions)
    for name, f in inst.functions.items():
        former = functions[name]
        assert f == former
        assert [type(v) for v in f.values] == [type(v) for v in former.values]
        assert (f.numerators, f.unit) == (former.numerators, former.unit)
        assert type(f.unit) is type(former.unit)


def test_thm32_trial_builds_no_scalars_it_does_not_read(monkeypatch):
    """The exact thm32 sides of a generated 64-atom instance read only
    numerators: no profile scales its segments back, and neither the
    centred g nor the drawn f and h their values."""
    profiles = []

    def recorded(f):
        profiles.append(decreasing_rearrangement(f))
        return profiles[-1]

    cfg = TrialConfig(suite="thm32", atoms=64, seed=5, trials=200)
    monkeypatch.setattr(verify_mod, "decreasing_rearrangement", recorded)
    for index in (128, 199):
        inst = generate_instance(cfg, index)
        assert inst.space.n == 64
        thm32_sides(*(inst.functions[name] for name in "fgh"))
        for name in "fgh":
            assert "values" not in inst.functions[name].__dict__
    assert len(profiles) == 6
    assert all("segments" not in p.__dict__ for p in profiles)


@pytest.mark.parametrize("X", [LORENTZ, LORENTZ_ASSOCIATE],
                         ids=["lorentz", "lorentz-associate"])
@pytest.mark.parametrize("atoms", [5, 8])
def test_thm43_sides_at_113_bits_match_double(X, atoms):
    cfg = TrialConfig(suite="thm43", mode="float", atoms=atoms, norm=X,
                      trials=1)
    inst = generate_instance(cfg, 0)
    quad = inst.to_binary(QUAD_PRECISION)
    with binary_context(QUAD_PRECISION):
        high = thm43_sides(quad.functions["f"], quad.functions["g"], X,
                           precision=QUAD_PRECISION)
    double = inst.to_binary(53)
    low = thm43_sides(double.functions["f"], double.functions["g"], X,
                      precision=53)
    for label, sides in high.items():
        for hi, lo in zip(sides, low[label]):
            assert abs(float(hi) - float(lo)) <= 1e-9 * max(1.0, abs(lo))


@pytest.mark.parametrize("atoms", [5, 8])
def test_thm43_associate_form_is_certified_at_113_bits(atoms):
    """With X = Associate(Lorentz), the associate form needs X'' = Lorentz;
    its 113-bit sides are mpfs within 2^-100 relative of the exact sides."""
    cfg = TrialConfig(suite="thm43", mode="float", atoms=atoms,
                      norm=LORENTZ_ASSOCIATE, trials=1, seed=11)
    for index in range(40):
        inst = generate_instance(cfg, index)
        exact = _evaluate(cfg, inst.functions, None)["associate_form"]
        quad = _evaluate(cfg, inst.to_binary(QUAD_PRECISION).functions,
                         QUAD_PRECISION)["associate_form"]
        for q, e in zip(quad, exact):
            assert isinstance(q, mpmath.mpf)
            assert abs(exact_scalar(q) - e) <= F(1, 2**100) * abs(e)


@pytest.mark.parametrize("atoms", [5, 8])
def test_forced_float_graze_is_rechecked_at_113_bits(atoms, monkeypatch):
    """A negative float gap on a true instance goes through the real
    113-bit recheck and comes out a graze."""
    cfg = TrialConfig(suite="thm43", mode="float", atoms=atoms,
                      norm=LORENTZ_ASSOCIATE, trials=1)
    work = generate_instance(cfg, 0).to_binary(53)
    _, rhs = thm43_sides(work.functions["f"], work.functions["g"], cfg.norm,
                         precision=53)["norm_form"]
    _force_sides(monkeypatch, "thm43", {"norm_form": (rhs + 1.0, rhs)})
    out = judge(cfg, generate_instance(cfg, 0))
    assert out.gap < 0
    assert out.graze and out.violation is None


@pytest.mark.parametrize("suite,atoms", [("thm32", 5), ("lemma31", 4)])
def test_root_free_suites_run_at_200_bits(suite, atoms):
    cfg = TrialConfig(suite=suite, mode="float", precision=200, atoms=atoms,
                      trials=130, seed=3)
    rep = run_suite(cfg)
    assert not rep.violations and rep.grazes == 0
    assert rep.min_gap >= 0


def test_trials_must_be_positive():
    with pytest.raises(InputError):
        TrialConfig(suite="thm32", trials=0)


def _sign(x):
    return (x > 0) - (x < 0)


@pytest.mark.parametrize("suite,kwargs", [
    ("thm32", {}), ("lemma31", {}), ("thm41", {}), ("thm43", {"norm": LORENTZ}),
    ("thm43", {"norm": LORENTZ_ASSOCIATE}),
], ids=["thm32", "lemma31", "thm41", "thm43-lorentz", "thm43-lorentz-associate"])
@pytest.mark.parametrize("atoms", [5, 8])
def test_exact_double_and_quad_gaps_agree(suite, kwargs, atoms):
    """Differential check on 40 seeded instances: the exact, 53-bit and
    113-bit gaps of every form agree in sign wherever the 53-bit gap is
    beyond the certification margin, and the binary gaps agree closely."""
    cfg = TrialConfig(suite=suite, atoms=atoms, trials=1, seed=11, **kwargs)
    for index in range(200, 240):  # past the thm32 fixtures
        inst = generate_instance(cfg, index)
        sides = {precision: _evaluate(
            cfg, inst.to_binary(precision).functions, precision)
            for precision in (None, 53, QUAD_PRECISION)}
        for label, (e_lhs, e_rhs) in sides[None].items():
            lhs, rhs = sides[53][label]
            q_lhs, q_rhs = sides[QUAD_PRECISION][label]
            with binary_context(QUAD_PRECISION):
                quad_gap = q_rhs - q_lhs
            gap, scale = rhs - lhs, max(1.0, abs(lhs), abs(rhs))
            assert abs(gap - float(quad_gap)) <= 1e-12 * scale
            if abs(gap) > float(QUAD_CERTIFY_RTOL) * scale:
                assert _sign(e_rhs - e_lhs) == _sign(gap) == _sign(quad_gap)


@pytest.mark.parametrize("suite,kwargs,labels", [
    ("thm43", {"norm": LORENTZ_ASSOCIATE}, ("norm_form", "associate_form")),
    ("thm43", {"norm": Lp(3)}, ("norm_form", "associate_form")),
    ("thm41", {}, (None,)),
], ids=["thm43-lorentz-associate", "thm43-L3", "thm41"])
def test_recheck_of_one_form_is_that_form_of_all(suite, kwargs, labels,
                                                 monkeypatch):
    """_certify evaluates only the label it certifies, with the bits of
    that label in the evaluation of every form: the sides it hands to
    `_certified` and the ones its recheck block reports."""
    cfg = TrialConfig(suite=suite, mode="float", atoms=5, trials=1, seed=4,
                      **kwargs)
    certified = []
    real = verify_mod._certified

    def spy(lhs, rhs, precision):
        certified.append((lhs, rhs))
        return real(lhs, rhs, precision)

    monkeypatch.setattr(verify_mod, "_certified", spy)
    for index in range(12):
        inst = generate_instance(cfg, index)
        every = _evaluate(cfg, inst.to_binary(QUAD_PRECISION).functions,
                          QUAD_PRECISION)
        assert tuple(every) == labels
        for label in labels:
            _, recheck = _certify(cfg, inst, label, cfg.precision)
            got = certified.pop()
            assert all(same_bits(a, b) for a, b in zip(got, every[label]))
            assert recheck == {"mode": f"float{QUAD_PRECISION}",
                               "lhs": format_scalar(every[label][0]),
                               "rhs": format_scalar(every[label][1])}


def test_thm43_sides_evaluates_only_the_requested_forms():
    """A norm without an associate evaluation has a norm form, and only
    asking for its associate form fails; an unknown form is refused.  A
    search problem carries such a norm, which no TrialConfig accepts."""
    cfg = TrialConfig(suite="thm43", mode="float", atoms=4, trials=1)
    problem = SearchProblem("thm43-ratio", norm=Generated(L1, 2))
    fns = generate_instance(cfg, 3).to_binary(53).functions
    only = thm43_sides(fns["f"], fns["g"], problem.norm, precision=53,
                       labels=("norm_form",))
    assert tuple(only) == ("norm_form",)
    assert _evaluate(problem, fns, 53, ("norm_form",)) == only
    with pytest.raises(InputError):
        thm43_sides(fns["f"], fns["g"], problem.norm, precision=53)
    with pytest.raises(KeyError):
        thm43_sides(fns["f"], fns["g"], problem.norm, precision=53,
                    labels=("norm",))


_UNEVALUABLE_EXACTLY = "^exact mode for {} needs every norm of its forms " \
    "exactly evaluable$"
_NO_GENERATED_ASSOCIATE = \
    "^no associate evaluation for base kind Generated$"


@pytest.mark.parametrize("config,refusal", [
    (dict(suite="thm41", mode="exact",
          exponents=(F(2), F(4), F(4), F(4), F(4))),
     _UNEVALUABLE_EXACTLY.format("thm41")),
    (dict(suite="thm43", mode="exact", norm=Lp(2)),
     _UNEVALUABLE_EXACTLY.format("thm43")),
    (dict(suite="thm43", mode="float", norm=Generated(L1, 2)),
     _NO_GENERATED_ASSOCIATE),
    (dict(suite="thm43", mode="float", norm=Generated(LORENTZ, 2)),
     _NO_GENERATED_ASSOCIATE),
    (dict(suite="thm43", mode="exact", norm=LORENTZ), None),
    (dict(suite="thm43", mode="exact",
          norm=Associate(Associate(LORENTZ))), None),
], ids=["exact-thm41-L4", "exact-thm43-L2", "float-thm43-generated-L1",
        "float-thm43-generated-lorentz", "exact-thm43-lorentz",
        "exact-thm43-second-associate"])
def test_config_refuses_an_unevaluable_norm_before_any_trial(
        config, refusal, monkeypatch):
    """The config judges one instance, trial 0's, in its own arithmetic,
    and refuses a norm that cannot be evaluated there before any other
    trial runs, in exact and float mode alike."""
    judged = []
    real = verify_mod.judge

    def judge_spy(cfg, inst):
        judged.append(inst.trial_index)
        return real(cfg, inst)

    monkeypatch.setattr(verify_mod, "judge", judge_spy)
    if refusal is None:
        TrialConfig(atoms=5, trials=3, **config)
    else:
        with pytest.raises(InputError, match=refusal):
            TrialConfig(atoms=5, trials=3, **config)
    assert judged == [0]


def test_rearrange_violation_names_its_failed_properties(monkeypatch, capsys):
    """A property that fails on every instance is a violation of each
    trial, named in the report, counted nowhere among the passes, and
    makes the CLI exit 1 with the report still written."""
    monkeypatch.setattr(verify_mod, "equimeasurable", lambda f, p: False)
    trials = 4
    report = run_suite(TrialConfig(suite="rearrange", atoms=3,
                                   trials=trials, seed=2))
    first = report.violations[0]
    assert first["form"] == "rearrange"
    assert first["failed_properties"] == ["equimeasurability"]
    assert first["recheck"]["mode"] == "exact"
    assert report.properties["equimeasurability"] == 0
    assert len(report.properties) == 7
    assert all(passes == trials for name, passes in report.properties.items()
               if name != "equimeasurability")
    assert report.histogram["violation"] == trials

    assert run(["verify", "--suite", "rearrange", "--atoms", "3",
                "--trials", str(trials), "--seed", "2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == json.loads(canonical_json(report.to_json_dict()))
