import importlib
import random
import sys
from fractions import Fraction

import pytest

from rearrange_lab.errors import InfeasibleProblem, InputError
from conftest import same_bits
from rearrange_lab.norms import (L1, Associate, ConcaveWeight, LorentzLambda,
                                 Lp)
from rearrange_lab.scalars import INF
from rearrange_lab.search import (TARGETS, SearchProblem, _excess_certificate,
                                  _initial_state, _ratio, _sides,
                                  _state_functions, search)
from rearrange_lab.spaces import instance_from_json, integrate
from rearrange_lab.verify import thm43_sides

# the module, which the package's `search` function shadows as an attribute
search_mod = importlib.import_module("rearrange_lab.search")


def test_problem_validation():
    with pytest.raises(InfeasibleProblem):
        SearchProblem(target="thm32-ratio", atoms=1)
    with pytest.raises(InputError):
        SearchProblem(target="thm99-ratio")
    with pytest.raises(InputError):
        search(SearchProblem(target="thm32-ratio"), iters=0, restarts=1)
    with pytest.raises(InputError):
        search(SearchProblem(target="thm32-ratio"), 10, 1, threads=0)


def test_thm41_canonical_dict_exponents_are_rational_literals():
    exps = (Fraction(1), Fraction(3, 2), Fraction(3), INF, Fraction(1))
    problem = SearchProblem(target="thm41-ratio", atoms=2, exponents=exps)
    assert problem.canonical_dict()["exponents"] == ["1", "3/2", "3", "inf", "1"]


@pytest.mark.parametrize("target,kept", [
    ("thm32-ratio", {}),
    ("thm41-ratio", {"exponents": ["2", "4", "4", "4", "4"]}),
    ("thm43-ratio", {"norm": {"kind": "lp", "p": "3"}}),
])
def test_config_lists_only_the_parameters_the_target_reads(target, kept):
    exps = (Fraction(2), Fraction(4), Fraction(4), Fraction(4), Fraction(4))
    problem = SearchProblem(target, atoms=3, exponents=exps, norm=Lp(3))
    assert problem.canonical_dict() == {"target": target, "atoms": 3, **kept}
    config = search(problem, 2, 1).config
    assert {k: v for k, v in config.items()
            if k in ("exponents", "norm")} == kept


def test_unread_exponents_are_still_validated():
    with pytest.raises(InputError, match="1/r"):
        SearchProblem("thm32-ratio", exponents=tuple(
            Fraction(p) for p in (1, 2, 2, 3, 3)))


def test_thm32_search_finds_equality():
    res = search(SearchProblem(target="thm32-ratio", atoms=2),
                 iters=1000, restarts=8, seed=0)
    assert 1 - 1e-6 <= res.best_ratio <= 1 + 1e-9
    assert res.violation is None


def test_trace_is_monotone_and_capped():
    res = search(SearchProblem(target="thm41-ratio", atoms=3),
                 iters=400, restarts=4, seed=7)
    ratios = [r for _, r in res.trace]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
    iterations = [i for i, _ in res.trace]
    assert all(b >= a for a, b in zip(iterations, iterations[1:]))
    assert res.best_ratio <= 1 + 1e-9
    assert res.best_ratio == ratios[-1]


def test_visited_instances_keep_zero_mean_constraint():
    res = search(SearchProblem(target="thm32-ratio", atoms=3),
                 iters=300, restarts=3, seed=4)
    space, funcs = instance_from_json(res.best_instance)
    mean = integrate(funcs["g"])
    assert abs(float(mean)) < 1e-12


def test_thm43_search_approaches_one():
    res = search(SearchProblem(target="thm43-ratio", atoms=4, norm=L1),
                 iters=1000, restarts=8, seed=2)
    assert 0.99 <= res.best_ratio <= 1 + 1e-9


def test_thm41_constant_factor_reaches_one():
    # at a constant f the two sides coincide, so the climb should get there
    res = search(SearchProblem(target="thm41-ratio", atoms=2),
                 iters=800, restarts=8, seed=3)
    assert res.best_ratio >= 1 - 1e-4
    assert res.best_ratio <= 1 + 1e-9


def test_search_determinism():
    prob = SearchProblem(target="thm32-ratio", atoms=3)
    a = search(prob, 200, 4, seed=11).to_json_dict()
    b = search(prob, 200, 4, seed=11).to_json_dict()
    c = search(prob, 200, 4, seed=11, threads=8).to_json_dict()
    assert a == b == c
    d = search(prob, 200, 4, seed=12).to_json_dict()
    assert d != a


@pytest.mark.parametrize("target", ["thm41-ratio", "thm43-ratio"])
def test_excess_recheck_runs_at_113_bits_on_five_atoms(target):
    """A forced excess on a true five-atom instance goes through the
    113-bit recheck (whose weights do not sum to exactly 1) and is not
    confirmed."""
    problem = SearchProblem(target, atoms=5)
    state = {name: [0.5, -1.0, 0.25, 1.0, -0.75]
             for name in problem.free_functions}
    assert _excess_certificate(problem, state, problem.space(), 2.0) is None


_LORENTZ = LorentzLambda(ConcaveWeight(((0, 0), (Fraction(1, 2), Fraction(3, 4)),
                                        (1, 1))))


@pytest.mark.parametrize("norm", [Lp(2), Lp(3), Associate(_LORENTZ)],
                         ids=["L2", "L3", "lorentz-associate"])
def test_objective_is_the_norm_form_bit_for_bit(norm):
    """The objective, which evaluates the norm form alone, gives the
    norm form of thm43_sides with both forms, on seeded states."""
    problem = SearchProblem("thm43-ratio", atoms=6, norm=norm)
    space = problem.space()
    rng = random.Random("objective:7")
    for _ in range(40):
        state = {name: [rng.uniform(-1.0, 1.0) for _ in range(problem.atoms)]
                 for name in problem.free_functions}
        funcs = _state_functions(problem, state, space)
        got = _sides(problem, funcs)
        expected = thm43_sides(funcs["f"], funcs["g"], norm,
                               precision=53)["norm_form"]
        assert all(same_bits(a, b) for a, b in zip(got, expected))


class _ZeroUniform:
    """An rng whose every uniform draw is 0.0: each random start has
    RHS = 0 and lies outside the search domain."""

    def uniform(self, low, high):
        return 0.0


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_initial_state_falls_back_to_alternating_signs(target):
    problem = SearchProblem(target, atoms=4)
    space = problem.space()
    state = _initial_state(problem, _ZeroUniform(), space)
    alternating = [1.0, -1.0, 1.0, -1.0]
    assert state == {name: [1.0] * 4 if name == "f" else alternating
                     for name in problem.free_functions}
    assert _ratio(problem, state, space) is not None


def _climb_rebuilding_every_function(problem, rng, space, iters):
    """The climb with every candidate state's functions built afresh, so
    nothing a function keeps is ever read back."""
    state = _initial_state(problem, rng, space)
    best = _ratio(problem, state, space)
    trace = [(0, best)]
    coords = [(name, i) for name in problem.free_functions
              for i in range(problem.atoms)]
    step, iteration, stalled = 0.5, 0, 0
    while iteration < iters and step > 1e-11:
        name, idx = coords[iteration % len(coords)]
        iteration += 1
        v = state[name][idx]
        improved = False
        for cand in (v + step, v - step, v * (1.0 + step), v * (1.0 - step),
                     -v):
            state[name][idx] = max(-search_mod.VALUE_BOX,
                                   min(search_mod.VALUE_BOX, cand))
            r = _ratio(problem, state, space)
            if r is not None and r > best:
                best, v, improved = r, state[name][idx], True
                trace.append((iteration, best))
            state[name][idx] = v
        stalled = 0 if improved else stalled + 1
        if stalled >= len(coords):
            step, stalled = step * 0.5, 0
    return best, state, trace


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("problem", [
    SearchProblem("thm32-ratio", atoms=4),
    SearchProblem("thm41-ratio", atoms=4),
    SearchProblem("thm41-ratio", atoms=3, exponents=(2, 4, 4, 4, 4)),
    SearchProblem("thm43-ratio", atoms=5),
    SearchProblem("thm43-ratio", atoms=4, norm=Associate(_LORENTZ)),
], ids=["thm32", "thm41", "thm41-2-4", "thm43-L2", "thm43-lorentz-assoc"])
def test_search_equals_a_climb_rebuilding_every_function(problem, threads,
                                                         monkeypatch):
    """A move rebuilds only the function it changes and reads the other's
    centring and norms back; the report is the same as when every
    candidate is built afresh."""
    got = search(problem, 80, 3, seed=4, threads=threads).to_json_dict()
    monkeypatch.setattr(search_mod, "_climb", _climb_rebuilding_every_function)
    assert search(problem, 80, 3, seed=4, threads=threads).to_json_dict() \
        == got


def test_threads_racing_to_fill_the_shared_memos_give_the_same_report():
    """Restarts on four threads share the problem's form table and its
    descriptors' kept values, which they fill in a race on first use; a
    short switch interval makes the race likely, and every report equals
    the one-thread report."""
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(3):
            reports = [search(SearchProblem(
                "thm43-ratio", atoms=4, norm=Associate(LorentzLambda(
                    ConcaveWeight(((0, 0), (Fraction(1, 3), Fraction(2, 3)),
                                   (1, 1)))))), 40, 8, seed=2,
                threads=threads).to_json_dict() for threads in (4, 1)]
            assert reports[0] == reports[1]
    finally:
        sys.setswitchinterval(interval)
