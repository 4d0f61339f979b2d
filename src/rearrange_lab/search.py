"""Derivative-free sharpness probing for the verified inequalities.

The search maximizes LHS/RHS over function values with additive,
multiplicative, and sign-flip coordinate moves, re-centering the
zero-mean variable after every move where the hypothesis requires it.
A move rebuilds only the function it changes, and the product-rule
kernel reads back what the others keep: their centring and norms.
The objective is scale-invariant in each function separately, so the
climb works inside a fixed box.  Each target is a form of a suite in
verify's table `_TRIALS`, reads the parameters `suite_parameters` keeps
for that suite, and the objective evaluates that form alone
(thm43-ratio: the norm form, five float norms; the associate form is
never evaluated, so a norm without an associate evaluation can be
searched).  Ratios certified above 1 would indicate an implementation
bug; any excess beyond 1e-9 is re-checked, again in the target's form
only, with verify's recheck and certification rule before being
reported as a violation certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleProblem, InputError
from .scalars import DOUBLE_PRECISION
from .spaces import DiscreteSpace, SimpleFunction, center, instance_to_json
from .verify import (_TRIALS, Instance, _certified, _evaluate, _keyed_rng,
                     _recheck, _recheck_mode, check_int, parameters_json,
                     suite_parameters)

#: target -> (verify suite, form label of that suite)
TARGETS = {
    "thm32-ratio": ("thm32", None),
    "thm41-ratio": ("thm41", None),
    "thm43-ratio": ("thm43", "norm_form"),
}

RATIO_CAP_SLACK = 1e-9
VALUE_BOX = 4.0

#: float-mode reading of the RHS > 0 domain constraint.  Both sides are
#: 1-homogeneous in each function, so every attainable ratio also occurs
#: at RHS of order one; below this floor the quotient is dominated by
#: cancellation noise rather than by the inequality.
RHS_FLOOR = 1e-4


@dataclass(frozen=True)
class SearchProblem:
    target: str
    atoms: int = 2
    exponents: tuple = None        # read by thm41-ratio only
    norm: object = None            # read by thm43-ratio only

    def __post_init__(self):
        if self.target not in TARGETS:
            raise InputError(f"unknown search target {self.target!r}")
        exponents, norm = suite_parameters(self.suite, self.exponents,
                                           self.norm)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "norm", norm)
        if check_int(self.atoms, "atoms") < 2:
            raise InfeasibleProblem(
                "a single atom forces RHS = 0 on every admissible instance"
            )

    @property
    def suite(self) -> str:
        return TARGETS[self.target][0]

    @property
    def free_functions(self):
        return ("f", "g", "h") if self.target == "thm32-ratio" else ("f", "g")

    def space(self) -> DiscreteSpace:
        """The space searched: `atoms` equal double weights."""
        n = self.atoms
        return DiscreteSpace(tuple(1.0 / n for _ in range(n)))

    def canonical_dict(self) -> dict:
        return {"target": self.target, "atoms": self.atoms,
                **parameters_json(self.exponents, self.norm)}


@dataclass
class SearchResult:
    target: str
    best_ratio: float
    best_instance: dict
    trace: list          # (iteration, best-so-far ratio) at improvements
    restarts: int
    violation: dict = None
    config: dict = None

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "best_ratio": repr(self.best_ratio),
            "best_instance": self.best_instance,
            "trace": [[i, repr(r)] for i, r in self.trace],
            "restarts": self.restarts,
            "violation": self.violation,
            "config": self.config,
        }


def _state_functions(problem: SearchProblem, state: dict, space: DiscreteSpace,
                     names=None):
    funcs = {}
    for name in names or problem.free_functions:
        f = SimpleFunction(tuple(state[name]), space)
        if name == "g" and problem.target == "thm32-ratio":
            f = center(f)
        funcs[name] = f
    return funcs


def _sides(problem: SearchProblem, funcs):
    """(LHS, RHS) of the target's form alone, in double precision."""
    _, form = TARGETS[problem.target]
    return _evaluate(problem, funcs, DOUBLE_PRECISION, (form,))[form]


def _ratio(problem: SearchProblem, state: dict, space: DiscreteSpace,
           funcs=None):
    """LHS/RHS of state (its functions funcs, when given), or None when RHS
    is (numerically) zero and the state falls outside the search domain."""
    lhs, rhs = _sides(problem, funcs or _state_functions(problem, state, space))
    if rhs <= RHS_FLOOR:
        return None
    return float(lhs) / float(rhs)


def _initial_state(problem, rng, space):
    for _ in range(100):
        state = {
            name: [rng.uniform(-1.0, 1.0) for _ in range(problem.atoms)]
            for name in problem.free_functions
        }
        if _ratio(problem, state, space) is not None:
            return state
    # canonical feasible fallback: alternating signs keep RHS positive
    state = {
        name: [1.0 if i % 2 == 0 else -1.0 for i in range(problem.atoms)]
        for name in problem.free_functions
    }
    state["f"] = [1.0] * problem.atoms
    if _ratio(problem, state, space) is None:
        raise InfeasibleProblem("could not find an instance with RHS > 0")
    return state


def _climb(problem, rng, space, iters):
    state = _initial_state(problem, rng, space)
    funcs = _state_functions(problem, state, space)
    best = _ratio(problem, state, space, funcs)
    trace = [(0, best)]
    coords = [
        (name, i) for name in problem.free_functions for i in range(problem.atoms)
    ]
    step = 0.5
    iteration = 0
    stalled = 0
    while iteration < iters and step > 1e-11:
        name, idx = coords[iteration % len(coords)]
        iteration += 1
        v = state[name][idx]
        candidates = [
            v + step, v - step, v * (1.0 + step), v * (1.0 - step), -v,
        ]
        improved = False
        for cand in candidates:
            cand = max(-VALUE_BOX, min(VALUE_BOX, cand))
            state[name][idx] = cand
            moved = {**funcs, **_state_functions(problem, state, space, (name,))}
            r = _ratio(problem, state, space, moved)
            if r is not None and r > best:
                best = r
                v = cand
                improved = True
                trace.append((iteration, best))
                best_funcs = moved
            state[name][idx] = v
        if improved:
            funcs = best_funcs
            stalled = 0
        else:
            stalled += 1
            if stalled >= len(coords):
                step *= 0.5
                stalled = 0
    return best, state, trace


def _excess_certificate(problem, state, space, ratio):
    """Re-check a ratio beyond 1 + 1e-9 under verify's certification
    rule; a confirmed excess is a bug certificate, not a discovery."""
    funcs = _state_functions(problem, state, space)
    suite, form = TARGETS[problem.target]
    precision = _TRIALS[suite][1]
    lhs, rhs = _recheck(problem, Instance(space, funcs, None), form)
    if not _certified(lhs, rhs, precision):
        return None
    return {
        "ratio": repr(ratio),
        "instance": instance_to_json(space, funcs),
        "recheck_mode": _recheck_mode(precision),
    }


def search(problem: SearchProblem, iters: int, restarts: int,
           seed: int = 0, threads: int = 1) -> SearchResult:
    """Coordinate hill climbing from seeded restarts; deterministic in
    (problem, iters, restarts, seed) and independent of restart order or
    thread schedule (results reduce in restart order)."""
    if any(check_int(value, name) < 1 for value, name in (
            (iters, "iters"), (restarts, "restarts"), (threads, "threads"))):
        raise InputError("iters, restarts and threads must be >= 1")
    check_int(seed, "seed")
    space = problem.space()

    def one(restart: int):
        return _climb(problem, _keyed_rng(f"search:{seed}:{restart}"), space,
                      iters)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one, range(restarts)))
    else:
        outcomes = [one(restart) for restart in range(restarts)]
    best, state, trace = max(outcomes, key=lambda outcome: outcome[0])
    funcs = _state_functions(problem, state, space)
    violation = None
    if best > 1.0 + RATIO_CAP_SLACK:
        violation = _excess_certificate(problem, state, space, best)
    return SearchResult(
        target=problem.target,
        best_ratio=best,
        best_instance=instance_to_json(space, funcs),
        trace=[(i, r) for i, r in trace],
        restarts=restarts,
        violation=violation,
        config=dict(problem.canonical_dict(), iters=iters, seed=seed),
    )
