"""Independent reference evaluators for the closed-form norms in
rearrange_lab.norms, used only by the tests (some need scipy).

``second_associate_lp_oracle`` solves the second associate of a Lorentz
norm as a linear program over the polytope unit ball of the first
associate; ``associate_norm_oracle`` maximizes the associate pairing by a
derivative-free search; ``lorentz_associate_exact_lp`` maximizes it
exactly over flat blocks; these two assume equal atoms.
``lorentz_choquet_sum`` and ``lorentz_dual_subset_max`` evaluate a
Lorentz norm and its associate from their definitions on any space.
None uses the dual closed forms they check.
The ``reference_*`` functions evaluate the Lorentz kinds the way the
package did before phi had per-arithmetic tables, for bit-for-bit
differential tests; ``reference_draw_values`` draws instance values the
way verify did with random.randint.  The ``former_*`` functions are the
package's own code as it was before exact objects scaled their scalars
back on first read, before instances were drawn as ints, before
`bilinear_form` summed in `map`/`reduce`, before `multiply` multiplied
numerators and before `equimeasurable` tested only the levels, kept
verbatim as the reference of bit-for-bit differential tests;
``former_to_binary`` is the rounding as callers did it before
`to_binary` converted floats itself.

``product_identity_check`` and the first-order difference calculus on the
product space (``ProductKernel``, ``derivation``, its left and right
module actions ``kernel_left``/``kernel_right``, ``kernel_add``, the
pairings ``kernel_pairing``/``function_pairing``, ``derivation_adjoint``
and ``variance_identity_check``) are an independent oracle for
`bilinear_form`: the oscillation form is the pairing of
derivation_adjoint(f . derivation g) with h.  ``profile_submajorizes``
checks running-integral domination of step profiles for the
block-decomposition tests, and ``profile_sum`` adds the blocks'
rearrangements with ``profile_add``; both read `align`'s numerator grid.
The ``scalar_*`` functions are the pairwise profile kernels on the
former grid of the profiles' scalars (``scalar_align``), the reference of
the differential tests of `align`'s kernels.  ``profile_from_json`` and
``decomposition_from_json`` parse the CLI's rearrange and decompose
output back, for round-trip tests.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import to_rational

from rearrange_lab.errors import ExactUnavailable, InputError
from rearrange_lab.norms import (ConcaveWeight, Generated, LorentzLambda, Lp,
                                 _simplify, norm)
from rearrange_lab.oscillation import BlockDecomposition, ZeroMeanBlock
from rearrange_lab.rearrange import (StepProfile, _check_family, align,
                                     decreasing_rearrangement,
                                     distribution_measure, make_profile,
                                     profile_level_measure)
from rearrange_lab.scalars import (DOUBLE_PRECISION, INF,
                                   from_common_denominator, in_family,
                                   in_lowest_terms, parse_scalar)
from rearrange_lab.spaces import (DiscreteSpace, SimpleFunction,
                                  _check_values, center, common_space,
                                  integrate, multiply)
from rearrange_lab.verify import (LATTICE_DEN, LATTICE_MAX, _draw_space,
                                  _keyed_rng)


# ---------------------------------------------------------------------------
# the Lorentz kinds in mixed float/Fraction arithmetic: phi rebuilt from
# its breakpoints on every call, the profile's cuts summed on every use

def reference_boundaries(prof: StepProfile) -> list:
    cuts = [0]
    for _, l in prof.segments:
        cuts.append(cuts[-1] + l)
    return cuts


def reference_total_length(prof: StepProfile):
    return sum((l for _, l in prof.segments), start=Fraction(0))


def reference_phi(phi: ConcaveWeight, t):
    """phi(t), in the arithmetic family of t; phi(0) and phi(1) of a
    double t are the doubles 0.0 and 1.0."""
    pts = [(in_family(a, t), in_family(v, t)) for a, v in phi.breakpoints]
    if t <= 0 or t >= 1:
        end = pts[0][1] if t <= 0 else pts[-1][1]
        return float(end) if isinstance(t, float) else end
    for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
        if t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return pts[-1][1]


def reference_lorentz_norm(phi: ConcaveWeight, prof: StepProfile):
    """Stieltjes sum of the profile against d(phi)."""
    total = 0
    one = in_family(Fraction(1), reference_total_length(prof))
    cuts = reference_boundaries(prof)
    for (v, _), a, b in zip(prof.segments, cuts, cuts[1:]):
        total = total + v * (reference_phi(phi, min(b, one))
                             - reference_phi(phi, min(a, one)))
    return total


def reference_unit_grid(phi: ConcaveWeight, prof: StepProfile) -> list:
    """The profile's boundaries clipped to [0, 1] merged with phi's
    breakpoints (which include 0 and 1), ascending and in the arithmetic
    family of the profile."""
    one = in_family(Fraction(1), reference_total_length(prof))
    return sorted(
        {min(b, one) for b in reference_boundaries(prof)}
        | {in_family(t, one) for t, _ in phi.breakpoints}
    )


def reference_partial_integrals(prof: StepProfile, cuts):
    """H(s) = integral of the profile over [0, s] for each of the
    ascending cuts s, from one walk over the segments."""
    bounds = reference_boundaries(prof)
    out, prefix, seg = [], 0, 0  # prefix: segments ending by s
    for s in cuts:
        while seg < len(prof.segments) and bounds[seg + 1] <= s:
            prefix = prefix + prof.segments[seg][0] * (bounds[seg + 1] - bounds[seg])
            seg += 1
        if seg < len(prof.segments) and bounds[seg] < s:
            out.append(prefix + prof.segments[seg][0] * (s - bounds[seg]))
        else:
            out.append(prefix)
    return out


def reference_lorentz_associate_norm(phi: ConcaveWeight, prof: StepProfile):
    """sup over s in (0,1] of H(s)/phi(s) with H the running integral."""
    cuts = reference_unit_grid(phi, prof)[1:]  # drop s = 0
    best = 0
    for s, h in zip(cuts, reference_partial_integrals(prof, cuts)):
        ratio = h / reference_phi(phi, s)
        if ratio > best:
            best = ratio
    return best


# ---------------------------------------------------------------------------
# the Lorentz associate by exact maximization over flat blocks

def lorentz_associate_exact_lp(phi: ConcaveWeight, h: SimpleFunction):
    """Exact pairing maximum over the Lorentz unit ball.

    Reparameterizing a nonincreasing candidate by its decrements turns
    the ball constraint into a single weighted-sum cap, so the optimum
    sits on a flat block 1_{1..k} scaled to unit norm; the exact maximum
    over those finitely many blocks is returned (all rational).
    """
    if len(set(h.space.weights)) != 1:
        raise ValueError("the exact LP oracle assumes equal atoms")
    n = h.space.n
    hstar = sorted((abs(Fraction(v)) for v in h.values), reverse=True)
    best = Fraction(0)
    running = Fraction(0)
    for k in range(1, n + 1):
        running += hstar[k - 1]
        height = 1 / phi(Fraction(k, n))
        pairing = running * height / n
        if pairing > best:
            best = pairing
    return best


# ---------------------------------------------------------------------------
# the Lorentz norm and its associate from the definitions, on any space

def exact_scalar(x) -> Fraction:
    """A binary or exact scalar as the Fraction it equals."""
    if isinstance(x, mpmath.mpf):
        return Fraction(*to_rational(x._mpf_))
    return Fraction(x)


def lorentz_choquet_sum(phi: ConcaveWeight, f: SimpleFunction) -> Fraction:
    """The Choquet integral of |f| against the capacity phi(mu(.)): the
    atoms in decreasing order of |f|, each |f| times the rise of phi over
    the atom's mass, exactly on the values of f's scalars."""
    atoms = sorted(((abs(exact_scalar(v)), exact_scalar(w))
                    for v, w in zip(f.values, f.space.weights)), reverse=True)
    total = mass = Fraction(0)
    for v, w in atoms:
        total += v * (phi(mass + w) - phi(mass))
        mass += w
    return total


def lorentz_dual_subset_max(phi: ConcaveWeight, h: SimpleFunction) -> Fraction:
    """max over the 2^n - 1 nonempty sets A of atoms of the integral of
    |h| on A over phi(mu(A)), the dual of the Choquet integral (Bach,
    NIPS 2010), exactly on the values of h's scalars."""
    values = [abs(exact_scalar(v)) for v in h.values]
    weights = [exact_scalar(w) for w in h.space.weights]
    best = Fraction(0)
    for mask in range(1, 2 ** len(values)):
        atoms = [i for i in range(len(values)) if mask >> i & 1]
        ratio = sum(values[i] * weights[i] for i in atoms) \
            / phi(sum(weights[i] for i in atoms))
        best = max(best, ratio)
    return best


# ---------------------------------------------------------------------------
# second associate of a Lorentz norm, by linear programming

def second_associate_lp_oracle(phi: ConcaveWeight, prof: StepProfile, precision):
    """||f|| in the second associate of a Lorentz norm, by maximizing the
    pairing over the polytope unit ball of the first associate.

    The ball {h nonincreasing >= 0 : integral_0^s h <= phi(s) for all s}
    admits step-function optimizers on the merged breakpoint grid, so the
    problem is a finite LP (solved in double precision with HiGHS).
    """
    if precision is None:
        raise ExactUnavailable("the second-associate LP is float-based")
    from scipy.optimize import linprog

    grid = reference_unit_grid(phi, prof)
    lengths = [float(b - a) for a, b in zip(grid, grid[1:])]
    m = len(lengths)
    fvals = [float(v) for v in values_on_grid(
        [v for v, _ in prof.segments], prof.boundaries, grid)]
    c = [-(fv * l) for fv, l in zip(fvals, lengths)]  # maximize sum f*_j L_j h_j
    a_ub, b_ub = [], []
    for j in range(m):  # cumulative mass caps at every grid point
        row = [lengths[i] if i <= j else 0.0 for i in range(m)]
        a_ub.append(row)
        b_ub.append(float(phi(grid[j + 1])))
    for j in range(m - 1):  # h nonincreasing
        row = [0.0] * m
        row[j], row[j + 1] = -1.0, 1.0
        a_ub.append(row)
        b_ub.append(0.0)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * m, method="highs")
    if not res.success:
        raise InputError(f"second-associate LP failed: {res.message}")
    return -res.fun


# ---------------------------------------------------------------------------
# brute-force pairing oracle (independent of the closed forms)

def _primal_ball_norm(X, n):
    """A self-contained evaluator of ||g||_X for nonincreasing g >= 0 on
    the equal n-atom space, written from the definitions rather than
    through `norm` so the oracle shares no code with the closed forms."""
    X = _simplify(X)
    if isinstance(X, Lp):
        if X.p == INF:
            return lambda g: g[0] if g else 0.0
        p = float(X.p)
        return lambda g: (sum(v**p for v in g) / n) ** (1.0 / p)
    if isinstance(X, LorentzLambda):
        deltas = [
            float(X.phi(Fraction(k, n)) - X.phi(Fraction(k - 1, n)))
            for k in range(1, n + 1)
        ]
        return lambda g: sum(v * d for v, d in zip(g, deltas))
    if isinstance(X, Generated):
        base = _primal_ball_norm(X.base, n)
        p = float(X.p)
        return lambda g: base([v**p for v in g]) ** (1.0 / p)
    space = DiscreteSpace(tuple(1.0 / n for _ in range(n)))
    return lambda g: float(
        norm(X, SimpleFunction(tuple(g), space), precision=DOUBLE_PRECISION)
    )


def _pairing_objective(cvec, n, X, precision):
    ball_norm = _primal_ball_norm(X, n)

    def ratio(tvec):
        g = []
        acc = 0.0
        for t in reversed(tvec):
            acc += max(t, 0.0)
            g.append(acc)
        g.reverse()
        denom = ball_norm(g)
        if denom == 0:
            return 0.0
        pairing = sum(c * gi for c, gi in zip(cvec, g)) / n
        return pairing / denom

    return ratio


def _golden_max(fun, lo, hi, iters=60):
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2


def associate_norm_oracle(X, h: SimpleFunction, *, starts=32, seed=0,
                          precision=DOUBLE_PRECISION):
    """Maximize the pairing (1/n) sum h*_i g_i over nonincreasing g >= 0
    with ||g||_X <= 1, without using any dual closed form.

    Runs projected coordinate ascent (golden-section line searches over
    the decrement parameterization) from seeded random starts plus the
    flat-block candidates, then a Powell polish on the best points.
    """
    import random as _random

    from scipy.optimize import minimize

    n = h.space.n
    if len(set(h.space.weights)) != 1:
        raise ValueError("the pairing oracle assumes equal atoms")
    cvec = sorted((abs(float(v)) for v in h.values), reverse=True)
    ratio = _pairing_objective(cvec, n, X, precision)
    rng = _random.Random(seed)

    start_points = [[1.0] * n] + [
        [1.0 if i == k else 0.0 for i in range(n)] for k in range(n)
    ]
    for _ in range(starts):
        start_points.append([rng.random() for _ in range(n)])

    best = 0.0
    best_points = []
    for t0 in start_points:
        t = list(t0)
        if sum(t) == 0:
            continue
        current = ratio(t)
        for _ in range(60):
            improved = False
            for k in range(n):
                span = sum(t) + 1.0
                saved = t[k]

                def line(x, k=k, t=t):
                    t[k] = x
                    val = ratio(t)
                    t[k] = saved
                    return val

                xbest = _golden_max(line, 0.0, 2.0 * span)
                if line(xbest) > current + 1e-15:
                    t[k] = xbest
                    current = ratio(t)
                    improved = True
            if not improved:
                break
        if current > best:
            best = current
        best_points.append((current, list(t)))

    best_points.sort(key=lambda pair: -pair[0])
    for _, t in best_points[:4]:
        res = minimize(
            lambda x: -ratio(list(x)),
            t,
            method="Powell",
            bounds=[(0.0, None)] * n,
            options={"xtol": 1e-12, "ftol": 1e-14, "maxiter": 4000},
        )
        best = max(best, -res.fun)
    return best


# ---------------------------------------------------------------------------
# instance values through random.randint, and the former Fraction generator

_LATTICE = tuple(Fraction(k, LATTICE_DEN)
                 for k in range(-LATTICE_MAX, LATTICE_MAX + 1))
_LATTICE_BITS = len(_LATTICE).bit_length()


def reference_draw_values(rng, n: int):
    """n lattice values drawn with randint, as verify drew them."""
    return tuple(_LATTICE[rng.randint(-LATTICE_MAX, LATTICE_MAX) + LATTICE_MAX]
                 for _ in range(n))


def former_draw_values(rng, n: int):
    """n lattice values, each drawn as rng.randint(-LATTICE_MAX,
    LATTICE_MAX) draws it: getrandbits(_LATTICE_BITS) until the result
    indexes the lattice, so the random stream is that of randint."""
    getrandbits = rng.getrandbits
    size = len(_LATTICE)
    out = []
    for _ in range(n):
        r = getrandbits(_LATTICE_BITS)
        while r >= size:
            r = getrandbits(_LATTICE_BITS)
        out.append(_LATTICE[r])
    return tuple(out)


def former_random_instance(cfg, index: int):
    """The functions of verify's random (not fixture) instance for
    (cfg.seed, index), as verify built them from Fraction lattice values:
    (space, {name: SimpleFunction})."""
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
            f = SimpleFunction(former_draw_values(rng, n), space)
            h = SimpleFunction(former_draw_values(rng, n), space)
        g = center(SimpleFunction(former_draw_values(rng, n), space))
        functions = {"f": f, "g": g, "h": h}
    elif cfg.suite in ("thm41", "thm43", "rearrange"):
        f = SimpleFunction(former_draw_values(rng, n), space)
        g = SimpleFunction(former_draw_values(rng, n), space)
        functions = {"f": f, "g": g}
    return space, functions


# ---------------------------------------------------------------------------
# the former eager constructors from numerators, the former value product,
# and the former bilinear form

def former_function_from_numerators(numerators, unit, space):
    """SimpleFunction.from_numerators as it was: the values scaled back
    and checked when the function is built."""
    values = from_common_denominator(numerators, unit)
    _check_values(values, space)
    f = object.__new__(SimpleFunction)
    object.__setattr__(f, "values", values)
    object.__setattr__(f, "space", space)
    object.__setattr__(f, "numerators", numerators)
    object.__setattr__(f, "unit", unit)
    return f


def former_multiply(f, g):
    """multiply as it was: the products of the values, checked and put
    over their common denominator as a new function."""
    space = common_space(f, g)
    return SimpleFunction(tuple(a * b for a, b in zip(f.values, g.values)),
                          space)


def former_profile_from_numerators(value_numerators, value_unit,
                                   length_numerators, length_unit):
    """StepProfile.from_numerators as it was: the segments scaled back
    when the profile is built."""
    _check_family(length_numerators)
    values = in_lowest_terms(value_numerators, value_unit)
    lengths = in_lowest_terms(length_numerators, length_unit)
    profile = object.__new__(StepProfile)
    profile._keep(*values, *lengths)
    object.__setattr__(profile, "segments", tuple(zip(
        from_common_denominator(*values),
        from_common_denominator(*lengths))))
    return profile


def former_bilinear_form(A, B, f, g, h):
    """bilinear_form as it was, with its integrals as Python loops."""
    space = common_space(f, g, h)
    A = space.check_atoms(A)
    B = space.check_atoms(B)
    (fv, f_unit), (gv, g_unit), (hv, h_unit), (w, w_unit) = (
        (x.numerators, x.unit) for x in (f, g, h, space)
    )

    def over(atoms, *rows):
        total = 0
        for i in atoms:
            term = 1
            for row in rows:
                term = term * row[i]
            total = total + term * w[i]
        return total

    return (
        over(B, fv, gv) * over(A, hv)
        - over(B, fv) * over(A, gv, hv)
        + over(B, gv) * over(A, fv, hv)
        - over(B) * over(A, fv, gv, hv)
    ) * (f_unit * g_unit * h_unit * w_unit * w_unit)


def former_equimeasurable(f: SimpleFunction, profile: StepProfile) -> bool:
    """equimeasurable as it was: the distribution functions compared at
    every level, at 0 and at the midpoint between consecutive levels
    (both read as the package reads them today)."""
    levels = sorted({abs(v) for v in f.values}
                    | {v for v, _ in profile.segments}
                    | {0 * abs(f.values[0])})
    candidates = list(levels)
    for a, b in zip(levels, levels[1:]):
        candidates.append((a + b) / 2)
    return all(
        distribution_measure(f, t) == profile_level_measure(profile, t)
        for t in candidates
    )


def former_to_binary(q, precision):
    """to_binary of the input wrapped in Fraction, as it was: None gives
    that Fraction back."""
    q = Fraction(q)
    if precision is None:
        return q
    if precision == DOUBLE_PRECISION:
        return float(q)
    with mpmath.workprec(precision):
        return mpmath.mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# the pointwise product split

def product_identity_check(f: SimpleFunction, g: SimpleFunction):
    """Max pointwise discrepancy of the symmetric/antisymmetric split of
    f(x)g(x) - f(y)g(y) over all atom pairs; zero in exact mode."""
    space = common_space(f, g)
    worst = Fraction(0)
    for x in range(space.n):
        for y in range(space.n):
            lhs = f.values[x] * g.values[x] - f.values[y] * g.values[y]
            rhs = (
                (f.values[x] + f.values[y]) * (g.values[x] - g.values[y])
                + (f.values[x] - f.values[y]) * (g.values[x] + g.values[y])
            ) / 2
            worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# first-order difference calculus on the product space

@dataclass(frozen=True)
class ProductKernel:
    """A function on atom pairs; entry [x][y] is K(x, y)."""

    values: tuple
    space: DiscreteSpace

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.values)
        object.__setattr__(self, "values", rows)
        n = self.space.n
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InputError("kernel must be n x n for the space")


def derivation(f: SimpleFunction) -> ProductKernel:
    """The antisymmetric difference kernel K(x, y) = f(x) - f(y)."""
    vals = tuple(
        tuple(f.values[x] - f.values[y] for y in range(f.space.n))
        for x in range(f.space.n)
    )
    return ProductKernel(vals, f.space)


def kernel_left(m: SimpleFunction, K: ProductKernel) -> ProductKernel:
    """(mK)(x, y) = m(x) K(x, y)."""
    vals = tuple(
        tuple(m.values[x] * K.values[x][y] for y in range(K.space.n))
        for x in range(K.space.n)
    )
    return ProductKernel(vals, K.space)


def kernel_right(K: ProductKernel, m: SimpleFunction) -> ProductKernel:
    """(Km)(x, y) = m(y) K(x, y)."""
    vals = tuple(
        tuple(K.values[x][y] * m.values[y] for y in range(K.space.n))
        for x in range(K.space.n)
    )
    return ProductKernel(vals, K.space)


def kernel_add(K: ProductKernel, L: ProductKernel) -> ProductKernel:
    vals = tuple(
        tuple(a + b for a, b in zip(ra, rb))
        for ra, rb in zip(K.values, L.values)
    )
    return ProductKernel(vals, K.space)


def kernel_pairing(K: ProductKernel, L: ProductKernel):
    """<K, L> with respect to mu (x) mu."""
    w = K.space.weights
    return sum(
        (
            K.values[x][y] * L.values[x][y] * w[x] * w[y]
            for x in range(K.space.n)
            for y in range(K.space.n)
        ),
        start=Fraction(0),
    )


def function_pairing(u: SimpleFunction, v: SimpleFunction):
    """<u, v> with respect to mu."""
    return integrate(multiply(u, v))


def derivation_adjoint(K: ProductKernel) -> SimpleFunction:
    """The divergence-style adjoint of the difference kernel calculus.

    Sign convention: adjoint(derivation(f)) = -2 (f - mean f), so the
    defining pairing reads <derivation u, K> = -<u, adjoint K> for every
    u.  With this convention the oscillation form is recovered as
    <adjoint(f . derivation g), h>.
    """
    w = K.space.weights
    values = []
    for z in range(K.space.n):
        col = sum(
            (K.values[x][z] * w[x] for x in range(K.space.n)), start=Fraction(0)
        )
        row = sum(
            (K.values[z][y] * w[y] for y in range(K.space.n)), start=Fraction(0)
        )
        values.append(col - row)
    return SimpleFunction(tuple(values), K.space)


def variance_identity_check(f: SimpleFunction):
    """Three routes to the variance: centered second moment, half the
    double integral of squared differences, and half the squared kernel
    norm of the difference kernel."""
    centered = center(f)
    first = integrate(multiply(centered, centered))
    w = f.space.weights
    second = sum(
        (
            (f.values[x] - f.values[y]) ** 2 * w[x] * w[y]
            for x in range(f.space.n)
            for y in range(f.space.n)
        ),
        start=Fraction(0),
    ) / 2
    K = derivation(f)
    third = kernel_pairing(K, K) / 2
    return first, second, third


# ---------------------------------------------------------------------------
# the profile grid in scalars, as the package built it before `align` read
# the profiles' numerators

def values_on_grid(values, bounds, cuts):
    """Value on each interval [cuts[j], cuts[j+1]) of the step function
    with segment values `values` between boundaries `bounds`, and beyond
    them the int 0, which mixes with every arithmetic family.  The
    boundaries start at 0 and the cuts at or after it."""
    n = len(values)
    out = []
    for t in cuts[:-1]:
        seg = bisect_right(bounds, t) - 1
        out.append(values[seg] if seg < n else 0)
    return out


def scalar_align(*profiles):
    """(widths, rows): the width of each interval of the profiles' merged
    breakpoint grid, and each profile's values on those intervals."""
    steps = [(tuple(v for v, _ in p.segments), p.boundaries)
             for p in profiles]
    cuts = sorted(set().union(*(bounds for _, bounds in steps)))
    widths = [b - a for a, b in zip(cuts, cuts[1:])]
    return widths, [values_on_grid(values, bounds, cuts)
                    for values, bounds in steps]


def scalar_profile_leq(p: StepProfile, q: StepProfile) -> bool:
    _, (pv, qv) = scalar_align(p, q)
    return all(a <= b for a, b in zip(pv, qv))


def scalar_difference_moment(p: StepProfile, q: StepProfile, k: int):
    widths, (pv, qv) = scalar_align(p, q)
    return sum((abs(a - b) ** k * w for a, b, w in zip(pv, qv, widths)),
               start=Fraction(0))


def scalar_difference_sup(p: StepProfile, q: StepProfile):
    _, (pv, qv) = scalar_align(p, q)
    return max((abs(a - b) for a, b in zip(pv, qv)), default=Fraction(0))


# ---------------------------------------------------------------------------
# running-integral domination of step profiles

def profile_submajorizes(p: StepProfile, q: StepProfile) -> bool:
    """Running-integral domination: int_0^t p <= int_0^t q for all t.

    Both running integrals are piecewise linear with kinks only at the
    merged segment boundaries, so checking the boundaries is enough.
    """
    widths, rows, unit = align(p, q)
    pv, qv = (from_common_denominator(row, r.value_unit)
              for row, r in zip(rows, (p, q)))
    run_p = run_q = Fraction(0)
    for a, b, width in zip(pv, qv, from_common_denominator(widths, unit)):
        run_p = run_p + a * width
        run_q = run_q + b * width
        if run_p > run_q:
            return False
    return True


# ---------------------------------------------------------------------------
# the blocks' profile sum

def profile_add(p: StepProfile, q: StepProfile) -> StepProfile:
    """Pointwise sum (still nonincreasing, hence a valid profile)."""
    widths, rows, unit = align(p, q)
    pv, qv = (from_common_denominator(row, r.value_unit)
              for row, r in zip(rows, (p, q)))
    return make_profile((a + b, w) for a, b, w in
                        zip(pv, qv, from_common_denominator(widths, unit)))


def profile_sum(dec: BlockDecomposition) -> StepProfile:
    """Segment-wise sum of the blocks' decreasing rearrangements.

    For the decomposition of g, the sum carries the same total mass as
    g* and dominates it in running integral.  Segment-wise equality with g* holds for two-level
    inputs (and, e.g., the worked four-atom case) but not for arbitrary
    zero-mean functions: a block's balance-scaled side can interleave in
    value with later blocks, and no decomposition within these
    invariants avoids that.
    """
    total = make_profile([])
    for block in dec.blocks:
        total = profile_add(
            total, decreasing_rearrangement(block.to_function())
        )
    return total


# ---------------------------------------------------------------------------
# parsers of the CLI's profile and block JSON

def profile_from_json(obj: dict) -> StepProfile:
    try:
        pairs = [(parse_scalar(v), parse_scalar(l)) for v, l in obj["segments"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad profile object: {exc}") from exc
    return StepProfile(tuple(pairs))


def decomposition_from_json(obj: dict, space: DiscreteSpace) -> BlockDecomposition:
    try:
        blocks = tuple(
            ZeroMeanBlock(
                parse_scalar(item["a"]),
                frozenset(item["A"]),
                parse_scalar(item["b"]),
                frozenset(item["B"]),
                space,
            )
            for item in obj["blocks"]
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad decomposition object: {exc}") from exc
    return BlockDecomposition(blocks)
