"""The mean-oscillation bilinear form and its supporting calculus.

The central object is

    I(A, B; f, g, h) = sum over y in A, x in B of
        (f(x) + f(y)) (g(x) - g(y)) h(y) mu(x) mu(y),

together with the pointwise product split used to bound oscillation norms
of products, a first-order difference calculus on the product space
(kernels K(x, y) with left/right module actions), and the peeling of a
zero-mean simple function into zero-mean two-level blocks with nested
supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyInput, InputError, NotZeroMean, PreconditionViolated
from .rearrange import StepProfile, decreasing_rearrangement, make_profile
from .scalars import (format_scalar, in_family, over_common_denominator,
                      parse_scalar)
from .spaces import (WEIGHT_SUM_TOLERANCE, AtomSet, DiscreteSpace,
                     SimpleFunction, center, integrate, multiply, support)


def bilinear_form(A, B, f: SimpleFunction, g: SimpleFunction,
                  h: SimpleFunction):
    """I(A, B; f, g, h): y ranges over the outer set A, x over the inner
    set B.

    Computed through the expansion into one-dimensional integrals over A
    and B, which is exact and linear in each function; the quadratic
    double sum is kept in the test suite as the defining oracle.  Every
    term has degree one in f, g and h and two in the weights, so the four
    integrals run on int numerators over common denominators and the
    result is scaled once by unit_f unit_g unit_h unit_w^2.
    """
    space = _common_space(f, g, h)
    A = space.check_atoms(A)
    B = space.check_atoms(B)
    (fv, f_unit), (gv, g_unit), (hv, h_unit), (w, w_unit) = (
        over_common_denominator(x)
        for x in (f.values, g.values, h.values, space.weights)
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


def _common_space(*funcs) -> DiscreteSpace:
    space = funcs[0].space
    for fn in funcs[1:]:
        if fn.space.weights != space.weights:
            raise InputError("functions live on different spaces")
    return space


def product_identity_check(f: SimpleFunction, g: SimpleFunction):
    """Max pointwise discrepancy of the symmetric/antisymmetric split of
    f(x)g(x) - f(y)g(y) over all atom pairs; zero in exact mode."""
    space = _common_space(f, g)
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
# zero-mean two-level blocks

@dataclass(frozen=True)
class ZeroMeanBlock:
    """g_i = a 1_A - b 1_B with disjoint A, B and a mu(A) = b mu(B)."""

    a: object
    A: AtomSet
    b: object
    B: AtomSet
    space: DiscreteSpace

    def __post_init__(self):
        A = self.space.check_atoms(self.A)
        B = self.space.check_atoms(self.B)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if not A or not B:
            raise InputError("block sides must be nonempty")
        if A & B:
            raise InputError("block sides must be disjoint")
        if self.a <= 0 or self.b <= 0:
            raise InputError("block heights must be positive")
        if self.a * self.space.measure(A) != self.b * self.space.measure(B):
            raise InputError("block is not balanced: a mu(A) != b mu(B)")

    def to_function(self) -> SimpleFunction:
        values = []
        for i in range(self.space.n):
            if i in self.A:
                values.append(self.a)
            elif i in self.B:
                values.append(-self.b)
            else:
                values.append(Fraction(0))
        return SimpleFunction(tuple(values), self.space)

    @property
    def support(self) -> AtomSet:
        return self.A | self.B


@dataclass(frozen=True)
class BlockDecomposition:
    """Ordered zero-mean two-level blocks with nested decreasing supports.

    The blocks always sum to the decomposed function pointwise, and the
    sum of their rearrangements carries the same total mass as g* and
    dominates it in running integral.  Segment-wise equality of the
    profile sum with g* holds for two-level inputs (and, e.g., the
    worked four-atom case) but not for arbitrary zero-mean functions: a
    block's balance-scaled side can interleave in value with later
    blocks, and no decomposition within these invariants avoids that.
    """

    blocks: tuple

    def profile_sum(self) -> StepProfile:
        """Segment-wise sum of the blocks' decreasing rearrangements."""
        from .rearrange import profile_add

        total = make_profile([])
        for block in self.blocks:
            total = profile_add(
                total, decreasing_rearrangement(block.to_function())
            )
        return total


def zero_mean_decompose(g: SimpleFunction) -> BlockDecomposition:
    """Peel a zero-mean simple function into zero-mean two-level blocks.

    Each round works on the current remainder: with P the positive
    support, N the negative support, a the smallest positive level and b
    the smallest negative magnitude, the balanced block on (P, N) whose
    height is capped by the lighter side is emitted and subtracted.  The
    lighter side loses at least one level per round, so at most
    (#positive levels + #negative levels) blocks are produced and
    supports are nested decreasing.  See BlockDecomposition for what the
    blocks' rearrangements do and do not reconstruct.
    """
    total = integrate(g)
    if total != 0:
        raise NotZeroMean(f"integral is {format_scalar(total)}, not 0")
    if all(v == 0 for v in g.values):
        raise EmptyInput("cannot decompose the zero function")

    space = g.space
    values = list(g.values)
    blocks = []
    max_rounds = len({v for v in values if v > 0}) + len(
        {v for v in values if v < 0}
    )
    for _ in range(max_rounds):
        P = frozenset(i for i, v in enumerate(values) if v > 0)
        N = frozenset(i for i, v in enumerate(values) if v < 0)
        if not P and not N:
            break
        if not P or not N:
            raise NotZeroMean("remainder lost zero mean; inexact input?")
        a = min(values[i] for i in P)
        b = min(-values[i] for i in N)
        mu_p, mu_n = space.measure(P), space.measure(N)
        if a * mu_p <= b * mu_n:
            block = ZeroMeanBlock(a, P, a * mu_p / mu_n, N, space)
        else:
            block = ZeroMeanBlock(b * mu_n / mu_p, P, b, N, space)
        blocks.append(block)
        for i in P:
            values[i] -= block.a
        for i in N:
            values[i] += block.b
    if any(v != 0 for v in values):
        raise NotZeroMean("peeling did not terminate at zero")
    return BlockDecomposition(tuple(blocks))


# ---------------------------------------------------------------------------
# the support-overlap bound (suite id lemma31)

def _grid_indicator(S: AtomSet, x: int, y: int) -> int:
    return 1 if (x in S or y in S) else 0


def _zero_mean(g: SimpleFunction) -> bool:
    """Zero mean in g's arithmetic: exactly for exact values; for binary
    floats, which round an exactly centered g, up to WEIGHT_SUM_TOLERANCE
    relative to the integral of |g|."""
    mean = integrate(g)
    if isinstance(mean, (int, Fraction)):
        return mean == 0
    mass = sum(abs(v) * w for v, w in zip(g.values, g.space.weights))
    return abs(mean) <= in_family(WEIGHT_SUM_TOLERANCE, mean) * mass


def lemma31_bound(f: SimpleFunction, g: SimpleFunction, h: SimpleFunction):
    """The two sides of the off-support cross-term bound.

    Hypotheses (checked): g has zero mean, f takes values in {-1, 0, 1},
    and |h| <= 1.  With G the support of g, F of f, H of h, returns

      LHS = I(Gc, G) + I(G, Gc)
      RHS = 2 sum over y in G, x in Gc of |g(y)| 1_F(x,y) 1_H(x,y)
            mu(x) mu(y),

    where 1_F(x, y) = 1 if x or y lies in F.  LHS <= RHS always.
    """
    space = _common_space(f, g, h)
    if not _zero_mean(g):
        raise PreconditionViolated("g must have zero mean")
    if any(v not in (-1, 0, 1) for v in f.values):
        raise PreconditionViolated("f must take values in {-1, 0, 1}")
    if any(abs(v) > 1 for v in h.values):
        raise PreconditionViolated("h must satisfy |h| <= 1")

    G = support(g)
    Gc = space.complement(G)
    lhs = bilinear_form(Gc, G, f, g, h) + bilinear_form(G, Gc, f, g, h)

    F, H = support(f), support(h)
    rhs = 0  # an int, so an empty sum still mixes with mpf
    for y in G:
        wy = abs(g.values[y]) * space.weights[y]
        for x in Gc:
            if _grid_indicator(F, x, y) and _grid_indicator(H, x, y):
                rhs += wy * space.weights[x]
    rhs = 2 * rhs
    return lhs, rhs


# ---------------------------------------------------------------------------
# block JSON: {"blocks": [{"a": "1", "A": [0, 1], "b": "1", "B": [2, 3]}]}

def decomposition_to_json(dec: BlockDecomposition) -> dict:
    return {
        "blocks": [
            {
                "a": format_scalar(b.a),
                "A": sorted(b.A),
                "b": format_scalar(b.b),
                "B": sorted(b.B),
            }
            for b in dec.blocks
        ]
    }


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
