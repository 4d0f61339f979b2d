"""The mean-oscillation bilinear form and the checks built on it.

The central object is

    I(A, B; f, g, h) = sum over y in A, x in B of
        (f(x) + f(y)) (g(x) - g(y)) h(y) mu(x) mu(y),

together with the peeling of a zero-mean simple function into zero-mean
two-level blocks with nested supports, and the off-support bound of
lemma31.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyInput, InputError, NotZeroMean, PreconditionViolated
from .scalars import dot, format_scalar, in_family, unit_product
from .spaces import (WEIGHT_SUM_TOLERANCE, AtomSet, DiscreteSpace,
                     SimpleFunction, common_space, integrate, support)


def bilinear_form(A, B, f: SimpleFunction, g: SimpleFunction,
                  h: SimpleFunction):
    """I(A, B; f, g, h): y ranges over the outer set A, x over the inner
    set B.

    Computed through the expansion into one-dimensional integrals over A
    and B, which is exact and linear in each function; the quadratic
    double sum is kept in the test suite as the defining oracle.  Every
    term has degree one in f, g and h and two in the weights, so the four
    integrals run on the int numerators the functions and the space keep
    and the result is scaled once by unit_f unit_g unit_h unit_w^2.

    Each integral is the `dot` of its columns, the rows gathered in the
    atom set's iteration order.  One set passed as both A and B (as thm32
    passes the whole space) is checked and gathered once.
    """
    space = common_space(f, g, h)
    same = A is B
    A = space.check_atoms(A)
    fA, gA, hA, wA = ([row[i] for i in A]
                      for row in (f.numerators, g.numerators, h.numerators,
                                  space.numerators))
    if same:
        fB, gB, wB = fA, gA, wA
    else:
        B = space.check_atoms(B)
        fB, gB, wB = ([row[i] for i in B] for row in (
            f.numerators, g.numerators, space.numerators))

    return (
        dot(fB, gB, wB) * dot(hA, wA)
        - dot(fB, wB) * dot(gA, hA, wA)
        + dot(gB, wB) * dot(fA, hA, wA)
        - dot(wB) * dot(fA, gA, hA, wA)
    ) * unit_product(f.unit, g.unit, h.unit, space.unit, space.unit)


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
    """Ordered zero-mean two-level blocks with nested decreasing supports;
    they sum to the decomposed function pointwise."""

    blocks: tuple


def zero_mean_decompose(g: SimpleFunction) -> BlockDecomposition:
    """Peel a zero-mean simple function into zero-mean two-level blocks.

    Each round works on the current remainder: with P the positive
    support, N the negative support, a the smallest positive level and b
    the smallest negative magnitude, the balanced block on (P, N) whose
    height is capped by the lighter side is emitted and subtracted.  The
    lighter side loses at least one level per round, so at most
    (#positive levels + #negative levels) blocks are produced and
    supports are nested decreasing.
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

def _zero_mean(g: SimpleFunction) -> bool:
    """Zero mean in g's arithmetic: exactly for exact values; for binary
    floats, which round an exactly centered g, up to WEIGHT_SUM_TOLERANCE
    relative to the integral of |g|."""
    mean = integrate(g)
    if isinstance(mean, (int, Fraction)):
        return mean == 0
    mass = dot(map(abs, g.values), g.space.weights)
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
    space = common_space(f, g, h)
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
    w = space.weights
    pairs = [(y, x) for y in G for x in Gc
             if (x in F or y in F) and (x in H or y in H)]
    rhs = 2 * dot([abs(g.values[y]) * w[y] for y, _ in pairs],
                  [w[x] for _, x in pairs])
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
