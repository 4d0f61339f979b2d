"""Rearrangement-invariant norms and their associate (Koethe dual) norms.

Four descriptor kinds are provided: ``Lp`` (including the sup norm at
p = inf), ``LorentzLambda`` with a concave piecewise-linear weight,
``Generated`` (the norm f -> ||f|^p|_X^(1/p)), and ``Associate``.  Every
kind evaluates both on simple functions and on step profiles; the value
depends only on the decreasing rearrangement.  A descriptor keeps what
`norm` derives of it once: its simplified form and the double 1/p of a
root.

Every kind runs on every finite probability space: a Lorentz norm is a
Choquet integral, whose dual is the max over sets A of the integral of
|g| on A over phi(mu(A)) (Bach, NIPS 2010).  Associate norms of Lp and
Lorentz kinds use closed forms.  The second associate of a Lorentz norm
is the Lorentz norm itself (the Lorentz-Luxemburg theorem X'' = X), so
it is evaluated exactly like one.

The Lorentz norm and its associate read phi from a table built once per
weight and arithmetic family (exact, double, mpf at each precision), at
the profile's boundaries and, for the associate, phi's breakpoints.  In
floats the results are those of exact breakpoints mixed with float
scalars, bit for bit: comparisons are exact and each operation rounds as
float(a) op float(b) would.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import NamedTuple

from .errors import ExactUnavailable, InputError
from .rearrange import StepProfile, decreasing_rearrangement, make_profile, \
    profile_integrate_product
from .scalars import DOUBLE_PRECISION, INF, binary_context, dot, \
    format_exponent, format_scalar, in_family, is_mpf, kept, \
    parse_exponent, parse_scalar, to_binary
from .spaces import SimpleFunction, common_space


# ---------------------------------------------------------------------------
# descriptors

class _WeightTable(NamedTuple):
    """phi in one arithmetic family (see ConcaveWeight).

    ``points`` has one entry (below, on, t, phi(t)) per breakpoint t in
    (0, 1], t and phi(t) as the family computes with them: a scalar b of
    the family is < t exactly when b < below, and == t when on and b ==
    below.
    """

    zero: object  # phi(t) for t <= 0
    one: object  # phi(t) for t >= 1
    ends: list  # t <= t_{i+1} exactly when t <= ends[i]
    pieces: list  # (t0, v0, v1 - v0, t1 - t0) of each linear piece
    points: list


def _double_at_most(q: Fraction) -> float:
    """The largest double <= q."""
    x = float(q)
    return math.nextafter(x, -math.inf) if x > q else x


def _double_at_least(q: Fraction) -> float:
    """The smallest double >= q."""
    x = float(q)
    return math.nextafter(x, math.inf) if x < q else x


def _phi(table: _WeightTable, t):
    if t <= 0:
        return table.zero
    if t >= 1:
        return table.one
    t0, v0, dv, dt = table.pieces[bisect_left(table.ends, t)]
    return v0 + dv * (t - t0) / dt


@dataclass(frozen=True)
class ConcaveWeight:
    """Piecewise-linear phi on [0,1] with phi(0)=0, phi(1)=1, concave and
    nondecreasing.

    phi(t) is computed in the arithmetic family of t, from a table built
    on first use for that family and kept in the instance ``__dict__``
    (equality and hashing stay on ``breakpoints``).  Exact t gets exact
    values.  A float t gets the values of the exact breakpoints mixed
    with a float: t is compared with the breakpoints exactly (through the
    nearest doubles below and above them), each constant of the linear
    formula is the exact difference or breakpoint rounded once, and
    phi(t) is the double 0.0 or 1.0 for t <= 0 or t >= 1; a breakpoint and
    its value are kept as the doubles a Fraction rounds to in a float
    operation.  An mpf t gets the breakpoints rounded to the working
    precision, one table per precision.
    """

    breakpoints: tuple  # ((t, phi(t)), ...)

    def __post_init__(self):
        pts = tuple((Fraction(t), Fraction(v)) for t, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2 or pts[0] != (0, 0) or pts[-1][0] != 1 or pts[-1][1] != 1:
            raise InputError("weight must run from (0,0) to (1,1)")
        ts = [t for t, _ in pts]
        vs = [v for _, v in pts]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InputError("weight abscissae must be strictly increasing")
        if any(b < a for a, b in zip(vs, vs[1:])):
            raise InputError("weight must be nondecreasing")
        slopes = [
            (vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)
        ]
        if any(b > a for a, b in zip(slopes, slopes[1:])):
            raise InputError("weight must be concave (nonincreasing slopes)")

    def __call__(self, t):
        """phi(t), in the arithmetic family of t."""
        return _phi(self._table_for(t), t)

    def _table_for(self, x) -> _WeightTable:
        """The table of the arithmetic family of the scalar x (threads that
        race to build one build equal tables)."""
        if isinstance(x, float):
            key = "float"
        elif is_mpf(x):
            import mpmath
            key = mpmath.mp.prec
        else:
            key = "exact"
        tables = kept(self, "_tables", dict)
        table = tables.get(key)
        if table is None:
            table = tables[key] = self._build_table(x)
        return table

    def _build_table(self, x) -> _WeightTable:
        pts = [(in_family(t, x), in_family(v, x)) for t, v in self.breakpoints]
        pieces = [(t0, v0, v1 - v0, t1 - t0)
                  for (t0, v0), (t1, v1) in zip(pts, pts[1:])]
        if isinstance(x, float):  # Fraction op float is float(a) op float(b)
            return _WeightTable(
                0.0, 1.0,
                [_double_at_most(t) for t, _ in pts[1:]],
                [tuple(map(float, piece)) for piece in pieces],
                [(_double_at_least(t), float(t) == t, float(t), float(v))
                 for t, v in pts[1:]])
        table = _WeightTable(pts[0][1], pts[-1][1], [t for t, _ in pts[1:]],
                             pieces, [])
        for t, _ in pts[1:]:  # rounding to mpf may merge breakpoints
            if not table.points or t != table.points[-1][0]:
                table.points.append((t, True, t, _phi(table, t)))
        return table


@dataclass(frozen=True)
class Lp:
    p: object  # Fraction >= 1 or the float INF

    def __post_init__(self):
        p = INF if self.p == INF else Fraction(self.p)
        object.__setattr__(self, "p", p)
        if p != INF and p < 1:
            raise InputError("Lp needs p >= 1")


@dataclass(frozen=True)
class LorentzLambda:
    phi: ConcaveWeight


@dataclass(frozen=True)
class Generated:
    base: object
    p: object

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if self.p < 1:
            raise InputError("generated norms need p >= 1")


@dataclass(frozen=True)
class Associate:
    base: object


L1 = Lp(1)
L2 = Lp(2)
LINF = Lp(INF)
_ZERO = Fraction(0)  # the sup of no value

def dual_exponent(p):
    if p == INF:
        return Fraction(1)
    p = Fraction(p)
    if p == 1:
        return INF
    return p / (p - 1)


def _simplify(X):
    """Collapse Associate chains, also inside Generated: Associate(Lp) is
    the dual Lp, and Associate(Associate(Lorentz)) is the Lorentz norm
    (X'' = X; Bennett and Sharpley, Interpolation of Operators, 1988,
    ch. 1, Thm 2.7)."""
    if isinstance(X, Associate):
        base = _simplify(X.base)
        if isinstance(base, Lp):
            return Lp(dual_exponent(base.p))
        if isinstance(base, Associate) and isinstance(base.base, LorentzLambda):
            return base.base
        return Associate(base)
    if isinstance(X, Generated):
        return Generated(_simplify(X.base), X.p)
    return X


# ---------------------------------------------------------------------------
# evaluation helpers

def _as_binary(x, precision):
    return x if is_mpf(x) else to_binary(x, precision)


def _powers(xs, p, precision):
    """[x^p for x in xs] for xs >= 0 and a rational p; integer p stays in
    the input arithmetic.  A power beyond the double range is an input
    error (the exponent is too large for float mode), not an
    OverflowError."""
    num, den = p.numerator, p.denominator
    prec = precision or DOUBLE_PRECISION
    try:
        if den == 1:
            return [x ** num for x in xs]
        if precision is None and any(isinstance(x, (int, Fraction)) for x in xs):
            raise ExactUnavailable(f"fractional power {p} has no exact value")
        xbs = [_as_binary(x, prec) for x in xs]
        exponent = num / den
        if not any(map(is_mpf, xbs)):
            return [xb ** exponent for xb in xbs]
        import mpmath
        mpf_exponent = mpmath.mpf(num) / den
        return [xb ** (mpf_exponent if is_mpf(xb) else exponent)
                for xb in xbs]
    except OverflowError:
        raise InputError(
            f"the power x^p with p = {format_exponent(p)} overflows "
            f"{prec}-bit floats") from None


def _root(x, X, precision):
    p = X.p
    if p == 1:
        return x
    if precision is None and isinstance(x, (int, Fraction)):
        raise ExactUnavailable(f"{p}-th root has no exact value")
    if type(x) is not float or precision not in (None, DOUBLE_PRECISION):
        x = _as_binary(x, precision or DOUBLE_PRECISION)
        if is_mpf(x):
            import mpmath
            return x ** (mpmath.mpf(p.denominator) / p.numerator)
    return x ** kept(X, "_root", lambda: 1.0 / float(p))


def _profile_of(f) -> StepProfile:
    if isinstance(f, StepProfile):
        return f
    return decreasing_rearrangement(f)


# ---------------------------------------------------------------------------
# the norm

def norm(X, f, *, precision=None):
    """Evaluate the norm described by X on a SimpleFunction or a
    StepProfile.

    ``precision=None`` demands exact arithmetic and raises
    ExactUnavailable when a fractional root is involved; an integer
    selects the binary significand width for those steps.
    """
    with binary_context(precision or DOUBLE_PRECISION):
        return _norm(kept(X, "_simple", _simplify, X) if isinstance(
            X, (Associate, Generated)) else X, f, precision)


def _norm(X, f, precision):
    if isinstance(X, Lp):
        return _lp_norm(X, f, precision)
    if isinstance(X, LorentzLambda):
        return _lorentz_norm(X.phi, _profile_of(f))
    if isinstance(X, Generated):
        segments = _profile_of(f).segments
        powered = make_profile(zip(
            _powers([v for v, _ in segments], X.p, precision),
            (l for _, l in segments)))
        return _root(_norm(X.base, powered, precision), X, precision)
    if isinstance(X, Associate):
        base = X.base  # already simplified: not an Lp, not Associate(Lorentz)
        if isinstance(base, LorentzLambda):
            return _lorentz_associate_norm(base.phi, _profile_of(f))
        raise InputError(
            f"no associate evaluation for base kind {type(base).__name__}"
        )
    raise InputError(f"unknown norm descriptor {X!r}")


def _lp_norm(X, f, precision):
    """X.p is a Fraction or the float INF (see Lp)."""
    if isinstance(f, StepProfile):
        values, weights = [v for v, _ in f.segments], [l for _, l in f.segments]
    else:
        values, weights = list(map(abs, f.values)), f.space.weights
    if isinstance(X.p, float):
        return max(values, default=_ZERO)
    return _root(dot(_powers(values, X.p, precision), weights), X, precision)


def _lorentz_norm(phi: ConcaveWeight, prof: StepProfile):
    """Stieltjes sum of the profile against d(phi), phi read at each
    boundary."""
    bounds = prof.boundaries
    table = phi._table_for(bounds[-1])
    phis = [_phi(table, b) for b in bounds]
    return dot([v for v, _ in prof.segments], map(sub, phis[1:], phis))


def _lorentz_associate_norm(phi: ConcaveWeight, prof: StepProfile):
    """sup over s in (0,1] of H(s)/phi(s) with H the running integral.

    On each atom interval H is linear and phi concave, so H - c phi is
    convex for every c and the sup is attained at an atom boundary: it is
    the max over sets A of the integral of |h| on A over phi(mu(A)), the
    dual of the Lorentz norm on any finite space (Bach 2010).  One pass
    takes the boundaries up to 1, a second phi's breakpoints that no
    boundary equals: a float boundary next to one reads phi through a
    rounded formula, and the breakpoint's phi(t) can round the sup right.
    """
    bounds, segments = prof.boundaries, prof.segments
    table = phi._table_for(bounds[-1])
    best = prefix = 0
    running = [0]  # H at each boundary <= 1
    for (v, _), a, b in zip(segments, bounds, bounds[1:]):
        if b > 1:
            break
        prefix = prefix + v * (b - a)
        running.append(prefix)
        ratio = prefix / _phi(table, b)
        if ratio > best:
            best = ratio
    for below, on, s, w in table.points:
        j = bisect_left(bounds, below) - 1  # the last boundary before t
        if on and j + 1 < len(bounds) and bounds[j + 1] == below:
            continue  # a boundary stands for t
        h = running[j]
        if j < len(segments):
            h = h + segments[j][0] * (s - bounds[j])
        ratio = h / w
        if ratio > best:
            best = ratio
    return best


# ---------------------------------------------------------------------------
# checks

def hardy_littlewood_check(f: SimpleFunction, g: SimpleFunction):
    """Return (integral of |fg| d(mu), integral of f* g*); the first never
    exceeds the second."""
    weights = common_space(f, g).weights
    lhs = dot([abs(a * b) for a, b in zip(f.values, g.values)], weights)
    rhs = profile_integrate_product(
        [decreasing_rearrangement(f), decreasing_rearrangement(g)]
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# descriptor JSON

def norm_to_json(X) -> dict:
    if isinstance(X, Lp):
        return {"kind": "lp", "p": format_exponent(X.p)}
    if isinstance(X, LorentzLambda):
        return {
            "kind": "lorentz",
            "phi": [[format_scalar(t), format_scalar(v)]
                    for t, v in X.phi.breakpoints],
        }
    if isinstance(X, Generated):
        return {"kind": "generated", "base": norm_to_json(X.base),
                "p": format_scalar(Fraction(X.p))}
    if isinstance(X, Associate):
        return {"kind": "associate", "base": norm_to_json(X.base)}
    raise InputError(f"unknown norm descriptor {X!r}")


def norm_from_json(obj) -> object:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("norm descriptor must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "lp":
            return Lp(parse_exponent(obj["p"]))
        if kind == "lorentz":
            if not isinstance(obj["phi"], list) or \
                    not all(isinstance(point, list) for point in obj["phi"]):
                raise InputError("phi must be a list of [t, phi(t)] pairs")
            return LorentzLambda(ConcaveWeight(
                tuple((parse_scalar(t), parse_scalar(v)) for t, v in obj["phi"])
            ))
        if kind == "generated":
            return Generated(norm_from_json(obj["base"]), parse_scalar(obj["p"]))
        if kind == "associate":
            return Associate(norm_from_json(obj["base"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad norm descriptor: {exc}") from exc
    raise InputError(f"unknown norm kind {kind!r}")
