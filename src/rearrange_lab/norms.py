"""Rearrangement-invariant norms and their associate (Koethe dual) norms.

Four descriptor kinds are provided: ``Lp`` (including the sup norm at
p = inf), ``LorentzLambda`` with a concave piecewise-linear weight,
``Generated`` (the norm f -> ||f|^p|_X^(1/p)), and ``Associate``.  Every
kind evaluates both on simple functions and on step profiles; the value
depends only on the decreasing rearrangement.

Lorentz and associate kinds insist on equal atom weights.  Associate
norms of Lp and Lorentz kinds use closed forms.  The second associate of
a Lorentz norm is the Lorentz norm itself (the Lorentz-Luxemburg theorem
X'' = X), so it is evaluated exactly like one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import ExactUnavailable, InputError, NonEqualAtomSpace
from .rearrange import StepProfile, decreasing_rearrangement, make_profile, \
    profile_integrate_product
from .scalars import DOUBLE_PRECISION, INF, binary_context, format_exponent, \
    format_scalar, in_family, parse_exponent, parse_scalar, to_binary
from .spaces import SimpleFunction


# ---------------------------------------------------------------------------
# descriptors

@dataclass(frozen=True)
class ConcaveWeight:
    """Piecewise-linear phi on [0,1] with phi(0)=0, phi(1)=1, concave and
    nondecreasing."""

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
        pts = [(in_family(a, t), in_family(v, t)) for a, v in self.breakpoints]
        if t <= 0:
            return pts[0][1]
        if t >= 1:
            return pts[-1][1]
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t <= t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return pts[-1][1]


@dataclass(frozen=True)
class Lp:
    p: object  # Fraction >= 1 or INF

    def __post_init__(self):
        p = self.p if self.p == INF else Fraction(self.p)
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


def requires_equal_atoms(X) -> bool:
    if isinstance(X, Lp):
        return False
    if isinstance(X, Generated):
        return requires_equal_atoms(X.base)
    return True  # Lorentz and associate kinds


def exactly_evaluable(X) -> bool:
    """Whether the norm can be computed without an inexact root."""
    X = _simplify(X)
    if isinstance(X, Lp):
        return X.p == INF or X.p == 1
    if isinstance(X, LorentzLambda):
        return True
    if isinstance(X, Generated):
        return X.p == 1 and exactly_evaluable(X.base)
    if isinstance(X, Associate):
        return isinstance(X.base, LorentzLambda)
    return False


# ---------------------------------------------------------------------------
# evaluation helpers

def _as_binary(x, precision):
    if isinstance(x, mpmath.mpf):
        return x
    if precision == DOUBLE_PRECISION:
        return float(x)
    return to_binary(Fraction(x), precision)  # floats convert exactly


def _power(x, p, precision):
    """x^p for x >= 0; integer p stays in the input arithmetic.  A power
    beyond the double range is an input error (the exponent is too large
    for float mode), not an OverflowError."""
    p = Fraction(p)
    prec = precision or DOUBLE_PRECISION
    try:
        if p.denominator == 1:
            return x ** p.numerator
        if precision is None and isinstance(x, (int, Fraction)):
            raise ExactUnavailable(f"fractional power {p} has no exact value")
        xb = _as_binary(x, prec)
        if isinstance(xb, mpmath.mpf):
            return xb ** (mpmath.mpf(p.numerator) / p.denominator)
        return xb ** (p.numerator / p.denominator)
    except OverflowError:
        raise InputError(
            f"the power x^p with p = {format_exponent(p)} overflows "
            f"{prec}-bit floats") from None


def _root(x, p, precision):
    if p == 1:
        return x
    if precision is None and isinstance(x, (int, Fraction)):
        raise ExactUnavailable(f"{p}-th root has no exact value")
    prec = precision or DOUBLE_PRECISION
    xb = _as_binary(x, prec)
    if isinstance(xb, mpmath.mpf):
        pf = Fraction(p)
        return xb ** (mpmath.mpf(pf.denominator) / pf.numerator)
    return xb ** (1.0 / float(p))


def _profile_of(f) -> StepProfile:
    if isinstance(f, StepProfile):
        return f
    return decreasing_rearrangement(f)


def _check_space(X, f):
    if isinstance(f, SimpleFunction) and requires_equal_atoms(X) \
            and not f.space.equal_atoms:
        raise NonEqualAtomSpace(
            f"{type(X).__name__} norms need equal atom weights"
        )


# ---------------------------------------------------------------------------
# the norm

def norm(X, f, *, precision=None):
    """Evaluate the norm described by X on a SimpleFunction or StepProfile.

    ``precision=None`` demands exact arithmetic and raises
    ExactUnavailable when a fractional root is involved; an integer
    selects the binary significand width for those steps.
    """
    X = _simplify(X)
    _check_space(X, f)  # Associate(Lp(p)) is an Lp norm, fine on any space
    with binary_context(precision or DOUBLE_PRECISION):
        return _norm(X, f, precision)


def _norm(X, f, precision):
    if isinstance(X, Lp):
        return _lp_norm(X.p, f, precision)
    if isinstance(X, LorentzLambda):
        return _lorentz_norm(X.phi, _profile_of(f))
    if isinstance(X, Generated):
        prof = _profile_of(f)
        powered = make_profile(
            (_power(v, X.p, precision), l) for v, l in prof.segments
        )
        return _root(_norm(X.base, powered, precision), X.p, precision)
    if isinstance(X, Associate):
        base = X.base  # already simplified: not an Lp, not Associate(Lorentz)
        if isinstance(base, LorentzLambda):
            return _lorentz_associate_norm(base.phi, _profile_of(f))
        raise InputError(
            f"no associate evaluation for base kind {type(base).__name__}"
        )
    raise InputError(f"unknown norm descriptor {X!r}")


def _lp_norm(p, f, precision):
    if isinstance(f, SimpleFunction):
        pairs = list(zip((abs(v) for v in f.values), f.space.weights))
    else:
        pairs = list(f.segments)
    if p == INF:
        return max((v for v, _ in pairs), default=Fraction(0))
    p = Fraction(p)
    total = sum((_power(v, p, precision) * w for v, w in pairs), start=Fraction(0))
    return _root(total, p, precision)


def _lorentz_norm(phi: ConcaveWeight, prof: StepProfile):
    """Stieltjes sum of the profile against d(phi)."""
    total = Fraction(0)
    one = in_family(Fraction(1), prof.total_length)
    cuts = prof.boundaries()
    for (v, _), a, b in zip(prof.segments, cuts, cuts[1:]):
        total = total + v * (phi(min(b, one)) - phi(min(a, one)))
    return total


def _unit_grid(phi: ConcaveWeight, prof: StepProfile) -> list:
    """The profile's boundaries clipped to [0, 1] merged with phi's
    breakpoints (which include 0 and 1), ascending and in the arithmetic
    family of the profile."""
    one = in_family(Fraction(1), prof.total_length)
    return sorted(
        {min(b, one) for b in prof.boundaries()}
        | {in_family(t, one) for t, _ in phi.breakpoints}
    )


def _partial_integrals(prof: StepProfile, cuts):
    """H(s) = integral of the profile over [0, s] for each of the
    ascending cuts s, from one walk over the segments."""
    bounds = prof.boundaries()
    out, prefix, seg = [], Fraction(0), 0  # prefix: segments ending by s
    for s in cuts:
        while seg < len(prof.segments) and bounds[seg + 1] <= s:
            prefix = prefix + prof.segments[seg][0] * (bounds[seg + 1] - bounds[seg])
            seg += 1
        if seg < len(prof.segments) and bounds[seg] < s:
            out.append(prefix + prof.segments[seg][0] * (s - bounds[seg]))
        else:
            out.append(prefix)
    return out


def _lorentz_associate_norm(phi: ConcaveWeight, prof: StepProfile):
    """sup over s in (0,1] of H(s)/phi(s) with H the running integral.

    Both H and phi are piecewise linear, so the sup is attained at a
    breakpoint of either; on an equal-atom space this reduces to the
    partial-sum formula max_k (sum of the k largest |h| values / n) /
    phi(k/n).
    """
    cuts = _unit_grid(phi, prof)[1:]  # drop s = 0
    best = 0
    for s, h in zip(cuts, _partial_integrals(prof, cuts)):
        ratio = h / phi(s)
        if ratio > best:
            best = ratio
    return best


# ---------------------------------------------------------------------------
# checks

def associate_norm(X, h, *, precision=None):
    """||h|| in the associate space of X (closed forms for Lp and Lorentz)."""
    return norm(Associate(X), h, precision=precision)


def hardy_littlewood_check(f: SimpleFunction, g: SimpleFunction):
    """Return (integral of |fg| d(mu), integral of f* g*); the first never
    exceeds the second."""
    if f.space.weights != g.space.weights:
        raise InputError("functions live on different spaces")
    lhs = sum(abs(a * b) * w for a, b, w in zip(f.values, g.values, f.space.weights))
    rhs = profile_integrate_product(
        [decreasing_rearrangement(f), decreasing_rearrangement(g)]
    )
    return lhs, rhs


def holder_check(X, f: SimpleFunction, g: SimpleFunction, *, precision=None):
    """The three-term chain: integral of |fg|, the sorted pairing, and
    ||f||_X ||g||_X'; each term bounds the one before it."""
    lhs, mid = hardy_littlewood_check(f, g)
    right = norm(X, f, precision=precision) * norm(
        Associate(X), g, precision=precision
    )
    return lhs, mid, right


def lorentz_associate_exact_lp(phi: ConcaveWeight, h: SimpleFunction):
    """Exact pairing maximum over the Lorentz unit ball.

    Reparameterizing a nonincreasing candidate by its decrements turns
    the ball constraint into a single weighted-sum cap, so the optimum
    sits on a flat block 1_{1..k} scaled to unit norm; the exact maximum
    over those finitely many blocks is returned (all rational).
    """
    if not h.space.equal_atoms:
        raise NonEqualAtomSpace("exact LP oracle assumes equal atoms")
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
