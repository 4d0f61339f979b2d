"""Shared hypothesis strategies: small spaces and lattice-valued functions,
and off-lattice exact inputs for differential tests; and a guard that no
test leaves mpmath's working precision changed."""

from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest

from rearrange_lab.spaces import DiscreteSpace, SimpleFunction, equal_space


@pytest.fixture(autouse=True)
def mpmath_precision_is_restored():
    """mpmath's working precision is one process-wide setting: every test
    must leave it as it found it (it is reset, so one leak fails one test)."""
    before = mpmath.mp.prec
    yield
    after, mpmath.mp.prec = mpmath.mp.prec, before
    assert after == before, f"mpmath.mp.prec changed from {before} to {after}"


@st.composite
def spaces(draw, min_atoms=1, max_atoms=6, equal_only=False):
    n = draw(st.integers(min_atoms, max_atoms))
    if equal_only or draw(st.booleans()):
        return equal_space(n)
    return draw(random_rational_spaces(n, n))


@st.composite
def random_rational_spaces(draw, min_atoms=1, max_atoms=6):
    """Weights k_i / sum(k) for k_i in 1..64, as verify's random-rational
    scheme draws them."""
    n = draw(st.integers(min_atoms, max_atoms))
    numerators = draw(
        st.lists(st.integers(1, 64), min_size=n, max_size=n)
    )
    total = sum(numerators)
    return DiscreteSpace(tuple(Fraction(k, total) for k in numerators))


def lattice_values(n, lo=-8, hi=8, den=4):
    return st.lists(
        st.integers(lo, hi), min_size=n, max_size=n
    ).map(lambda ks: tuple(Fraction(k, den) for k in ks))


@st.composite
def functions(draw, space=None, **space_kwargs):
    sp = space if space is not None else draw(spaces(**space_kwargs))
    values = draw(lattice_values(sp.n))
    return SimpleFunction(values, sp)


@st.composite
def function_pairs(draw, **space_kwargs):
    sp = draw(spaces(**space_kwargs))
    f = SimpleFunction(draw(lattice_values(sp.n)), sp)
    g = SimpleFunction(draw(lattice_values(sp.n)), sp)
    return f, g


@st.composite
def function_triples(draw, **space_kwargs):
    sp = draw(spaces(**space_kwargs))
    f = SimpleFunction(draw(lattice_values(sp.n)), sp)
    g = SimpleFunction(draw(lattice_values(sp.n)), sp)
    h = SimpleFunction(draw(lattice_values(sp.n)), sp)
    return f, g, h


# ---------------------------------------------------------------------------
# off-lattice exact inputs and their binary roundings, for the differential
# tests of the integer-numerator kernels

#: pairwise-coprime denominators, so common denominators grow as products
COPRIME_DENOMINATORS = (1, 7, 11, 13, 17 * 19)


def off_lattice_scalars(lo=-(10**30), hi=10**30):
    return st.builds(
        Fraction, st.integers(lo, hi), st.sampled_from(COPRIME_DENOMINATORS)
    )


@st.composite
def off_lattice_spaces(draw, min_atoms=1, max_atoms=7):
    n = draw(st.integers(min_atoms, max_atoms))
    raw = draw(st.lists(off_lattice_scalars(1, 10**6), min_size=n, max_size=n))
    total = sum(raw)
    return DiscreteSpace(tuple(r / total for r in raw))


@st.composite
def off_lattice_functions(draw, space):
    """Values over coprime denominators with large numerators; about a
    third are 0 or repeat an earlier value, so merges and empty supports
    happen."""
    values = []
    for _ in range(space.n):
        choice = draw(st.integers(0, 5))
        if choice == 0:
            values.append(Fraction(0))
        elif choice == 1 and values:
            values.append(-draw(st.sampled_from(values)))
        else:
            values.append(draw(off_lattice_scalars()))
    return SimpleFunction(tuple(values), space)


def same_bits(a, b) -> bool:
    """a and b are the same binary scalar, type and every bit alike."""
    if type(a) is not type(b):
        return False
    if isinstance(a, mpmath.mpf):
        return a._mpf_ == b._mpf_
    return repr(a) == repr(b)
