"""Shared hypothesis strategies: small spaces and lattice-valued functions,
and off-lattice exact inputs for differential tests; a guard that no test
leaves mpmath's working precision changed; a built-in `sum` that adds
floats as Python 3.12 and later do; the modules a run at 53 bits
leaves unloaded; and the environment of a child interpreter."""

import builtins
import importlib.util
import math
import os
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import mpmath
import pytest

from rearrange_lab.spaces import DiscreteSpace, SimpleFunction, equal_space


#: modules a run in exact or double arithmetic does not load: mpmath
#: serves other precisions, and on a CPython built with its own SHA-256
#: (`_sha256` or `_sha2`) verify hashes without hashlib and OpenSSL
LAZY_MODULES = ("mpmath", "hashlib", "_hashlib") if any(
    importlib.util.find_spec(m) for m in ("_sha256", "_sha2")) else ("mpmath",)


def child_env(**env) -> dict:
    """The environment of a child interpreter that imports this checkout's
    src first, then the inherited PYTHONPATH, whose entries may be where
    that interpreter finds its packages."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **env)


@pytest.fixture(autouse=True)
def mpmath_precision_is_restored():
    """mpmath's working precision is one process-wide setting: every test
    must leave it as it found it (it is reset, so one leak fails one test)."""
    before = mpmath.mp.prec
    yield
    after, mpmath.mp.prec = mpmath.mp.prec, before
    assert after == before, f"mpmath.mp.prec changed from {before} to {after}"


@pytest.fixture
def compensated_sum(monkeypatch):
    """Replace the built-in `sum` by a compensated one, as Python 3.12 and
    later add floats (here correctly rounded, by math.fsum) when every
    item is a float, and the original `sum` otherwise.  A result that
    changes under it depends on the Python version."""
    original = builtins.sum

    def fsum(iterable, /, start=0):
        items = list(iterable)
        if items and all(isinstance(x, float) for x in items):
            return math.fsum([start, *items])
        return original(items, start)

    monkeypatch.setattr(builtins, "sum", fsum)


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
