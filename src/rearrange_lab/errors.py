"""Exception types shared across the package.  Each class carries the
CLI exit code of its errors as ``exit_code``."""


class RearrangeLabError(Exception):
    """Base class for all package-specific errors; ``exit_code`` 2."""
    exit_code = 2


class InputError(RearrangeLabError):
    """Malformed input data or invalid configuration (``exit_code`` 2)."""


class PreconditionViolated(RearrangeLabError):
    """An operation was called with data violating its stated hypothesis.

    The message names the failed hypothesis (``exit_code`` 3).
    """
    exit_code = 3


class NotZeroMean(PreconditionViolated):
    """Zero-mean input required but the integral is nonzero."""


class EmptyInput(PreconditionViolated):
    """The operation is undefined on the identically-zero function."""


class ExactUnavailable(RearrangeLabError):
    """Exact arithmetic was requested for a quantity that involves an
    inexact root; use a binary-float precision instead (``exit_code`` 2)."""


class InfeasibleProblem(RearrangeLabError):
    """The search constraint set is empty (``exit_code`` 3)."""
    exit_code = 3
