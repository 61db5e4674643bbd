"""Exception hierarchy shared by all modules.

Parameter/domain/resource problems map to CLI exit code 2, numerical
failures and inconclusive results to exit code 3.
"""

import cmath
import operator


class ZMeasuresError(Exception):
    """Base class for all library errors."""


class ParameterError(ZMeasuresError):
    """A parameter is outside its admissible range (z = 0, theta <= 0, ...)."""


class DomainError(ZMeasuresError):
    """An argument is outside the mathematical domain of the operation."""


class ResourceCapError(ZMeasuresError):
    """A size cap protecting against combinatorial blowup was exceeded."""


class PoleError(ParameterError):
    """Evaluation requested exactly at a pole of the gamma function."""


class UnvalidatedDomainError(ParameterError):
    """Arguments fall outside the validated accuracy domain; refusing to
    return a silently inaccurate value."""


class NumericalError(ZMeasuresError):
    """Quadrature non-convergence or an internal accuracy check failed."""


def validate_z(z) -> complex:
    """The parameter z as a complex number, refused unless finite and nonzero."""
    zc = complex(z)
    if not cmath.isfinite(zc):
        raise ParameterError(f"z must be finite, got {z}")
    if zc == 0:
        raise ParameterError("z must be nonzero")
    return zc


def validate_n_max(n_max, cap: int) -> int:
    """The truncation size n_max as an int in [0, cap]: ParameterError
    unless it is an integer (numpy integers included), ResourceCapError
    beyond the cap.  A float such as NaN would pass both comparisons and
    leave the negative-binomial tail summing forever."""
    try:
        n = operator.index(n_max)
    except TypeError:
        raise ParameterError(f"n_max must be an integer, got {n_max!r}") from None
    if not 0 <= n <= cap:
        raise ResourceCapError(f"n_max must lie in [0, {cap}], got {n}")
    return n
