"""Exception types shared across the package."""

import numpy as np


class WiretapError(Exception):
    """Base class for all package-specific errors."""


class NotPsd(WiretapError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class RankDeficient(WiretapError):
    """Stacked matrix for the GSVD is numerically rank deficient."""


class QuadratureFailure(WiretapError):
    """Estimated quadrature error of the correlation integral too large."""


class NoConvergence(WiretapError):
    """Fixed-point iteration exceeded its iteration cap."""


class AllZeroGains(WiretapError):
    """Water-filling called with no channel gain whose reciprocal is finite."""


class OverBudget(WiretapError):
    """Designed covariance whose trace exceeds the power budget M."""


class BisectionFailure(WiretapError):
    """No mu meets the power budget before the GSVD bisection's midpoint reaches a bracket end."""


class NonFiniteSample(WiretapError):
    """Monte Carlo realizations of a rate whose sums are not finite, so that it has no estimate."""


class ParseError(WiretapError):
    """Experiment configuration file could not be parsed."""


class ValidationError(WiretapError):
    """Experiment configuration violates a constraint."""


class UnknownPreset(WiretapError):
    """Requested figure preset does not exist."""


class OuterLoopNoConvergence(UserWarning):
    """Precoder design and statistics alternation hit its outer iteration cap."""


# The numerical failures of one input: a package error, or LAPACK failing
# on it. Batched solvers report them per element and a sweep as error
# rows; any other exception is a fault in the program and propagates.
NUMERICAL_FAILURES = (WiretapError, np.linalg.LinAlgError)


def as_value(exc: Exception) -> Exception:
    """exc, caught to be kept as a result, without its traceback. Each
    frame of the traceback holds its caller's, up to the frame that
    caught exc, whose locals hold the results that exc goes into; that
    cycle would keep those frames and results alive until the cyclic
    garbage collector runs."""
    return exc.with_traceback(None)
