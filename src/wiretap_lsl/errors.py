"""Exception types shared across the package."""


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
    """Water-filling called with no strictly positive channel gain."""


class BisectionFailure(WiretapError):
    """No multiplier in the search bracket meets the power budget."""


class ParseError(WiretapError):
    """Experiment configuration file could not be parsed."""


class ValidationError(WiretapError):
    """Experiment configuration violates a constraint."""


class UnknownPreset(WiretapError):
    """Requested figure preset does not exist."""


class OuterLoopNoConvergence(UserWarning):
    """Precoder design and statistics alternation hit its outer iteration cap."""
