"""Exception hierarchy for the stratmc package.

Every error raised by the library derives from StratMcError so callers can
catch numerical failures in one place (the CLI maps them to exit code 3).
"""


class StratMcError(Exception):
    """Base class for all stratmc errors."""


# --- linear algebra ---------------------------------------------------------

class NotPositiveDefinite(StratMcError):
    """Cholesky pivot fell below tolerance; matrix is not positive definite."""


class NonIncreasingGrid(StratMcError):
    """Time grid is not strictly increasing and positive."""


class RankDeficient(StratMcError):
    """Gram-Schmidt found a (numerically) dependent vector."""


class NoConvergence(StratMcError):
    """Eigensolver failed to converge."""


class ZeroVector(StratMcError):
    """An angle was requested for a zero-length vector."""


# --- sampling ---------------------------------------------------------------

class OutOfDomain(StratMcError):
    """Probability argument outside (0, 1)."""


class IndexOutOfRange(StratMcError):
    """Stratum index outside 1..K."""


class NotOrthogonal(StratMcError):
    """A direction set or rotation matrix failed its orthogonality check."""


class AllZeroSigma(StratMcError):
    """Optimal allocation is undefined when every stratum std estimate is 0."""


# --- direction engines ------------------------------------------------------

class DegenerateGradient(StratMcError):
    """Payoff gradient at the expansion point is numerically zero."""


class DependentDirections(StratMcError):
    """Iterated gradient directions are linearly dependent."""


class DegenerateColumn(StratMcError):
    """An LT column vanished after projecting out previous columns."""


class InvalidFeller(StratMcError):
    """CIR parameters violate 2*alpha*mu > sigma^2."""


class NegativePathValue(StratMcError):
    """A coefficient evaluation needed the square root of a negative value."""


class DegenerateCovariance(StratMcError):
    """Pilot covariance matrix carries no usable variance."""


# --- experiment front end ---------------------------------------------------

class ConfigInvalid(StratMcError):
    """Experiment configuration failed validation (CLI exit code 2)."""
