"""Exception types raised across the package."""


class FreeBetaError(Exception):
    """Base class for all package-specific errors."""


# --- series ---

class DivisionByZeroSeries(FreeBetaError, ZeroDivisionError):
    """Series division by a series with zero constant term."""


class NonzeroConstantInner(FreeBetaError, ValueError):
    """Composition with an inner series whose constant term is nonzero."""


class NotInvertibleSeries(FreeBetaError, ValueError):
    """Reversion of a series with f(0) != 0 or f'(0) == 0."""


class InsufficientDepth(FreeBetaError, ValueError):
    """Continued-fraction depth too small for the requested order."""


# --- transforms ---

class InsufficientOrder(FreeBetaError, ValueError):
    """Operation needs a higher truncation order than provided."""


class ZeroMeanError(FreeBetaError, ValueError):
    """S/T-transform routes require a nonzero first moment."""


class ZeroConstantS(FreeBetaError, ValueError):
    """Reciprocal of an S-transform with vanishing constant term."""


class OrderMismatch(FreeBetaError, ValueError):
    """Binary operation on sequences of unequal truncation order."""


# --- distributions ---

class OnSupportError(FreeBetaError, ValueError):
    """Cauchy-transform evaluation on the support or at an atom/pole."""


class UnsupportedFamily(FreeBetaError, TypeError):
    """Operation not defined for this distribution family."""


class InvalidParameters(FreeBetaError, ValueError):
    """Family parameters outside their admissible range."""


class InvalidTau(FreeBetaError, ValueError):
    """Free Meixner shape parameter tau below -1."""


# --- ncl ---

class MalformedInput(FreeBetaError, ValueError):
    """Partition data with out-of-range or empty blocks."""


class InvalidPartition(FreeBetaError, ValueError):
    """Input is not a non-crossing linked partition."""


class SizeLimitExceeded(FreeBetaError, ValueError):
    """Exhaustive enumeration requested beyond the resource guard."""


# --- fock ---

class TruncationTooSmall(FreeBetaError, ValueError):
    """Requested moment order exceeds the truncation dimension."""


# --- analysis ---

class OutsideSupport(FreeBetaError, ValueError):
    """Evaluation point not strictly inside the continuous support."""


class OutsideDomain(FreeBetaError, ValueError):
    """Evaluation point outside the classical potential's domain."""


class QuadratureFailure(FreeBetaError, RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""
