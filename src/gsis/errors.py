"""Exception types raised by the numerical routines in this package."""

__all__ = [
    "GsisError",
    "DegenerateGraphError",
    "DiagonalizationError",
    "DistinctnessError",
    "NonInjectiveSamplingError",
    "DegenerateInnerProductError",
    "KernelParameterError",
]


class GsisError(Exception):
    """Base class for errors raised by this package."""


class DegenerateGraphError(GsisError):
    """A graph operation needs positive vertex degrees but found an isolated vertex."""


class DiagonalizationError(GsisError):
    """No common eigenbasis was found within the retry budget and tolerance."""


class DistinctnessError(GsisError):
    """Scalarized eigenvalues could not be made pairwise distinct where required."""


class NonInjectiveSamplingError(GsisError):
    """The sampling scheme does not determine signals in the target space."""


class DegenerateInnerProductError(GsisError):
    """The sampling-weighted form vanished on a candidate far from zero."""


class KernelParameterError(GsisError, TypeError):
    """A kernel family was given a parameter it does not take, or lacks one it needs."""
