"""Exception types shared across the package."""


class DbisolError(Exception):
    """Base class for workbench errors."""


class NoSolitonError(DbisolError):
    """Raised when the potential term is absent (mu = 0).

    The first-order law then degenerates to a vanishing slope, and no
    continuous profile can connect the anti-vacuum boundary value to the
    vacuum.
    """


class SectorMismatchError(DbisolError):
    """Profile, model and potential belong to different sectors."""


class OptimizerError(DbisolError):
    """Closed-form bound weights failed their root bracket or moment check."""
