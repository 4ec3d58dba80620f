"""Errors shared across the solver, cost-model, and experiment layers."""


class ClosepairError(ValueError):
    """Base of the package's own argument and precondition errors."""


class InsufficientPoints(ClosepairError):
    """A solver was given fewer than two points."""


class InvalidPartition(ClosepairError):
    """A partition parameter or range lies outside its allowed bounds."""


class EmptySweep(ClosepairError):
    """An argmin was requested over an empty list of sweep records."""


class DistanceOverflow(ClosepairError):
    """The closest squared distance overflowed to infinity, so every pair ties."""
