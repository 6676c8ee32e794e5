"""Exception hierarchy shared by all solver modules."""


class StiffBvpError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(StiffBvpError):
    """Invalid configuration value (bad mesh size, nonpositive parameter, ...)."""


class EvaluationError(StiffBvpError):
    """A right-hand side produced a non-finite value, or a transformed
    right-hand side or state map hit a zero denominator.

    ``component`` is the 1-based index of the offending component when known.
    """

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class MeshError(StiffBvpError):
    """Mesh degenerated below the minimum usable size."""


class RefinementError(StiffBvpError):
    """Refinement would exceed the knot cap ``mesh.MAX_KNOTS``."""


class SingularStepError(StiffBvpError):
    """Two adjacent knots coincide in an interval's natural variable."""


class SingularLinearSystem(StiffBvpError):
    """Newton linear system is singular.  ``pivot`` is the index of the
    interval that ends at the knot whose unknowns lost rank (interval 0
    for knot 0), whether cyclic reduction or its dense tail found it; it
    is None when the solve overflowed without an exactly zero pivot."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class NonConvergence(StiffBvpError):
    """Newton iteration exhausted its budget or the damping floor."""


class NonStationaryBoundary(StiffBvpError):
    """A boundary interval carries a swap whose component is not pinned by a
    Dirichlet boundary condition; the resulting problem has an unknown
    boundary point and is rejected."""


class StrategyError(StiffBvpError):
    """A transformation strategy was applied to an incompatible system."""


class ColdStartFailure(StiffBvpError):
    """The very first continuation solve failed."""
