"""Exception hierarchy for the verification engine."""


class CasoratiqError(Exception):
    """Base class for all engine errors."""


class DomainError(CasoratiqError):
    """A point is not strictly inside a chart domain, or an expression is undefined there."""


class DegenerateMetricError(CasoratiqError):
    """Metric failed symmetry, or its Cholesky factor (positive definiteness) failed, at a point."""


class FrameError(CasoratiqError):
    """A frame violates orthonormality or mutual orthogonality."""


class DimensionError(CasoratiqError):
    """An operation was requested on a distribution that is too small."""


class StructureError(CasoratiqError):
    """A quaternionic structure violates its algebraic identities."""


class RankError(CasoratiqError):
    """Differential rank does not match the declared rank of the map."""


class NotRiemannianMapError(CasoratiqError):
    """Differential is not isometric on the horizontal distribution."""


class OptimizationError(CasoratiqError):
    """Sphere optimizer failed to converge; carries the best value found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class OracleError(CasoratiqError):
    """Chart curvature does not match the declared space-form oracle."""


class ConfigurationError(CasoratiqError):
    """A required scene parameter (for example deltaN) is missing."""


class SceneValidationError(CasoratiqError):
    """Scenario file failed parsing or validation."""
