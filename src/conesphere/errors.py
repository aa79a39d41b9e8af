"""Exception types shared across the package."""


class ConesphereError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ConesphereError):
    """An input value lies outside the mathematical domain of an operation."""


class ScopeError(ConesphereError):
    """The request is well-formed but outside the supported regime."""


class ShapeError(ConesphereError):
    """Mismatched sizes, meshes, or field/divisor pairings."""


class MeshError(ConesphereError):
    """Mesh construction failed (bad parameters or degenerate geometry)."""


class BackgroundError(ConesphereError):
    """Conical background construction could not keep its curvature positive."""


class NormalizationError(ConesphereError):
    """A conformal factor is not pinned to zero at the cone vertices."""


class ConfigError(ConesphereError):
    """A job configuration file is missing, malformed, or inconsistent."""


class NonPositiveTarget(ConesphereError):
    """A target curvature has non-positive values at mesh nodes."""


class SingularLinearization(ConesphereError):
    """The inner linear solve failed; the linearization is (numerically) singular."""


class NewtonDivergence(ConesphereError):
    """Damped Newton iteration failed to reduce the residual."""


class ContinuationStall(ConesphereError):
    """Continuation step size underflowed before reaching the target."""


class SpectralError(ConesphereError):
    """Eigenvalue or singular-value iteration failed to converge."""


class ClosureViolation(ConesphereError):
    """An enumerated symmetry set fails the group axioms at the working tolerance."""
