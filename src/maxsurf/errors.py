"""Exception types shared across the package."""


class MaxsurfError(Exception):
    """Base class for all maxsurf errors."""


class FloatRangeError(MaxsurfError, ValueError):
    """A coefficient, position or projected area overflowed, or a mesh radius is out of float range."""


class DomainError(MaxsurfError):
    """Evaluation requested outside a certified validity disk."""


class PoleError(MaxsurfError):
    """Denominator vanished (to working precision) at an evaluation point."""


class PoleInDomain(MaxsurfError):
    """A denominator zero lies inside the certified disk."""


class DegreeError(MaxsurfError):
    """A numerator or denominator degree exceeds the supported cap."""


class ToleranceError(MaxsurfError):
    """A closed-form primitive failed its certificate against its density."""


class AmbientMismatch(MaxsurfError):
    """Operands tagged with incompatible or unsupported ambient spaces."""


class EquatorError(MaxsurfError):
    """Stereographic preimage undefined on |z| = 1."""


class CommonZeroError(MaxsurfError):
    """dh has a zero in the domain disk, where all components of the isotropic triple vanish."""


class IsotropyError(MaxsurfError):
    """Sampled isotropy residual exceeded tolerance."""


class NotSpacelike(MaxsurfError):
    """A gradient or edge vector violates the spacelike bound |Df| < 1."""


class CurlError(MaxsurfError):
    """Discrete curl certificate failed; the field is not closed."""


class NotSimplyConnected(MaxsurfError):
    """Grid mask is disconnected or contains holes."""


class DegenerateMask(MaxsurfError):
    """Mask too thin to support the required difference stencils."""


class DegenerateTriangle(MaxsurfError):
    """Projected triangle area below the degeneracy threshold."""


class NewtonDivergence(MaxsurfError):
    """Newton continuation failed to converge; path exits the domain."""


class NotAGraph(MaxsurfError):
    """Projection of a sampled surface is not certifiably injective."""


class OverlapEmpty(MaxsurfError):
    """Comparison region between two fields is empty."""
