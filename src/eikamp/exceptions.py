"""Exception types shared across the package."""


class EikampError(Exception):
    """Base class for all package-specific errors."""


class BoundaryCaseError(EikampError):
    """Raised when parameters sit on a branch boundary where the closed form
    is divergent or not defined (triangle degeneracy, unit elliptic modulus).
    """


class NonConvergenceError(EikampError):
    """Raised when adaptive quadrature exhausts its subdivision budget
    without meeting the requested tolerance."""


class ExtrapolationDivergenceError(EikampError):
    """Raised when the damped-oscillatory extrapolation diverges instead of
    settling, the signature of an integral that is genuinely divergent
    (degenerate triangle configurations)."""


class ChiGateError(EikampError):
    """Raised when the eikonal phase leaves the moderately-small regime the
    truncated expansion is valid in."""


class ModelFileError(EikampError):
    """Raised for malformed or inconsistent Born-model description files."""
