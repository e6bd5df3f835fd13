"""eikamp: oscillation-free evaluation of moderately small eikonal
scattering amplitudes.

The rapidly oscillating impact-parameter integrals of the eikonal expansion
are replaced by closed forms for integrals of products of Bessel functions
(complete elliptic integrals and algebraic branch tables), leaving only
smooth low-dimensional quadratures over Born amplitudes.
"""

from .exceptions import (
    BoundaryCaseError,
    ChiGateError,
    EikampError,
    ExtrapolationDivergenceError,
    ModelFileError,
    NonConvergenceError,
)
from .special import bessel_i0e, bessel_j0, elliptic_k

__version__ = "0.1.0"

from .quadrature import (  # noqa: E402
    IntegralResult,
    QuadratureConfig,
)
from .besselprod import (  # noqa: E402
    Branch,
    BranchReport,
    delta3_sq,
    delta4_sq,
    f3_eval,
    f4_classify,
    f4_eval,
    f5_eval,
    f6_eval,
    weber_integral,
)
from .models import (  # noqa: E402
    BornKind,
    BornModel,
    ExponentialPoleBorn,
    GaussianBorn,
    Kinematics,
    TabulatedBorn,
    load_model,
)
from .eikonal import (  # noqa: E402
    AmplitudeTerms,
    EikonalProfile,
    assemble_amplitude,
    build_profile,
    compute_terms,
    diff_cross_section,
    eikonal_chi,
)
from .oracle import (  # noqa: E402
    DEFAULT_P_SEQUENCE,
    OracleConfig,
    direct_eikonal_amplitude,
    gaussian_series_amplitude,
    integrate_damped_bessel_product,
    reference_besselproduct,
)

__all__ = [
    "__version__",
    "EikampError",
    "BoundaryCaseError",
    "NonConvergenceError",
    "ExtrapolationDivergenceError",
    "ChiGateError",
    "ModelFileError",
    "bessel_j0",
    "bessel_i0e",
    "elliptic_k",
    "QuadratureConfig",
    "IntegralResult",
    "DEFAULT_P_SEQUENCE",
    "integrate_damped_bessel_product",
    "Branch",
    "BranchReport",
    "delta3_sq",
    "delta4_sq",
    "f3_eval",
    "f4_classify",
    "f4_eval",
    "f5_eval",
    "f6_eval",
    "weber_integral",
    "BornKind",
    "BornModel",
    "GaussianBorn",
    "ExponentialPoleBorn",
    "TabulatedBorn",
    "Kinematics",
    "load_model",
    "EikonalProfile",
    "AmplitudeTerms",
    "eikonal_chi",
    "build_profile",
    "compute_terms",
    "assemble_amplitude",
    "diff_cross_section",
    "OracleConfig",
    "direct_eikonal_amplitude",
    "gaussian_series_amplitude",
    "reference_besselproduct",
]
