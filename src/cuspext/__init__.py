"""Cusp-profile normalization, field extension, and Sobolev-norm quadrature."""

from .admissibility import (
    AdmissibilityVerdict,
    admissible_pq,
    check_doubling,
    check_inc1,
    check_inc2,
    power_cusp_admissible,
    sweep_power_cusp,
    thresholds,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    CuspExtError,
    NotNormalizedError,
    ProfileDomainError,
    ProfileFormatError,
    QuadratureError,
)
from .extension import (
    ConjugatedExtension,
    ExtensionContext,
    extend,
    extend_general,
    extend_lipschitz,
)
from .fields import LIBRARY, ScalarField, linear_combination, make_field
from .geometry import (
    BilipRegion,
    DomainSpec,
    ExtRegion,
    classify_bilip_region,
    classify_extension_region,
    contains,
    normalize,
)
from .lipschitzify import (
    HatPair,
    LipschitzizedProfile,
    hat_profile,
    hat_values,
    solve_hat_pair,
    verify_doubling_transfer,
    verify_monotone_quotient,
)
from .profiles import (
    CuspProfile,
    LinearProfile,
    PowerProfile,
    StepProfile,
    load_profile_csv,
    make_profile,
    save_profile_csv,
)
from .quadrature import (
    NormReport,
    QuadratureScheme,
    extension_ratio,
    gradient_at,
    lp_norm,
    region_domain,
    region_extension,
    region_tube,
    w1p_norm,
)
from .transform import (
    DistortionReport,
    distortion_sample,
    forward_map,
    inverse_map,
    jacobian,
    seam_continuity,
    verify_image,
)

__version__ = "0.1.0"
