"""Numerical toolkit for a class of normalized analytic functions on the
unit disk defined by a bounded deviation functional, with Hankel
determinant bounds, membership and radius tests, and seeded randomized
campaigns."""
import types as _types

from .catalog import (
    DiskFunction,
    SchwarzGenerator,
    build_member,
    catalog_ids,
    count_zeros_on_disk,
    make_catalog,
    sample_schwarz,
    seed_key,
)
from .errors import (
    ArgumentOutOfDomain,
    BoundaryTooClose,
    DenominatorVanishes,
    DiskClassError,
    EvalNearZeroDenominator,
    InsufficientOrder,
    NearZeroConstantTerm,
    NonFiniteValue,
    ParamOutOfRange,
    PartCPrecondition,
    RadiusUnproven,
    ReplayMismatch,
    SecondCoefficientVanishes,
    UnknownId,
)
from .explorer import (CampaignConfig, catalog_prepends, replay,
                       run_campaign, write_rows_csv)
from .hankel import (
    HankelReport,
    PSRecord,
    h3_profile_bound,
    hankel_det,
    prokhorov_szynal_check,
    reduced_h2,
    reduced_h3,
)
from .membership import (
    MembershipReport,
    RadiusResult,
    ScanPolicy,
    Theorem2Record,
    extremal_on_circle,
    radius_of,
    test_class,
    theorem2_grid,
    theorem3_check,
)
from .operators import (
    OmegaDecomposition,
    convex_quotient,
    decompose,
    g_transform,
    mocanu_real_part,
    phi_profile,
    starlike_quotient,
    turning_derivative,
    u_operator,
)
from .serialize import canonical_json
from .series import ComplexSeries

__version__ = "0.1.0"

# Every name imported above; the imports also bind the submodules.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
