"""Exception hierarchy for the toolkit."""


class DiskClassError(Exception):
    """Base for all toolkit-specific errors."""


class NearZeroConstantTerm(DiskClassError):
    """Reciprocal requested for a series whose constant term is numerically zero."""


class UnknownId(DiskClassError):
    """Catalog id not recognised."""


class ParamOutOfRange(DiskClassError, ValueError):
    """Parameter outside its documented domain: catalog and sampler
    parameters, series orders, class tags, scan and campaign settings."""


class DenominatorVanishes(DiskClassError):
    """The reciprocal quotient z/f acquires a zero inside the unit disk, so
    the supplied parameters do not describe an admissible function."""


class BoundaryTooClose(DiskClassError):
    """A zero-counting circle passes too close to a zero of the function
    for the count to be proven, so the count refuses."""


class RadiusUnproven(DiskClassError):
    """A radius search cannot prove the disk on which its functional is analytic."""


class EvalNearZeroDenominator(DiskClassError):
    """A pointwise functional hit a denominator below the safe threshold."""


class SecondCoefficientVanishes(DiskClassError):
    """The deviation transform needs a nonzero second Taylor coefficient."""


class ArgumentOutOfDomain(DiskClassError):
    """Scalar helper called outside its documented domain."""


class InsufficientOrder(DiskClassError):
    """Series order too small for the requested coefficient window."""


class PartCPrecondition(DiskClassError):
    """Transform membership part (c) is established only for |a2| <= 1;
    pass allow_large_a2=True to probe beyond that range."""


class ReplayMismatch(DiskClassError):
    """A certificate failed to reproduce its recorded value."""


class NonFiniteValue(DiskClassError):
    """A circle scan met a NaN or infinite functional value."""
