"""Circle-grid extremal scans, class verdicts, and radius searches.

For the quantities tested here the extremum over a closed disk sits on the
bounding circle (maximum modulus for sup tests, minimum principle for the
harmonic real parts), so one dense circle scan plus a local golden-section
refinement decides a verdict.  Verdicts are three-way: IN and OUT require
clearing the threshold by a margin delta, everything else is BOUNDARY.
Extremal members of the deviation class, whose sup tends to 1 only as
|z| -> 1, legitimately return BOUNDARY: a scan cannot distinguish sup < 1
from sup = 1, and pretending otherwise would be false precision.

A scan can be row-batched, the refine brackets of all rows advancing as
one, and each row equals the one-row scan bit for bit.  The rows are
either k radii of one functional, whose grids are evaluated one circle at
a time, or k functionals that share their expensive parts on one circle,
one coarse grid evaluation serving every row.  The radius search walks
its radii in blocks of such rows (``radius_of``), and a theorem-2 sample
scans its whole alpha grid as rows (``theorem2_grid``): z f'/f and
1 + z f''/f' are evaluated once per probe set and combined per alpha.  A
NaN or infinite value met by any scan raises NonFiniteValue instead of
becoming a verdict.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .catalog import DiskFunction
from .errors import DiskClassError, NonFiniteValue, ParamOutOfRange, PartCPrecondition
from .operators import (
    convex_quotient,
    g_deviation,
    g_starlike_deviation,
    g_transform,
    mocanu_real_part,
    starlike_quotient,
    turning_derivative,
    u_operator,
)

# Radius search ceiling: above it the property is reported as holding on the
# whole disk.  Tighter than the membership scan radius so that radii equal
# to 1 are reported within 1e-4.
RADIUS_CAP = 1.0 - 2.0 ** -14
# The radius walk starts at this radius (below it, real-part tags walk a
# ladder of halvings) and scans this many radii per row-batched scan.
_WALK_START = 0.01
_WALK_BLOCK = 16

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

__all__ = [
    "ScanPolicy",
    "MembershipReport",
    "RadiusResult",
    "Theorem2Record",
    "extremal_on_circle",
    "class_functional",
    "test_class",
    "radius_of",
    "theorem3_check",
    "theorem2_grid",
    "CLASS_TAGS",
    "RADIUS_CAP",
]


def _check_scan_size(grid, refine_iters):
    if not grid >= 1:
        raise ParamOutOfRange(f"grid must be at least 1, got {grid}")
    if not refine_iters >= 0:
        raise ParamOutOfRange(f"refine_iters must be nonnegative, got {refine_iters}")


@dataclass(frozen=True)
class ScanPolicy:
    """Parameters of a verdict scan."""

    r_max: float = 1.0 - 2.0 ** -10
    grid: int = 4096
    delta: float = 1e-6
    refine_iters: int = 48

    def __post_init__(self):
        _check_scan_size(self.grid, self.refine_iters)
        if not 0.0 < self.r_max < 1.0:
            raise ParamOutOfRange(f"r_max must lie in (0, 1), got {self.r_max}")
        if not self.delta >= 0.0:
            raise ParamOutOfRange(f"delta must be nonnegative, got {self.delta}")

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class MembershipReport:
    class_tag: str
    verdict: str
    extremal_value: float
    witness: complex
    scan_radius: float
    grid_size: int
    margin: float
    boundary_estimate: float

    def to_dict(self):
        return {
            "class": self.class_tag,
            "verdict": self.verdict,
            "extremal_value": self.extremal_value,
            "witness": [self.witness.real, self.witness.imag],
            "scan_radius": self.scan_radius,
            "grid_size": self.grid_size,
            "margin": self.margin,
            "boundary_estimate": self.boundary_estimate,
        }


@dataclass(frozen=True)
class RadiusResult:
    property_tag: str
    radius: float
    bracket: tuple
    tolerance: float
    grid_size: int

    def to_dict(self):
        return {
            "property": self.property_tag,
            "radius": self.radius,
            "bracket": list(self.bracket),
            "tolerance": self.tolerance,
            "grid_size": self.grid_size,
        }


def _golden_refine(fn, lo, hi, iters):
    """Vectorized golden-section maximization over several brackets.

    fn maps an ndarray of angles to real values of the same shape; lo/hi
    are bracket arrays of any shape.  Returns (theta, value) arrays for the
    refined maxima.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = fn(x1)
    f2 = fn(x2)
    for _ in range(iters):
        right = f1 < f2  # drop the left part where the right probe is larger
        lo = np.where(right, x1, lo)
        hi = np.where(right, hi, x2)
        t = _INV_PHI * (hi - lo)
        probe = np.where(right, lo + t, hi - t)
        x1, x2 = np.where(right, x2, probe), np.where(right, probe, x1)
        fp = fn(probe)
        f1, f2 = np.where(right, f2, fp), np.where(right, fp, f1)
    mid = 0.5 * (lo + hi)
    return mid, fn(mid)


def _require_finite(points, values, mode, radius):
    bad = ~np.isfinite(values)
    if bad.any():
        z = complex(np.broadcast_to(points, values.shape)[bad][0])
        r = float(np.broadcast_to(radius, values.shape)[bad][0])
        raise NonFiniteValue(
            f"{mode} scan on |z| = {r} meets a non-finite value at z = {z!r}")


def extremal_on_circle(functional, mode: str, radius, grid: int = 4096,
                       refine_iters: int = 48):
    """Extremum of |F| (mode 'sup_modulus') or Re F (mode 'inf_real') on a circle.

    Coarse grid scan, then golden-section refinement around the three best
    angles.  Ties within 1e-12 resolve to the smallest angle.  Returns
    (value, witness).

    A scan has k rows, each resolved as a one-row scan would be, and then
    returns a pair of length-k arrays (values, witnesses).  Rows come from
    one of two sources.  ``radius`` may be a 1-d array of k radii: row i
    scans a one-row functional on |z| = radius[i].  Or F may be
    row-batched: k functionals sharing one evaluation, which map points of
    shape (m,) or (k, m) to values of shape (k, m), row i holding
    functional i, all scanned on one circle.  Either way the coarse grid is
    evaluated once per circle and the 3k refine brackets advance together.
    A NaN or infinite value anywhere on the grid or among the refine probes
    raises NonFiniteValue; numpy's floating-point warnings are silenced
    for the scan, since that check reports the same events.  ``grid`` must
    be at least 1 and ``refine_iters`` nonnegative, else ParamOutOfRange.
    """
    if mode not in ("sup_modulus", "inf_real"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_scan_size(grid, refine_iters)
    per_circle = np.ndim(radius) == 1
    radii = np.atleast_1d(np.asarray(radius, dtype=float))
    theta = 2.0 * np.pi * np.arange(grid) / grid
    probes = []  # (points, values) of each evaluation, checked for NaN and inf

    def quantity(z):
        vals = functional(z)
        q = np.abs(vals) if mode == "sup_modulus" else -np.real(vals)  # maximize
        probes.append((z, q))
        return q

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        unit = np.exp(1j * theta)
        best, best_val = [], []
        for r in radii:  # one circle at a time: no (k, grid) temporaries
            coarse = quantity(r * unit)
            _require_finite(*probes.pop(), mode, r)
            if per_circle and coarse.ndim != 1:
                raise ValueError("a row-batched functional scans a single radius")
            for row in np.atleast_2d(coarse):
                # a copy: a view would keep the row's whole argsort alive
                top = np.argsort(-row, kind="stable")[:3].copy()
                best.append(top)
                best_val.append(row[top])
        best, best_val = np.array(best), np.array(best_val)
        scale = radii[:, None] if per_circle else radius  # broadcasts to the rows
        step = 2.0 * np.pi / grid
        ref_theta, ref_val = _golden_refine(
            lambda angles: quantity(scale * np.exp(1j * angles)),
            theta[best] - step, theta[best] + step, refine_iters)
        points, values = zip(*probes)
        _require_finite(np.concatenate(points, axis=-1),
                        np.concatenate(values, axis=-1), mode, scale)

    rows = np.arange(len(best))
    cand_theta = np.concatenate((theta[best], ref_theta), axis=1) % (2.0 * np.pi)
    cand_val = np.concatenate((best_val, ref_val), axis=1)
    ties = cand_val >= cand_val.max(axis=1, keepdims=True) - 1e-12
    pick = np.argmin(np.where(ties, cand_theta, np.inf), axis=1)
    witness = radii * np.exp(1j * cand_theta[rows, pick])
    value = cand_val[rows, pick]
    if mode == "inf_real":
        value = -value
    if per_circle or coarse.ndim == 2:
        return value, witness
    return float(value[0]), complex(witness[0])


CLASS_TAGS = ("U", "starlike", "convex", "mocanu", "bounded_turning")


def class_functional(f: DiskFunction, class_tag: str, alpha=None):
    """(functional, mode, threshold) for a class tag.

    For 'mocanu', ``alpha`` may also be a 1-d array of alphas, which gives
    the row-batched functional with one row per alpha.  Every other tag
    takes no alpha.
    """
    if alpha is not None and class_tag != "mocanu":
        raise ParamOutOfRange(f"class {class_tag!r} takes no alpha, got {alpha}")
    if class_tag == "U":
        return u_operator(f), "sup_modulus", 1.0
    if class_tag == "starlike":
        return starlike_quotient(f), "inf_real", 0.0
    if class_tag == "convex":
        return convex_quotient(f), "inf_real", 0.0
    if class_tag == "mocanu":
        if alpha is None or not np.all(np.isfinite(alpha)):
            raise ParamOutOfRange(f"mocanu test requires a finite alpha, got {alpha}")
        return mocanu_real_part(f, alpha), "inf_real", 0.0
    if class_tag == "bounded_turning":
        return turning_derivative(f), "inf_real", 0.0
    raise ParamOutOfRange(f"unknown class tag {class_tag!r}; expected one of {CLASS_TAGS}")


def _verdict(estimate, threshold, delta, sup):
    """IN or OUT when the estimate clears the threshold by more than delta;
    members lie below it for sup tests and above it otherwise."""
    below, above = estimate < threshold - delta, estimate > threshold + delta
    inside, outside = (below, above) if sup else (above, below)
    return "IN" if inside else "OUT" if outside else "BOUNDARY"


def test_class(f: DiskFunction, class_tag: str, policy: ScanPolicy | None = None,
               alpha=None) -> MembershipReport:
    """Three-way verdict for membership of f in the tagged class.

    Sup-modulus tests compare a boundary estimate value/r^2 against the
    threshold: the deviation vanishes to second order at the origin, so by
    the Schwarz lemma the scanned maximum divided by r^2 is a lower bound
    for the boundary supremum.  Without the rescale an extremal member
    whose sup tends to 1 would be declared IN purely because the scan
    circle stops short of |z| = 1.
    """
    policy = policy or ScanPolicy()
    functional, mode, threshold = class_functional(f, class_tag, alpha)
    value, witness = extremal_on_circle(
        functional, mode, policy.r_max, policy.grid, policy.refine_iters)
    tag = class_tag if alpha is None else f"{class_tag}({alpha:g})"
    return _report(tag, value, witness, mode, threshold, policy)


def _report(tag, value, witness, mode, threshold, policy) -> MembershipReport:
    sup = mode == "sup_modulus"
    value = float(value)
    estimate = value / policy.r_max ** 2 if sup else value
    return MembershipReport(
        class_tag=tag, verdict=_verdict(estimate, threshold, policy.delta, sup),
        extremal_value=value, witness=complex(witness), scan_radius=policy.r_max,
        grid_size=policy.grid, margin=policy.delta, boundary_estimate=estimate)


def radius_of(f: DiskFunction, class_tag: str, tol: float = 1e-4,
              policy: ScanPolicy | None = None, alpha=None) -> RadiusResult:
    """Largest radius on which the class property holds.

    The first failure is bracketed by an outward walk over a fixed list of
    radii and then bisected.  Sup-modulus predicates are monotone in the
    radius by the maximum principle, so their walk is r = 0.01 and
    RADIUS_CAP: if the property survives up to RADIUS_CAP the radius is
    reported as 1.0 (error at most 2^-14).  Real-part quotients lose
    monotonicity once the circle passes an interior singularity (a zero of
    f or f' makes large circles look fine again), so their walk is a
    ladder 0.01 * 2^-j (j = 8, ..., 1) followed by 96 evenly spaced radii
    from 0.01 to RADIUS_CAP; the walk step bounds how narrow a failure dip
    can be and still be detected.  A failure at the first radius brackets
    (0, first radius).  The walk scans 16 radii per row-batched scan,
    and a block whose scan raises is walked again one radius at a
    time, so it stops or raises exactly where a serial walk would.  The
    bisection stops at ``tol`` (which must be positive) or once the
    bracket can no longer be split in floating point.
    """
    if not tol > 0.0:
        raise ParamOutOfRange(f"tol must be positive, got {tol}")
    policy = policy or ScanPolicy()
    functional, mode, threshold = class_functional(f, class_tag, alpha)
    sup = mode == "sup_modulus"

    def clears(r):
        value, _ = extremal_on_circle(functional, mode, r, policy.grid,
                                      policy.refine_iters)
        return value < threshold if sup else value > threshold

    def first_failure(radii, block):  # index of the first failing radius, or None
        for start in range(0, len(radii), block):
            rows = radii[start:start + block]
            try:
                failed = np.flatnonzero(~clears(rows))
                hit = failed[0] if failed.size else None
            except DiskClassError:
                if block == 1:
                    raise
                hit = first_failure(rows, 1)
            if hit is not None:
                return start + hit
        return None

    tag = class_tag if alpha is None else f"{class_tag}({alpha:g})"
    if sup:
        walk = np.array([_WALK_START, RADIUS_CAP])
    else:
        walk = np.concatenate((_WALK_START * 2.0 ** -np.arange(8.0, 0.0, -1.0),
                               np.linspace(_WALK_START, RADIUS_CAP, 96)))
    hit = first_failure(walk, _WALK_BLOCK)
    if hit is None:
        return RadiusResult(tag, 1.0, (RADIUS_CAP, 1.0), tol, policy.grid)
    lo, hi = (float(walk[hit - 1]) if hit else 0.0), float(walk[hit])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if clears(mid):
            lo = mid
        else:
            hi = mid
    return RadiusResult(tag, 0.5 * (lo + hi), (lo, hi), tol, policy.grid)


def theorem3_check(f: DiskFunction, part: str, shrink: float = 0.01,
                   policy: ScanPolicy | None = None,
                   allow_large_a2: bool = False) -> MembershipReport:
    """Deviation-transform check on the circle |z| = (1 - shrink) |a2|/2.

    part 'a': sup |g' - 1|; part 'b': sup |z g'/g - 1|; part 'c': sup of the
    deviation |U_g|.  All three are compared against 1.  Part 'c' is proved
    only for |a2| <= 1; probing beyond that needs allow_large_a2=True.
    ``shrink`` must lie in (0, 1).
    """
    policy = policy or ScanPolicy()
    if not 0.0 < shrink < 1.0:
        raise ParamOutOfRange(f"shrink must lie in (0, 1), got {shrink}")
    if part not in ("a", "b", "c"):
        raise ParamOutOfRange(f"part must be 'a', 'b' or 'c', not {part!r}")
    if part == "c" and abs(f.a2) > 1.0 + 1e-12 and not allow_large_a2:
        raise PartCPrecondition(
            f"|a2| = {abs(f.a2):.6g} > 1; pass allow_large_a2=True to probe")
    if part == "a":
        functional = g_deviation(f)
    elif part == "b":
        functional = g_starlike_deviation(f)
    else:
        functional = u_operator(g_transform(f))
    radius = (1.0 - shrink) * abs(f.a2) / 2.0
    value, witness = extremal_on_circle(
        functional, "sup_modulus", radius, policy.grid, policy.refine_iters)
    verdict = _verdict(value, 1.0, policy.delta, sup=True)
    return MembershipReport(
        class_tag=f"theorem3.{part}", verdict=verdict, extremal_value=value,
        witness=witness, scan_radius=radius, grid_size=policy.grid,
        margin=policy.delta, boundary_estimate=value)


@dataclass(frozen=True)
class Theorem2Record:
    """Joint verdicts for the alpha-convex family versus the deviation class."""

    alpha: float
    m_alpha: MembershipReport
    u: MembershipReport

    @property
    def implication_respected(self) -> bool:
        """False only in the impossible configuration: alpha <= -1, f
        accepted by the alpha-convex test, yet rejected by the deviation
        test."""
        return not (self.alpha <= -1.0 and self.m_alpha.verdict == "IN"
                    and self.u.verdict == "OUT")


def theorem2_grid(f: DiskFunction, alphas,
                  policy: ScanPolicy | None = None) -> list:
    """Theorem-2 records of f for every alpha of a grid, in grid order.

    One deviation scan serves every record and one row-batched scan of the
    alpha-convex functional gives every alpha's verdict; each record's
    alpha-convex report equals ``test_class(f, "mocanu", policy, alpha)``.
    """
    policy = policy or ScanPolicy()
    alphas = [float(a) for a in alphas]
    functional, mode, threshold = class_functional(f, "mocanu", np.array(alphas))
    u = test_class(f, "U", policy)
    values, witnesses = extremal_on_circle(
        functional, mode, policy.r_max, policy.grid, policy.refine_iters)
    return [Theorem2Record(a, _report(f"mocanu({a:g})", value, witness, mode,
                                      threshold, policy), u)
            for a, value, witness in zip(alphas, values, witnesses)]
