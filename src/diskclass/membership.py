"""Circle scans, class verdicts and radius searches.

Each class tag is one ``_CLASSES`` row.  A verdict is one scan of the
circle |z| = r_max (``extremal_on_circle``, refined by ``_zoom_refine``)
read by ``_report``; ``theorem2_grid`` and ``theorem3_check`` are
row-batched scans.  ``radius_of`` bisects the radius on a disk that
``_first_pole`` proves analytic, deciding each circle by ``_circle_proof``
where it can and by a scan otherwise.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from numbers import Integral, Real

import numpy as np
from numpy.polynomial import polynomial as npp

from .catalog import CERT_SAMPLES, DiskFunction, _RationalKernel, _unit_circle, zero_bracket
from .errors import NonFiniteValue, ParamOutOfRange, PartCPrecondition, RadiusUnproven
from .operators import (
    PointFunctional,
    _alpha_convex,
    _deviation,
    convex_quotient,
    g_transform,
    mocanu_real_part,
    starlike_quotient,
    theorem3_parts,
    turning_derivative,
    u_operator,
)

# Radius search ceiling (``radius_of``), tighter than the membership scan
# radius so that radii equal to 1 are reported within 1e-4.
RADIUS_CAP = 1.0 - 2.0 ** -14
# The radius a search checks after a failing RADIUS_CAP (``radius_of``).
_INNER = 0.01
# One row per class tag: its operators factory F, whether its scan
# maximizes |F| (the sup tag) or -Re F, the threshold that members keep
# that maximum below, the factors of f at whose zeros F has its poles
# (see catalog.zero_bracket), and F = P/Q for a rational h = N/M, as the
# map (N, M, A, B, alpha) -> (P, Q) with A = NM - z (N'M - NM') and B = NM
# (z f'/f = A/B, f' = A/N^2).  U = h^2 f' - 1 stays analytic at a pole of
# f, but f itself does not, and the class asks for f analytic.
_CLASSES = {
    "U": (u_operator, True, 1.0, ("pole", "root"),
          lambda n, m, a, b, _: (a - m * m, m * m)),
    "starlike": (starlike_quotient, False, 0.0, ("pole", "root"),
                 lambda n, m, a, b, _: (a, b)),
    "convex": (convex_quotient, False, 0.0, ("pole", "crit"),
               lambda n, m, a, b, _: _mocanu_polys(a, b, 1.0)),
    "mocanu": (mocanu_real_part, False, 0.0, ("pole", "root", "crit"),
               lambda n, m, a, b, alpha: _mocanu_polys(a, b, alpha)),
    "bounded_turning": (turning_derivative, False, 0.0, ("pole",),
                        lambda n, m, a, b, _: (a, n * n)),
}
CLASS_TAGS = tuple(_CLASSES)

_ZOOM = np.linspace(-1.0, 1.0, 33)  # relative angles of a zoom-refine level
# The coarse grids a radius search tries ``_circle_proof`` on, in this
# order, before the scan's own grid.
_PROOF_GRIDS = (64, 512)

__all__ = [
    "ScanPolicy",
    "MembershipReport",
    "RadiusResult",
    "Theorem2Record",
    "extremal_on_circle",
    "test_class",
    "radius_of",
    "theorem3_check",
    "theorem2_grid",
]


def _is_number(value, kind=Real) -> bool:
    """True when value is a ``kind`` (a numbers ABC) and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScanPolicy:
    """Parameters of a verdict (``r_max`` and the margin ``delta``, read by
    ``_report``) and of every circle scan: ``grid`` angles, at most
    CERT_SAMPLES = 2^20, the finest circle the package samples anywhere,
    and ``refine_iters``, the refine evaluations ``_zoom_refine`` makes."""

    r_max: float = 1.0 - 2.0 ** -10
    grid: int = 4096
    delta: float = 1e-6
    refine_iters: int = 3

    def __post_init__(self):
        if not _is_number(self.grid, Integral) or not 1 <= self.grid <= CERT_SAMPLES:
            raise ParamOutOfRange(f"grid must be an integer in [1, 2^20], got {self.grid}")
        if not _is_number(self.refine_iters, Integral) or not self.refine_iters >= 0:
            raise ParamOutOfRange(
                f"refine_iters must be a nonnegative integer, got {self.refine_iters}")
        if not _is_number(self.r_max) or not 0.0 < self.r_max < 1.0:
            raise ParamOutOfRange(f"r_max must be a number in (0, 1), got {self.r_max}")
        if not _is_number(self.delta) or not 0.0 <= self.delta < np.inf:
            raise ParamOutOfRange(f"delta must be a finite nonnegative number, got {self.delta}")

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class MembershipReport:
    """One verdict (``_report``): ``extremal_value`` is the scan's maximum of
    |F|, or min Re F for a real-part tag, at ``witness`` on the circle
    |z| = ``scan_radius`` sampled at ``grid_size`` angles.
    ``boundary_estimate`` is the value the verdict compares with the tag's
    threshold (for U the maximum over scan_radius^2, else the maximum
    itself), and ``margin`` is the ``delta`` by which it must clear the
    threshold to read IN or OUT rather than BOUNDARY."""

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
    """A radius search (``radius_of``).  ``bracket`` is (lo, hi): the
    property was decided to hold on |z| = lo (lo = 0 when no circle
    cleared) and to fail on |z| = hi, or hi bounds a proven pole from
    above.  ``radius`` is their midpoint, or 1.0 when RADIUS_CAP clears,
    with the bracket (RADIUS_CAP, 1.0).  ``tolerance`` is the bracket
    width at which the bisection stops, ``grid_size`` the scan grid."""

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


def _zoom_refine(fn, center, value, side, half, evals):
    """Maximize fn (angles (rows, n) -> values) near each (rows, brackets)
    center in ``evals`` calls, given the values ``side`` (shape (rows,
    brackets, 2)) at center -+ half on the grid, whose spacing is half.
    Returns (center, value).

    Each of evals - 1 zoom levels samples the 33 evenly spaced angles
    center + half * _ZOOM of every bracket in one call, keeps the first
    best angle and narrows half 16-fold, so a level's spacing is the next
    level's half-width.  The last call probes each bracket once, at the
    vertex of the parabola through the last lattice's best point and its
    two neighbours (the grid itself when no zoom level ran), clipped to one
    spacing; a best point on a zoom lattice's edge, or three points that
    are not concave (L - 2C + R >= 0), probe in place.  The probe replaces
    a bracket's best only when its value is strictly greater.  The default
    3 calls refine on a lattice of 2 pi/4096/256 and then at its vertex:
    on 48 maxima of sampled polynomial members that lies within 1e-14
    relative of a 40-digit maximization (the mpmath oracle pins 1e-13).
    0 calls return the grid maxima."""
    if not evals:
        return center, value
    cells = tuple(np.indices(center.shape))
    inner = True  # the grid is a circle: its best point has no edge
    for _ in range(evals - 1):
        angles = center[..., None] + half * _ZOOM
        vals = fn(angles.reshape(len(angles), -1)).reshape(angles.shape)
        pick = np.argmax(vals, axis=-1)
        best = cells + (pick,)
        center, value = angles[best], vals[best]
        side = np.take_along_axis(vals, np.clip(pick[..., None] + [-1, 1], 0, _ZOOM.size - 1), -1)
        inner = (pick > 0) & (pick < _ZOOM.size - 1)
        half /= 16.0
    left, right = side[..., 0], side[..., 1]
    curv = left - 2.0 * value + right
    step = np.divide(0.5 * (left - right), curv, out=np.zeros_like(curv),
                     where=inner & (curv < 0.0))
    angles = center + half * np.clip(step, -1.0, 1.0)
    vals = fn(angles)
    better = vals > value
    return np.where(better, angles, center), np.where(better, vals, value)


def _require_finite(functional, points, radius):
    """functional at points; a NaN or infinite value raises NonFiniteValue."""
    values = functional(points)
    bad = ~np.isfinite(values)
    if bad.any():
        z = complex(np.broadcast_to(points, values.shape)[bad][0])
        r = float(np.broadcast_to(radius, values.shape)[bad][0])
        raise NonFiniteValue(f"scan on |z| = {r} meets a non-finite value at z = {z!r}")
    return values


def _top3(row):
    """Indices of the 3 largest values of a finite row, in the order of a
    stable sort of -row (ties to the smaller index): three argmax passes
    over a copy, each pick masked with -inf, since argmax returns the first
    of equal maxima.  On 4096 points this takes 9 us against 15 us for a
    partition and a stable sort of the candidates."""
    work, picks = row.copy(), []
    for _ in range(min(3, row.size)):
        picks.append(int(np.argmax(work)))
        work[picks[-1]] = -np.inf
    return np.array(picks)


def extremal_on_circle(functional, radius, policy: ScanPolicy | None = None,
                       threshold=None):
    """Maximum on a circle of the real values that ``functional`` returns,
    as (value, witness).

    The coarse scan evaluates ``policy.grid`` angles (r times a unit circle
    built once per grid size and shared, read-only, by every scan) and
    picks its three best (``_top3``), which ``_zoom_refine`` refines in
    ``policy.refine_iters`` evaluations.  The largest of the picks and
    their refined values wins, and values within 1e-12 of it resolve to
    the smallest angle.

    ``threshold``, when given, skips the refinement of a scan already known
    to reach it: if every row's grid maximum G has G - 1e-12 >= threshold,
    the scan returns its grid pick, as with 0 evaluations.  The refined
    value would be at least fl(M - 1e-12) with M >= G, so it too would not
    be below the threshold; the radius search, which asks only that, passes
    its threshold.  Such a scan evaluates no refine probes, so it raises
    NonFiniteValue only for a grid value.

    A scan has k rows, each resolved as a one-row scan would be, bit for
    bit, and then returns a pair of length-k arrays (values, witnesses).
    Rows come from one of two sources.  ``radius`` may be a 1-d array of k
    radii: row i scans a one-row functional on |z| = radius[i].  Or F may
    be row-batched: k functionals sharing one evaluation, which map points
    of shape (m,) or (k, m) to values of shape (k, m), row i holding
    functional i, all scanned on one circle.  Either way the coarse grid is
    evaluated once per circle and each refine evaluation is one call for
    all 3k brackets.

    A NaN or infinite value anywhere on the grid or among the refine probes
    raises NonFiniteValue; numpy's floating-point warnings are silenced
    for the scan, since that check reports the same events.
    """
    policy = policy or ScanPolicy()
    per_circle = np.ndim(radius) == 1
    radii = np.atleast_1d(np.asarray(radius, dtype=float))
    unit = _unit_circle(policy.grid)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        best, best_val, side = [], [], []
        for r in radii:  # one circle at a time: no (k, grid) temporaries
            coarse = _require_finite(functional, r * unit, r)
            if per_circle and coarse.ndim != 1:
                raise ValueError("a row-batched functional scans a single radius")
            for row in np.atleast_2d(coarse):
                top = _top3(row)
                best.append(top)
                best_val.append(row[top])
                side.append(row[(top[:, None] + [-1, 1]) % policy.grid])
        best, best_val, side = np.array(best), np.array(best_val), np.array(side)
        best_theta = 2.0 * np.pi * best / policy.grid  # the grid's own angles
        evals = policy.refine_iters
        if threshold is not None and np.all(best_val[:, 0] - 1e-12 >= threshold):
            evals = 0
        scale = radii[:, None] if per_circle else radius  # broadcasts to the rows
        ref_theta, ref_val = _zoom_refine(
            lambda angles: _require_finite(functional, scale * np.exp(1j * angles), scale),
            best_theta, best_val, side, 2.0 * np.pi / policy.grid, evals)

    rows = np.arange(len(best))
    cand_theta = np.concatenate((best_theta, ref_theta), axis=1) % (2.0 * np.pi)
    cand_val = np.concatenate((best_val, ref_val), axis=1)
    ties = cand_val >= cand_val.max(axis=1, keepdims=True) - 1e-12
    pick = np.argmin(np.where(ties, cand_theta, np.inf), axis=1)
    witness = radii * np.exp(1j * cand_theta[rows, pick])
    value = cand_val[rows, pick]
    if per_circle or coarse.ndim == 2:
        return value, witness
    return float(value[0]), complex(witness[0])


def class_functional(f: DiskFunction, class_tag: str, alpha=None):
    """The functional whose maximum on a circle decides the tagged class:
    |F| for U and -Re F for the real-part tags, which members keep below
    the tag's threshold.  'mocanu' takes one finite ``alpha``; every other
    tag takes none.
    """
    if alpha is not None and class_tag != "mocanu":
        raise ParamOutOfRange(f"class {class_tag!r} takes no alpha, got {alpha}")
    if class_tag not in _CLASSES:
        raise ParamOutOfRange(f"unknown class tag {class_tag!r}; expected one of {CLASS_TAGS}")
    if class_tag == "mocanu" and (alpha is None or np.ndim(alpha) or not np.isfinite(alpha)):
        raise ParamOutOfRange(f"mocanu test requires one finite alpha, got {alpha}")
    factory, sup, _, _, _ = _CLASSES[class_tag]
    fn = factory(f) if alpha is None else factory(f, alpha)
    if sup:
        return lambda z: np.abs(fn(z))
    return lambda z: -np.real(fn(z))


def _tag(class_tag, alpha):
    """Report tag of a one-alpha test."""
    return class_tag if alpha is None else f"{class_tag}({alpha:g})"


def test_class(f: DiskFunction, class_tag: str, policy: ScanPolicy | None = None,
               alpha=None) -> MembershipReport:
    """Three-way verdict for membership of f in the tagged class: one scan
    of |z| = policy.r_max, read by ``_report``."""
    policy = policy or ScanPolicy()
    functional = class_functional(f, class_tag, alpha)
    peak, witness = extremal_on_circle(functional, policy.r_max, policy)
    return _report(_tag(class_tag, alpha), peak, witness, policy.r_max, policy,
                   _class_rule(class_tag))


def _class_rule(class_tag):
    """(sup, threshold, rescale) of a class row for ``_report``: U, the one
    sup tag, alone takes the Schwarz rescale."""
    sup, threshold = _CLASSES[class_tag][1:3]
    return sup, threshold, sup


def _report(tag, peak, witness, radius, policy, rule) -> MembershipReport:
    """Report of a scan's maximum ``peak`` on |z| = radius under the row's
    rule (sup, threshold, rescale): of |F| when sup, else of -Re F, reported
    as min Re F.

    For F analytic on the closed disk the extremum sits on the bounding
    circle (maximum modulus, or the minimum principle for the harmonic
    Re F); ``radius_of`` proves that analyticity, a verdict does not.  The
    estimate, peak/radius^2 when rescale, else peak, is IN or OUT when it
    clears the threshold by more than ``policy.delta``, else BOUNDARY.  U
    vanishes to second order at the origin, so by the Schwarz lemma
    peak/r^2 bounds its boundary supremum from below: an extremal member,
    whose sup tends to 1 only as |z| -> 1, reads BOUNDARY instead of IN,
    since no scan can tell sup < 1 from sup = 1."""
    sup, threshold, rescale = rule
    peak = float(peak)
    estimate = peak / radius ** 2 if rescale else peak
    sign = 1.0 if sup else -1.0
    verdict = ("IN" if estimate < threshold - policy.delta
               else "OUT" if estimate > threshold + policy.delta else "BOUNDARY")
    return MembershipReport(
        class_tag=tag, verdict=verdict, extremal_value=sign * peak, witness=complex(witness),
        scan_radius=float(radius), grid_size=policy.grid, margin=policy.delta,
        boundary_estimate=sign * estimate)


def _first_pole(f, class_tag, alpha, tol):
    """RADIUS_CAP when the tag's functional is proven analytic on
    |z| < RADIUS_CAP, or hi < RADIUS_CAP when it is proven analytic on
    |z| < hi - tol/2 and has a pole in |z| <= hi.  Anything less raises
    RadiusUnproven: zeros of a factor that ``zero_bracket`` cannot place or
    places less finely than tol/2, or zeros that alpha may remove.  The
    factor whose zeros alpha may remove comes last: when its zeros on
    |z| < RADIUS_CAP are not all proven simple, it is bracketed again on
    the disk |z| < hi that the other factors' poles leave, and only zeros
    on that disk must be proven simple.

    For mocanu(alpha) a zero of f/z of order m is a pole of residue
    (m - alpha) z0, a pole of f one of residue -(m + alpha) z0, and a zero
    of f' of order k one of residue alpha k z0.  So the zeros of f' are no
    poles at alpha = 0, and at a nonzero integer alpha only zeros of f/z
    (alpha > 0) or poles of f (alpha < 0) of order |alpha| are removable:
    simple ones are no poles at alpha = +-1 and poles at other integers.
    """
    parts, removable = _CLASSES[class_tag][3], None
    if class_tag == "mocanu":
        if alpha == 0:
            parts = ("pole", "root")
        elif float(alpha).is_integer():
            removable = "pole" if alpha < 0 else "root"
    lo = hi = RADIUS_CAP
    for part in sorted(parts, key=lambda p: p == removable):
        bracket = zero_bracket(f, part, RADIUS_CAP)
        if part == removable and bracket is not None and not bracket[2]:
            bracket = zero_bracket(f, part, hi)  # the disk the other poles leave
            if bracket is None or not bracket[2]:
                raise RadiusUnproven(
                    f"{f.id!r}: {part!r} zeros not proven simple, alpha {alpha:g}")
        if bracket is None:
            raise RadiusUnproven(f"{f.id!r}: no proof places the {part!r} zeros")
        if bracket[1] is not None and not (part == removable and abs(alpha) == 1):
            lo, hi = min(lo, bracket[0]), min(hi, bracket[1])
    if hi - lo > tol / 2.0:
        raise RadiusUnproven(f"{f.id!r}: first pole in {lo:.6g} <= |z| <= {hi:.6g}, "
                             f"wider than tol/2")
    return hi


class _Poly:
    """Coefficients c (low to high) of a polynomial computed in floating
    point, with coefficients a bounding |c| (up to rounding, which the
    bound's final factor covers) and a count u such that the exact
    polynomial, the same formula applied without rounding, has each
    coefficient within u 2^-53 a_j of c_j.  A product of two polynomials
    sums at most L products per coefficient (L the shorter length), and
    a complex product rounds by at most sqrt(5) 2^-53, so it adds L + 4;
    a sum, a real multiple and a derivative add 1, a shift by z none.
    Top coefficients with a_j = 0 are exact zeros and are dropped."""

    def __init__(self, c, a=None, u=0):
        c = np.asarray(c, dtype=np.complex128)
        a = np.abs(c) if a is None else a
        size = int(np.flatnonzero(a)[-1]) + 1 if a.any() else 1
        self.c, self.a, self.u = c[:size], a[:size], u

    def _sum(self, other, sign):
        n = max(self.c.size, other.c.size)
        c, a = np.zeros(n, dtype=np.complex128), np.zeros(n)
        c[:self.c.size], a[:self.a.size] = self.c, self.a
        c[:other.c.size] += sign * other.c
        a[:other.a.size] += other.a
        return _Poly(c, a, max(self.u, other.u) + 1)

    def __add__(self, other):
        return self._sum(other, 1.0)

    def __sub__(self, other):
        return self._sum(other, -1.0)

    def __mul__(self, other):
        if isinstance(other, _Poly):
            return _Poly(np.convolve(self.c, other.c), np.convolve(self.a, other.a),
                         self.u + other.u + min(self.c.size, other.c.size) + 4)
        return _Poly(other * self.c, abs(other) * self.a, self.u + 1)  # a real number

    def d(self):
        j = np.arange(1.0, self.c.size)
        return _Poly(self.c[1:] * j, self.a[1:] * j, self.u + 1) if j.size else _Poly([0j])

    def z(self):
        return _Poly(np.concatenate(([0j], self.c)), np.concatenate(([0.0], self.a)), self.u)


def _mocanu_polys(a, b, alpha):
    """(1 - alpha) z f'/f + alpha (1 + z f''/f') = s + alpha z s'/s with
    s = A/B, as P/Q = (A^2 + alpha z (A'B - AB'))/(AB)."""
    return a * a + (a.d() * b - a * b.d()).z() * alpha, a * b


def _functional_polys(n, m, class_tag, alpha):
    """(P, Q) with P/Q the tag's functional F of h = N/M, from polynomials
    n and m of any type with +, -, *, a real multiple, d (the derivative)
    and z (the product with z)."""
    b = n * m
    return _CLASSES[class_tag][4](n, m, b - (n.d() * m - n * m.d()).z(), b, alpha)


@np.errstate(over="ignore", invalid="ignore")
def _circle_polys(f, class_tag, alpha):
    """(P, Q) as ``_Poly`` for ``_circle_proof``, whose T = -Re(P conj(Q))
    on |z| = r has the sign of the tag's scanned maximum less its
    threshold, for f whose kernel is rational; None for any other kernel.
    For U, |P/Q| < 1 reads |P|^2 - |Q|^2 = -Re((Q - P) conj(Q + P)) < 0."""
    kernel = f.kernel
    if not isinstance(kernel, _RationalKernel):
        return None
    n, m = (_Poly(kernel._coeffs(x)) for x in "NM")
    p, q = _functional_polys(n, m, class_tag, alpha)
    return (q - p, q + p) if _CLASSES[class_tag][1] else (p, q)


@np.errstate(over="ignore", invalid="ignore")
def _circle_proof(polys, r, grid):
    """True when T = -Re(P conj(Q)) < 0 is proven on all of |z| = r, False
    when T > 0 is proven at a node of the grid, None when neither is.

    T is evaluated on the nodes r e^{2 pi i k/grid}.  Its running
    error e covers the coefficients' rounding (``_Poly``), Horner's rule
    (4 roundings per degree), the nodes' distance from the exact angles
    (below 32 2^-53 r, so 33 per degree) and the product.  A trigonometric
    polynomial of degree d has |T''| <= d^2 max|T| (Bernstein), T' = 0 at
    its maximizer and a node lies within pi/grid of it, so max T <= max T_k
    + kappa max|T| with kappa = d^2 pi^2/(2 grid^2), and max|T| <= max|T_k|
    /(1 - kappa).  The final factors 1 + 2^-20 and 1 + 2^-40 cover the
    rounding of a, of e and of the bound itself; with count 2^-53 below
    2^-30 the second-order terms stay below them.  Non-finite values,
    kappa >= 1 and a wider count decide nothing.  The slack is about
    5e-6 max|T| at d = 4 on 4096 nodes.

    Each answer is a proof at any grid size, so a radius search tries the
    coarse ``_PROOF_GRIDS`` before its own grid.  The nodes of a
    power-of-two grid are nodes of every larger one, bit for bit (2 pi k/n
    scales by powers of two exactly), so a circle failed on a coarse grid
    fails at the same node of the full grid.  koebe's convexity radius
    decides 12 of its 16 circles on 64 nodes, 3 on 512 and 1 on 4096.
    """
    p, q = polys
    dp, dq = p.c.size - 1, q.c.size - 1
    z = r * _unit_circle(grid)
    pv, qv = npp.polyval(z, p.c), npp.polyval(z, q.c)
    t = -(pv.real * qv.real + pv.imag * qv.imag)
    count = p.u + q.u + 37 * (dp + dq) + 8
    e = count * 2.0 ** -53 * npp.polyval(r, p.a) * npp.polyval(r, q.a) * (1.0 + 2.0 ** -20)
    if not (np.isfinite(t).all() and np.isfinite(e)) or count * 2.0 ** -53 > 2.0 ** -30:
        return None
    if np.any(t - e > 0.0):
        return False
    kappa = (max(dp, dq) * np.pi / grid) ** 2 / 2.0 * (1.0 + 2.0 ** -40)
    if kappa < 1.0 and t.max() + (e + kappa * (np.abs(t).max() + e) / (1.0 - kappa)) * (
            1.0 + 2.0 ** -40) < 0.0:
        return True
    return None


def radius_of(f: DiskFunction, class_tag: str, tol: float = 1e-4,
              policy: ScanPolicy | None = None, alpha=None) -> RadiusResult:
    """Largest radius on which the class property holds.

    ``_first_pole`` proves a disk |z| < rho on which the tag's functional is
    analytic, or raises RadiusUnproven.  On that disk the maximum principle
    (sup tags) and the minimum principle for the harmonic real parts make a
    circle's verdict monotone in the radius, so the first failure is
    bracketed and bisected, one circle per decision.  With no pole below
    RADIUS_CAP, RADIUS_CAP is checked first: if the property holds there
    the radius is reported as 1.0 (error at most 2^-14).  Else r = 0.01 is
    checked, and the bracket (0.01, RADIUS_CAP), or (0, 0.01) when the
    property fails there, is bisected.  A proven pole is where the property
    fails for sure, so the bracket is (0, hi) with hi an upper bound on the
    pole's modulus, and no circle near the pole is scanned.  The bisection
    stops at ``tol`` (positive and finite) or once the bracket can no
    longer be split in floating point.

    A circle of a rational kernel is first decided by ``_circle_proof`` of
    ``_circle_polys``; a circle that leaves open, and every circle of any
    other kernel, is scanned with the tag's threshold
    (``extremal_on_circle``).  A proof agrees with a scan unless the scan's
    rounding exceeds the proven margin, so on every search the tests
    compare the radius is the one scans alone give, bit for bit.
    """
    if not 0.0 < tol < np.inf:
        raise ParamOutOfRange(f"tol must be positive and finite, got {tol}")
    policy = policy or ScanPolicy()
    functional = class_functional(f, class_tag, alpha)
    threshold = _CLASSES[class_tag][2]
    tag = _tag(class_tag, alpha)
    polys = _circle_polys(f, class_tag, alpha)
    grids = [] if polys is None else [n for n in _PROOF_GRIDS if n < policy.grid] + [policy.grid]

    def clears(r):
        for grid in grids:
            proof = _circle_proof(polys, r, grid)
            if proof is not None:
                return proof
        return extremal_on_circle(functional, r, policy, threshold=threshold)[0] < threshold

    pole = _first_pole(f, class_tag, alpha, tol)
    if pole < RADIUS_CAP:
        lo, hi = 0.0, pole
    elif clears(RADIUS_CAP):
        return RadiusResult(tag, 1.0, (RADIUS_CAP, 1.0), tol, policy.grid)
    else:
        lo, hi = (_INNER, RADIUS_CAP) if clears(_INNER) else (0.0, _INNER)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if clears(mid):
            lo = mid
        else:
            hi = mid
    return RadiusResult(tag, 0.5 * (lo + hi), (lo, hi), tol, policy.grid)


def theorem3_check(f: DiskFunction, part: str, shrink=0.01,
                   policy: ScanPolicy | None = None, allow_large_a2: bool = False):
    """Deviation-transform check on the circle |z| = (1 - shrink) |a2|/2.

    The sup of the modulus of each part ('a', 'b', 'c') of
    ``operators.theorem3_parts`` of g = g_transform(f) is compared against
    1.  Part 'c' is proved only for |a2| <= 1; probing beyond that needs
    allow_large_a2=True.  ``shrink`` must lie in (0, 1).

    One part and one shrink give one MembershipReport.  Otherwise the check
    is one row-batched scan and returns a list of reports, one per row: a
    string of several parts (e.g. "abc") gives one row per part on one
    circle, and a 1-d array of shrinks with one part gives one row per
    circle; asking for both at once raises ParamOutOfRange.
    """
    policy = policy or ScanPolicy()
    shrinks = np.asarray(shrink, dtype=float)
    if shrinks.ndim > 1 or not np.all((shrinks > 0.0) & (shrinks < 1.0)) or not shrinks.size:
        raise ParamOutOfRange(f"shrink must lie in (0, 1), got {shrink}")
    if not part or any(p not in "abc" for p in part):
        raise ParamOutOfRange(f"part must be made of 'a', 'b' and 'c', not {part!r}")
    if len(part) > 1 and shrinks.ndim:
        raise ParamOutOfRange("theorem3_check takes several parts or several shrinks, not both")
    if "c" in part and abs(f.a2) > 1.0 + 1e-12 and not allow_large_a2:
        raise PartCPrecondition(
            f"|a2| = {abs(f.a2):.6g} > 1; pass allow_large_a2=True to probe")
    radius = (1.0 - shrinks) * abs(f.a2) / 2.0
    parts = theorem3_parts(g_transform(f), part)
    values, witnesses = extremal_on_circle(lambda z: np.abs(parts(z)), radius, policy)
    reports = [_report(f"theorem3.{p}", v, w, r, policy, (True, 1.0, False))
               for p, r, v, w in np.broadcast(list(part), radius, values, witnesses)]
    return reports if len(part) > 1 or shrinks.ndim else reports[0]


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

    One row-batched scan gives every verdict: row 0 is |U| and row 1 + i
    is -Re of the alpha-convex functional at alphas[i], read off one h jet
    of f per call, each row on its own points.  The reports equal those of
    ``test_class`` for "U" and for "mocanu" at each alpha, bit for bit.
    """
    policy = policy or ScanPolicy()
    alphas = [float(a) for a in alphas]
    k, a = f.kernel, np.array(alphas)[:, None]

    def rows(zz):
        h = k.h_jet(zz, 2)
        first, rest = (..., ...) if zz.ndim == 1 else (0, np.s_[1:])  # zoom probes are per row
        dev = np.abs(_deviation(zz[first], [j[first] for j in h]))
        return np.concatenate((dev[None], -_alpha_convex(k, zz[rest], [j[rest] for j in h], a)))

    values, witnesses = extremal_on_circle(PointFunctional(rows), policy.r_max, policy)
    tags = [("U", None)] + [("mocanu", alpha) for alpha in alphas]
    u, *m_alpha = [_report(_tag(tag, alpha), value, witness, policy.r_max, policy,
                           _class_rule(tag))
                   for (tag, alpha), value, witness in zip(tags, values, witnesses)]
    return [Theorem2Record(alpha, m, u) for alpha, m in zip(alphas, m_alpha)]
