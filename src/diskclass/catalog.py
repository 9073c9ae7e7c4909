"""Named disk functions, Schwarz-bounded generators, and certified builders.

Every function handled by the toolkit is normalized (f(0) = 0, f'(0) = 1)
and analytic on the open unit disk, and is handled through its reciprocal
quotient h = z/f:

* a kernel of closed forms drives boundary scans; it is the one place
  where h, f and their first two derivatives and the omega data (omega1,
  psi = omega1', psi') are evaluated at points;
* one truncated Taylor series drives coefficient work.  A DiskFunction
  keeps the series its constructor knows exactly (h for functions defined
  by their quotient, f for functions defined by their expansion) and
  derives the other one by a single series inversion on first use.

The quotient always admits the normal form h(z) = 1 - a2 z - z omega1(z)
where a2 is the second Taylor coefficient of f and omega1 is analytic with
omega1(0) = 0.  When |omega1'| <= 1 on the disk (omega1' = psi for a
Schwarz-bounded generator psi) the function belongs to the bounded
reciprocal-deviation class tested by the membership module.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    BoundaryTooClose,
    DenominatorVanishes,
    EvalNearZeroDenominator,
    ParamOutOfRange,
    UnknownId,
)
from .series import DEFAULT_ORDER, ComplexSeries

# Certification circle for zero-freeness of h, and its sampling density.
CERT_RADIUS = 1.0 - 2.0 ** -10
CERT_SAMPLES = 8192
# Below this |h| on the certification circle the winding number is refused.
MIN_BOUNDARY_ABS = 1e-9
# Pointwise functional guard: denominators must exceed this in modulus.
EPS_DENOM = 1e-12
# An f series counts as normalized when |a_0| and |a_1 - 1| stay below this.
NORMALIZATION_TOL = 1e-9

__all__ = [
    "DiskFunction",
    "SchwarzGenerator",
    "make_catalog",
    "catalog_ids",
    "sample_schwarz",
    "build_member",
    "count_zeros_on_disk",
    "CERT_RADIUS",
    "CERT_SAMPLES",
]


def _pointwise(fn, z):
    """Apply a vectorized fn to a scalar or an ndarray of points; a scalar
    argument gives a complex result."""
    zz = np.asarray(z, dtype=np.complex128)
    values = fn(np.atleast_1d(zz))
    return complex(values[0]) if zz.ndim == 0 else values


def _guard(values, points, what):
    small = np.abs(values) <= EPS_DENOM
    if np.any(small):
        bad = complex(np.asarray(points)[small][0])
        raise EvalNearZeroDenominator(
            f"{what} denominator below {EPS_DENOM} at z = {bad!r}", point=bad)


def _polyder(c):
    d = npp.polyder(np.asarray(c, dtype=np.complex128))
    return d if d.size else np.zeros(1, dtype=np.complex128)


def _omega_coeffs(h):
    """Coefficients of omega1 in h = 1 - a2 z - z omega1: omega1_k = -h_{k+1}."""
    om = np.zeros(max(h.size - 1, 1), dtype=np.complex128)
    om[1:] = -h[2:]
    return om


# ---------------------------------------------------------------------------
# kernels: vectorized closed forms for h, h', h'' and the omega data
# ---------------------------------------------------------------------------
class _Kernel:
    """Closed-form accessors shared by every representation of h = z/f.

    Subclasses must provide vectorized ``h``, ``h1``, ``h2`` on 1-d complex
    arrays plus an ``a2`` attribute.  f, f', f'' default to f = z/h and its
    derivatives, guarded against a vanishing h.  The omega accessors
    default to algebraic rearrangements of h; those divide by powers of z,
    so for |z| below ``mask_radius`` they fall back to the polynomial
    kernel of the quotient series of ``owner``, the DiskFunction the kernel
    belongs to.
    """

    mask_radius = 1e-3
    owner = None
    _near_origin = None

    def _masked(self, z, closed, which):
        out = np.empty(z.shape, dtype=np.complex128)
        near = np.abs(z) < self.mask_radius
        if near.any():
            if self._near_origin is None:
                self._near_origin = _PolyKernel(self.owner.quotient.coeffs)
            out[near] = getattr(self._near_origin, which)(z[near])
        far = ~near
        if far.any():
            out[far] = closed(z[far])
        return out

    def f(self, z):
        hv = self.h(z)
        _guard(hv, z, "z/f")
        return z / hv

    def f1(self, z):
        hv = self.h(z)
        _guard(hv, z, "f'")
        return (hv - z * self.h1(z)) / hv ** 2

    def f2(self, z):
        hv = self.h(z)
        _guard(hv, z, "f''")
        h1v = self.h1(z)
        return (-z * self.h2(z) * hv - 2.0 * h1v * (hv - z * h1v)) / hv ** 3

    def omega1(self, z):
        return self._masked(z, lambda w: (1.0 - self.a2 * w - self.h(w)) / w, "omega1")

    def psi(self, z):
        return self._masked(
            z, lambda w: (self.h(w) - 1.0 - w * self.h1(w)) / w ** 2, "psi")

    def psi1(self, z):
        def closed(w):
            return (-w ** 2 * self.h2(w) - 2.0 * (self.h(w) - 1.0)
                    + 2.0 * w * self.h1(w)) / w ** 3
        return self._masked(z, closed, "psi1")


class _PolyKernel(_Kernel):
    """h is an explicit polynomial (or a truncated quotient series); every
    accessor is the matching polynomial, exact in the first case."""

    def __init__(self, h_coeffs):
        h = ComplexSeries(h_coeffs)
        om = ComplexSeries(_omega_coeffs(h.coeffs))
        self.h, self.h1, self.h2 = h, h.derivative(), h.derivative().derivative()
        self.omega1, self.psi, self.psi1 = om, om.derivative(), om.derivative().derivative()


class _BlaschkeKernel(_Kernel):
    """h = 1 - a2 z - z omega1 with omega1 integrated in closed form.

    psi is a finite Blaschke product scaled by rho e^{i theta}.  Partial
    fractions turn its primitive into a polynomial plus logarithms
    log(1 - conj(alpha_k) z), which stay on the principal branch for
    |alpha_k| < 1 and |z| <= 1.
    """

    def __init__(self, a2, alphas, rho, theta):
        self.a2 = complex(a2)
        alphas = np.asarray(alphas, dtype=np.complex128)
        scale = rho * np.exp(1j * theta)
        self.p_poly = scale * npp.polyfromroots(alphas)
        q = np.ones(1, dtype=np.complex128)
        for a in alphas:
            q = npp.polymul(q, np.array([1.0, -np.conj(a)], dtype=np.complex128))
        self.q_poly = q
        self.q1_poly = _polyder(q)
        quo, rem = npp.polydiv(self.p_poly, q)
        self.quo_int = npp.polyint(quo)
        self.conj_alphas = np.conj(alphas)
        poles = 1.0 / self.conj_alphas
        self.residues = npp.polyval(poles, rem) / npp.polyval(poles, self.q1_poly)

    def psi_taylor(self, order):
        """Taylor series of psi to the given order: one series inversion."""
        num = ComplexSeries(self.p_poly).pad_to(order)
        den = ComplexSeries(self.q_poly).pad_to(order)
        return num * den.reciprocal()

    # psi and its derivative as a plain rational function
    def psi(self, z):
        return npp.polyval(z, self.p_poly) / npp.polyval(z, self.q_poly)

    def psi1(self, z):
        q = npp.polyval(z, self.q_poly)
        return (npp.polyval(z, _polyder(self.p_poly)) * q
                - npp.polyval(z, self.p_poly) * npp.polyval(z, self.q1_poly)) / q ** 2

    def omega1(self, z):
        acc = npp.polyval(z, self.quo_int)
        for bk, ca in zip(self.residues, self.conj_alphas):
            acc = acc + bk * np.log(1.0 - ca * z)
        return acc

    def h(self, z):
        return 1.0 - self.a2 * z - z * self.omega1(z)

    def h1(self, z):
        return -self.a2 - self.omega1(z) - z * self.psi(z)

    def h2(self, z):
        return -2.0 * self.psi(z) - z * self.psi1(z)


class _LogQuotientKernel(_Kernel):
    """Kernel for f(z) = -log(1 - z), the convex-but-not-bounded witness."""

    a2 = 0.5

    def f(self, z):
        return -np.log(1.0 - z)

    def f1(self, z):
        return 1.0 / (1.0 - z)

    def f2(self, z):
        return (1.0 - z) ** -2.0

    def h(self, z):
        return self._masked(z, lambda w: w / self.f(w), "h")

    def h1(self, z):
        def closed(w):
            fv = self.f(w)
            return (fv - w * self.f1(w)) / fv ** 2
        return self._masked(z, closed, "h1")

    def h2(self, z):
        def closed(w):
            fv, f1v, f2v = self.f(w), self.f1(w), self.f2(w)
            return (-w * f2v * fv - 2.0 * f1v * (fv - w * f1v)) / fv ** 3
        return self._masked(z, closed, "h2")


class _GTransformKernel(_Kernel):
    """Quotient data for g = ((z/f) - 1)/(-a2), built on the parent kernel.

    With omega1 the parent's deviation primitive, z/g = a2/(a2 + omega1(z)),
    which is smooth at the origin, so no masking is needed for h itself.
    """

    def __init__(self, parent, parent_a2, a2):
        self.parent = parent
        self.parent_a2 = complex(parent_a2)
        self.a2 = complex(a2)

    def _den(self, z):
        den = self.parent_a2 + self.parent.omega1(z)
        _guard(den, z, "a2 + omega1")
        return den

    def h(self, z):
        return self.parent_a2 / self._den(z)

    def h1(self, z):
        return -self.parent_a2 * self.parent.psi(z) / self._den(z) ** 2

    def h2(self, z):
        den = self._den(z)
        psi = self.parent.psi(z)
        return -self.parent_a2 * (self.parent.psi1(z) * den - 2.0 * psi ** 2) / den ** 3


# ---------------------------------------------------------------------------
# DiskFunction
# ---------------------------------------------------------------------------
class DiskFunction:
    """A normalized analytic function on the unit disk.

    Combines a closed-form kernel for the quotient h = z/f with the Taylor
    series of h (``quotient``) and of f (``series``).  The constructor takes
    the one series its caller knows exactly; h and f/z are reciprocal
    series, so the other one is derived by a single inversion on first use
    and cached.  Without a kernel the closed forms are the truncated
    polynomial of the quotient.  The pointwise accessors (``eval_f``,
    ``eval_f1``, ``eval_f2``, ``h``, ``h1``, ``omega1``) accept scalars or
    ndarrays and delegate to the kernel.
    """

    def __init__(self, fid, params, kernel=None, *, series=None, quotient=None):
        self.id = fid
        self.params = params
        self._f, self._h = series, quotient
        if quotient is not None:
            self.a2 = complex(quotient.coefficient(1)) * -1.0
        elif (abs(series.coefficient(0)) > NORMALIZATION_TOL
              or abs(series.coefficient(1) - 1.0) > NORMALIZATION_TOL):
            raise ParamOutOfRange(f"series of {fid!r} is not normalized")
        else:
            self.a2 = complex(series.coefficient(2))
        self.kernel = kernel or _PolyKernel(self.quotient.coeffs)
        self.kernel.owner = self

    @property
    def series(self) -> ComplexSeries:
        """Taylor series of f."""
        if self._f is None:
            self._derive()
        return self._f

    @property
    def quotient(self) -> ComplexSeries:
        """Taylor series of h = z/f."""
        if self._h is None:
            self._derive()
        return self._h

    def _derive(self):
        known = self._f.div_z(NORMALIZATION_TOL) if self._h is None else self._h
        other = known.reciprocal()
        if self._h is None:
            self._h = other
        else:
            self._f = other.mul_z()

    def __repr__(self):
        return f"DiskFunction(id={self.id!r}, params={self.params!r}, a2={self.a2:.6g})"

    # -- pointwise evaluation through the kernel ---------------------------
    def eval_f(self, z):
        return _pointwise(self.kernel.f, z)

    def eval_f1(self, z):
        return _pointwise(self.kernel.f1, z)

    def eval_f2(self, z):
        return _pointwise(self.kernel.f2, z)

    def h(self, z):
        return _pointwise(self.kernel.h, z)

    def h1(self, z):
        return _pointwise(self.kernel.h1, z)

    def omega1(self, z):
        return _pointwise(self.kernel.omega1, z)

    # -- serialization ----------------------------------------------------
    def to_spec(self) -> dict:
        if self.id == "sampled":
            gen = self.params["generator"]
            return {
                "id": "sampled",
                "params": {
                    "a2": [float(self.params["a2"].real), float(self.params["a2"].imag)],
                    "generator": gen.to_dict(),
                    "order": int(self.params["order"]),
                },
            }
        if self.id == "series":
            return {"id": "series", "series": self.series.to_json_dict()}
        if self.id == "g_transform":
            return {"id": "g_transform", "of": self.params["of"]}
        return {"id": self.id, "params": dict(self.params)}

    @classmethod
    def from_spec(cls, spec, order=None) -> "DiskFunction":
        fid = spec["id"]
        if fid == "sampled":
            p = spec["params"]
            gen = SchwarzGenerator.from_dict(p["generator"])
            a2 = complex(p["a2"][0], p["a2"][1])
            return build_member(a2, gen, order or int(p["order"]))
        if fid == "series":
            return cls.from_series(ComplexSeries.from_json_dict(spec["series"]))
        if fid == "g_transform":
            from .operators import g_transform

            return g_transform(cls.from_spec(spec["of"], order=order))
        return make_catalog(fid, spec.get("params") or None,
                            order=order or DEFAULT_ORDER)

    @classmethod
    def from_series(cls, series: ComplexSeries) -> "DiskFunction":
        """Wrap a raw Taylor series; closed forms are the truncated polynomial.

        Boundary scans of such a function see the polynomial, not the
        underlying analytic function, so results degrade near |z| = 1 when
        the coefficients decay slowly.
        """
        return cls("series", {}, series=series)


# ---------------------------------------------------------------------------
# named catalog
# ---------------------------------------------------------------------------
def _polynomial_quotient(cid, params, h_coeffs, order):
    return DiskFunction(cid, params, _PolyKernel(h_coeffs),
                        quotient=ComplexSeries(h_coeffs).pad_to(order))


# id -> polynomial coefficients of h = z/f (low to high)
_RATIONAL_H = {
    "koebe": [1.0, -2.0, 1.0],
    "f1": [1.0, 0.0, -1.0],
    "f2": [1.0, 0.0, 0.0, -0.5],
    "half_plane": [1.0, -1.0],
    "identity": [1.0],
    "example_sec1": [1.0, -1.5, 0.0, 0.5],
}


def catalog_ids():
    return sorted(_RATIONAL_H) + ["fb", "log_map"]


def make_catalog(cid: str, params=None, order: int = DEFAULT_ORDER) -> DiskFunction:
    """Build a named catalog function.

    ``fb`` requires a parameter b with 0 < b <= 2; every other id takes no
    parameters.  Unknown ids raise UnknownId.
    """
    if order < 1:
        raise ParamOutOfRange(f"series order must be at least 1, got {order}")
    params = dict(params or {})
    if cid == "fb":
        b = params.get("b")
        if b is None:
            raise ParamOutOfRange("fb requires a parameter b in (0, 2]")
        b = float(b)
        if not 0.0 < b <= 2.0:
            raise ParamOutOfRange(f"fb parameter b = {b} outside (0, 2]")
        return _polynomial_quotient("fb", {"b": b}, [1.0, b, 1.0], order)
    if params:
        raise ParamOutOfRange(f"catalog id {cid!r} takes no parameters")
    if cid == "log_map":
        f = np.zeros(order + 1, dtype=np.complex128)
        f[1:] = 1.0 / np.arange(1, order + 1)
        return DiskFunction("log_map", {}, _LogQuotientKernel(), series=ComplexSeries(f))
    if cid in _RATIONAL_H:
        return _polynomial_quotient(cid, {}, _RATIONAL_H[cid], order)
    raise UnknownId(f"unknown catalog id {cid!r}")


# ---------------------------------------------------------------------------
# Schwarz generators
# ---------------------------------------------------------------------------
class SchwarzGenerator:
    """An analytic psi with sup |psi| <= 1 on the unit disk.

    psi plays the role of the derivative of the deviation primitive:
    omega1(z) = integral of psi from 0 to z, so |omega1(z)| <= |z| and
    |omega1'| <= 1 automatically.  Three kinds are supported:

    * ``scaled_unimodular``: psi = rho e^{i theta}, constant;
    * ``blaschke_product``: psi = rho e^{i theta} prod (z - a_k)/(1 - conj(a_k) z),
      at most 4 factors, 0.01 <= |a_k| < 0.95;
    * ``random_polynomial``: an explicit polynomial (the sampler normalizes
      its sup on the unit circle below 1; the direct constructor trusts the
      caller).
    """

    def __init__(self, kind, params):
        self.kind = kind
        self.params = params
        self._coeffs = None  # psi's coefficients, for the polynomial kinds
        self._unit = None  # kernel of the a2 = 0 member, built on first use
        if kind == "scaled_unimodular":
            rho, theta = float(params["rho"]), float(params["theta"])
            if not 0.0 <= rho <= 1.0:
                raise ParamOutOfRange(f"rho = {rho} outside [0, 1]")
            self._coeffs = np.array([rho * np.exp(1j * theta)], dtype=np.complex128)
        elif kind == "random_polynomial":
            self._coeffs = np.array(
                [complex(re, im) for re, im in params["coeffs"]], dtype=np.complex128)
            if self._coeffs.size > 17:
                raise ParamOutOfRange("polynomial generator degree exceeds 16")
        elif kind == "blaschke_product":
            alphas = np.array(
                [complex(re, im) for re, im in params["alphas"]], dtype=np.complex128)
            rho, theta = float(params["rho"]), float(params["theta"])
            if not 1 <= alphas.size <= 4:
                raise ParamOutOfRange("blaschke product takes 1..4 factors")
            if np.any(np.abs(alphas) >= 0.95) or np.any(np.abs(alphas) < 0.01):
                raise ParamOutOfRange("blaschke zeros must satisfy 0.01 <= |a| < 0.95")
            if not 0.0 <= rho <= 1.0:
                raise ParamOutOfRange(f"rho = {rho} outside [0, 1]")
            self._alphas, self._rho, self._theta = alphas, rho, theta
        else:
            raise ParamOutOfRange(f"unknown generator kind {kind!r}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def constant(cls, w):
        w = complex(w)
        return cls("scaled_unimodular", {"rho": abs(w), "theta": float(np.angle(w))})

    @classmethod
    def polynomial(cls, coeffs):
        pairs = [[float(np.real(c)), float(np.imag(c))] for c in np.atleast_1d(coeffs)]
        return cls("random_polynomial", {"coeffs": pairs})

    @classmethod
    def blaschke(cls, alphas, rho, theta):
        pairs = [[float(np.real(a)), float(np.imag(a))] for a in np.atleast_1d(alphas)]
        return cls("blaschke_product",
                   {"alphas": pairs, "rho": float(rho), "theta": float(theta)})

    # -- members and evaluation ----------------------------------------------
    def member(self, a2, order: int = DEFAULT_ORDER):
        """Quotient coefficients and kernel of h = 1 - a2 z - z omega1, omega1' = psi.

        The coefficients are exact for the polynomial kinds, whose kernel is
        that polynomial; for a Blaschke product they are the expansion of
        psi to ``order`` (one series inversion) and the kernel integrates
        psi in closed form.
        """
        a2 = complex(a2)
        if self._coeffs is None:
            kernel = _BlaschkeKernel(a2, self._alphas, self._rho, self._theta)
            psi = kernel.psi_taylor(order).coeffs
        else:
            kernel, psi = None, self._coeffs
        h = np.zeros(psi.size + 2, dtype=np.complex128)
        h[0] = 1.0
        h[1] = -a2
        h[2:] = -psi / np.arange(1, psi.size + 1)
        return h, kernel if kernel is not None else _PolyKernel(h)

    def _kernel(self):
        if self._unit is None:  # order 0: only the kernel is used
            self._unit = self.member(0j, 0)[1]
        return self._unit

    def psi(self, z):
        return _pointwise(self._kernel().psi, z)

    def psi_prime(self, z):
        return _pointwise(self._kernel().psi1, z)

    def omega1(self, z):
        return _pointwise(self._kernel().omega1, z)

    def psi_taylor(self, order: int) -> ComplexSeries:
        """Taylor coefficients of psi to the given order (exact for the
        polynomial kinds, true expansion for Blaschke products)."""
        if self._coeffs is None:
            return self._kernel().psi_taylor(order)
        return ComplexSeries(self._coeffs).pad_to(order).truncate(order)

    def c_coefficients(self):
        """First three Taylor coefficients of omega1 (c1, c2, c3).

        omega1_k = psi_{k-1}/k, divided as build_member divides, so these
        equal the c of a built member exactly.
        """
        p = self.psi_taylor(2).coeffs[:3]
        c = np.zeros(3, dtype=np.complex128)
        c[:p.size] = p / np.arange(1, p.size + 1)
        return tuple(complex(ck) for ck in c)

    # -- serialization ------------------------------------------------------
    def to_dict(self):
        return {"kind": self.kind, "params": self.params}

    @classmethod
    def from_dict(cls, data):
        return cls(data["kind"], data["params"])


def _sample_generator(rng, kind, degree):
    if kind == "scaled_unimodular":
        return SchwarzGenerator("scaled_unimodular",
                                {"rho": float(rng.uniform(0.0, 1.0)),
                                 "theta": float(rng.uniform(0.0, 2.0 * np.pi))})
    if kind == "random_polynomial":
        deg = int(min(max(degree, 0), 16))
        raw = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        grid = np.exp(2j * np.pi * np.arange(8192) / 8192)
        sup = float(np.abs(npp.polyval(grid, raw)).max())
        amp = float(rng.uniform(0.0, 1.0))
        coeffs = raw * (amp / (sup * 1.001)) if sup > 0 else raw * 0.0
        return SchwarzGenerator.polynomial(coeffs)
    if kind == "blaschke_product":
        m = int(min(max(degree, 1), 4))
        alphas = []
        while len(alphas) < m:
            a = rng.uniform(0.05, 0.95) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            if all(abs(a - b) > 0.01 for b in alphas):
                alphas.append(a)
        return SchwarzGenerator.blaschke(
            alphas, rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * np.pi))
    raise ParamOutOfRange(f"unknown generator kind {kind!r}")


def seed_key(seed: int, index: int | None = None) -> np.random.SeedSequence:
    """Deterministic per-sample RNG stream derived from (seed, index)."""
    entropy = int(seed) & (2 ** 64 - 1)
    spawn = () if index is None else (int(index),)
    return np.random.SeedSequence(entropy=entropy, spawn_key=spawn)


def sample_schwarz(seed: int, kind: str, degree: int = 4) -> SchwarzGenerator:
    """Draw a generator of the given kind, deterministically from the seed."""
    if degree > 16:
        raise ParamOutOfRange("generator degree is capped at 16")
    rng = np.random.default_rng(seed_key(seed))
    return _sample_generator(rng, kind, degree)


# ---------------------------------------------------------------------------
# certified construction from the reciprocal normal form
# ---------------------------------------------------------------------------
def count_zeros_on_disk(h, radius: float = CERT_RADIUS,
                        samples: int = CERT_SAMPLES) -> int:
    """Zeros of h inside |z| < radius, counted by the winding number of the
    boundary image.  h must be a vectorized callable, analytic and zero-free
    on the circle itself (|h| <= 1e-9 anywhere on it raises BoundaryTooClose).
    """
    theta = 2.0 * np.pi * np.arange(samples) / samples
    w = np.asarray(h(radius * np.exp(1j * theta)))
    if float(np.min(np.abs(w))) <= MIN_BOUNDARY_ABS:
        raise BoundaryTooClose(
            f"|h| falls to {float(np.min(np.abs(w))):.3e} on the circle r = {radius}")
    turns = float(np.sum(np.angle(w / np.roll(w, 1))))
    return int(np.rint(turns / (2.0 * np.pi)))


def build_member(a2, generator: SchwarzGenerator,
                 order: int = DEFAULT_ORDER) -> DiskFunction:
    """Construct f from z/f = 1 - a2 z - z omega1(z), omega1' = psi.

    The quotient is certified zero-free on |z| < CERT_RADIUS by winding
    number before the function is returned; inadmissible parameters raise
    DenominatorVanishes (callers typically resample).
    """
    a2 = complex(a2)
    if abs(a2) > 2.0 + 1e-12:
        raise ParamOutOfRange(f"|a2| = {abs(a2):.6g} exceeds the admissible bound 2")
    if order < 1:
        raise ParamOutOfRange(f"series order must be at least 1, got {order}")
    h, kernel = generator.member(a2, order)
    try:
        winding = count_zeros_on_disk(kernel.h)
    except BoundaryTooClose as exc:
        raise DenominatorVanishes(f"quotient vanishes on the certification circle: {exc}") from exc
    if winding != 0:
        raise DenominatorVanishes(
            f"quotient has {winding} zero(s) inside |z| < {CERT_RADIUS:.6f}")
    return DiskFunction("sampled",
                        {"a2": a2, "generator": generator, "order": order},
                        kernel, quotient=ComplexSeries(h).pad_to(order).truncate(order))
