"""Named disk functions, Schwarz-bounded generators, and certified builders.

Every function handled by the toolkit is normalized (f(0) = 0, f'(0) = 1)
and analytic on the open unit disk, and is handled through its reciprocal
quotient h = z/f:

* a kernel of closed forms drives boundary scans; it is the one place
  where values at points are computed, as the jets [h, h', h''],
  [f, f', f''] and [omega1, psi = omega1', psi'] of the omega data;
* one truncated Taylor series drives coefficient work.  A DiskFunction
  keeps the series its constructor knows exactly (h for functions defined
  by their quotient, f for functions defined by their expansion) and
  derives the other one by a single series inversion on first use.

The quotient always admits the normal form h(z) = 1 - a2 z - z omega1(z)
where a2 is the second Taylor coefficient of f and omega1 is analytic with
omega1(0) = 0.  When |omega1'| <= 1 on the disk (omega1' = psi for a
Schwarz-bounded generator psi) the function belongs to the bounded
reciprocal-deviation class tested by the membership module.

``build_member`` returns such a function only once h is proven zero-free
on |z| < CERT_RADIUS by ``count_zeros_on_disk``: Weierstrass inclusion
disks around the roots of a polynomial h, or, for a Blaschke generator, a
winding count whose arcs are each checked against a bound on |h'|.  A zero
too close to the circle for either proof makes the count refuse, and the
member is rejected.
"""
from __future__ import annotations

import cmath

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

# Certification circle for zero-freeness of h.
CERT_RADIUS = 1.0 - 2.0 ** -10
# A winding count starts on WINDING_START equal arcs and halves the arcs it
# cannot certify; CERT_SAMPLES bounds the resolution: an arc of width
# 2 pi / CERT_SAMPLES that still fails makes the count refuse.
WINDING_START = 128
CERT_SAMPLES = 2 ** 20
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
# kernels: jets of h = z/f, f and the omega data at arrays of points
# ---------------------------------------------------------------------------
def _reciprocal(z, jet):
    """The jet of z/x from the jet [x, x', x''] of x, to the same length:
    the one formula that turns the h jet into the f jet and back."""
    x = jet[0]
    out = [z / x]
    if len(jet) > 1:
        d = x - z * jet[1]
        out.append(d / x ** 2)
        if len(jet) > 2:
            out.append((-z * jet[2] * x - 2.0 * jet[1] * d) / x ** 3)
    return out


class _Kernel:
    """Jets of one representation of h = z/f on 1-d complex arrays.

    Three methods serve every pointwise value: ``h_jet(z, n)`` is
    [h, h', h''][:n+1], ``omega_jet(z, n)`` is [omega1, psi, psi'][:n+1]
    and ``f_jet(z, n)`` is [f, f', f''][:n+1].  A subclass implements its
    natural jet, h or omega, and sets ``a2``; the default of the other one
    rearranges h = 1 - a2 z - z omega1.  The omega jet from h divides by
    powers of z, so for |z| below ``mask_radius`` it falls back to the
    polynomial kernel of the quotient series of ``owner``, the DiskFunction
    the kernel belongs to.  The f jet is the reciprocal of the h jet,
    guarded against a vanishing h.
    """

    mask_radius = 1e-3
    owner = None
    _near_origin = None

    def _masked(self, z, n, closed, jet):
        out = np.empty((n + 1,) + z.shape, dtype=np.complex128)
        near = np.abs(z) < self.mask_radius
        if near.any():
            if self._near_origin is None:
                self._near_origin = _PolyKernel(self.owner.quotient.coeffs)
            out[:, near] = getattr(self._near_origin, jet)(z[near], n)
        far = ~near
        if far.any():
            out[:, far] = closed(z[far], n)
        return list(out)

    def h_jet(self, z, n):
        om = self.omega_jet(z, n)
        jet = [1.0 - self.a2 * z - z * om[0]]
        if n > 0:
            jet.append(-self.a2 - om[0] - z * om[1])
        if n > 1:
            jet.append(-2.0 * om[1] - z * om[2])
        return jet

    def omega_jet(self, z, n):
        def closed(w, n):
            h = self.h_jet(w, n)
            jet = [(1.0 - self.a2 * w - h[0]) / w]
            if n > 0:
                jet.append((h[0] - 1.0 - w * h[1]) / w ** 2)
            if n > 1:
                jet.append((-w ** 2 * h[2] - 2.0 * (h[0] - 1.0) + 2.0 * w * h[1]) / w ** 3)
            return jet
        return self._masked(z, n, closed, "omega_jet")

    def f_jet(self, z, n, h=None):
        """The f jet; ``h``, when given, is this kernel's h jet at z to at
        least order n, so a caller that holds it pays for no second one."""
        h = self.h_jet(z, n) if h is None else h[:n + 1]
        _guard(h[0], z, ("z/f", "f'", "f''")[n])
        return _reciprocal(z, h)


class _PolyKernel(_Kernel):
    """h is an explicit polynomial (or a truncated quotient series); both
    jets are the matching polynomials, exact in the first case."""

    def __init__(self, h_coeffs):
        h = ComplexSeries(h_coeffs)
        self._h = (h,)
        self._omega = (ComplexSeries(_omega_coeffs(h.coeffs)),)

    @staticmethod
    def _grown(chain, n):
        """The series and its derivatives up to order n, each derivative
        built once, on the first request that needs it."""
        while len(chain) <= n:
            chain = chain + (chain[-1].derivative(),)
        return chain

    def h_jet(self, z, n):
        self._h = chain = self._grown(self._h, n)
        return [p(z) for p in chain[:n + 1]]

    def omega_jet(self, z, n):
        self._omega = chain = self._grown(self._omega, n)
        return [p(z) for p in chain[:n + 1]]


class _BlaschkeKernel(_Kernel):
    """h = 1 - a2 z - z omega1 with omega1 integrated in closed form.

    psi = p/q is a finite Blaschke product scaled by rho e^{i theta}.
    Partial fractions turn its primitive into a polynomial plus logarithms
    log(1 - conj(alpha_k) z), which stay on the principal branch for
    |alpha_k| < 1 and |z| <= 1.
    """

    def __init__(self, a2, alphas, rho, theta):
        self.a2 = complex(a2)
        self.rho = float(rho)
        alphas = np.asarray(alphas, dtype=np.complex128)
        scale = rho * np.exp(1j * theta)
        self.p_poly = scale * npp.polyfromroots(alphas)
        q = np.ones(1, dtype=np.complex128)
        for a in alphas:
            q = npp.polymul(q, np.array([1.0, -np.conj(a)], dtype=np.complex128))
        self.q_poly = q
        self.p1_poly = _polyder(self.p_poly)
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

    def winding_bounds(self, radius):
        """(lipschitz, slack) of h on |z| <= radius for the winding count.

        h' = -a2 - omega1 - z psi with |psi| <= rho and |omega1(z)| <= rho |z|,
        so |h'| <= |a2| + 2 rho radius.  The slack bounds the rounding of
        h_jet: 2^-40 times the moduli of the terms it adds, where a log term
        counts its modulus bound plus its conditioning 1/|1 - conj(alpha) z|.
        """
        near = 1.0 - np.abs(self.conj_alphas) * radius
        logs = np.abs(self.residues) @ (np.pi - np.log(near) + 1.0 / near)
        terms = 1.0 + abs(self.a2) * radius + radius * (
            npp.polyval(radius, np.abs(self.quo_int)) + logs)
        return abs(self.a2) + 2.0 * self.rho * radius, 2.0 ** -40 * float(terms)

    def omega_jet(self, z, n):
        acc = npp.polyval(z, self.quo_int)
        for bk, ca in zip(self.residues, self.conj_alphas):
            acc = acc + bk * np.log(1.0 - ca * z)
        jet = [acc]
        if n > 0:
            p, q = npp.polyval(z, self.p_poly), npp.polyval(z, self.q_poly)
            jet.append(p / q)
        if n > 1:
            jet.append((npp.polyval(z, self.p1_poly) * q
                        - p * npp.polyval(z, self.q1_poly)) / q ** 2)
        return jet


class _LogQuotientKernel(_Kernel):
    """Kernel for f(z) = -log(1 - z), the convex-but-not-bounded witness:
    the f jet is closed form and the h jet its reciprocal."""

    a2 = 0.5

    def f_jet(self, z, n, h=None):
        return [-np.log(1.0 - z), 1.0 / (1.0 - z), (1.0 - z) ** -2.0][:n + 1]

    def h_jet(self, z, n):
        return self._masked(z, n, lambda w, n: _reciprocal(w, self.f_jet(w, n)), "h_jet")


class _GTransformKernel(_Kernel):
    """Quotient data for g = ((z/f) - 1)/(-a2), built on the parent kernel.

    With omega1 the parent's deviation primitive, z/g = a2/(a2 + omega1(z)),
    which is smooth at the origin, so no masking is needed for h itself.
    """

    def __init__(self, parent, parent_a2, a2):
        self.parent = parent
        self.parent_a2 = complex(parent_a2)
        self.a2 = complex(a2)

    def h_jet(self, z, n):
        om = self.parent.omega_jet(z, n)
        den = self.parent_a2 + om[0]
        _guard(den, z, "a2 + omega1")
        jet = [self.parent_a2 / den]
        if n > 0:
            jet.append(-self.parent_a2 * om[1] / den ** 2)
        if n > 1:
            jet.append(-self.parent_a2 * (om[2] * den - 2.0 * om[1] ** 2) / den ** 3)
        return jet


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
    ndarrays and read one entry of a kernel jet.
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

    # -- pointwise evaluation through the kernel's jets ----------------------
    def eval_f(self, z):
        return _pointwise(lambda w: self.kernel.f_jet(w, 0)[0], z)

    def eval_f1(self, z):
        return _pointwise(lambda w: self.kernel.f_jet(w, 1)[1], z)

    def eval_f2(self, z):
        return _pointwise(lambda w: self.kernel.f_jet(w, 2)[2], z)

    def h(self, z):
        return _pointwise(lambda w: self.kernel.h_jet(w, 0)[0], z)

    def h1(self, z):
        return _pointwise(lambda w: self.kernel.h_jet(w, 1)[1], z)

    def omega1(self, z):
        return _pointwise(lambda w: self.kernel.omega_jet(w, 0)[0], z)

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
        return _pointwise(lambda w: self._kernel().omega_jet(w, 1)[1], z)

    def omega1(self, z):
        return _pointwise(lambda w: self._kernel().omega_jet(w, 0)[0], z)

    def psi_taylor(self, order: int) -> ComplexSeries:
        """Taylor coefficients of psi to the given order (exact for the
        polynomial kinds, true expansion for Blaschke products)."""
        if self._coeffs is None:
            return self._kernel().psi_taylor(order)
        return ComplexSeries(self._coeffs).pad_to(order).truncate(order)

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
def _polynomial_roots(c):
    """Approximate roots of the polynomial c (low to high, nonzero leading
    coefficient): closed form up to degree 2, companion eigenvalues above."""
    if len(c) == 2:
        return [-c[0] / c[1]]
    if len(c) == 3:
        c0, b, a = c
        s = cmath.sqrt(b * b - 4.0 * a * c0)
        q = -0.5 * (b + s if (b.conjugate() * s).real >= 0.0 else b - s)
        return [q / a, c0 / q] if q else [0j, 0j]
    return [complex(z) for z in npp.polyroots(c)]


def _inclusion_count(coeffs, radius):
    """Zeros of a polynomial in |z| < radius from Weierstrass inclusion disks.

    For distinct centres z_i the disks |z - z_i| <= n |W_i|, with
    W_i = p(z_i) / (a_n prod_{j != i} (z_i - z_j)), cover every zero, and a
    connected component of k disks holds exactly k zeros (Braess-Hadeler).
    When every disk lies strictly inside or strictly outside the circle, no
    component can straddle it, so the count is the number of disks inside;
    otherwise the count refuses.  Each radius covers the rounding of
    Horner's rule, the product and the moduli.
    """
    c = [complex(x) for x in np.atleast_1d(coeffs)]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        raise BoundaryTooClose("h is identically zero")
    n = len(c) - 1
    centres = []
    for k, z in enumerate(_polynomial_roots(c) if n else ()):
        if z in centres:  # a multiple root computed exactly: any distinct centres will do
            z += 2.0 ** -26 * (1.0 + abs(z)) * cmath.exp(2j * cmath.pi * k / n)
        centres.append(z)
    g = 8 * (n + 1) * 2.0 ** -53  # bounds the relative rounding of each step below
    inside = 0
    for i, zi in enumerate(centres):
        m = abs(zi)
        p, scale = 0j, 0.0
        for ck in reversed(c):
            p = p * zi + ck
            scale = scale * m + abs(ck)
        den = c[-1]
        for j, zj in enumerate(centres):
            if j != i:
                den *= zi - zj
        if den == 0:
            raise BoundaryTooClose(f"coincident root approximations at {zi!r}")
        r = n * (abs(p) + g * scale) / (abs(den) * (1.0 - g)) + g * m
        if m + r < radius:
            inside += 1
        elif not m - r > radius:
            raise BoundaryTooClose(
                f"the inclusion disk of the zero near {zi!r} (radius {r:.3e}) "
                f"meets the circle r = {radius}")
    return inside


def _winding_count(h, radius, lipschitz, slack):
    """Zeros of h in |z| < radius by the winding number of its boundary image.

    An arc of length l between two samples maps into the disk of radius
    lipschitz * l around the image of either end.  When that disk, widened
    by the rounding slack, excludes 0, the argument of h changes along the
    arc by exactly the principal angle between its end values.  Arcs that
    fail the test are halved, down to width 2 pi / CERT_SAMPLES; an arc
    that still fails there makes the count refuse.
    """
    width = 2.0 * np.pi / WINDING_START
    t = width * np.arange(WINDING_START)
    w0 = np.asarray(h(radius * np.exp(1j * t)))
    w1 = np.roll(w0, -1)
    turns = 0.0
    while True:
        ok = np.maximum(np.abs(w0), np.abs(w1)) > lipschitz * radius * width + 2.0 * slack
        turns += float(np.sum(np.angle(w1[ok] / w0[ok])))
        if ok.all():
            return int(np.rint(turns / (2.0 * np.pi)))
        if width <= 2.0 * np.pi / CERT_SAMPLES:
            low = float(np.min(np.minimum(np.abs(w0[~ok]), np.abs(w1[~ok]))))
            raise BoundaryTooClose(
                f"|h| falls to {low:.3e} on the circle r = {radius}, too close to 0 "
                f"for arcs of {width:.1e} rad")
        t, w0, w1 = t[~ok], w0[~ok], w1[~ok]
        width *= 0.5
        mid = np.asarray(h(radius * np.exp(1j * (t + width))))
        t = np.concatenate([t, t + width])
        w0, w1 = np.concatenate([w0, mid]), np.concatenate([mid, w1])


def count_zeros_on_disk(h, radius: float = CERT_RADIUS, lipschitz: float | None = None,
                        slack: float = 0.0) -> int:
    """Zeros of h inside |z| < radius, proven or refused.

    ``h`` is either the coefficients of a polynomial (low to high), whose
    zeros are enclosed in Weierstrass inclusion disks, or a vectorized
    callable analytic on the closed disk, counted by a winding number;
    then ``lipschitz`` bounds |h'| on the disk and ``slack`` the rounding
    error of the values of h.  A zero too close to the circle for the
    proof raises BoundaryTooClose; no count is returned unproven.
    """
    if not callable(h):
        return _inclusion_count(h, radius)
    if lipschitz is None:
        raise TypeError("a callable h needs a Lipschitz bound on |h'|")
    return _winding_count(h, radius, lipschitz, slack)


def build_member(a2, generator: SchwarzGenerator,
                 order: int = DEFAULT_ORDER) -> DiskFunction:
    """Construct f from z/f = 1 - a2 z - z omega1(z), omega1' = psi.

    The quotient is certified zero-free on |z| < CERT_RADIUS before the
    function is returned: by inclusion disks around its roots for the
    polynomial kinds, and by a Lipschitz-checked winding count for a
    Blaschke generator.  Inadmissible parameters, and a zero too close to
    the circle for either proof, raise DenominatorVanishes (callers
    typically resample).
    """
    a2 = complex(a2)
    if abs(a2) > 2.0 + 1e-12:
        raise ParamOutOfRange(f"|a2| = {abs(a2):.6g} exceeds the admissible bound 2")
    if order < 1:
        raise ParamOutOfRange(f"series order must be at least 1, got {order}")
    h, kernel = generator.member(a2, order)
    try:
        if isinstance(kernel, _PolyKernel):
            zeros = count_zeros_on_disk(h)
        else:
            lipschitz, slack = kernel.winding_bounds(CERT_RADIUS)
            zeros = count_zeros_on_disk(lambda z: kernel.h_jet(z, 0)[0], CERT_RADIUS,
                                        lipschitz, slack)
    except BoundaryTooClose as exc:
        raise DenominatorVanishes(f"quotient vanishes on the certification circle: {exc}") from exc
    if zeros != 0:
        raise DenominatorVanishes(
            f"quotient has {zeros} zero(s) inside |z| < {CERT_RADIUS:.6f}")
    return DiskFunction("sampled",
                        {"a2": a2, "generator": generator, "order": order},
                        kernel, quotient=ComplexSeries(h).pad_to(order).truncate(order))
