"""Named disk functions, Schwarz-bounded generators, and certified builders.

Every function is normalized (f(0) = 0, f'(0) = 1), analytic on the open
unit disk, and handled through its quotient h = z/f = 1 - a2 z - z omega1(z);
with |omega1'| <= 1 on the disk it belongs to the class the membership
module tests.  Values at points come from the jets of a kernel
(``_Kernel``), Taylor series from ``DiskFunction``; ``build_member``
certifies members (``count_zeros_on_disk``), and ``zero_bracket`` places
the zeros nearest the origin of the factors of f.
"""
from __future__ import annotations

import cmath
import functools

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    BoundaryTooClose,
    DenominatorVanishes,
    EvalNearZeroDenominator,
    ParamOutOfRange,
    UnknownId,
)
from .series import DEFAULT_ORDER, MAX_ORDER, ComplexSeries

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
# A factor without zeros on the disk, as polynomial coefficients.
_ONE = np.ones(1, dtype=np.complex128)

__all__ = [
    "DiskFunction",
    "SchwarzGenerator",
    "make_catalog",
    "catalog_ids",
    "sample_schwarz",
    "build_member",
    "count_zeros_on_disk",
    "seed_key",
]


def _guard(values, points, what):
    small = np.abs(values) <= EPS_DENOM
    if np.any(small):
        bad = complex(np.asarray(points)[small][0])
        raise EvalNearZeroDenominator(f"{what} denominator below {EPS_DENOM} at z = {bad!r}")


@functools.lru_cache(maxsize=8)
def _unit_circle(n):
    """The n points e^{2 pi i k/n}, k = 0..n-1, built once per n and shared
    read-only by every scan grid and sampler draw that asks for them."""
    circle = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    circle.setflags(write=False)
    return circle


# ---------------------------------------------------------------------------
# kernels: jets of h = z/f, f and the omega data at arrays of points
# ---------------------------------------------------------------------------
def _log(w):
    """The principal logarithm of a complex array, log|w| + i atan2(Im w,
    Re w), for the Blaschke and log_map kernels.  Real arithmetic costs a
    fraction of numpy's complex log per point, and every circle scan of a
    Blaschke member takes one log per factor.  It stays within 4 ulp of
    max(1, |log w|) on those kernels' arguments (the mpmath oracle) and
    gives the same -+pi on the two signed-zero sides of the branch cut."""
    return np.log(np.abs(w)) + 1j * np.arctan2(w.imag, w.real)


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
    """Jets of one representation of h = z/f on complex arrays of any
    shape, elementwise.

    Three methods serve every pointwise value: ``h_jet(z, n)`` is
    [h, h', h''][:n+1], ``omega_jet(z, n)`` is [omega1, psi, psi'][:n+1]
    and ``f_jet(z, n)`` is [f, f', f''][:n+1].  A subclass implements its
    natural jet and sets ``a2``: every rational h = N/M its h jet
    (``_RationalKernel``), a Blaschke member its omega jet, ``log_map`` its
    f jet, and g of either the h jet from its parent's omega jet.  The
    defaults of the others rearrange h = 1 - a2 z - z omega1.  The omega
    jet from h divides by powers of z, so for |z| below ``mask_radius`` it
    falls back to the polynomial kernel of the quotient series of
    ``owner``, the DiskFunction the kernel belongs to.  The f jet is the
    reciprocal of the h jet, guarded against a vanishing h.

    Every subclass implements ``factor(part)``, the kernel's zero source
    for a factor of f = z P/Q on the unit disk: "pole" is Q, whose zeros
    are the poles of f, "root" is P, whose zeros are those of f/z, and
    "crit" the numerator of f'.  A source is what ``count_zeros_on_disk``
    takes, or None for no proof; a kernel whose g is no rational kernel
    gives g's sources (``g_factor``).
    """

    mask_radius = 1e-3
    owner = None
    _near_origin = None

    def _masked(self, z, n, closed, jet):
        out = np.empty((n + 1,) + z.shape, dtype=np.complex128)
        near = np.abs(z) < self.mask_radius
        if near.any():
            if self._near_origin is None:
                self._near_origin = _RationalKernel(self.owner.quotient.coeffs)
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

    def g_kernel(self, a2, g_a2):
        """The kernel of g = (h - 1)/(-a2), whose own a2 is g_a2."""
        return _GTransformKernel(self, a2, g_a2)


def _ratio(num, den):
    """The jet of num/den from the jets [x, x', x''] of num and den, to the
    same length."""
    out = [num[0] / den[0]]
    if len(num) > 1:
        out.append((num[1] * den[0] - num[0] * den[1]) / den[0] ** 2)
        if len(num) > 2:
            out.append((num[2] * den[0] ** 2 - num[0] * (den[2] * den[0] - 2.0 * den[1] ** 2)
                        - 2.0 * num[1] * den[1] * den[0]) / den[0] ** 3)
    return out


class _RationalKernel(_Kernel):
    """h = N/M for polynomials N and M with N(0) = M(0) != 0 and no common
    zero; without M (M = 1) the h jet is N's polynomial jet, and without N
    (N = 1, a series f = z M) the f jet is z M's.  The omega jet is W/M
    with W = R - a2 M and R = (M - N)/z, exact at the origin.  Each
    polynomial's derivatives are built on the first request for them."""

    def __init__(self, numer=None, denom=None):
        self._chains = {name: (ComplexSeries(c),)
                        for name, c in (("N", numer), ("M", denom)) if c is not None}

    def _coeffs(self, name):
        return self._chains[name][0].coeffs if name in self._chains else _ONE

    def _jet(self, name, z, n):
        if name not in self._chains:  # the polynomial 1
            return [np.ones_like(z)] + [np.zeros_like(z)] * n
        chain = self._chains[name]
        while len(chain) <= n:
            chain += (chain[-1].derivative(),)
        self._chains[name] = chain
        return [p(z) for p in chain[:n + 1]]

    def _over_m(self, name, z, n):
        """The jet of the polynomial ``name`` over M at z, to order n."""
        top = self._jet(name, z, n)
        if "M" not in self._chains:
            return top
        m = self._jet("M", z, n)
        _guard(m[0], z, "N/M")
        return _ratio(top, m)

    def _r(self):
        """R = (M - N)/z, exact since M(0) = N(0), with at least M's size."""
        n, m = self._coeffs("N"), self._coeffs("M")
        r = np.zeros(max(n.size, m.size + 1), dtype=np.complex128)
        r[:n.size] = -n
        r[:m.size] += m
        return r[1:]

    def h_jet(self, z, n):
        return self._over_m("N", z, n)

    def f_jet(self, z, n, h=None):
        if "N" in self._chains:
            return super().f_jet(z, n, h)
        m = self._jet("M", z, n)
        return [z * m[k] + k * m[k - 1] if k else z * m[0] for k in range(n + 1)]

    def omega_jet(self, z, n):
        if "W" not in self._chains:  # W = R - a2 M, and R(0) = a2 M(0)
            w, m = self._r(), self._coeffs("M")
            w[1:m.size] -= w[0] / m[0] * m[1:]
            w[0] = 0.0
            self._chains["W"] = (ComplexSeries(w),)
        return self._over_m("W", z, n)

    def factor(self, part):
        """f = z M/N: its poles are the zeros of N, those of f/z the zeros
        of M, and f' = (MN + z (M'N - MN'))/N^2, whose numerator has the
        coefficients sum over i + j = k of (1 + i - j) M_i N_j."""
        n, m = self._coeffs("N"), self._coeffs("M")
        if part != "crit":
            return n if part == "pole" else m
        terms = np.fliplr(np.multiply.outer(m, n) * np.add.outer(1.0 + np.arange(m.size),
                                                                -np.arange(n.size)))
        return np.array([terms.trace(n.size - 1 - k) for k in range(m.size + n.size - 1)])

    def g_kernel(self, a2, g_a2):
        """g of N/M is a2 M/R: a common zero of a2 M and R would be one of M
        and N, so the two stay coprime."""
        return _RationalKernel(a2 * self._coeffs("M"), self._r())


class _BlaschkeKernel(_Kernel):
    """h = 1 - a2 z - z omega1 with omega1 integrated in closed form.

    psi = p/q is a finite Blaschke product scaled by rho e^{i theta}.
    Partial fractions turn its primitive into a polynomial plus logarithms
    log(1 - conj(alpha_k) z) (``_log``), which stay on the principal branch
    for |alpha_k| < 1 and |z| <= 1.
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
        self.p1_poly = npp.polyder(self.p_poly)
        self.q1_poly = npp.polyder(q)
        quo, rem = npp.polydiv(self.p_poly, q)
        self.quo_int = npp.polyint(quo)
        self.conj_alphas = np.conj(alphas)
        poles = 1.0 / self.conj_alphas
        self.residues = npp.polyval(poles, rem) / npp.polyval(poles, self.q1_poly)

    def winding_bounds(self, radius, part="pole"):
        """(lipschitz, slack) on |z| <= radius of what the winding count of
        ``part`` counts: h for "pole", and for g = z D/a2 the factors
        D = a2 + omega1 ("root") and D + z psi = a2 g' ("crit").

        |psi| <= rho and |omega1(z)| <= rho |z| bound |h'| = |a2 + omega1 +
        z psi| by |a2| + 2 rho radius and |D'| = |psi| by rho, and
        |(D + z psi)'| = |2 psi + z psi'| by rho (2 + radius s): Schwarz-Pick
        bounds |psi'|/rho by s = 1/(1 - radius^2), and on each factor of psi
        by s = sum (1 - |alpha_k|^2)/(1 - |alpha_k| radius)^2.  The slack is
        2^-40 times the moduli of the terms the jets add: a log term counts
        its modulus bound plus its conditioning 1/|1 - conj(alpha) z|, and
        psi = p/q counts rho prod (1 + |alpha_k| radius)/(1 - |alpha_k| radius).
        """
        near = 1.0 - np.abs(self.conj_alphas) * radius
        omega = npp.polyval(radius, np.abs(self.quo_int)) + np.abs(self.residues) @ (
            np.pi - np.log(near) + 1.0 / near)
        if part == "pole":
            lipschitz, terms = (abs(self.a2) + 2.0 * self.rho * radius,
                                1.0 + abs(self.a2) * radius + radius * omega)
        elif part == "root":
            lipschitz, terms = self.rho, abs(self.a2) + omega
        else:
            s = min(np.sum((1.0 - np.abs(self.conj_alphas) ** 2) / near ** 2),
                    1.0 / (1.0 - radius ** 2))
            lipschitz = self.rho * (2.0 + radius * s)
            terms = abs(self.a2) + omega + radius * self.rho * np.prod((2.0 - near) / near)
        return float(lipschitz), 2.0 ** -40 * float(terms)

    def factor(self, part):
        """h by a winding count; f/z = 1/h has no zeros, and neither has
        f' = s/h^2, since s = h - z h' = 1 + z^2 psi with |psi| <= rho <= 1."""
        if part == "pole":
            return (lambda z: self.h_jet(z, 0)[0]), self.winding_bounds
        return _ONE

    def g_factor(self, part):
        """g = z D/a2 with D = a2 + omega1 has no poles; g/z = D/a2 and
        g' = (D + z psi)/a2 are counted by winding unless |a2| exceeds rho,
        which bounds |omega1|, or 2 rho, which bounds |omega1 + z psi|."""
        crit = part == "crit"
        if part == "pole" or abs(self.a2) > (1.0 + crit) * self.rho:
            return _ONE

        def fn(z):
            om = self.omega_jet(z, int(crit))
            return self.a2 + om[0] + z * om[1] if crit else self.a2 + om[0]
        return fn, lambda radius: self.winding_bounds(radius, part)

    def omega_jet(self, z, n):
        acc = npp.polyval(z, self.quo_int)
        for bk, ca in zip(self.residues, self.conj_alphas):
            acc += bk * _log(1.0 - ca * z)
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
    the f jet is closed form (``_log``) and the h jet its reciprocal.  A
    caller that passes its h jet gets f as z/h, without a second log."""

    a2 = 0.5

    @functools.cached_property
    def mask_radius(self):
        """Below this |z| the h jet is the quotient series' polynomial, of
        degree m, one less than f's order: where the relative errors of U
        of the two forms cross, capped at 0.05.  The closed form builds U
        from the rounded w = 1 - z, so its error grows as |z| falls, as
        2^-47/|z|^3 (4.7e-6 at |z| = 1e-3, 40-digit mpmath over 50 angles).
        U = sum (1 - k) c_k z^k over the coefficients c_k of h begins at
        -z^2/12, and the polynomial drops its terms from k = m + 1 on, an
        error of 12 m |c_(m+1)| |z|^(m-1), or 1 for m <= 1, where U = 0;
        c_(m+1) is the next term of h = 1/(f/z), f/z = sum z^k/(k + 1).
        The mask is 1.9e-5 at order 2, 2.9e-4 at order 3, 4.5e-3 at order
        5 and 0.05 from order 10 on, where no quotient series is built."""
        m = self.owner.order - 1
        if m > 8:
            return 0.05
        lead = 1.0
        if m > 1:
            c = self.owner.quotient.coeffs.real
            lead = 12.0 * m * abs(float(c @ (1.0 / np.arange(m + 2, 1, -1))))
        return min(0.05, (2.0 ** -47 / lead) ** (1.0 / (max(m, 1) + 2)))

    def f_jet(self, z, n, h=None):
        w = 1.0 - z
        jet = [-_log(w) if h is None else z / h[0]]
        if n > 0:
            jet.append(1.0 / w)
        if n > 1:
            jet.append(w ** -2.0)
        return jet

    def h_jet(self, z, n):
        return self._masked(z, n, lambda w, n: _reciprocal(w, self.f_jet(w, n)), "h_jet")

    def factor(self, part):
        """f is analytic on the disk, and f/z and f' = 1/(1 - z) have no zeros
        there.  Nor has g = (1 - h)/a2 = z D/a2 poles, or D = h sum z^k/(k + 2)
        and a2 g' = -h' = h^2 sum z^j/((j + 1)(j + 2))/(1 - z) zeros, since
        h = 1/sum z^k/(k + 1) and sums with positive decreasing coefficients
        have no zeros on the disk (Enestrom-Kakeya and Hurwitz)."""
        return _ONE

    g_factor = factor


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

    def factor(self, part):
        return self.parent.g_factor(part)

    def g_factor(self, part):
        return None  # no proof places the zeros for g of g of a non-rational f


# ---------------------------------------------------------------------------
# DiskFunction
# ---------------------------------------------------------------------------
class DiskFunction:
    """A normalized analytic function on the unit disk.

    Combines a closed-form kernel for the quotient h = z/f with the Taylor
    series of h (``quotient``) and of f (``series``).  The constructor takes
    the one series its caller knows exactly, whose order is the declared
    ``order``; h and f/z are reciprocal series, so the other one is derived
    by inversion and cached, f only as far as a caller reads (``taylor``).
    Without a kernel the closed forms are the polynomial the constructor
    was given: h for a quotient, f for a series.  Values at points come
    from the jets of ``kernel`` (``_Kernel``).
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
        self.order = (series if quotient is None else quotient).order
        if kernel is None:
            kernel = (_RationalKernel(quotient.coeffs) if quotient is not None
                      else _RationalKernel(denom=series.div_z(NORMALIZATION_TOL).coeffs))
        self.kernel = kernel
        self.kernel.owner = self

    def taylor(self, top: int) -> ComplexSeries:
        """Taylor series of f through z^top, or through ``order`` if lower.

        From a quotient only its terms up to z^top are inverted, with the
        bits of the full inversion (``ComplexSeries.reciprocal``).  The
        derived series is cached and re-derived when a caller asks for more.
        """
        top = min(top, self.order)
        if self._f is None or self._f.order < top:
            self._f = self._h.truncate(top).reciprocal().mul_z()
        return self._f

    @property
    def series(self) -> ComplexSeries:
        """Taylor series of f at the declared order."""
        return self.taylor(self.order)

    @property
    def quotient(self) -> ComplexSeries:
        """Taylor series of h = z/f."""
        if self._h is None:
            self._h = self._f.div_z(NORMALIZATION_TOL).reciprocal()
        return self._h

    def __repr__(self):
        return f"DiskFunction(id={self.id!r}, params={self.params!r}, a2={self.a2:.6g})"

    # -- serialization ----------------------------------------------------
    def to_spec(self) -> dict:
        """JSON spec {"id", "params"} of a catalog function or a
        ``build_member`` member, whose params are already in spec form;
        ``from_spec`` reads it back.  Any other id (a g-transform, a raw
        series) has no spec and raises UnknownId."""
        if self.id != "sampled" and self.id not in catalog_ids():
            raise UnknownId(f"{self.id!r} is neither a catalog id nor a member: no spec")
        return {"id": self.id, "params": dict(self.params)}

    @classmethod
    def from_spec(cls, spec, order=None) -> "DiskFunction":
        fid = spec["id"]
        if fid == "sampled":
            p = spec["params"]
            gen = SchwarzGenerator.from_dict(p["generator"])
            a2 = complex(p["a2"][0], p["a2"][1])
            return build_member(a2, gen, order or int(p["order"]))
        return make_catalog(fid, spec.get("params") or None,
                            order=order or DEFAULT_ORDER)

    @classmethod
    def from_series(cls, series: ComplexSeries) -> "DiskFunction":
        """Wrap a raw Taylor series; closed forms are the polynomial it spells.

        Boundary scans of such a function see the polynomial f, not an
        analytic function the coefficients may truncate, so results for
        that function degrade near |z| = 1 when they decay slowly.
        """
        return cls("series", {}, series=series)


# ---------------------------------------------------------------------------
# named catalog
# ---------------------------------------------------------------------------
# id -> polynomial coefficients of h = z/f (low to high)
_RATIONAL_H = {
    "koebe": [1.0, -2.0, 1.0],
    "f1": [1.0, 0.0, -1.0],
    "f2": [1.0, 0.0, 0.0, -0.5],
    "half_plane": [1.0, -1.0],
    "identity": [1.0],
    "example_sec1": [1.0, -1.5, 0.0, 0.5],
}


def _check_order(order, low=1):
    """Refuse a series order outside [low, MAX_ORDER] with ParamOutOfRange."""
    if not low <= order <= MAX_ORDER:
        raise ParamOutOfRange(
            f"series order must lie in [{low}, {MAX_ORDER}], got {order}")


def catalog_ids():
    """The ids ``make_catalog`` accepts: the rational quotients, sorted,
    then fb and log_map."""
    return sorted(_RATIONAL_H) + ["fb", "log_map"]


def make_catalog(cid: str, params=None, order: int = DEFAULT_ORDER) -> DiskFunction:
    """Build a named catalog function.

    ``fb`` requires a parameter b with 0 < b <= 2; every other id takes no
    parameters.  Unknown ids raise UnknownId.  ``order`` lies in [1,
    MAX_ORDER].
    """
    _check_order(order)
    params = dict(params or {})
    if cid == "fb":
        b = params.get("b")
        if b is None:
            raise ParamOutOfRange("fb requires a parameter b in (0, 2]")
        b = float(b)
        if not 0.0 < b <= 2.0:
            raise ParamOutOfRange(f"fb parameter b = {b} outside (0, 2]")
        h, params = [1.0, b, 1.0], {"b": b}
    elif params:
        raise ParamOutOfRange(f"catalog id {cid!r} takes no parameters")
    elif cid == "log_map":
        f = np.zeros(order + 1, dtype=np.complex128)
        f[1:] = 1.0 / np.arange(1, order + 1)
        return DiskFunction("log_map", {}, _LogQuotientKernel(), series=ComplexSeries(f))
    elif cid in _RATIONAL_H:
        h = _RATIONAL_H[cid]
    else:
        raise UnknownId(f"unknown catalog id {cid!r}")
    return DiskFunction(cid, params, _RationalKernel(h), quotient=ComplexSeries(h).pad_to(order))


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

    # -- members -----------------------------------------------------------
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
            num = ComplexSeries(kernel.p_poly).pad_to(order)
            psi = (num * ComplexSeries(kernel.q_poly).pad_to(order).reciprocal()).coeffs
        else:
            kernel, psi = None, self._coeffs
        h = np.zeros(psi.size + 2, dtype=np.complex128)
        h[0] = 1.0
        h[1] = -a2
        h[2:] = -psi / np.arange(1, psi.size + 1)
        return h, kernel if kernel is not None else _RationalKernel(h)

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
        sup = float(np.abs(npp.polyval(_unit_circle(8192), raw)).max())
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


def _inclusion_disks(coeffs):
    """Weierstrass inclusion disks (centre, radius) of the zeros of a polynomial.

    For distinct centres z_i the disks |z - z_i| <= n |W_i|, with
    W_i = p(z_i) / (a_n prod_{j != i} (z_i - z_j)), cover every zero, and a
    connected component of k disks holds exactly k zeros (Braess-Hadeler).
    Each radius covers the rounding of Horner's rule, the product and the
    moduli.  A constant has no disks.
    """
    c = [complex(x) for x in np.atleast_1d(coeffs)]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        raise BoundaryTooClose("the polynomial is identically zero")
    n = len(c) - 1
    centres = []
    for k, z in enumerate(_polynomial_roots(c) if n else ()):
        if z in centres:  # a multiple root computed exactly: any distinct centres will do
            z += 2.0 ** -26 * (1.0 + abs(z)) * cmath.exp(2j * cmath.pi * k / n)
        centres.append(z)
    g = 8 * (n + 1) * 2.0 ** -53  # bounds the relative rounding of each step below
    disks = []
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
        disks.append((zi, n * (abs(p) + g * scale) / (abs(den) * (1.0 - g)) + g * m))
    return disks


def _inclusion_count(coeffs, radius):
    """Zeros of a polynomial in |z| < radius from its inclusion disks.

    When every disk lies strictly inside or strictly outside the circle, no
    component can straddle it, so the count is the number of disks inside;
    otherwise the count refuses.
    """
    inside = 0
    for z, r in _inclusion_disks(coeffs):
        m = abs(z)
        if m + r < radius:
            inside += 1
        elif not m - r > radius:
            raise BoundaryTooClose(
                f"the inclusion disk of the zero near {z!r} (radius {r:.3e}) "
                f"meets the circle r = {radius}")
    return inside


def _nearest_zero(disks, radius):
    """``zero_bracket`` from inclusion disks.

    Every component of the disks holds a zero, so hi is the least over the
    components of the largest modulus a component reaches, and a component
    of one disk holds one simple zero.  None when the components that reach
    inside the circle all reach out of it too.
    """
    lo = min([radius] + [abs(z) - r for z, r in disks])
    if lo >= radius:
        return radius, None, True
    hi, simple, left = radius, True, list(disks)
    while left:
        component = [left.pop()]
        for z, r in component:  # grows while it is walked
            near = [d for d in left if abs(d[0] - z) <= d[1] + r]
            left = [d for d in left if abs(d[0] - z) > d[1] + r]
            component += near
        hi = min(hi, max(abs(z) + r for z, r in component))
        simple &= len(component) == 1 or min(abs(z) - r for z, r in component) >= radius
    return (lo, hi, simple) if hi < radius else None


def _winding_bracket(source, radius):
    """``zero_bracket`` from winding counts: a count of k > 0 zeros is
    narrowed by bisecting the radius on counts of the same source.  The
    first count that refuses puts a zero near its circle; the search then
    closes in on that circle from below and from above, halving the gap,
    until a count on that side refuses too.  k = 1 proves the zero simple."""
    count = count_zeros_on_disk(source, radius)
    if not count:
        return radius, None, True
    bracket, near = [0.0, radius], None  # lo, hi

    def narrowed(r):
        try:
            bracket[bool(count_zeros_on_disk(source, r))] = r
            return True
        except BoundaryTooClose:
            return False

    for side in (None, 0, 1):  # bisect, then close in on the refused circle
        while True:
            r = 0.5 * (bracket[0] + bracket[1] if near is None else bracket[side] + near)
            if not (bracket[0] < r < bracket[1] and narrowed(r)):
                break
        near = r if near is None else near
    return (*bracket, count == 1) if bracket[1] < radius else None


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


def count_zeros_on_disk(source, radius: float = CERT_RADIUS) -> int:
    """Zeros inside |z| < radius of a kernel's zero source, proven or refused.

    ``source`` is what a kernel's ``factor`` returns: the coefficients of a
    polynomial (low to high), whose zeros are enclosed in Weierstrass
    inclusion disks, or a pair (fn, bounds) of a vectorized callable
    analytic on the closed disk, counted by a winding number, and the map
    from a radius to the (lipschitz, slack) of fn on that disk.  A zero too
    close to the circle for the proof raises BoundaryTooClose; no count is
    returned unproven.
    """
    if isinstance(source, tuple):
        fn, bounds = source
        return _winding_count(fn, radius, *bounds(radius))
    return _inclusion_count(source, radius)


def zero_bracket(f: DiskFunction, part: str, radius: float):
    """The zeros nearest the origin of one factor of f in |z| < radius.

    ``part`` names the factor, as in the kernels' ``factor``: "pole" for
    the poles of f, "root" for the zeros of f/z, "crit" for the zeros of
    f'.  Returns (lo, hi, simple): no zero lies in |z| < lo; either hi is
    None and lo = radius, or a zero lies in lo <= |z| <= hi < radius; and
    simple is True when every zero in |z| < radius is proven simple.
    Returns None when nothing is proven: the kernel has no proof source,
    the count on |z| = radius refuses, or the zeros inside the circle are
    placed no closer to the origin than radius.
    """
    source = f.kernel.factor(part)
    if source is None:
        return None
    try:
        if isinstance(source, tuple):
            return _winding_bracket(source, radius)
        return _nearest_zero(_inclusion_disks(source), radius)
    except BoundaryTooClose:
        return None


def build_member(a2, generator: SchwarzGenerator,
                 order: int = DEFAULT_ORDER) -> DiskFunction:
    """Construct f from z/f = 1 - a2 z - z omega1(z), omega1' = psi.

    The quotient is certified zero-free on |z| < CERT_RADIUS
    (``count_zeros_on_disk`` of the kernel's "pole" factor) before the
    function is returned.  Inadmissible parameters, and a zero too close to
    the circle for the proof, raise DenominatorVanishes (callers typically
    resample).
    """
    a2 = complex(a2)
    if abs(a2) > 2.0 + 1e-12:
        raise ParamOutOfRange(f"|a2| = {abs(a2):.6g} exceeds the admissible bound 2")
    _check_order(order)
    h, kernel = generator.member(a2, order)
    try:
        zeros = count_zeros_on_disk(kernel.factor("pole"))
    except BoundaryTooClose as exc:
        raise DenominatorVanishes(f"quotient vanishes on the certification circle: {exc}") from exc
    if zeros != 0:
        raise DenominatorVanishes(
            f"quotient has {zeros} zero(s) inside |z| < {CERT_RADIUS:.6f}")
    spec = {"a2": [a2.real, a2.imag], "generator": generator.to_dict(), "order": int(order)}
    return DiskFunction("sampled", spec,
                        kernel, quotient=ComplexSeries(h).pad_to(order).truncate(order))
