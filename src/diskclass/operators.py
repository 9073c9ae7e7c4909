"""Pointwise functionals and transforms attached to a disk function.

The central object is the deviation U(z) = (z/f(z))^2 f'(z) - 1.  Writing
h = z/f it satisfies U = h - z h' - 1, which is how both the functional
(``u_operator``, through the kernel) and the series (``u_series``, through
the quotient series) are computed; the class test |U| < 1 then runs on
boundary circles.  Also provided: the starlike quotient z f'/f, the convex
quotient 1 + z f''/f', their alpha-combination, the deviation transform
g = (h - 1)/(-a2), and the decomposition h = 1 - a2 z - z omega1.  Every
functional reads its pointwise values from the kernel of f.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import DiskFunction, _guard, _GTransformKernel, _omega_coeffs, _pointwise
from .errors import ArgumentOutOfDomain, SecondCoefficientVanishes
from .series import ComplexSeries

# |a2| below this cannot be divided by in the deviation transform.
EPS_A2 = 1e-8

__all__ = [
    "PointFunctional",
    "OmegaDecomposition",
    "u_operator",
    "u_series",
    "starlike_quotient",
    "convex_quotient",
    "mocanu_real_part",
    "turning_derivative",
    "g_deviation",
    "g_starlike_deviation",
    "g_transform",
    "decompose",
    "phi_profile",
]


class PointFunctional:
    """A vectorized map z -> complex attached to a source function."""

    def __init__(self, tag, source_id, fn):
        self.tag = tag
        self.source_id = source_id
        self._fn = fn

    def __call__(self, z):
        return _pointwise(lambda zz: np.asarray(self._fn(zz), dtype=np.complex128), z)

    def __repr__(self):
        return f"PointFunctional(tag={self.tag!r}, source={self.source_id!r})"


def u_operator(f: DiskFunction) -> PointFunctional:
    """The deviation functional U = h - z h' - 1, through the kernel of f.

    U(0) = 0 falls out of h(0) = 1 with no special casing.
    """
    k = f.kernel

    def fn(zz):
        return k.h(zz) - zz * k.h1(zz) - 1.0

    return PointFunctional("U", f.id, fn)


def u_series(f: DiskFunction) -> ComplexSeries:
    """Taylor series of the deviation, h - z h' - 1 on the quotient series."""
    h = f.quotient
    return h - h.derivative().mul_z() - 1.0


def starlike_quotient(f: DiskFunction) -> PointFunctional:
    """z f'(z)/f(z) computed as (h - z h')/h; equals 1 at the origin."""
    k = f.kernel

    def fn(zz):
        hv = k.h(zz)
        _guard(hv, zz, "starlike quotient")
        return (hv - zz * k.h1(zz)) / hv

    return PointFunctional("starlike_quotient", f.id, fn)


def convex_quotient(f: DiskFunction) -> PointFunctional:
    """1 + z f''(z)/f'(z); requires f' away from zero on the scan set."""
    k = f.kernel

    def fn(zz):
        f1 = k.f1(zz)
        _guard(f1, zz, "convex quotient")
        return 1.0 + zz * k.f2(zz) / f1

    return PointFunctional("convex_quotient", f.id, fn)


def mocanu_real_part(f: DiskFunction, alpha):
    """Re of the alpha-convex functional, for one alpha or a 1-d array of them.

    The functional is (1 - alpha) z f'/f + alpha (1 + z f''/f').  z f'/f
    and 1 + z f''/f' are evaluated once per call and combined as
    (1 - alpha) Re s + alpha Re c in one real array.  For a single alpha
    the values have the shape of the points; for k alphas the map is
    row-batched: points of shape (m,) or (k, m) give a (k, m) array whose
    row i belongs to alpha[i].
    """
    s = starlike_quotient(f)
    c = convex_quotient(f)
    a = np.asarray(alpha, dtype=float)[..., None]
    b = 1.0 - a

    def fn(zz):
        cr = c(zz).real  # first: f' and f'' make the most temporaries
        out = b * s(zz).real
        out += a * cr
        return out

    return fn


def turning_derivative(f: DiskFunction) -> PointFunctional:
    """f'(z), whose real part is positive for bounded turning."""
    return PointFunctional("bounded_turning", f.id, f.kernel.f1)


def _require_a2(f: DiskFunction) -> complex:
    if abs(f.a2) < EPS_A2:
        raise SecondCoefficientVanishes(
            f"|a2| = {abs(f.a2):.3e} is below {EPS_A2}; the transform is undefined")
    return f.a2


def g_transform(f: DiskFunction) -> DiskFunction:
    """g = ((z/f) - 1)/(-a2), normalized whenever a2 != 0.

    g(z) = z + (1/a2) z omega1(z) in terms of the decomposition of f, so
    its quotient z/g = a2/(a2 + omega1(z)) stays smooth at the origin.
    """
    _require_a2(f)
    h = f.quotient.coeffs
    g_coeffs = np.zeros(h.size, dtype=np.complex128)
    g_coeffs[1] = 1.0
    # omega1 coefficients are -h_{j+1}, so g_k = omega1_{k-1}/a2 = -h_k/a2
    g_coeffs[2:] = -h[2:] / f.a2
    g_series = ComplexSeries(g_coeffs)
    kernel = _GTransformKernel(f.kernel, f.a2, g_series.coefficient(2))
    return DiskFunction("g_transform", {"of": f.to_spec()}, kernel, series=g_series)


def g_deviation(f: DiskFunction) -> PointFunctional:
    """g'(z) - 1 = (omega1(z) + z psi(z))/a2 for the transform of f."""
    k, a2 = f.kernel, _require_a2(f)

    def fn(zz):
        return (k.omega1(zz) + zz * k.psi(zz)) / a2

    return PointFunctional("g_deviation", f.id, fn)


def g_starlike_deviation(f: DiskFunction) -> PointFunctional:
    """z g'(z)/g(z) - 1 = z psi(z)/(a2 + omega1(z)) for the transform of f."""
    k, a2 = f.kernel, _require_a2(f)

    def fn(zz):
        den = a2 + k.omega1(zz)
        _guard(den, zz, "a2 + omega1")
        return zz * k.psi(zz) / den

    return PointFunctional("g_starlike_deviation", f.id, fn)


@dataclass(frozen=True)
class OmegaDecomposition:
    """Data of z/f = 1 - a2 z - z omega1(z) with c = first three omega1 coefficients."""

    a2: complex
    omega1: ComplexSeries
    c: tuple

    def to_dict(self):
        return {
            "a2": [self.a2.real, self.a2.imag],
            "c": [[ck.real, ck.imag] for ck in self.c],
            "omega1": self.omega1.to_json_dict(),
        }


def decompose(f: DiskFunction) -> OmegaDecomposition:
    """Split f into (a2, omega1) via its quotient series; exact for class members."""
    h = f.quotient
    omega = ComplexSeries(_omega_coeffs(h.coeffs))
    c = tuple(omega.coefficient(k) for k in (1, 2, 3))
    return OmegaDecomposition(a2=complex(h.coefficient(1)) * -1.0, omega1=omega, c=c)


def phi_profile(t: float, r: float, a2_abs: float) -> float:
    """((1 - r^2 - a) t^2 + a r^2)/(a - t)^2 with a = |a2|.

    The profile majorizes |U| of the deviation transform along |omega1| = t
    inside |z| = r; it is increasing in t on [0, r] whenever 0 < a <= 1, and
    its value at t = r is (1 - r^2) r^2/(a - r)^2.
    """
    a = float(a2_abs)
    t, r = float(t), float(r)
    if not 0.0 <= t <= r:
        raise ArgumentOutOfDomain(f"need 0 <= t <= r, got t = {t}, r = {r}")
    if not r < a:
        raise ArgumentOutOfDomain(f"need r < |a2|, got r = {r}, |a2| = {a}")
    if not r < 1.0:
        raise ArgumentOutOfDomain(f"need r < 1, got r = {r}")
    return ((1.0 - r * r - a) * t * t + a * r * r) / (a - t) ** 2
