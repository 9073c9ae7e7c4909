"""Pointwise functionals and transforms attached to a disk function.

The central object is the deviation U(z) = (z/f(z))^2 f'(z) - 1
(``u_operator``).  Every functional is a ``PointFunctional`` that reads one
jet of the kernel of f per call; ``g_transform`` and ``decompose`` work on
the quotient series.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import DiskFunction, _guard
from .errors import ArgumentOutOfDomain, InsufficientOrder, SecondCoefficientVanishes
from .series import ComplexSeries

# |a2| below this cannot be divided by in the deviation transform.
EPS_A2 = 1e-8

__all__ = [
    "OmegaDecomposition",
    "u_operator",
    "starlike_quotient",
    "convex_quotient",
    "mocanu_real_part",
    "turning_derivative",
    "g_transform",
    "decompose",
    "phi_profile",
]


class PointFunctional:
    """A vectorized map of complex points: ``fn`` takes a 1-d (or, row-batched,
    a 2-d) array of points, and a scalar point gives a scalar (one per row).
    Values keep the dtype ``fn`` gives them: a real-part map stays real."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, z):
        zz = np.asarray(z, dtype=np.complex128)
        values = self._fn(np.atleast_1d(zz))
        if zz.ndim:
            return values
        return values[0].item() if values.ndim == 1 else values[:, 0]


def _deviation(zz, h):
    return h[0] - zz * h[1] - 1.0


def _starlike(zz, h):
    _guard(h[0], zz, "starlike quotient")
    return (h[0] - zz * h[1]) / h[0]


def _convex(zz, f):
    _guard(f[1], zz, "convex quotient")
    return 1.0 + zz * f[2] / f[1]


def u_operator(f: DiskFunction) -> PointFunctional:
    """The deviation functional U = h - z h' - 1, through the kernel of f.

    U(0) = 0 falls out of h(0) = 1 with no special casing.
    """
    k = f.kernel
    return PointFunctional(lambda zz: _deviation(zz, k.h_jet(zz, 1)))


def starlike_quotient(f: DiskFunction) -> PointFunctional:
    """z f'(z)/f(z) computed as (h - z h')/h; equals 1 at the origin."""
    k = f.kernel
    return PointFunctional(lambda zz: _starlike(zz, k.h_jet(zz, 1)))


def convex_quotient(f: DiskFunction) -> PointFunctional:
    """1 + z f''(z)/f'(z); requires f' away from zero on the scan set."""
    k = f.kernel
    return PointFunctional(lambda zz: _convex(zz, k.f_jet(zz, 2)))


def _alpha_convex(kernel, zz, h, a):
    """(1 - a) Re s + a Re c at zz, with s = z f'/f from the order-2 h jet
    of kernel there and c = 1 + z f''/f' from the f jet derived from it
    (or the kernel's closed-form one); a column of k alphas gives k rows.
    With every alpha 0, c is not evaluated: a zero of f' is no pole then."""
    out = (1.0 - a) * _starlike(zz, h).real
    if a.any():
        out += a * _convex(zz, kernel.f_jet(zz, 2, h)).real
    return out


def mocanu_real_part(f: DiskFunction, alpha) -> PointFunctional:
    """Re of the alpha-convex functional, for one alpha or a 1-d array of them.

    The functional is (1 - alpha) z f'/f + alpha (1 + z f''/f'), read off
    one h jet per call.  For a single alpha the values have the shape of
    the points; for k alphas the map is row-batched: points of shape (m,)
    or (k, m) give a (k, m) array whose row i belongs to alpha[i].
    """
    k = f.kernel
    a = np.asarray(alpha, dtype=float)[..., None]
    return PointFunctional(lambda zz: _alpha_convex(k, zz, k.h_jet(zz, 2), a))


def turning_derivative(f: DiskFunction) -> PointFunctional:
    """f'(z), whose real part is positive for bounded turning."""
    k = f.kernel
    return PointFunctional(lambda zz: k.f_jet(zz, 1)[1])


def theorem3_parts(g: DiskFunction, parts: str) -> PointFunctional:
    """The theorem-3 parts of g, one h jet per call: 'a' is g' - 1, 'b' is
    z g'/g - 1 and 'c' is U of g, by the formulas of turning_derivative,
    starlike_quotient and u_operator.  One part gives a one-row functional,
    several a row-batched one: points of shape (m,) or (k, m) map to a
    (k, m) array whose row i holds parts[i]."""
    k = g.kernel
    formulas = {"a": lambda zz, h: k.f_jet(zz, 1, h)[1] - 1.0,
                "b": lambda zz, h: _starlike(zz, h) - 1.0, "c": _deviation}
    rows = [formulas[p] for p in parts]

    def fn(zz):
        h = k.h_jet(zz, 1)
        if len(rows) == 1:
            return rows[0](zz, h)
        if zz.ndim == 1:
            return np.array([row(zz, h) for row in rows])
        return np.array([row(zz[i], [j[i] for j in h]) for i, row in enumerate(rows)])

    return PointFunctional(fn)


def g_transform(f: DiskFunction) -> DiskFunction:
    """g = ((z/f) - 1)/(-a2) = z + z omega1(z)/a2, normalized whenever
    a2 != 0; its kernel comes from the kernel of f (``g_kernel``)."""
    if abs(f.a2) < EPS_A2:
        raise SecondCoefficientVanishes(
            f"|a2| = {abs(f.a2):.3e} is below {EPS_A2}; the transform is undefined")
    h = f.quotient.coeffs
    g_coeffs = np.zeros(h.size, dtype=np.complex128)
    g_coeffs[1] = 1.0
    # omega1 coefficients are -h_{j+1}, so g_k = omega1_{k-1}/a2 = -h_k/a2
    g_coeffs[2:] = -h[2:] / f.a2
    g_series = ComplexSeries(g_coeffs)
    kernel = f.kernel.g_kernel(f.a2, g_series.coefficient(2))
    return DiskFunction("g_transform", {}, kernel, series=g_series)


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
    """Split f into (a2, omega1) via its quotient series; exact for class members.

    c1..c3 are -h_2..-h_4, so a quotient of order below 4 raises
    InsufficientOrder rather than report truncated zeros.
    """
    h = f.quotient
    if h.order < 4:
        raise InsufficientOrder(
            f"quotient order {h.order} < required coefficient index 4 (c3 = -h_4)")
    omega = ComplexSeries(np.concatenate(([0j], -h.coeffs[2:])))  # omega1_k = -h_{k+1}
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
