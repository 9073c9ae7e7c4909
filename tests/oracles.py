"""Closed-form oracles that the tests compare the library against.

Nothing in the package calls these; each one restates a formula of the
paper (or a classical identity) independently of the code under test.
"""
import numpy as np

from diskclass.errors import ArgumentOutOfDomain
from diskclass.operators import PointFunctional, convex_quotient, starlike_quotient
from diskclass.series import ComplexSeries


def rotate(series: ComplexSeries, theta: float) -> ComplexSeries:
    """Coefficient rotation c_n -> exp(i(n-1)theta) c_n.

    This is the series of exp(-i theta) f(exp(i theta) z), the standard
    normalization-preserving rotation.
    """
    n = np.arange(series.coeffs.size)
    return ComplexSeries(series.coeffs * np.exp(1j * theta * (n - 1)))


def c_coefficients(generator):
    """First three Taylor coefficients of omega1 (c1, c2, c3).

    omega1_k = psi_{k-1}/k, divided as build_member divides, so these
    equal the c of a built member exactly.
    """
    p = generator.psi_taylor(2).coeffs[:3]
    c = np.zeros(3, dtype=np.complex128)
    c[:p.size] = p / np.arange(1, p.size + 1)
    return tuple(complex(ck) for ck in c)


def coeffs_from_c(a2: complex, c) -> tuple:
    """(a3, a4, a5) rebuilt from the decomposition data (a2, c1, c2, c3)."""
    a2 = complex(a2)
    c1, c2, c3 = (complex(ck) for ck in c[:3])
    a3 = c1 + a2 ** 2
    a4 = c2 + 2.0 * a2 * c1 + a2 ** 3
    a5 = c3 + 2.0 * a2 * c2 + c1 ** 2 + 3.0 * a2 ** 2 * c1 + a2 ** 4
    return a3, a4, a5


def c3_envelope(c1: float, c2_abs: float) -> float:
    """Largest |c3| compatible with the constraints at real c1 >= 0:
    (1 - c1^2 - 4 |c2|^2/(1 + c1))/3."""
    c1, c2_abs = float(c1), float(c2_abs)
    if not 0.0 <= c1 <= 1.0:
        raise ArgumentOutOfDomain(f"c1 = {c1} outside [0, 1]")
    if c2_abs < 0.0 or c2_abs > (1.0 - c1 * c1) / 2.0 + 1e-12:
        raise ArgumentOutOfDomain(
            f"|c2| = {c2_abs} outside [0, (1 - c1^2)/2]")
    return (1.0 - c1 * c1 - 4.0 * c2_abs * c2_abs / (1.0 + c1)) / 3.0


def mocanu_functional(f, alpha: float) -> PointFunctional:
    """(1 - alpha) z f'/f + alpha (1 + z f''/f')."""
    s = starlike_quotient(f)
    c = convex_quotient(f)
    alpha = float(alpha)

    def fn(zz):
        return (1.0 - alpha) * s(zz) + alpha * c(zz)

    return PointFunctional(f"mocanu({alpha:g})", f.id, fn)
