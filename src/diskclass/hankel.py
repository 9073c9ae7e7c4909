"""Hankel determinants of Taylor coefficients and the sharp-bound machinery.

For a normalized f with coefficients a_1 = 1, a_2, a_3, ... the q-th Hankel
determinant at index n is det [a_{n+i+j}]_{i,j=0..q-1}.  For members of the
bounded reciprocal-deviation class the second and third determinants reduce
to expressions in (a2, c1, c2, c3), where the c_k come from the deviation
primitive omega1; their sharp bounds are 1 and 1/4.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import DiskFunction
from .errors import InsufficientOrder, ParamOutOfRange

__all__ = [
    "HankelReport",
    "hankel_det",
    "reduced_h2",
    "reduced_h3",
    "prokhorov_szynal_check",
    "PSRecord",
    "h3_profile_bound",
]


def _det(m):
    """Cofactor-expansion determinant for small complex matrices."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0j
    sign = 1.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += sign * m[0][j] * _det(minor)
        sign = -sign
    return total


@dataclass(frozen=True)
class HankelReport:
    """The q-th Hankel determinant at index n (``hankel_det``): its complex
    ``value`` and ``modulus``, and the Taylor ``coefficients`` a_n through
    a_{n+2q-2} it was expanded from."""

    q: int
    n: int
    value: complex
    modulus: float
    coefficients: tuple

    def to_dict(self):
        return {
            "q": self.q,
            "n": self.n,
            "value": [self.value.real, self.value.imag],
            "modulus": self.modulus,
            "coefficients": [[a.real, a.imag] for a in self.coefficients],
        }


def hankel_det(f: DiskFunction, q: int, n: int) -> HankelReport:
    """det [a_{n+i+j}] for i, j in 0..q-1, expanded exactly by cofactors.

    Requires 1 <= q <= 4 and ``f.order`` >= n + 2q - 2, checked before
    anything is derived; the window is read from ``f.taylor(n + 2q - 2)``.
    """
    if not 1 <= q <= 4:
        raise ParamOutOfRange(f"q = {q} outside the supported range 1..4")
    if n < 1:
        raise ParamOutOfRange(f"n = {n} must be positive")
    top = n + 2 * q - 2
    if f.order < top:
        raise InsufficientOrder(
            f"series order {f.order} < required coefficient index {top}")
    series = f.taylor(top)
    a = [series.coefficient(k) for k in range(n, top + 1)]
    m = [[a[i + j] for j in range(q)] for i in range(q)]
    value = _det(m)
    return HankelReport(q=q, n=n, value=complex(value), modulus=abs(value),
                        coefficients=tuple(a))


def reduced_h2(a2: complex, c) -> complex:
    """Second determinant at n = 2 in reduced form: a2 c2 - c1^2."""
    c1, c2 = complex(c[0]), complex(c[1])
    return complex(a2) * c2 - c1 * c1


def reduced_h3(c) -> complex:
    """Third determinant at n = 1 in reduced form: c1 c3 - c2^2."""
    c1, c2, c3 = (complex(ck) for ck in c[:3])
    return c1 * c3 - c2 * c2


@dataclass(frozen=True)
class PSRecord:
    """Slack of the three coefficient constraints for a bounded-derivative
    primitive; all slacks are nonnegative (up to -1e-9 roundoff) exactly when
    the tuple is admissible."""

    slack1: float
    slack2: float
    slack3: float

    @property
    def ok(self) -> bool:
        return min(self.slack1, self.slack2, self.slack3) >= -1e-9


def prokhorov_szynal_check(c1, c2, c3) -> PSRecord:
    """Prokhorov-Szynal constraints on (c1, c2, c3) as slack values.

    slack1 = 1 - |c1|
    slack2 = (1 - |c1|^2) - 2 |c2|
    slack3 = (1 - |c1|^2)^2 - 4 |c2|^2 - |3 c3 (1 - |c1|^2) + 4 conj(c1) c2^2|
    """
    c1, c2, c3 = complex(c1), complex(c2), complex(c3)
    m1 = abs(c1)
    s1 = 1.0 - m1
    s2 = (1.0 - m1 * m1) - 2.0 * abs(c2)
    s3 = ((1.0 - m1 * m1) ** 2 - 4.0 * abs(c2) ** 2
          - abs(3.0 * c3 * (1.0 - m1 * m1) + 4.0 * np.conj(c1) * c2 * c2))
    return PSRecord(slack1=float(s1), slack2=float(s2), slack3=float(s3))


def h3_profile_bound(c1: float) -> float:
    """(3 - 2 c1^2 - c1^4)/12, the worst third-determinant modulus over
    admissible (c2, c3) at fixed real c1 in [0, 1]; its maximum is 1/4."""
    c1 = float(c1)
    return (3.0 - 2.0 * c1 * c1 - c1 ** 4) / 12.0

