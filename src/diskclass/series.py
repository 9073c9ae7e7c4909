"""Truncated power series with complex coefficients.

A :class:`ComplexSeries` stores the Taylor coefficients ``c_0 .. c_N`` of an
analytic function near the origin.  All coefficients live in double
precision.  Binary operations truncate the result to the smaller operand
order; the order is bookkeeping for the truncation window, not part of the
mathematical value.  Instances are immutable: every operation returns a new
series.

>>> z = ComplexSeries.variable(4)
>>> ((ComplexSeries.one(4) - z) * (ComplexSeries.one(4) + z)).coeffs.real.tolist()
[1.0, 0.0, -1.0, 0.0, 0.0]
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import NearZeroConstantTerm

DEFAULT_ORDER = 64

# Guard on |c_0| below which a reciprocal is refused.
EPS_DIV = 1e-12


class ComplexSeries:
    """Immutable truncated expansion ``c_0 + c_1 z + ... + c_N z^N``."""

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128)).copy()
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
        c.setflags(write=False)
        self._c = c

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "ComplexSeries":
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = 1.0
        return cls(c)

    @classmethod
    def variable(cls, order: int = DEFAULT_ORDER) -> "ComplexSeries":
        """The series of f(z) = z."""
        if order < 1:
            raise ValueError("order must be >= 1 for the variable series")
        c = np.zeros(order + 1, dtype=np.complex128)
        c[1] = 1.0
        return cls(c)

    @classmethod
    def from_json_dict(cls, data) -> "ComplexSeries":
        coeffs = [complex(re, im) for re, im in data["coeffs"]]
        s = cls(coeffs)
        if s.order != int(data["order"]):
            raise ValueError("order field disagrees with coefficient count")
        return s

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array ``c_0 .. c_N``."""
        return self._c

    @property
    def order(self) -> int:
        return self._c.size - 1

    def coefficient(self, n: int) -> complex:
        """Coefficient of z^n; zero beyond the truncation order."""
        if n < 0:
            raise IndexError("negative coefficient index")
        if n > self.order:
            return 0j
        return complex(self._c[n])

    def __repr__(self) -> str:
        head = np.array2string(self._c[: min(4, self._c.size)], precision=6)
        return f"ComplexSeries(order={self.order}, coeffs={head}...)"

    def truncate(self, order: int) -> "ComplexSeries":
        if order >= self.order:
            return self
        return ComplexSeries(self._c[: order + 1])

    def pad_to(self, order: int) -> "ComplexSeries":
        if order <= self.order:
            return self
        c = np.zeros(order + 1, dtype=np.complex128)
        c[: self._c.size] = self._c
        return ComplexSeries(c)

    # ------------------------------------------------------------------
    # arithmetic (binary ops truncate to the smaller order)
    # ------------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, ComplexSeries):
            m = min(self.order, other.order) + 1
            return ComplexSeries(self._c[:m] + other._c[:m])
        c = self._c.copy()
        c[0] += complex(other)
        return ComplexSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return ComplexSeries(-self._c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, ComplexSeries) else -complex(other))

    def __mul__(self, other):
        if isinstance(other, ComplexSeries):
            m = min(self.order, other.order) + 1
            return ComplexSeries(np.convolve(self._c[:m], other._c[:m])[:m])
        return ComplexSeries(self._c * complex(other))

    __rmul__ = __mul__

    def reciprocal(self) -> "ComplexSeries":
        """Series of 1/f, same order, via the convolution recurrence."""
        c = self._c
        if abs(c[0]) <= EPS_DIV:
            raise NearZeroConstantTerm(
                f"|c_0| = {abs(c[0]):.3e} is below the reciprocal guard {EPS_DIV}")
        r = np.zeros_like(c)
        r[0] = 1.0 / c[0]
        for k in range(1, c.size):
            r[k] = -np.dot(c[1 : k + 1], r[k - 1 :: -1]) / c[0]
        return ComplexSeries(r)

    def derivative(self) -> "ComplexSeries":
        """Term-wise derivative, re-padded with a trailing zero to keep order."""
        c = self._c
        if c.size == 1:
            return ComplexSeries([0j])
        d = c[1:] * np.arange(1, c.size)
        return ComplexSeries(np.append(d, 0j))

    # degree shifts used by the quotient h = z/f
    def mul_z(self) -> "ComplexSeries":
        """Multiply by z, truncating back to the same order."""
        return ComplexSeries(np.concatenate(([0j], self._c[:-1])))

    def div_z(self, tol: float = 1e-12) -> "ComplexSeries":
        """Divide by z; requires a vanishing constant term."""
        if abs(self._c[0]) > tol:
            raise ValueError("cannot divide by z: constant term does not vanish")
        if self._c.size == 1:
            return ComplexSeries([0j])
        return ComplexSeries(self._c[1:])

    # ------------------------------------------------------------------
    # evaluation / serialization
    # ------------------------------------------------------------------
    def __call__(self, z):
        """Horner evaluation at a point or ndarray of points."""
        zz = np.asarray(z, dtype=np.complex128)
        acc = npp.polyval(zz, self._c, tensor=False)
        return complex(acc) if zz.ndim == 0 else acc

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [[float(c.real), float(c.imag)] for c in self._c],
        }
