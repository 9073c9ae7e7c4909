"""Truncated power series arithmetic: frozen oracles and algebraic laws."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskclass.errors import NearZeroConstantTerm
from diskclass.series import ComplexSeries


def geometric(order=16):
    # 1/(1 - z) has all-ones coefficients
    return (ComplexSeries.one(order) - ComplexSeries.variable(order)).reciprocal()


class TestFrozenValues:
    def test_geometric_reciprocal(self):
        g = geometric(10)
        assert np.allclose(g.coeffs, np.ones(11), atol=1e-14)

    def test_koebe_square_expansion(self):
        # z/(1-z)^2 = sum n z^n
        z = ComplexSeries.variable(12)
        one = ComplexSeries.one(12)
        k = ((one - z) * (one - z)).reciprocal().mul_z()
        assert np.allclose(k.coeffs, np.arange(13), atol=1e-12)

    def test_derivative_and_integral(self):
        z = ComplexSeries.variable(8)
        s = z * z  # z^2
        d = s.derivative()
        assert d.coefficient(1) == pytest.approx(2.0)
        back = d.integrate()
        assert np.allclose(back.coeffs[: s.order + 1], s.coeffs, atol=1e-15)

    def test_call_matches_closed_form(self):
        g = geometric(64)
        for z in (0.3, -0.5j, 0.2 + 0.4j):
            assert g(z) == pytest.approx(1.0 / (1.0 - z), abs=1e-12)

    def test_rotation_conjugation(self):
        # rotate(theta) mirrors f -> e^{-i theta} f(e^{i theta} z)
        k = geometric(32).mul_z()
        theta = 0.7
        rot = k.rotate(theta)
        z = 0.3 + 0.1j
        assert rot(z) == pytest.approx(np.exp(-1j * theta) * k(np.exp(1j * theta) * z),
                                       abs=1e-12)
        assert rot.coefficient(1) == pytest.approx(1.0)

    def test_json_round_trip(self):
        s = ComplexSeries([1.0, 2.0 + 1.0j, -0.5])
        t = ComplexSeries.from_json_dict(s.to_json_dict())
        assert np.array_equal(s.coeffs, t.coeffs)


class TestGuards:
    def test_reciprocal_requires_unit_scale_constant(self):
        with pytest.raises(NearZeroConstantTerm):
            ComplexSeries([0.0, 1.0]).reciprocal()

    def test_div_z_requires_zero_constant(self):
        with pytest.raises(ValueError):
            ComplexSeries([1.0, 1.0]).div_z()

    def test_coefficient_beyond_order_is_zero(self):
        assert ComplexSeries([1.0]).coefficient(5) == 0j

    def test_immutable_coeffs(self):
        s = ComplexSeries([1.0, 2.0])
        with pytest.raises((ValueError, RuntimeError)):
            s.coeffs[0] = 9.0


coeff = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
short_series = st.lists(coeff, min_size=1, max_size=9).map(ComplexSeries)


class TestAlgebraicLaws:
    @given(short_series, short_series)
    @settings(max_examples=60, deadline=None)
    def test_addition_commutes(self, a, b):
        left = (a + b).coeffs
        right = (b + a).coeffs
        assert np.allclose(left, right, atol=1e-12)

    @given(short_series, short_series)
    @settings(max_examples=60, deadline=None)
    def test_multiplication_commutes(self, a, b):
        assert np.allclose((a * b).coeffs, (b * a).coeffs, atol=1e-9)

    @given(short_series)
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_inverts(self, a):
        c0 = abs(complex(a.coefficient(0)))
        if not 0.5 <= c0 <= 2.0:
            return  # keep conditioning tame; the guard path is tested above
        prod = a * a.reciprocal()
        expect = np.zeros(prod.order + 1)
        expect[0] = 1.0
        assert np.allclose(prod.coeffs, expect, atol=1e-8)

    @given(short_series)
    @settings(max_examples=60, deadline=None)
    def test_derivative_of_integral_is_identity(self, a):
        round_trip = a.integrate().derivative()
        assert np.allclose(round_trip.coeffs[: a.order + 1], a.coeffs, atol=1e-12)

    @given(short_series, st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_rotation_preserves_coefficient_moduli(self, a, theta):
        rotated = a.rotate(theta)
        assert np.allclose(np.abs(rotated.coeffs), np.abs(a.coeffs), atol=1e-12)
