"""Deviation operator, class functionals, transform g, and decomposition."""
import numpy as np
import pytest

from diskclass import (
    SchwarzGenerator,
    build_member,
    convex_quotient,
    decompose,
    g_transform,
    make_catalog,
    mocanu_real_part,
    phi_profile,
    sample_schwarz,
    starlike_quotient,
    theorem3_check,
    turning_derivative,
    u_operator,
)
from diskclass.catalog import _BlaschkeKernel, _RationalKernel
from diskclass.operators import PointFunctional, theorem3_parts
from diskclass.errors import (
    ArgumentOutOfDomain,
    EvalNearZeroDenominator,
    InsufficientOrder,
    SecondCoefficientVanishes,
)
from oracles import c_coefficients, jet_at, mocanu_functional, u_series

POINTS = (0.3, -0.25j, 0.4 + 0.2j, -0.5 - 0.1j, 0.85)


def sampled_member(seed, a2=0.4, kind="blaschke_product"):
    return build_member(a2, sample_schwarz(seed, kind), order=48)


class TestDeviationOperator:
    # frozen closed forms: U of the extremal catalog entries is a monomial
    @pytest.mark.parametrize("cid,coeff,power", [
        ("koebe", -1.0, 2),        # U = -z^2
        ("f1", 1.0, 2),            # U = z^2
        ("f2", 1.0, 3),            # h = 1 - z^3/2: U = h - z h' - 1 = z^3
        ("example_sec1", -1.0, 3),  # U = -z^3
    ])
    def test_u_series_monomial(self, cid, coeff, power):
        f = make_catalog(cid, order=16)
        series = u_series(f)
        for k in range(series.order + 1):
            expect = coeff if k == power else 0.0
            assert series.coefficient(k) == pytest.approx(expect, abs=1e-12), (cid, k)

    def test_u_log_map_frozen_value(self):
        # independent closed form: U(x) = (x / ln(1-x))^2 / (1-x) - 1
        f = make_catalog("log_map")
        fn = u_operator(f)
        x = 0.99
        expect = (x / np.log(1 - x)) ** 2 / (1 - x) - 1.0
        assert fn(x) == pytest.approx(expect, abs=1e-10)
        assert abs(fn(x)) == pytest.approx(3.6214581060, abs=1e-9)

    def test_functional_matches_series_inside(self):
        f = sampled_member(3)
        fn, series = u_operator(f), u_series(f)
        for z in POINTS[:3]:
            assert fn(z) == pytest.approx(series(z), abs=1e-9)

    def test_u_vanishes_to_second_order(self):
        for seed in range(4):
            f = sampled_member(seed)
            fn, series = u_operator(f), u_series(f)
            assert abs(series.coefficient(0)) < 1e-12
            assert abs(series.coefficient(1)) < 1e-12
            assert fn(0.0) == pytest.approx(0.0, abs=1e-12)


class TestClassFunctionals:
    def test_starlike_quotient_koebe(self):
        s = starlike_quotient(make_catalog("koebe"))
        for z in POINTS:
            assert s(z) == pytest.approx((1 + z) / (1 - z), abs=1e-12)

    def test_starlike_quotient_example_at_i(self):
        s = starlike_quotient(make_catalog("example_sec1"))
        assert s(1j) == pytest.approx((-1 + 3j) / 5, abs=1e-12)

    def test_convex_quotient_log_map(self):
        c = convex_quotient(make_catalog("log_map"))
        for z in POINTS:
            assert c(z) == pytest.approx(1.0 / (1 - z), abs=1e-11)

    def test_mocanu_interpolates(self):
        f = make_catalog("koebe")
        s, c = starlike_quotient(f), convex_quotient(f)
        m = mocanu_functional(f, -1.0)
        z = 0.3 + 0.4j
        assert m(z) == pytest.approx(2 * s(z) - c(z), abs=1e-11)

    def test_mocanu_half_plane_is_constant_one(self):
        m = mocanu_functional(make_catalog("half_plane"), -1.0)
        for z in POINTS:
            assert m(z) == pytest.approx(1.0, abs=1e-12)

    def test_mocanu_real_part_rows_are_real_parts(self):
        # one row per alpha, each exactly Re of the complex functional
        f = sampled_member(2)
        alphas = np.array([-2.0, 0.0, 0.5, 1.0])
        z = np.array(POINTS)
        rows = mocanu_real_part(f, alphas)(z)
        assert rows.shape == (alphas.size, z.size)
        for alpha, row in zip(alphas, rows):
            assert np.array_equal(row, mocanu_functional(f, alpha)(z).real)
            assert np.array_equal(mocanu_real_part(f, alpha)(z), row)

    def test_mocanu_rows_stay_real(self):
        # a PointFunctional casts no values: the real rows stay real
        f = sampled_member(2)
        functional = mocanu_real_part(f, np.array([-1.0, 0.5]))
        assert isinstance(functional, PointFunctional)
        assert functional(np.array(POINTS)).dtype == np.float64
        assert type(mocanu_real_part(f, 0.5)(0.3)) is float
        # a scalar point gives one value per row
        assert np.array_equal(functional(0.3), functional(np.array([0.3]))[:, 0])

    def test_turning_derivative_identity(self):
        t = turning_derivative(make_catalog("identity"))
        assert t(0.5 + 0.2j) == pytest.approx(1.0, abs=1e-13)

    def test_guard_near_pole(self):
        f = make_catalog("koebe")
        s = starlike_quotient(f)
        with pytest.raises(EvalNearZeroDenominator):
            s(1.0)  # h = (1-z)^2 vanishes at z = 1


class TestJetEvaluations:
    # each functional reads one jet per call: a Blaschke member's omega1,
    # integrated through complex logs, is evaluated once per evaluation
    ALPHAS = np.linspace(-2.0, 1.0, 6)

    @staticmethod
    def counted(monkeypatch, cls, name):
        calls = []
        original = getattr(cls, name)

        def counting(self, z, n, *rest):
            calls.append(n)
            return original(self, z, n, *rest)

        monkeypatch.setattr(cls, name, counting)
        return calls

    @pytest.mark.parametrize("make", [
        u_operator, starlike_quotient, convex_quotient, turning_derivative,
        lambda f: mocanu_real_part(f, TestJetEvaluations.ALPHAS),
    ])
    def test_one_omega_jet_per_blaschke_evaluation(self, monkeypatch, make):
        gen = SchwarzGenerator.blaschke([0.4, 0.2 - 0.3j], rho=0.8, theta=1.1)
        functional = make(build_member(0.1, gen))
        calls = self.counted(monkeypatch, _BlaschkeKernel, "omega_jet")
        functional(np.array(POINTS))
        assert len(calls) == 1

    def test_one_omega_jet_per_theorem3_evaluation(self, monkeypatch):
        # all three parts of g read one h jet of g, so one omega jet of f
        gen = SchwarzGenerator.blaschke([0.4, 0.2 - 0.3j], rho=0.8, theta=1.1)
        functional = theorem3_parts(g_transform(build_member(0.1, gen)), "abc")
        calls = self.counted(monkeypatch, _BlaschkeKernel, "omega_jet")
        functional(np.array(POINTS))
        assert calls == [1]

    def test_one_h_jet_per_polynomial_mocanu_evaluation(self, monkeypatch):
        f = sampled_member(4, kind="random_polynomial")
        functional = mocanu_real_part(f, self.ALPHAS)
        calls = self.counted(monkeypatch, _RationalKernel, "h_jet")
        functional(np.array(POINTS))
        assert calls == [2]


class TestGTransform:
    def test_g_of_fb_closed_form(self):
        # f_b has omega1 = -z, so g = z + z^2 / b... with a2 = -b:
        # g_k = -h_k/a2: g_2 = -1/(-b)... h = 1 + b z + z^2 -> g = z + z^2/b
        g = g_transform(make_catalog("fb", {"b": 1.5}))
        assert g.series.coefficient(1) == pytest.approx(1.0)
        assert g.series.coefficient(2) == pytest.approx(1.0 / 1.5, abs=1e-12)
        assert abs(g.series.coefficient(3)) < 1e-12

    def test_g_derivative_vanishes_at_minus_half_b(self):
        for b in (0.5, 1.0, 1.5, 2.0):
            g = g_transform(make_catalog("fb", {"b": b}))
            assert abs(jet_at(g.kernel, "f", 1, -b / 2.0)[1]) < 1e-14

    def test_g_quotient_closed_form(self):
        f = sampled_member(7, a2=0.5)
        g = g_transform(f)
        z = 0.3 - 0.2j
        # z/g = a2/(a2 + omega1)
        expect = f.a2 / (f.a2 + jet_at(f.kernel, "omega", 0, z)[0])
        assert jet_at(g.kernel, "h", 0, z)[0] == pytest.approx(expect, abs=1e-12)

    def test_transform_requires_second_coefficient(self):
        with pytest.raises(SecondCoefficientVanishes):
            g_transform(make_catalog("f1"))
        with pytest.raises(SecondCoefficientVanishes):
            theorem3_check(make_catalog("f2"), "a")


class TestDecomposition:
    def test_round_trip_against_generator(self):
        gen = SchwarzGenerator.polynomial([0.25, -0.2, 0.15j])
        f = build_member(0.4 - 0.1j, gen)
        dec = decompose(f)
        assert dec.a2 == pytest.approx(0.4 - 0.1j, abs=1e-13)
        for got, expect in zip(dec.c, c_coefficients(gen)):
            assert got == pytest.approx(expect, abs=1e-12)

    def test_koebe_c_values(self):
        dec = decompose(make_catalog("koebe"))
        assert dec.a2 == pytest.approx(2.0)
        assert dec.c[0] == pytest.approx(-1.0)
        assert abs(dec.c[1]) < 1e-13 and abs(dec.c[2]) < 1e-13

    def test_omega1_coefficients_match_quotient(self):
        f = sampled_member(17)
        dec = decompose(f)
        h = f.series.div_z().reciprocal()
        for k in range(1, 6):
            assert dec.omega1.coefficient(k) == pytest.approx(
                -h.coefficient(k + 1), abs=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_low_order_raises_instead_of_truncated_zeros(self, order):
        # c1..c3 are -h_2..-h_4: a shorter quotient would report c3 = 0
        with pytest.raises(InsufficientOrder):
            decompose(make_catalog("log_map", order=order))

    def test_order_five_reads_the_true_c(self):
        got, full = (decompose(make_catalog("log_map", order=k)) for k in (5, 64))
        for a, b in zip(got.c, full.c):
            assert a == pytest.approx(b, abs=1e-15)
        assert full.c[1] == pytest.approx(1 / 24) and full.c[2] == pytest.approx(19 / 720)


class TestScalarHelpers:
    def test_phi_profile_increasing_and_endpoint(self):
        r, a = 0.3, 0.8
        ts = np.linspace(0.0, r, 50)
        vals = [phi_profile(t, r, a) for t in ts]
        assert np.all(np.diff(vals) > -1e-12)
        assert vals[-1] == pytest.approx((1 - r * r) * r * r / (a - r) ** 2)

    def test_phi_profile_domain(self):
        with pytest.raises(ArgumentOutOfDomain):
            phi_profile(0.5, 0.4, 0.9)  # t > r
        with pytest.raises(ArgumentOutOfDomain):
            phi_profile(0.1, 0.95, 0.9)  # r >= a
