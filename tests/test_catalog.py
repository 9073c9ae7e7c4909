"""Catalog functions, Schwarz generators, and certified construction."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskclass import (
    ComplexSeries,
    DiskFunction,
    SchwarzGenerator,
    build_member,
    catalog_ids,
    count_zeros_on_disk,
    decompose,
    hankel_det,
    make_catalog,
    sample_schwarz,
    seed_key,
)
from diskclass.catalog import CERT_RADIUS
from diskclass.errors import (
    BoundaryTooClose,
    DenominatorVanishes,
    ParamOutOfRange,
    UnknownId,
)
from oracles import c_coefficients

RNG_KINDS = ("scaled_unimodular", "blaschke_product", "random_polynomial")


class TestCatalogEntries:
    def test_ids_listed(self):
        ids = catalog_ids()
        for cid in ("koebe", "f1", "f2", "fb", "half_plane", "identity",
                    "log_map", "example_sec1"):
            assert cid in ids

    def test_koebe_coefficients_are_integers(self):
        k = make_catalog("koebe", order=16)
        assert np.allclose(k.series.coeffs.real, np.arange(17), atol=1e-12)
        assert k.a2 == pytest.approx(2.0)

    def test_f1_odd_geometric(self):
        # z/(1 - z^2) = z + z^3 + z^5 + ...
        f1 = make_catalog("f1", order=11)
        expect = [1.0 if n % 2 == 1 else 0.0 for n in range(12)]
        expect[0] = 0.0
        assert np.allclose(f1.series.coeffs.real, expect, atol=1e-13)

    def test_f2_cubic_geometric(self):
        # z/(1 - z^3/2) = z + z^4/2 + z^7/4 + ...
        f2 = make_catalog("f2", order=8)
        assert f2.series.coefficient(4) == pytest.approx(0.5)
        assert f2.series.coefficient(7) == pytest.approx(0.25)
        assert f2.series.coefficient(2) == pytest.approx(0.0)

    def test_log_map_series_and_closed_form(self):
        f = make_catalog("log_map", order=32)
        # -log(1 - z) = sum z^k / k
        for k in (1, 2, 5, 9):
            assert f.series.coefficient(k) == pytest.approx(1.0 / k, abs=1e-13)
        z = 0.4 - 0.2j
        assert f.eval_f(z) == pytest.approx(-np.log(1 - z), abs=1e-12)
        assert f.eval_f1(z) == pytest.approx(1.0 / (1 - z), abs=1e-12)
        assert f.eval_f2(z) == pytest.approx(1.0 / (1 - z) ** 2, abs=1e-12)

    def test_example_quotient_value(self):
        # z/f = (1 - z)^2 (1 + z/2) expands to 1 - 1.5 z + 0.5 z^3
        f = make_catalog("example_sec1")
        z = 0.3 + 0.1j
        expect = (1 - z) ** 2 * (1 + z / 2)
        assert f.h(z) == pytest.approx(expect, abs=1e-12)

    def test_fb_requires_parameter(self):
        with pytest.raises(ParamOutOfRange):
            make_catalog("fb")
        with pytest.raises(ParamOutOfRange):
            make_catalog("fb", {"b": 2.5})
        f = make_catalog("fb", {"b": 1.0})
        assert f.a2 == pytest.approx(-1.0)

    def test_unknown_id(self):
        with pytest.raises(UnknownId):
            make_catalog("not_a_function")

    def test_catalog_h_evaluations_match_series(self):
        # kernel h and reciprocal of the series quotient agree well inside
        for cid in ("koebe", "f1", "f2", "half_plane", "identity", "log_map"):
            f = make_catalog(cid, order=64)
            z = 0.35 * np.exp(1j * np.linspace(0.1, 6.0, 7))
            series_h = f.series.div_z().reciprocal()
            assert np.allclose(f.h(z), series_h(z), atol=1e-10), cid

    def test_spec_round_trip(self):
        for cid, params in (("koebe", None), ("fb", {"b": 0.75}), ("log_map", None)):
            f = make_catalog(cid, params)
            g = DiskFunction.from_spec(f.to_spec())
            assert g.id == f.id
            assert np.allclose(g.series.coeffs, f.series.coeffs, atol=1e-14)


class TestSchwarzGenerators:
    def test_constant_kind(self):
        gen = SchwarzGenerator.constant(0.3 + 0.4j)
        assert gen.kind == "scaled_unimodular"
        assert gen.psi(0.9) == pytest.approx(0.3 + 0.4j)
        assert gen.omega1(0.5) == pytest.approx((0.3 + 0.4j) * 0.5)

    def test_constant_rejects_large_modulus(self):
        with pytest.raises(ParamOutOfRange):
            SchwarzGenerator.constant(1.2)

    def test_blaschke_bounded_by_one_on_circle(self):
        gen = SchwarzGenerator.blaschke([0.3, -0.2 + 0.4j], rho=1.0, theta=0.5)
        z = 0.999 * np.exp(1j * np.linspace(0, 2 * np.pi, 733))
        assert np.abs(gen.psi(z)).max() <= 1.0 + 1e-9

    def test_blaschke_zero_placement(self):
        gen = SchwarzGenerator.blaschke([0.5], rho=1.0, theta=0.0)
        assert abs(gen.psi(0.5)) < 1e-12

    def test_blaschke_psi_taylor_matches_pointwise(self):
        gen = SchwarzGenerator.blaschke([0.4, 0.2 - 0.3j], rho=0.8, theta=1.1)
        series = gen.psi_taylor(48)
        for z in (0.05, 0.1j, 0.08 - 0.04j):
            assert series(z) == pytest.approx(gen.psi(z), abs=1e-12)

    def test_polynomial_derivative_consistency(self):
        gen = SchwarzGenerator.polynomial([0.1, 0.2, -0.05j])
        z = 0.3 + 0.2j
        eps = 1e-6
        numeric = (gen.psi(z + eps) - gen.psi(z - eps)) / (2 * eps)
        psi1 = gen._kernel().omega_jet(np.array([z]), 2)[2][0]
        assert psi1 == pytest.approx(numeric, abs=1e-6)

    def test_c_coefficients_from_psi(self):
        gen = SchwarzGenerator.polynomial([0.3, -0.1, 0.2])
        c1, c2, c3 = c_coefficients(gen)
        assert c1 == pytest.approx(0.3)
        assert c2 == pytest.approx(-0.05)
        assert c3 == pytest.approx(0.2 / 3)

    def test_generator_dict_round_trip(self):
        gen = SchwarzGenerator.blaschke([0.3 + 0.1j], rho=0.7, theta=2.0)
        back = SchwarzGenerator.from_dict(gen.to_dict())
        z = 0.2 - 0.3j
        assert back.psi(z) == pytest.approx(gen.psi(z), abs=1e-14)

    @pytest.mark.parametrize("kind", RNG_KINDS)
    def test_sampled_generators_admissible(self, kind):
        # sup |psi| <= 1 on a near-boundary circle for every sampled generator
        grid = 0.995 * np.exp(2j * np.pi * np.arange(512) / 512)
        for seed in range(20):
            gen = sample_schwarz(seed, kind, degree=4)
            assert np.abs(gen.psi(grid)).max() <= 1.0 + 1e-9

    def test_sampling_is_seed_deterministic(self):
        a = sample_schwarz(123, "blaschke_product")
        b = sample_schwarz(123, "blaschke_product")
        assert a.to_dict() == b.to_dict()

    def test_seed_key_streams_are_independent(self):
        r0 = np.random.default_rng(seed_key(9, 0)).uniform()
        r1 = np.random.default_rng(seed_key(9, 1)).uniform()
        r0_again = np.random.default_rng(seed_key(9, 0)).uniform()
        assert r0 == r0_again
        assert r0 != r1


class TestWindingCertificate:
    def test_zero_free_quotient(self):
        assert count_zeros_on_disk([1.0, -0.5]) == 0

    def test_single_zero_inside(self):
        assert count_zeros_on_disk([1.0, -2.0]) == 1

    def test_double_zero_inside(self):
        # (1 - 2z)^2: an exactly double root at 1/2
        assert count_zeros_on_disk([1.0, -4.0, 4.0]) == 2

    def test_boundary_zero_raises(self):
        r = 1.0 - 2.0 ** -10
        with pytest.raises(BoundaryTooClose):
            count_zeros_on_disk([-r, 1.0])

    @pytest.mark.parametrize("form", ["coefficients", "callable"])
    def test_zero_between_samples_is_counted(self, form):
        # 5e-8 inside the circle and midway between two points of an
        # 8192-point grid, where a fixed-grid winding count reads 0
        z0 = (CERT_RADIUS - 5e-8) * np.exp(1j * np.pi / 8192)
        try:
            if form == "coefficients":
                zeros = count_zeros_on_disk([1.0, -1.0 / z0])
            else:
                zeros = count_zeros_on_disk(lambda z: 1.0 - z / z0, lipschitz=1.0 / abs(z0))
        except BoundaryTooClose:
            return
        assert zeros == 1

    def test_winding_counts_with_a_lipschitz_bound(self):
        r = CERT_RADIUS
        assert count_zeros_on_disk(lambda z: 1.0 - 0.5 * z, lipschitz=0.5) == 0
        assert count_zeros_on_disk(lambda z: (1.0 - 2.0 * z) ** 2,
                                   lipschitz=4.0 * (1.0 + 2.0 * r)) == 2
        with pytest.raises(BoundaryTooClose):
            count_zeros_on_disk(lambda z: z - r, lipschitz=1.0)

    def test_callable_needs_a_lipschitz_bound(self):
        with pytest.raises(TypeError):
            count_zeros_on_disk(lambda z: 1.0 - 0.5 * z)


class TestBuildMember:
    def test_normal_form_identity(self):
        # z/f = 1 - a2 z - z omega1 exactly, coefficient by coefficient
        gen = SchwarzGenerator.polynomial([0.2, -0.3, 0.1j])
        a2 = 0.6 - 0.2j
        f = build_member(a2, gen, order=32)
        h = f.series.div_z().reciprocal()
        assert h.coefficient(0) == pytest.approx(1.0)
        assert h.coefficient(1) == pytest.approx(-a2)
        psi = gen.psi_taylor(32).coeffs  # omega1_j = psi_{j-1}/j
        for k in range(2, 20):
            assert h.coefficient(k) == pytest.approx(-psi[k - 2] / (k - 1),
                                                     abs=1e-12)

    def test_deviation_is_z_squared_psi(self):
        # |a2| + |psi| < 1 keeps the quotient zero-free, so this certifies
        gen = SchwarzGenerator.constant(0.3j)
        f = build_member(0.5, gen)
        z = 0.4 - 0.3j
        u = f.h(z) - z * f.h1(z) - 1.0
        assert u == pytest.approx(z * z * 0.3j, abs=1e-12)

    def test_rejects_vanishing_quotient(self):
        # a2 = 2 with psi = +1 puts a quotient zero at sqrt(2) - 1 < 1
        with pytest.raises(DenominatorVanishes):
            build_member(2.0, SchwarzGenerator.constant(1.0))

    def test_rejects_a2_beyond_two(self):
        with pytest.raises(ParamOutOfRange):
            build_member(2.5, SchwarzGenerator.constant(0.0))

    def test_paired_root_family_always_certifies(self):
        # quadratic quotient with both roots on or outside the unit circle
        rng = np.random.default_rng(seed_key(42))
        for _ in range(25):
            t = rng.uniform(1.0, 2.0)
            chi = rng.uniform(0, 2 * np.pi)
            mu = rng.uniform(0.0, 0.999 * np.sqrt(1 - t * t / 4))
            c = -np.exp(2j * chi) * (t * t / 4 + mu * mu)
            f = build_member(t * np.exp(1j * chi), SchwarzGenerator.constant(c))
            assert abs(f.a2) == pytest.approx(t, abs=1e-12)

    def test_paired_root_family_with_a_near_double_root_just_outside(self):
        # h = (1 - (t/2) w)^2 + mu^2 w^2 with w = e^{i chi} z has both roots
        # at |z| = 1/sqrt(t^2/4 + mu^2), about 4 mu/t apart in angle; put them d
        # outside CERT_RADIUS
        rng = np.random.default_rng(seed_key(77))
        for _ in range(40):
            d = rng.uniform(1e-3, 1.6e-2)
            mu = 10.0 ** rng.uniform(-9, -4)
            chi = rng.uniform(0, 2 * np.pi)
            t = 2.0 * np.sqrt((CERT_RADIUS + d) ** -2 - mu * mu)
            c = -np.exp(2j * chi) * (t * t / 4 + mu * mu)
            f = build_member(t * np.exp(1j * chi), SchwarzGenerator.constant(c))
            roots = np.abs(np.roots([-c, -t * np.exp(1j * chi), 1.0]))
            assert roots == pytest.approx(CERT_RADIUS + d, rel=1e-6)
            assert abs(f.a2) == pytest.approx(t, abs=1e-12)

    def test_decompose_returns_the_construction_data_exactly(self):
        # the quotient is kept as built, so no round trip through f blurs a2 or c
        rng = np.random.default_rng(seed_key(5))
        built = 0
        for seed in range(60):
            for kind in RNG_KINDS:
                gen = sample_schwarz(seed, kind, degree=seed % 7)
                a2 = rng.uniform(0.05, 1.0) * np.exp(2j * np.pi * rng.uniform())
                try:
                    f = build_member(a2, gen)
                except DenominatorVanishes:
                    continue
                dec = decompose(f)
                assert dec.a2 == a2 and f.a2 == a2
                assert dec.c == c_coefficients(gen)
                built += 1
        assert built > 100

    def test_one_series_inversion_per_polynomial_member(self, monkeypatch):
        gen = SchwarzGenerator.polynomial([0.2, -0.3, 0.1j])
        calls = []
        reciprocal = ComplexSeries.reciprocal

        def counted(series):
            calls.append(series.order)
            return reciprocal(series)

        monkeypatch.setattr(ComplexSeries, "reciprocal", counted)
        f = build_member(0.6 - 0.2j, gen)
        decompose(f)
        hankel_det(f, 2, 2)
        hankel_det(f, 3, 1)
        assert len(calls) == 1

    def test_one_series_inversion_per_blaschke_member(self, monkeypatch):
        # the generator expands psi only when a member is built
        calls = []
        reciprocal = ComplexSeries.reciprocal

        def counted(series):
            calls.append(series.order)
            return reciprocal(series)

        monkeypatch.setattr(ComplexSeries, "reciprocal", counted)
        gen = SchwarzGenerator.blaschke([0.3, -0.2 + 0.4j], rho=0.5, theta=0.3)
        build_member(0.3j, gen)
        assert len(calls) == 1

    def test_member_spec_round_trip(self):
        gen = SchwarzGenerator.blaschke([0.25 - 0.1j], rho=0.5, theta=0.3)
        f = build_member(0.3j, gen, order=48)
        g = DiskFunction.from_spec(f.to_spec())
        assert np.allclose(g.series.coeffs, f.series.coeffs, atol=1e-14)
        z = 0.5 + 0.2j
        assert g.h(z) == pytest.approx(f.h(z), abs=1e-12)


@given(st.floats(min_value=0.0, max_value=0.999),
       st.floats(min_value=0.0, max_value=2 * np.pi))
@settings(max_examples=40, deadline=None)
def test_members_from_constants_stay_in_class(rho, theta):
    """Certified members keep |U_f| < 1 strictly inside; inadmissible
    (a2, psi) pairs are rejected rather than silently built."""
    gen = SchwarzGenerator.constant(rho * np.exp(1j * theta))
    try:
        f = build_member(0.9, gen)
    except DenominatorVanishes:
        return  # quotient vanished in the disk: correctly not a member
    z = 0.97 * np.exp(1j * np.linspace(0, 2 * np.pi, 97))
    u = f.h(z) - z * f.h1(z) - 1.0
    assert np.abs(u).max() < 1.0
