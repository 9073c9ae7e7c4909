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
    canonical_json,
    catalog_ids,
    count_zeros_on_disk,
    decompose,
    g_transform,
    hankel_det,
    make_catalog,
    sample_schwarz,
    seed_key,
)
from diskclass.catalog import CERT_RADIUS, _log, _unit_circle, zero_bracket
from diskclass.membership import RADIUS_CAP
from diskclass.hankel import _det
from diskclass.series import MAX_ORDER
from diskclass.errors import (
    BoundaryTooClose,
    DenominatorVanishes,
    InsufficientOrder,
    ParamOutOfRange,
    UnknownId,
)
from oracles import c_coefficients, jet_at

RNG_KINDS = ("scaled_unimodular", "blaschke_product", "random_polynomial")


def count_inversions(monkeypatch):
    """Patch ComplexSeries.reciprocal to log the term count of each inversion."""
    calls = []
    reciprocal = ComplexSeries.reciprocal

    def counted(series, *args, **kwargs):
        calls.append(series.order + 1)
        return reciprocal(series, *args, **kwargs)

    monkeypatch.setattr(ComplexSeries, "reciprocal", counted)
    return calls


def psi(gen, z):
    """psi = omega1' of a generator, read off the kernel of its a2 = 0 member."""
    return jet_at(gen.member(0j, 0)[1], "omega", 1, z)[1]


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
        f0, f1, f2 = jet_at(f.kernel, "f", 2, z)
        assert f0 == pytest.approx(-np.log(1 - z), abs=1e-12)
        assert f1 == pytest.approx(1.0 / (1 - z), abs=1e-12)
        assert f2 == pytest.approx(1.0 / (1 - z) ** 2, abs=1e-12)

    def test_example_quotient_value(self):
        # z/f = (1 - z)^2 (1 + z/2) expands to 1 - 1.5 z + 0.5 z^3
        f = make_catalog("example_sec1")
        z = 0.3 + 0.1j
        expect = (1 - z) ** 2 * (1 + z / 2)
        assert jet_at(f.kernel, "h", 0, z)[0] == pytest.approx(expect, abs=1e-12)

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

    @pytest.mark.parametrize("order", [MAX_ORDER + 1, 10 ** 11])
    @pytest.mark.parametrize("cid", ["koebe", "log_map"])
    def test_order_above_its_bound_is_refused_before_any_series(self, cid, order):
        # 10^11 coefficients would end in numpy's MemoryError
        with pytest.raises(ParamOutOfRange, match="order"):
            make_catalog(cid, order=order)
        with pytest.raises(ParamOutOfRange, match="order"):
            DiskFunction.from_spec({"id": cid}, order=order)

    def test_catalog_h_evaluations_match_series(self):
        # kernel h and reciprocal of the series quotient agree well inside
        for cid in ("koebe", "f1", "f2", "half_plane", "identity", "log_map"):
            f = make_catalog(cid, order=64)
            z = 0.35 * np.exp(1j * np.linspace(0.1, 6.0, 7))
            series_h = f.series.div_z().reciprocal()
            h = jet_at(f.kernel, "h", 0, z)[0]
            assert np.allclose(h, series_h(z), atol=1e-10), cid

    def test_spec_round_trip(self):
        for cid, params in (("koebe", None), ("fb", {"b": 0.75}), ("log_map", None)):
            f = make_catalog(cid, params)
            g = DiskFunction.from_spec(f.to_spec())
            assert g.id == f.id
            assert np.allclose(g.series.coeffs, f.series.coeffs, atol=1e-14)

    def test_transform_and_series_functions_have_no_spec(self):
        koebe = make_catalog("koebe")
        for f in (g_transform(koebe), DiskFunction.from_series(koebe.series)):
            with pytest.raises(UnknownId, match="no spec"):
                f.to_spec()


class TestKernelLog:
    def test_signed_zeros_of_the_branch_cut_match_numpy(self):
        # w = -0.5 +- 0.0j lie on the two sides of the cut: +-pi, as np.log
        w = np.array([complex(-0.5, 0.0), complex(-0.5, -0.0)])
        got, want = _log(w), np.log(w)
        assert got.imag.tolist() == [np.pi, -np.pi] == want.imag.tolist()
        assert got.real.tolist() == want.real.tolist()


class TestUnitCircle:
    """The circle that scans and the sampler share, built once per size."""

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 4096, 8192])
    def test_bits_equal_the_inline_circle(self, n):
        inline = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
        assert _unit_circle(n).tobytes() == inline.tobytes()

    def test_sampler_grid_keeps_its_bits(self):
        # the normalization grid random_polynomial draws were made with
        former = np.exp(2j * np.pi * np.arange(8192) / 8192)
        assert _unit_circle(8192).tobytes() == former.tobytes()

    def test_is_read_only(self):
        with pytest.raises(ValueError):
            _unit_circle(64)[0] = 0.0


class TestSchwarzGenerators:
    def test_constant_kind(self):
        gen = SchwarzGenerator.constant(0.3 + 0.4j)
        assert gen.kind == "scaled_unimodular"
        assert psi(gen, 0.9) == pytest.approx(0.3 + 0.4j)
        omega1 = jet_at(gen.member(0j, 0)[1], "omega", 0, 0.5)[0]
        assert omega1 == pytest.approx((0.3 + 0.4j) * 0.5)

    def test_constant_rejects_large_modulus(self):
        with pytest.raises(ParamOutOfRange):
            SchwarzGenerator.constant(1.2)

    def test_blaschke_bounded_by_one_on_circle(self):
        gen = SchwarzGenerator.blaschke([0.3, -0.2 + 0.4j], rho=1.0, theta=0.5)
        z = 0.999 * np.exp(1j * np.linspace(0, 2 * np.pi, 733))
        assert np.abs(psi(gen, z)).max() <= 1.0 + 1e-9

    def test_blaschke_zero_placement(self):
        gen = SchwarzGenerator.blaschke([0.5], rho=1.0, theta=0.0)
        assert abs(psi(gen, 0.5)) < 1e-12

    def test_blaschke_psi_taylor_matches_pointwise(self):
        # the member's quotient holds psi's expansion: h_{k+2} = -psi_k/(k+1)
        gen = SchwarzGenerator.blaschke([0.4, 0.2 - 0.3j], rho=0.8, theta=1.1)
        h = gen.member(0j, 48)[0]
        series = ComplexSeries(-h[2:] * np.arange(1, h.size - 1))
        for z in (0.05, 0.1j, 0.08 - 0.04j):
            assert series(z) == pytest.approx(psi(gen, z), abs=1e-12)

    def test_polynomial_derivative_consistency(self):
        gen = SchwarzGenerator.polynomial([0.1, 0.2, -0.05j])
        z = 0.3 + 0.2j
        eps = 1e-6
        numeric = (psi(gen, z + eps) - psi(gen, z - eps)) / (2 * eps)
        psi1 = jet_at(gen.member(0j, 0)[1], "omega", 2, z)[2]
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
        assert psi(back, z) == pytest.approx(psi(gen, z), abs=1e-14)

    @pytest.mark.parametrize("kind", RNG_KINDS)
    def test_sampled_generators_admissible(self, kind):
        # sup |psi| <= 1 on a near-boundary circle for every sampled generator
        grid = 0.995 * np.exp(2j * np.pi * np.arange(512) / 512)
        for seed in range(20):
            gen = sample_schwarz(seed, kind, degree=4)
            assert np.abs(psi(gen, grid)).max() <= 1.0 + 1e-9

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


def winding(fn, lipschitz, slack=0.0):
    """A winding source (fn, bounds) whose bounds hold on every radius."""
    return fn, lambda radius: (lipschitz, slack)


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
                zeros = count_zeros_on_disk(winding(lambda z: 1.0 - z / z0, 1.0 / abs(z0)))
        except BoundaryTooClose:
            return
        assert zeros == 1

    def test_winding_counts_with_a_lipschitz_bound(self):
        r = CERT_RADIUS
        assert count_zeros_on_disk(winding(lambda z: 1.0 - 0.5 * z, 0.5)) == 0
        assert count_zeros_on_disk(winding(lambda z: (1.0 - 2.0 * z) ** 2,
                                           4.0 * (1.0 + 2.0 * r))) == 2
        with pytest.raises(BoundaryTooClose):
            count_zeros_on_disk(winding(lambda z: z - r, 1.0))

    def test_kernel_sources_are_counted_as_given(self):
        # a kernel's factor("pole") is the whole input, polynomial or winding
        assert count_zeros_on_disk(make_catalog("koebe").kernel.factor("pole"), 0.99) == 0
        kernel = SchwarzGenerator.blaschke([0.5, -0.3j], 0.9, 0.4).member(1.8)[1]
        assert count_zeros_on_disk(kernel.factor("pole"), 0.99) > 0
        assert count_zeros_on_disk(kernel.factor("pole"), 0.3) == 0


class TestZeroBracket:
    """zero_bracket places the zeros nearest the origin of the factors of f
    whose zeros are the poles of the class functionals."""

    def test_zero_free_factors_reach_the_circle(self):
        # koebe: h = (1 - z)^2 and s = 1 - z^2 vanish only on |z| = 1; g of
        # log_map has no poles, and D and g' have no zeros (Enestrom-Kakeya)
        for f in (make_catalog("koebe"), make_catalog("log_map"),
                  g_transform(make_catalog("log_map"))):
            for part in ("pole", "root", "crit"):
                assert zero_bracket(f, part, 0.99) == (0.99, None, True), (f.id, part)

    def test_simple_and_double_zeros_are_placed(self):
        z0 = 0.4 * np.exp(1.1j)
        for h in ([1.0, -1.0 / z0], np.polynomial.polynomial.polyfromroots([z0, z0]) / z0 ** 2):
            f = DiskFunction("zeros", {}, quotient=ComplexSeries(h))
            lo, hi, simple = zero_bracket(f, "pole", 0.99)
            assert lo <= 0.4 <= hi < 0.4 + 1e-6
            # the double zero's two inclusion disks overlap
            assert simple == (len(h) == 2)
            assert zero_bracket(f, "root", 0.99) == (0.99, None, True)

    def test_transform_and_series_factors(self):
        # g of fb(b) is z (1 + z/b): f/z vanishes at -b and f' at -b/2
        g = make_catalog("fb", {"b": 0.5})
        for f in (g_transform(g), DiskFunction.from_series(g_transform(g).series)):
            assert zero_bracket(f, "pole", 0.99) == (0.99, None, True)
            for part, zero in (("root", 0.5), ("crit", 0.25)):
                lo, hi, simple = zero_bracket(f, part, 0.99)
                assert lo <= zero <= hi < zero + 1e-9 and simple, (f.id, part)

    def test_winding_zeros_are_placed(self):
        # h of this member has one zero in the disk, near 0.556: bisecting
        # the radius on winding counts places it
        h, kernel = SchwarzGenerator.blaschke([0.5, -0.3j], 0.9, 0.4).member(1.8)
        f = DiskFunction("blaschke_zero", {}, kernel, quotient=ComplexSeries(h))
        zero = min(abs(np.polynomial.polynomial.polyroots(h)))
        lo, hi, simple = zero_bracket(f, "pole", 0.99)
        assert lo <= zero <= hi < lo + 5e-5 and simple
        assert zero_bracket(f, "crit", 0.99) == (0.99, None, True)  # s = 1 + z^2 psi
        # g of a Blaschke member has no poles, |a2| = 1.8 > rho keeps D zero-free,
        # and the winding count of D + z psi = a2 g' finds no zero
        g = g_transform(f)
        for part in ("pole", "root", "crit"):
            assert zero_bracket(g, part, 0.99) == (0.99, None, True)

    def test_unproven_zeros_give_none(self):
        # a zero of h within rounding of the circle: the count refuses
        f = DiskFunction("edge", {}, quotient=ComplexSeries([1.0, -1.0 / 0.99]))
        assert zero_bracket(f, "pole", 0.99) is None
        # g of g of a Blaschke member has no zero source
        g = g_transform(g_transform(build_member(0.5, SchwarzGenerator.blaschke([0.5], 0.5, 0.0))))
        assert zero_bracket(g, "pole", 0.99) is None

    def test_refused_winding_count_gives_none(self):
        # a Blaschke member whose h vanishes within rounding of RADIUS_CAP:
        # h(z0) = 1 - a2 z0 - z0 omega1(z0) = 0 solved for a2
        z0 = RADIUS_CAP * np.exp(0.7j)
        gen = SchwarzGenerator.blaschke([0.4 - 0.2j], 0.8, 1.1)
        omega = gen.member(0.0)[1].omega_jet(np.array([z0]), 0)[0][0]
        h, kernel = gen.member((1.0 - z0 * omega) / z0)
        f = DiskFunction("edge", {}, kernel, quotient=ComplexSeries(h))
        with pytest.raises(BoundaryTooClose):
            count_zeros_on_disk(kernel.factor("pole"), RADIUS_CAP)
        assert zero_bracket(f, "pole", RADIUS_CAP) is None
        assert zero_bracket(f, "pole", 0.9) is not None


class TestBuildMember:
    def test_normal_form_identity(self):
        # z/f = 1 - a2 z - z omega1 exactly, coefficient by coefficient
        gen = SchwarzGenerator.polynomial([0.2, -0.3, 0.1j])
        a2 = 0.6 - 0.2j
        f = build_member(a2, gen, order=32)
        h = f.series.div_z().reciprocal()
        assert h.coefficient(0) == pytest.approx(1.0)
        assert h.coefficient(1) == pytest.approx(-a2)
        psi = np.zeros(32, dtype=np.complex128)  # omega1_j = psi_{j-1}/j
        psi[:3] = [0.2, -0.3, 0.1j]
        for k in range(2, 20):
            assert h.coefficient(k) == pytest.approx(-psi[k - 2] / (k - 1),
                                                     abs=1e-12)

    def test_deviation_is_z_squared_psi(self):
        # |a2| + |psi| < 1 keeps the quotient zero-free, so this certifies
        gen = SchwarzGenerator.constant(0.3j)
        f = build_member(0.5, gen)
        z = 0.4 - 0.3j
        h, h1 = jet_at(f.kernel, "h", 1, z)
        u = h - z * h1 - 1.0
        assert u == pytest.approx(z * z * 0.3j, abs=1e-12)

    def test_rejects_vanishing_quotient(self):
        # a2 = 2 with psi = +1 puts a quotient zero at sqrt(2) - 1 < 1
        with pytest.raises(DenominatorVanishes):
            build_member(2.0, SchwarzGenerator.constant(1.0))

    def test_rejects_a2_beyond_two(self):
        with pytest.raises(ParamOutOfRange):
            build_member(2.5, SchwarzGenerator.constant(0.0))

    @pytest.mark.parametrize("order", [0, MAX_ORDER + 1, 10 ** 11])
    def test_rejects_an_order_outside_its_bound(self, order):
        # the bound is checked before psi is expanded to the order, and a
        # spec replays through the same check
        gen = SchwarzGenerator.blaschke([0.5, 0.3j], 0.8, 0.3)
        with pytest.raises(ParamOutOfRange, match="order"):
            build_member(0.3, gen, order)
        spec = build_member(0.3, gen, order=8).to_spec()
        spec["params"]["order"] = order
        with pytest.raises(ParamOutOfRange, match="order"):
            DiskFunction.from_spec(spec)

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
        calls = count_inversions(monkeypatch)
        f = build_member(0.6 - 0.2j, gen)
        # in the order a theorem-1 row reads them: H3(1) reads a_1..a_5,
        # so H2(2) reuses its prefix
        decompose(f)
        hankel_det(f, 3, 1)
        hankel_det(f, 2, 2)
        assert len(calls) == 1
        assert max(calls) <= 6  # terms of 1/h: a_0..a_5, never the full quotient

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
        assert jet_at(g.kernel, "h", 0, z) == pytest.approx(jet_at(f.kernel, "h", 0, z),
                                                            abs=1e-12)

    @pytest.mark.parametrize("kind", ["scaled_unimodular", "random_polynomial",
                                      "blaschke_product"])
    def test_member_spec_is_a_fixed_point(self, kind):
        # a member stores its spec, so from_spec . to_spec gives back its bytes
        f = build_member(0.4 - 0.3j, sample_schwarz(3, kind, 3))
        spec = DiskFunction.from_spec(f.to_spec()).to_spec()
        assert spec == f.to_spec()
        assert canonical_json(spec).encode() == canonical_json(f.to_spec()).encode()


def prefix_cases(order):
    """(label, factory) for every catalog id and seeded members of each kind."""
    cases = [(cid, lambda cid=cid: make_catalog(cid, {"b": 1.3} if cid == "fb" else None,
                                                 order=order))
             for cid in catalog_ids()]
    cases += [(f"{kind}:{seed}",
               lambda kind=kind, seed=seed: build_member(
                   0.3, sample_schwarz(seed, kind), order=order))
              for kind in RNG_KINDS for seed in (1, 2)]
    return cases


def full_inversion(f):
    """f's coefficients from inverting the whole quotient, or the series f was built from."""
    if f.id == "log_map":
        return f.series.coeffs
    return f.quotient.reciprocal().mul_z().coeffs


def hexes(values):
    return [(float(np.real(v)).hex(), float(np.imag(v)).hex()) for v in values]


class TestTaylorPrefix:
    @pytest.mark.parametrize("order", [8, 64])
    def test_prefix_has_the_bits_of_the_full_inversion(self, order):
        for label, make in prefix_cases(order):
            full = full_inversion(make())
            for top in (1, 2, 4, 5, order):
                prefix = make().taylor(top)
                assert prefix.order >= top, (label, top)
                assert hexes(prefix.coeffs[: top + 1]) == hexes(full[: top + 1]), (label, top)

    @pytest.mark.parametrize("order", [8, 64])
    def test_extended_prefix_and_series_keep_the_bits(self, order):
        for label, make in prefix_cases(order):
            f = make()
            full = full_inversion(make())
            for top in (4, 5, order):
                assert hexes(f.taylor(top).coeffs[: top + 1]) == hexes(full[: top + 1]), label
            assert f.series.order == f.order == order
            assert hexes(f.series.coeffs) == hexes(full), label

    @pytest.mark.parametrize("q, n", [(2, 2), (3, 1), (4, 1)])
    def test_hankel_values_match_the_full_inversion(self, q, n):
        for label, make in prefix_cases(64):
            a = full_inversion(make())
            expected = _det([[complex(a[n + i + j]) for j in range(q)] for i in range(q)])
            rep = hankel_det(make(), q, n)
            assert hexes([rep.value]) == hexes([expected]), label
            assert hexes(rep.coefficients) == hexes(a[n : n + 2 * q - 1]), label

    def test_insufficient_order_raised_before_any_inversion(self, monkeypatch):
        calls = count_inversions(monkeypatch)
        koebe = make_catalog("koebe", order=4)
        member = build_member(0.3, SchwarzGenerator.polynomial([0.2, -0.3]), order=4)
        for f in (koebe, member):
            for q, n in ((3, 2), (4, 1), (1, 5)):
                with pytest.raises(InsufficientOrder):
                    hankel_det(f, q, n)
        assert calls == []

    def test_prefix_past_the_declared_order_is_derived_once(self, monkeypatch):
        calls = count_inversions(monkeypatch)
        f = make_catalog("koebe", order=8)
        for top in (100, 100, 8, 5):
            assert f.taylor(top).order == 8
        assert f.series.coefficient(8) == 8.0
        assert calls == [9]


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
    h, h1 = jet_at(f.kernel, "h", 1, z)
    u = h - z * h1 - 1.0
    assert np.abs(u).max() < 1.0
