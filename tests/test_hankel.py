"""Hankel determinants, reduced identities, and coefficient constraints."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskclass import (
    DiskFunction,
    build_member,
    decompose,
    h3_profile_bound,
    hankel_det,
    make_catalog,
    prokhorov_szynal_check,
    reduced_h2,
    reduced_h3,
    sample_schwarz,
    seed_key,
)
from diskclass.errors import ArgumentOutOfDomain, InsufficientOrder
from oracles import c3_envelope, c_coefficients, coeffs_from_c, rotate


def random_admissible_c(rng):
    """Draw (c1, c2, c3) inside the coefficient body with random phases."""
    x = rng.uniform(0.0, 1.0)
    c1 = x * np.exp(1j * rng.uniform(0, 2 * np.pi))
    y = rng.uniform(0.0, (1.0 - x * x) / 2.0)
    c2 = y * np.exp(1j * rng.uniform(0, 2 * np.pi))
    # stay strictly inside the third constraint
    room = (1.0 - x * x) ** 2 - 4.0 * y * y
    t = rng.uniform(0.0, room / (3.0 * (1.0 - x * x) + 1e-15))
    c3 = t * np.exp(1j * rng.uniform(0, 2 * np.pi))
    num = 3.0 * c3 * (1.0 - x * x) + 4.0 * np.conj(c1) * c2 * c2
    if abs(num) > room:
        c3 *= 0.0  # fall back to the always-admissible center
    return c1, c2, c3


class TestDeterminants:
    def test_koebe_h2_sharp(self):
        rep = hankel_det(make_catalog("koebe"), 2, 2)
        assert rep.value == pytest.approx(-1.0, abs=1e-12)
        assert rep.modulus == pytest.approx(1.0, abs=1e-12)

    def test_f1_h2_sharp(self):
        rep = hankel_det(make_catalog("f1"), 2, 2)
        assert rep.value == pytest.approx(-1.0, abs=1e-12)

    def test_f2_h3_sharp(self):
        rep = hankel_det(make_catalog("f2"), 3, 1)
        assert rep.value == pytest.approx(-0.25, abs=1e-12)
        assert rep.modulus == pytest.approx(0.25, abs=1e-12)

    def test_identity_determinants_vanish(self):
        f = make_catalog("identity")
        assert hankel_det(f, 2, 2).modulus == pytest.approx(0.0, abs=1e-14)
        assert hankel_det(f, 3, 1).modulus == pytest.approx(0.0, abs=1e-14)

    def test_koebe_h3_vanishes(self):
        # a_n = n: rows of the 3x3 matrix are in arithmetic progression
        assert hankel_det(make_catalog("koebe"), 3, 1).modulus < 1e-12

    def test_h1_is_single_coefficient(self):
        f = make_catalog("koebe")
        assert hankel_det(f, 1, 4).value == pytest.approx(4.0)

    def test_q4_runs(self):
        rep = hankel_det(make_catalog("koebe"), 4, 1)
        assert rep.modulus < 1e-10  # arithmetic-progression rows again

    def test_bad_q_and_order(self):
        f = make_catalog("koebe", order=4)
        with pytest.raises(ValueError):
            hankel_det(f, 5, 1)
        with pytest.raises(ValueError):
            hankel_det(f, 2, 0)
        with pytest.raises(InsufficientOrder):
            hankel_det(f, 3, 2)


class TestReducedIdentities:
    def test_eq4_reconstruction_from_sampled_members(self):
        # a3, a4, a5 formulas agree with the actual Taylor coefficients
        for seed in range(10):
            f = build_member(0.35, sample_schwarz(seed, "random_polynomial",
                                                  degree=6), order=24)
            dec = decompose(f)
            a3, a4, a5 = coeffs_from_c(dec.a2, dec.c)
            assert a3 == pytest.approx(f.series.coefficient(3), abs=1e-11)
            assert a4 == pytest.approx(f.series.coefficient(4), abs=1e-11)
            assert a5 == pytest.approx(f.series.coefficient(5), abs=1e-11)

    def test_determinants_reduce_on_random_tuples(self):
        # frozen oracle: for reconstructed coefficients the determinants
        # collapse to a2 c2 - c1^2 and c1 c3 - c2^2
        rng = np.random.default_rng(seed_key(20260815))
        for _ in range(1000):
            c1, c2, c3 = random_admissible_c(rng)
            a2 = rng.uniform(0, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            a3, a4, a5 = coeffs_from_c(a2, (c1, c2, c3))
            h2 = a2 * a4 - a3 * a3
            h3 = (a3 * (a2 * a4 - a3 * a3) - a4 * (a4 - a2 * a3)
                  + a5 * (a3 - a2 * a2))
            assert abs(h2 - reduced_h2(a2, (c1, c2))) < 1e-10
            assert abs(h3 - reduced_h3((c1, c2, c3))) < 1e-10

    def test_reduced_matches_full_determinant_on_members(self):
        for seed in (2, 5, 8):
            f = build_member(0.45, sample_schwarz(seed, "blaschke_product"),
                             order=24)
            dec = decompose(f)
            assert hankel_det(f, 2, 2).value == pytest.approx(
                reduced_h2(dec.a2, dec.c), abs=1e-11)
            assert hankel_det(f, 3, 1).value == pytest.approx(
                reduced_h3(dec.c), abs=1e-11)

    def test_rotation_invariance_of_moduli(self):
        rng = np.random.default_rng(seed_key(99))
        for seed in range(20):
            f = build_member(0.4, sample_schwarz(seed, "random_polynomial",
                                                 degree=5), order=16)
            base2 = hankel_det(f, 2, 2).modulus
            base3 = hankel_det(f, 3, 1).modulus
            for _ in range(50):
                theta = rng.uniform(0, 2 * np.pi)
                g = DiskFunction.from_series(rotate(f.series, theta))
                assert hankel_det(g, 2, 2).modulus == pytest.approx(
                    base2, abs=1e-10)
                assert hankel_det(g, 3, 1).modulus == pytest.approx(
                    base3, abs=1e-10)


class TestCoefficientConstraints:
    def test_slacks_nonnegative_for_sampled_generators(self):
        kinds = ("scaled_unimodular", "blaschke_product", "random_polynomial")
        for seed in range(1000):
            gen = sample_schwarz(seed, kinds[seed % 3])
            ps = prokhorov_szynal_check(*c_coefficients(gen))
            assert ps.ok, (seed, ps)

    def test_extremal_slacks_are_zero(self):
        # psi = 1 constant: c = (1, 0, 0)
        ps = prokhorov_szynal_check(1.0, 0.0, 0.0)
        assert ps.slack1 == pytest.approx(0.0, abs=1e-15)
        assert ps.slack2 == pytest.approx(0.0, abs=1e-15)
        assert ps.slack3 == pytest.approx(0.0, abs=1e-15)

    def test_inadmissible_tuple_detected(self):
        assert not prokhorov_szynal_check(0.5, 0.6, 0.0).ok

    def test_envelope_meets_third_slack_at_c2_extremes(self):
        # at |c2| = (1 - c1^2)/2 the envelope value makes slack3 vanish
        for x in (0.0, 0.2, 0.5, 0.8, 0.95):
            y = (1.0 - x * x) / 2.0
            t = c3_envelope(x, y)
            assert t == pytest.approx(x * (1.0 - x * x) / 3.0, abs=1e-12)
            ps = prokhorov_szynal_check(x, y, -t)  # opposing phase
            assert ps.slack3 == pytest.approx(0.0, abs=1e-12)
            beyond = prokhorov_szynal_check(x, y, -(t + 1e-6))
            assert beyond.slack3 < 0.0

    def test_envelope_at_zero_c2(self):
        assert c3_envelope(0.0, 0.0) == pytest.approx(1.0 / 3.0)

    def test_envelope_domain(self):
        with pytest.raises(ArgumentOutOfDomain):
            c3_envelope(1.2, 0.0)
        with pytest.raises(ArgumentOutOfDomain):
            c3_envelope(0.5, 0.6)

    def test_profile_bound_shape(self):
        assert h3_profile_bound(0.0) == pytest.approx(0.25)
        assert h3_profile_bound(1.0) == pytest.approx(0.0)
        xs = np.linspace(0, 1, 101)
        vals = np.array([h3_profile_bound(x) for x in xs])
        assert vals.max() == pytest.approx(0.25)
        assert np.all(np.diff(vals) <= 1e-15)  # decreasing in |c1|

    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=60, deadline=None)
    def test_profile_majorizes_reduced_h3(self, draw):
        rng = np.random.default_rng(seed_key(4, draw))
        c1, c2, c3 = random_admissible_c(rng)
        assert abs(reduced_h3((c1, c2, c3))) <= h3_profile_bound(abs(c1)) + 1e-12

