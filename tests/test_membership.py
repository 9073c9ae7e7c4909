"""Circle scans, verdicts, radius searches, and the paired-class checks."""
import numpy as np
import pytest

from diskclass import (
    ScanPolicy,
    build_member,
    g_transform,
    make_catalog,
    radius_of,
    sample_schwarz,
    starlike_quotient,
    test_class as classify,
    theorem2_check,
    theorem3_check,
    u_operator,
)
from diskclass.errors import NonFiniteValue, PartCPrecondition
from diskclass.explorer import ALPHA_GRID, catalog_prepends
from diskclass.membership import RADIUS_CAP, extremal_on_circle, theorem2_grid


class TestExtremalOnCircle:
    def test_sup_of_monomial(self):
        value, witness = extremal_on_circle(lambda z: z ** 2, "sup_modulus", 0.5)
        assert value == pytest.approx(0.25, abs=1e-12)
        assert abs(witness) == pytest.approx(0.5)

    def test_sup_witness_of_pole_like_peak(self):
        # |1/(1.5 - z)| peaks at z = 1.5 r/|1.5| direction, angle 0
        value, witness = extremal_on_circle(lambda z: 1.0 / (1.5 - z),
                                            "sup_modulus", 0.9)
        assert value == pytest.approx(1.0 / 0.6, abs=1e-10)
        assert witness == pytest.approx(0.9, abs=1e-6)

    def test_refinement_beats_coarse_grid(self):
        # peak placed strictly between coarse grid nodes
        shift = np.exp(1j * (2 * np.pi * (10.5) / 64))
        fn = lambda z: 1.0 / (1.0 - 0.97 * (np.conj(shift) * z / 0.9))
        value, witness = extremal_on_circle(fn, "sup_modulus", 0.9, grid=64)
        assert value == pytest.approx(1.0 / 0.03, rel=1e-6)

    def test_inf_real_of_moebius(self):
        # Re (1+z)/(1-z) on |z| = r has minimum (1-r)/(1+r) at z = -r
        value, witness = extremal_on_circle(
            lambda z: (1 + z) / (1 - z), "inf_real", 0.8)
        assert value == pytest.approx(0.2 / 1.8, abs=1e-10)
        assert witness == pytest.approx(-0.8, abs=1e-6)

    def test_tie_breaks_to_smallest_angle(self):
        # |1/(1-z^2)| has two exactly equal peaks at angles 0 and pi
        value, witness = extremal_on_circle(lambda z: 1.0 / (1.0 - z ** 2),
                                            "sup_modulus", 0.8, grid=64)
        assert value == pytest.approx(1.0 / 0.36, abs=1e-10)
        assert np.angle(witness) == pytest.approx(0.0, abs=1e-9)

    def test_all_nan_functional_raises(self):
        with pytest.raises(NonFiniteValue):
            extremal_on_circle(lambda z: np.full(z.shape, np.nan), "sup_modulus", 0.5)

    def test_nan_spike_at_the_maximum_raises(self):
        # |1/(1.5 - z)| peaks at angle 0, exactly where the values are NaN
        def fn(z):
            return np.where(np.abs(np.angle(z)) < 1e-3, np.nan, 1.0 / (1.5 - z))

        with pytest.raises(NonFiniteValue):
            extremal_on_circle(fn, "sup_modulus", 0.9)

    def test_nan_refine_probe_raises(self):
        # the grid node at angle 0 is finite; only the probes beside it are not
        def fn(z):
            angle = np.abs(np.angle(z))
            return np.where((angle > 0) & (angle < 1e-4), np.nan, 1.0 / (1.5 - z))

        with pytest.raises(NonFiniteValue):
            extremal_on_circle(fn, "sup_modulus", 0.9)

    def test_row_batched_functional(self):
        # rows c z^2 for three c: one result per row, as three scans give
        cs = np.array([0.5, 2.0, 1.0])
        values, witnesses = extremal_on_circle(
            lambda z: cs[:, None] * z ** 2, "sup_modulus", 0.5, grid=64)
        for c, value, witness in zip(cs, values, witnesses):
            single = extremal_on_circle(lambda z: c * z ** 2, "sup_modulus", 0.5,
                                        grid=64)
            assert (value, witness) == single


class TestVerdicts:
    def test_log_map_is_out_of_deviation_class(self):
        rep = classify(make_catalog("log_map"), "U")
        assert rep.verdict == "OUT"
        assert rep.extremal_value > 3.62
        assert rep.witness.real > 0.99 and abs(rep.witness.imag) < 1e-6

    def test_extremal_members_sit_on_boundary(self):
        # deviation z^2 psi with |psi| reaching 1: rescaled estimate is 1
        for cid in ("koebe", "f1"):
            rep = classify(make_catalog(cid), "U")
            assert rep.verdict == "BOUNDARY", cid
            assert rep.boundary_estimate == pytest.approx(1.0, abs=1e-9)

    def test_cubic_deviation_member_reads_in(self):
        # deviation z^3 vanishes to third order, so the second-order
        # rescale r^-2 leaves estimate r < 1: pointwise strictly inside
        rep = classify(make_catalog("f2"), "U")
        assert rep.verdict == "IN"
        assert rep.boundary_estimate == pytest.approx(1.0 - 2.0 ** -10,
                                                      abs=1e-9)

    def test_strict_member_is_in(self):
        rep = classify(make_catalog("example_sec1"), "U")
        assert rep.verdict == "IN"
        # sup |z^3| at r = 1 - 2^-10, rescaled by r^-2
        assert rep.boundary_estimate == pytest.approx(1.0 - 2.0 ** -10,
                                                      abs=1e-9)

    def test_example_is_not_starlike(self):
        rep = classify(make_catalog("example_sec1"), "starlike")
        assert rep.verdict == "OUT"

    def test_koebe_is_starlike_not_convex(self):
        assert classify(make_catalog("koebe"), "starlike").verdict == "IN"
        assert classify(make_catalog("koebe"), "convex").verdict == "OUT"

    def test_log_map_is_convex(self):
        assert classify(make_catalog("log_map"), "convex").verdict == "IN"

    def test_identity_everything(self):
        f = make_catalog("identity")
        for tag in ("U", "starlike", "convex", "bounded_turning"):
            assert classify(f, tag).verdict == "IN", tag

    def test_half_plane_bounded_turning_boundary(self):
        # f' = 1/(1-z)^2 has Re -> 0 along the circle toward z -> 1... it is
        # actually unbounded; the verdict must be OUT (Re goes negative).
        rep = classify(make_catalog("half_plane"), "bounded_turning")
        assert rep.verdict == "OUT"

    def test_mocanu_requires_alpha(self):
        with pytest.raises(ValueError):
            classify(make_catalog("identity"), "mocanu")

    def test_unknown_class_tag(self):
        with pytest.raises(ValueError):
            classify(make_catalog("identity"), "univalent")

    def test_overflowing_alpha_raises_instead_of_reading_out(self):
        # the overflow used to surface as extremal value -inf and verdict OUT
        with pytest.raises(NonFiniteValue):
            classify(make_catalog("koebe"), "mocanu", alpha=1e308)

    def test_policy_echo(self):
        pol = ScanPolicy(r_max=0.5, grid=256, delta=1e-5, refine_iters=20)
        rep = classify(make_catalog("koebe"), "U", pol)
        assert rep.scan_radius == 0.5
        assert rep.grid_size == 256
        assert rep.margin == 1e-5
        # |U| = r^2 = 0.25, estimate = 1 -> BOUNDARY at every radius
        assert rep.extremal_value == pytest.approx(0.25, abs=1e-12)
        assert rep.verdict == "BOUNDARY"


class TestRadius:
    def test_koebe_radius_of_deviation_class_is_one(self):
        res = radius_of(make_catalog("koebe"), "U")
        assert res.radius == 1.0
        assert res.bracket[0] == pytest.approx(RADIUS_CAP)

    def test_log_map_radius_below_one(self):
        res = radius_of(make_catalog("log_map"), "U")
        assert 0.5 < res.radius < 1.0
        assert res.bracket[1] - res.bracket[0] <= 1e-4 + 1e-12
        # the scan value at the bracketed radius sits at the threshold
        fn = u_operator(make_catalog("log_map"))
        value, _ = extremal_on_circle(fn, "sup_modulus", res.radius)
        assert value == pytest.approx(1.0, abs=2e-3)

    def test_gb_starlike_radius_matches_half_b(self):
        for b in (0.5, 1.0, 1.5):
            g = g_transform(make_catalog("fb", {"b": b}))
            res = radius_of(g, "starlike")
            assert res.radius == pytest.approx(b / 2.0, abs=1e-4), b

    def test_gb2_starlike_radius_is_one(self):
        g = g_transform(make_catalog("fb", {"b": 2.0}))
        assert radius_of(g, "starlike").radius == 1.0

    def test_koebe_convexity_radius(self):
        # classical value 2 - sqrt(3)
        res = radius_of(make_catalog("koebe"), "convex")
        assert res.radius == pytest.approx(2.0 - np.sqrt(3.0), abs=1e-4)


class TestPairedChecks:
    def test_parts_on_fb(self):
        f = make_catalog("fb", {"b": 0.8})
        # part a sup is 2r/b at r = 0.99 b/2, i.e. 0.99 for every b
        for part, expect in (("a", 0.99), ("b", None), ("c", None)):
            rep = theorem3_check(f, part)
            assert rep.verdict == "IN", part
            assert rep.scan_radius == pytest.approx(0.99 * 0.4)
            if expect is not None:
                # |g' - 1| = 2|z|/b on the shrunk circle
                assert rep.extremal_value == pytest.approx(expect, abs=1e-10)

    def test_part_c_precondition(self):
        f = make_catalog("koebe")  # |a2| = 2
        with pytest.raises(PartCPrecondition):
            theorem3_check(f, "c")
        rep = theorem3_check(f, "c", allow_large_a2=True)
        assert rep.verdict == "IN"

    def test_part_names_validated(self):
        with pytest.raises(ValueError):
            theorem3_check(make_catalog("koebe"), "d")

    def test_sampled_member_parts_below_one(self):
        f = build_member(0.8, sample_schwarz(3, "blaschke_product"))
        for part in ("a", "b", "c"):
            rep = theorem3_check(f, part)
            assert rep.extremal_value < 1.0, part

    def test_half_plane_against_alpha_family(self):
        rec = theorem2_check(make_catalog("half_plane"), -1.0)
        assert rec.m_alpha.verdict == "IN"
        assert rec.u.verdict == "IN"
        assert rec.implication_respected

    def test_log_map_against_alpha_family(self):
        rec = theorem2_check(make_catalog("log_map"), 1.0)
        assert rec.m_alpha.verdict == "IN"   # convex
        assert rec.u.verdict == "OUT"        # not in the deviation class
        assert rec.implication_respected     # alpha = 1 makes no claim

    def test_record_serializes(self):
        rec = theorem2_check(make_catalog("identity"), -2.0)
        d = rec.to_dict()
        assert d["alpha"] == -2.0
        assert d["in_u"]["verdict"] == "IN"


def _theorem2_functions():
    for cid, params in catalog_prepends("theorem2"):
        yield f"{cid}{params or ''}", make_catalog(cid, params)
    for seed in range(3):
        a2 = 0.6 * np.exp(1j * seed)
        yield (f"polynomial{seed}",
               build_member(a2, sample_schwarz(seed, "random_polynomial", 6)))
        yield (f"blaschke{seed}",
               build_member(a2, sample_schwarz(seed, "blaschke_product", 3)))


class TestBatchedAlphaGrid:
    def test_rows_equal_one_row_scans_bit_for_bit(self):
        policy = ScanPolicy()
        for label, f in _theorem2_functions():
            records = theorem2_grid(f, ALPHA_GRID, policy)
            assert [rec.alpha for rec in records] == list(ALPHA_GRID)
            assert records[0].u == classify(f, "U", policy), label
            for rec in records:
                single = classify(f, "mocanu", policy, alpha=rec.alpha)
                assert rec.m_alpha == single, (label, rec.alpha)
                assert rec.m_alpha.extremal_value.hex() == single.extremal_value.hex()
                assert rec.m_alpha.witness.real.hex() == single.witness.real.hex()
                assert rec.m_alpha.witness.imag.hex() == single.witness.imag.hex()
