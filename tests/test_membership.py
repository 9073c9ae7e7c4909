"""Circle scans, verdicts, radius searches, and the paired-class checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

import diskclass.membership as membership
from diskclass import (
    DiskFunction,
    ScanPolicy,
    build_member,
    g_transform,
    make_catalog,
    radius_of,
    sample_schwarz,
    starlike_quotient,
    test_class as classify,
    theorem3_check,
    turning_derivative,
    u_operator,
)
from diskclass.catalog import SchwarzGenerator, _inclusion_disks, _unit_circle, zero_bracket
from diskclass.errors import (DenominatorVanishes, NonFiniteValue, ParamOutOfRange,
                              PartCPrecondition, RadiusUnproven)
from diskclass.explorer import ALPHA_GRID, catalog_prepends
from diskclass.membership import RADIUS_CAP, extremal_on_circle, theorem2_grid
from diskclass.operators import PointFunctional, theorem3_parts
from diskclass.series import ComplexSeries
from oracles import walk_radius


GRID64 = ScanPolicy(grid=64)


def _same_bits(a, b):
    return float(a).hex() == float(b).hex()


def _record_scans(monkeypatch):
    """Patch the scan engine; each call appends (number of radii, error)."""
    scans = []
    original = membership.extremal_on_circle

    def recorded(functional, radius, *args, **kwargs):
        try:
            out = original(functional, radius, *args, **kwargs)
        except Exception as exc:
            scans.append((np.size(radius), type(exc)))
            raise
        scans.append((np.size(radius), None))
        return out

    monkeypatch.setattr(membership, "extremal_on_circle", recorded)
    return scans


def _record_radii(monkeypatch):
    """Patch the scan engine; each call appends the radius it scans."""
    radii = []
    original = membership.extremal_on_circle

    def recorded(functional, radius, *args, **kwargs):
        radii.append(radius)
        return original(functional, radius, *args, **kwargs)

    monkeypatch.setattr(membership, "extremal_on_circle", recorded)
    return radii


def _scan_only(monkeypatch):
    """Bypass the radius search's circle proof, so every circle is scanned."""
    monkeypatch.setattr(membership, "_circle_proof", lambda *args: None)


class TestExtremalOnCircle:
    def test_sup_of_monomial(self):
        value, witness = extremal_on_circle(lambda z: np.abs(z ** 2), 0.5)
        assert type(value) is float and type(witness) is complex
        assert value == pytest.approx(0.25, abs=1e-12)
        assert abs(witness) == pytest.approx(0.5)

    def test_sup_witness_of_pole_like_peak(self):
        # |1/(1.5 - z)| peaks at z = 1.5 r/|1.5| direction, angle 0
        value, witness = extremal_on_circle(lambda z: np.abs(1.0 / (1.5 - z)), 0.9)
        assert value == pytest.approx(1.0 / 0.6, abs=1e-10)
        assert witness == pytest.approx(0.9, abs=1e-6)

    def test_refinement_beats_coarse_grid(self):
        # peak placed strictly between coarse grid nodes
        shift = np.exp(1j * (2 * np.pi * (10.5) / 64))
        fn = lambda z: np.abs(1.0 / (1.0 - 0.97 * (np.conj(shift) * z / 0.9)))
        value, witness = extremal_on_circle(fn, 0.9, GRID64)
        assert value == pytest.approx(1.0 / 0.03, rel=1e-6)

    @staticmethod
    def _bump_and_spike(z):
        # on a 64-point grid: a broad bump peaking at node 10 and a spike of
        # width 0.05 cells, 0.6 cells past that node (angles in grid cells)
        t = np.angle(z) / (2 * np.pi / 64) - 10.0
        return np.exp(-(t / 12.0) ** 2) + 1.2 * np.exp(-((t - 0.6) / 0.025) ** 2)

    def test_refine_finds_a_spike_between_grid_nodes(self):
        value, witness = extremal_on_circle(self._bump_and_spike, 0.5, GRID64)
        assert value == pytest.approx(1.2 + np.exp(-(0.6 / 12.0) ** 2), abs=1e-7)
        assert np.angle(witness) / (2 * np.pi / 64) == pytest.approx(10.6, abs=1e-4)

    def test_no_refine_returns_the_grid_maximum(self):
        theta = 2 * np.pi * np.arange(64) / 64
        grid_values = np.abs(self._bump_and_spike(0.5 * np.exp(1j * theta)))
        value, witness = extremal_on_circle(self._bump_and_spike, 0.5,
                                            ScanPolicy(grid=64, refine_iters=0))
        assert value == grid_values.max()
        assert witness == 0.5 * np.exp(1j * theta[np.argmax(grid_values)])

    def test_inf_real_of_moebius(self):
        # Re (1+z)/(1-z) on |z| = r has minimum (1-r)/(1+r) at z = -r, where
        # -Re (1+z)/(1-z) has its maximum
        value, witness = extremal_on_circle(lambda z: -np.real((1 + z) / (1 - z)), 0.8)
        assert value == pytest.approx(-0.2 / 1.8, abs=1e-10)
        assert witness == pytest.approx(-0.8, abs=1e-6)

    def test_tie_breaks_to_smallest_angle(self):
        # |1/(1-z^2)| has two exactly equal peaks at angles 0 and pi
        value, witness = extremal_on_circle(lambda z: np.abs(1.0 / (1.0 - z ** 2)),
                                            0.8, GRID64)
        assert value == pytest.approx(1.0 / 0.36, abs=1e-10)
        assert np.angle(witness) == pytest.approx(0.0, abs=1e-9)

    def test_all_nan_functional_raises(self):
        with pytest.raises(NonFiniteValue):
            extremal_on_circle(lambda z: np.full(z.shape, np.nan), 0.5)

    def test_nan_spike_at_the_maximum_raises(self):
        # |1/(1.5 - z)| peaks at angle 0, exactly where the values are NaN
        def fn(z):
            return np.where(np.abs(np.angle(z)) < 1e-3, np.nan, np.abs(1.0 / (1.5 - z)))

        with pytest.raises(NonFiniteValue):
            extremal_on_circle(fn, 0.9)

    def test_nan_refine_probe_raises(self):
        # the grid node at angle 0 is finite; only the probes beside it are not
        def fn(z):
            angle = np.abs(np.angle(z))
            return np.where((angle > 0) & (angle < 1e-4), np.nan, np.abs(1.0 / (1.5 - z)))

        with pytest.raises(NonFiniteValue):
            extremal_on_circle(fn, 0.9)

    def test_row_batched_functional(self):
        # rows c z^2 for three c: one result per row, as three scans give
        cs = np.array([0.5, 2.0, 1.0])
        values, witnesses = extremal_on_circle(
            lambda z: np.abs(cs[:, None] * z ** 2), 0.5, GRID64)
        for c, value, witness in zip(cs, values, witnesses):
            single = extremal_on_circle(lambda z: np.abs(c * z ** 2), 0.5, GRID64)
            assert (value, witness) == single

    def test_per_radius_rows_equal_one_radius_scans_bit_for_bit(self):
        a2 = 0.6 * np.exp(1j)
        poly = build_member(a2, sample_schwarz(1, "random_polynomial", 6))
        blaschke = build_member(a2, sample_schwarz(1, "blaschke_product", 3))
        radii = np.array([0.004, 0.05, 0.31, 0.62, RADIUS_CAP])
        for label, f in (("polynomial", poly), ("blaschke", blaschke),
                         ("g of polynomial", g_transform(poly))):
            for tag in ("U", "starlike"):
                fn = membership.class_functional(f, tag)
                values, witnesses = extremal_on_circle(fn, radii)
                for r, value, witness in zip(radii, values, witnesses):
                    single, at = extremal_on_circle(fn, float(r))
                    assert _same_bits(value, single), (label, tag, r)
                    assert _same_bits(witness.real, at.real), (label, tag, r)
                    assert _same_bits(witness.imag, at.imag), (label, tag, r)

    # few distinct values, so rows repeat values, hold plateaus and mix +-0.0
    tied_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 2.5 + 2.0 ** -51, 1e-300])

    @given(st.lists(tied_values, min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_top3_pick_matches_a_stable_sort_on_short_rows(self, values):
        row = np.array(values)
        expected = np.argsort(-row, kind="stable")[:3]
        assert membership._top3(row).tolist() == expected.tolist()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_top3_pick_matches_a_stable_sort_on_grid_rows(self, seed, distinct):
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 3.0, 3.0 - 2.0 ** -51, -7.5])[:distinct]
        for row in (rng.choice(pool, 4096), rng.standard_normal(4096),
                    np.full(4096, pool[-1])):
            expected = np.argsort(-row, kind="stable")[:3]
            assert membership._top3(row).tolist() == expected.tolist()

    def test_scans_of_two_grid_sizes_keep_their_bits(self):
        # each grid size has its own cached circle; a scan on one leaves
        # the other's values and witnesses as a scan run alone gives them
        def scan(policy):
            value, witness = extremal_on_circle(self._bump_and_spike, 0.5, policy)
            return value.hex(), witness.real.hex(), witness.imag.hex()

        policies = (GRID64, ScanPolicy())
        alone = []
        for policy in policies:
            _unit_circle.cache_clear()
            alone.append(scan(policy))
        _unit_circle.cache_clear()
        assert [scan(policy) for policy in policies] == alone

    def test_constant_modulus_circle_keeps_its_bits(self):
        # |U| of koebe is r^2 on every circle, so its whole grid ties
        rep = classify(make_catalog("koebe"), "U")
        assert rep.extremal_value.hex() == "0x1.ff00200000006p-1"
        assert rep.witness.real.hex() == "-0x1.2ece6a4c3159bp-1"
        assert rep.witness.imag.hex() == "0x1.9c3d0efa0caa1p-1"

    def test_threshold_reached_on_the_grid_skips_the_refine(self):
        # the bump and spike peaks at 1.2 + ..., its grid maximum 1 sits at node 10
        fn = self._bump_and_spike
        grid_pick = extremal_on_circle(fn, 0.5, ScanPolicy(grid=64, refine_iters=0))
        assert extremal_on_circle(fn, 0.5, GRID64, threshold=0.5) == grid_pick
        assert (extremal_on_circle(fn, 0.5, GRID64, threshold=1.1)
                == extremal_on_circle(fn, 0.5, GRID64))
        # one row below the threshold refines every row
        radii = np.array([0.5, 0.7])
        both = extremal_on_circle(lambda z: np.abs(z), radii, GRID64, threshold=0.6)
        full = extremal_on_circle(lambda z: np.abs(z), radii, GRID64)
        assert all((a == b).all() for a, b in zip(both, full))

    def test_threshold_reached_evaluates_no_refine_probe(self):
        # the NaN probes of test_nan_refine_probe_raises are never evaluated
        def fn(z):
            angle = np.abs(np.angle(z))
            return np.where((angle > 0) & (angle < 1e-4), np.nan, np.abs(1.0 / (1.5 - z)))

        value, _ = extremal_on_circle(fn, 0.9, threshold=1.0)
        assert value == 1.0 / 0.6

    def test_row_batched_functional_on_one_radius_per_row(self):
        # row i scans part i of theorem 3 on |z| = radii[i], as a one-part
        # scan of that circle does, bit for bit
        radii = np.array([0.05, 0.21, 0.39])
        for label, f in _small_a2_members():
            g = g_transform(f)
            parts = theorem3_parts(g, "abc")
            values, witnesses = extremal_on_circle(lambda z: np.abs(parts(z)), radii)
            for part, r, value, witness in zip("abc", radii, values, witnesses):
                one = theorem3_parts(g, part)
                single, at = extremal_on_circle(lambda z: np.abs(one(z)), float(r))
                assert _same_bits(value, single), (label, part)
                assert _same_bits(witness.real, at.real), (label, part)
                assert _same_bits(witness.imag, at.imag), (label, part)

    def test_nan_on_one_circle_names_its_radius(self):
        # the values are NaN on the second circle only
        def fn(z):
            return np.where(np.abs(z) > 0.5, np.nan, np.abs(z ** 2))

        assert extremal_on_circle(fn, 0.3, GRID64)[0] == pytest.approx(0.09)
        with pytest.raises(NonFiniteValue, match=r"on \|z\| = 0\.6 meets"):
            extremal_on_circle(fn, np.array([0.3, 0.6]), GRID64)

    @pytest.mark.parametrize("kwargs", [{"grid": 0}, {"grid": -4},
                                        {"refine_iters": -1}, {"grid": 2 ** 20 + 1}])
    def test_rejects_bad_grid_and_refine_iters(self, kwargs):
        # the scan reads both from its policy, which validates them and
        # bounds the grid by 2^20, the finest circle the package samples
        with pytest.raises(ParamOutOfRange):
            extremal_on_circle(lambda z: np.abs(z ** 2), 0.5, ScanPolicy(**kwargs))


class TestVertexProbe:
    """The last refine evaluation probes each bracket once, at the vertex of
    the parabola through the last lattice's best point and its neighbours."""

    PEAK = 1.2345678  # an angle on no lattice of the default scan

    @classmethod
    def _peak(cls, calls=None, hole=0.0):
        # |1/(1 - 0.6 e^{-i PEAK} z)| peaks at angle PEAK with 1/(1 - 0.6 r);
        # NaN within ``hole`` of that angle
        def fn(z):
            if calls is not None:
                calls.append(np.shape(z))
            values = np.abs(1.0 / (1.0 - 0.6 * np.exp(-1j * cls.PEAK) * z))
            return np.where(np.abs(np.angle(z) - cls.PEAK) < hole, np.nan, values)

        return fn

    def test_off_grid_peak_in_three_evaluations(self):
        calls = []
        value, witness = extremal_on_circle(self._peak(calls), 0.9)
        assert len(calls) == 1 + 3  # the grid, two zoom levels, the probe
        assert abs(value - 1.0 / (1.0 - 0.6 * 0.9)) <= 1e-15 * value
        assert np.angle(witness) == pytest.approx(self.PEAK, abs=1e-9)

    def test_one_evaluation_probes_from_the_grid_neighbours(self):
        fn, step = self._peak(), 2 * np.pi / 64
        grid_values = fn(0.9 * _unit_circle(64))
        k = int(np.argmax(grid_values))
        left, mid, right = grid_values[[k - 1, k, (k + 1) % 64]]
        vertex = 2 * np.pi * k / 64 + step * (0.5 * (left - right) / (left - 2 * mid + right))
        value, witness = extremal_on_circle(fn, 0.9, ScanPolicy(grid=64, refine_iters=1))
        assert value == fn(0.9 * np.exp(1j * vertex)) > grid_values.max()
        assert np.angle(witness) == pytest.approx(vertex, abs=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_never_below_the_grid_maximum(self, seed):
        # random trigonometric sums, some with sharp features between nodes
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(24) * np.exp(-rng.uniform(0.0, 0.2) * np.arange(24))

        def fn(z):
            return np.real(npp.polyval(z, c)) + np.abs(z - 0.9 * np.exp(2j)) ** -0.5

        grid = extremal_on_circle(fn, 0.9, ScanPolicy(grid=64, refine_iters=0))[0]
        for evals in (1, 2, 3):
            assert extremal_on_circle(fn, 0.9, ScanPolicy(grid=64, refine_iters=evals))[0] >= grid

    @staticmethod
    def _probe(fn, value, side, evals=1, center=1.0, half=0.25):
        """(the probed angle, the result) of one bracket refined in evals calls."""
        seen = []

        def recorded(angles):
            seen.append(angles.copy())
            return fn(angles)

        out = membership._zoom_refine(recorded, np.array([[center]]), np.array([[value]]),
                                      np.array([[side]]), half, evals)
        assert len(seen) == evals and seen[-1].shape == (1, 1)
        return seen[-1][0, 0], (out[0][0, 0], out[1][0, 0])

    def test_no_step_unless_the_parabola_is_concave(self):
        # flat, convex, and convex by one rounding unit: no step
        for value, side in ((2.0, [2.0, 2.0]), (1.0, [3.0, 1.5]), (1.0, [0.5, 1.5 + 2.0 ** -52])):
            assert self._probe(np.cos, value, side)[0] == 1.0
        # concave: the vertex, and a step clipped to one spacing
        assert self._probe(np.cos, 1.0, [0.0, 0.5])[0] == 1.0 + 0.25 * (-0.25 / -1.5)
        assert self._probe(np.cos, 1.0, [0.0, 1.99])[0] == 1.0 + 0.25

    def test_no_step_from_the_lattice_edge(self):
        # a rising function: the zoom level's best point is its last one
        half = 0.25
        angle, (center, value) = self._probe(lambda t: t, 1.0, [0.0, 0.5], 2, half=half)
        assert angle == center == 1.0 + half and value == 1.0 + half
        angle, _ = self._probe(lambda t: -t, 1.0, [0.0, 0.5], 2, half=half)
        assert angle == 1.0 - half

    def test_the_probe_replaces_only_a_greater_value(self):
        # cos peaks at 0, not where the side values put the vertex
        angle, kept = self._probe(np.cos, 1.0, [0.0, 0.5], center=0.0)
        assert angle != 0.0 and kept == (0.0, 1.0)
        angle, moved = self._probe(np.cos, 0.5, [0.0, 0.5], center=0.0)
        assert moved == (angle, np.cos(angle))

    def test_nan_only_at_the_vertex_raises(self):
        # the grid and both zoom levels miss the 1e-10 rad hole; the probe,
        # about 2e-12 rad from the peak, lands in it
        calls = []
        with pytest.raises(NonFiniteValue):
            extremal_on_circle(self._peak(calls, hole=1e-10), 0.9)
        assert calls == [(4096,), (1, 99), (1, 99), (1, 3)]


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

    @pytest.mark.parametrize("tag", ["U", "starlike", "convex", "bounded_turning"])
    def test_alpha_rejected_outside_mocanu(self, tag):
        f = make_catalog("koebe")
        with pytest.raises(ParamOutOfRange):
            classify(f, tag, alpha=0.5)
        with pytest.raises(ParamOutOfRange):
            radius_of(f, tag, alpha=0.5)

    def test_alpha_array_rejected_before_any_scan(self, monkeypatch):
        scans = _record_scans(monkeypatch)
        f = make_catalog("koebe")
        for alpha in ([0.5, 1.0], np.array([0.5]), "x", True):
            with pytest.raises(ParamOutOfRange):
                classify(f, "mocanu", alpha=alpha)
            with pytest.raises(ParamOutOfRange):
                radius_of(f, "mocanu", alpha=alpha)
        assert scans == []

    @pytest.mark.filterwarnings("error")
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
        fn = membership.class_functional(make_catalog("log_map"), "U")
        value, _ = extremal_on_circle(fn, res.radius)
        assert value == pytest.approx(1.0, abs=2e-3)

    def test_gb_starlike_radius_matches_half_b(self):
        # the zero -b of g/z caps the bisection, also when b/2 < 0.01
        for b in (0.004, 0.015, 0.02, 0.5, 1.0, 1.5):
            g = g_transform(make_catalog("fb", {"b": b}))
            res = radius_of(g, "starlike")
            assert res.radius == pytest.approx(b / 2.0, abs=1e-4), b

    def test_radius_below_first_walk_radius(self):
        g = g_transform(make_catalog("fb", {"b": 0.02}))
        res = radius_of(g, "bounded_turning")
        assert res.radius == pytest.approx(0.01, abs=1e-4)
        assert res.bracket[1] - res.bracket[0] <= 1e-4
        # h = 1 - 1e6 z^2: |U| = 1e6 r^2 reaches 1 at r = 1e-3
        steep = DiskFunction("steep", {}, quotient=ComplexSeries([1.0, 0.0, -1e6]))
        res = radius_of(steep, "U")
        assert res.radius == pytest.approx(1e-3, abs=1e-4)
        assert res.bracket[1] - res.bracket[0] <= 1e-4

    def test_koebe_starlike_walk_makes_few_scans(self, monkeypatch):
        # holding up to RADIUS_CAP costs one scan of one circle
        _scan_only(monkeypatch)
        scans = _record_scans(monkeypatch)
        assert radius_of(make_catalog("koebe"), "starlike").radius == 1.0
        assert scans == [(1, None)]

    def test_zero_of_h_inside_bounds_the_radius(self, monkeypatch):
        # h vanishes at z0, past which starlikeness fails, and at z1 on the
        # positive axis, on a grid node of the circle |z| = |z1|: the search
        # bisects below the proven zero z0 and scans no circle near either
        z0 = 0.3 * np.exp(0.1234j)
        z1 = np.linspace(0.01, RADIUS_CAP, 96)[30]
        h = npp.polyfromroots([z0, z1]) / (z0 * z1)
        f = DiskFunction("two_zeros", {}, quotient=ComplexSeries(h))
        scans = _record_scans(monkeypatch)
        res = radius_of(f, "starlike")
        assert res.radius == pytest.approx(0.3, abs=1e-4)
        assert res.bracket[1] - res.bracket[0] <= 1e-4
        assert all(error is None for _, error in scans)

    def test_blaschke_zero_of_h_bounds_the_radius(self, monkeypatch):
        # a2 = 1.8 puts a zero of h near 0.556: its winding count finds it and
        # bisecting the radius on the same counts places it, so the search
        # bisects below it with no failed scan
        gen = SchwarzGenerator.blaschke([0.5, -0.3j], 0.9, 0.4)
        h, kernel = gen.member(1.8)
        f = DiskFunction("blaschke_zero", {}, kernel, quotient=ComplexSeries(h))
        zero = min(abs(npp.polyroots(h)))
        assert 0.55 < zero < 0.56
        lo, hi, simple = zero_bracket(f, "pole", RADIUS_CAP)
        assert lo <= zero <= hi < lo + 5e-5 and simple
        policy = ScanPolicy(grid=512)
        scans = _record_scans(monkeypatch)
        res = radius_of(f, "starlike", policy=policy)
        assert res.bracket[1] - res.bracket[0] <= 1e-4 and res.bracket[0] < zero
        assert all(error is None for _, error in scans) and len(scans) <= 15
        # the scan maximizes -Re z f'/f, so a starlike circle reads below 0
        fn = membership.class_functional(f, "starlike")
        assert extremal_on_circle(fn, res.bracket[0], policy)[0] < 0.0
        # the counts place the zero to about 1e-5, not to 1e-9
        with pytest.raises(RadiusUnproven, match="wider than tol/2"):
            radius_of(f, "starlike", tol=1e-9, policy=policy)

    def test_unproven_factors_raise(self):
        # g of g of a Blaschke member has no zero source, and a double pole
        # of f, two inclusion disks, may be removable at alpha = -2
        g = g_transform(g_transform(_sampled_pair("blaschke_product")[0]))
        with pytest.raises(RadiusUnproven, match="no proof places"):
            radius_of(g, "starlike")
        z0 = 0.5 * np.exp(0.3j)
        f = DiskFunction("double", {}, quotient=ComplexSeries(npp.polyfromroots([z0, z0]) / z0 ** 2))
        with pytest.raises(RadiusUnproven, match="not proven simple"):
            radius_of(f, "mocanu", alpha=-2.0)
        assert radius_of(f, "mocanu", alpha=-1.5).radius < 0.5

    def test_log_map_transform_u_scans_one_circle_at_a_time(self, monkeypatch):
        # g of log_map has no poles and f/z of g no zeros (Enestrom-Kakeya),
        # so U is analytic on the disk: the search scans RADIUS_CAP, then
        # bisects (0, RADIUS_CAP), one circle per scan
        g = g_transform(make_catalog("log_map"))
        assert membership._first_pole(g, "U", None, 1e-4) == RADIUS_CAP
        radii = _record_radii(monkeypatch)
        res = radius_of(g, "U")
        assert res.radius.hex() == "0x1.ee8c45b000000p-1"  # 0.9659139420837164
        assert res.bracket[1] - res.bracket[0] <= 1e-4
        assert len(radii) == 15 and all(np.ndim(r) == 0 for r in radii)
        assert radii[:2] == [RADIUS_CAP, RADIUS_CAP / 2.0]

    def test_removable_pole_of_mocanu_is_no_failure(self):
        # f = z/(1 - z/z0) has mocanu(-1) = 1 although h(z0) = 0; starlikeness
        # fails at the pole z0
        z0 = 0.5 * np.exp(0.3j)
        f = DiskFunction("mobius", {}, quotient=ComplexSeries([1.0, -1.0 / z0]))
        assert membership._first_pole(f, "mocanu", -1.0, 1e-4) == RADIUS_CAP
        assert radius_of(f, "mocanu", alpha=-1.0).radius == 1.0
        assert radius_of(f, "starlike").radius == pytest.approx(0.5, abs=1e-4)
        assert radius_of(f, "mocanu", alpha=0.5).radius == pytest.approx(0.5, abs=1e-4)

    def test_zeros_of_f_prime_are_no_poles_of_mocanu_at_alpha_zero(self):
        # h = 1 + z^3 vanishes only on |z| = 1, and f' = (1 - 2 z^3)/h^2 at
        # |z| = 2^(-1/3): a pole of the convex part, which alpha = 0 drops
        f = DiskFunction("cubic", {}, quotient=ComplexSeries([1.0, 0.0, 0.0, 1.0]))
        assert membership._first_pole(f, "mocanu", 0.0, 1e-4) == RADIUS_CAP
        hi = membership._first_pole(f, "mocanu", 0.5, 1e-4)
        assert 2.0 ** (-1.0 / 3.0) <= hi < 2.0 ** (-1.0 / 3.0) + 1e-9
        assert _same_bits(radius_of(f, "mocanu", alpha=0.0).radius,
                          radius_of(f, "starlike").radius)

    def test_pole_of_the_transform_bounds_u_radius(self):
        # U of g = z + z^2/b is -z^2/(b + z)^2, with a pole at -b: |U| < 1
        # on |z| < b/2
        for b in (0.3, 1.0):
            g = g_transform(make_catalog("fb", {"b": b}))
            assert radius_of(g, "U").radius == pytest.approx(b / 2.0, abs=1e-4), b

    def test_gb2_starlike_radius_is_one(self):
        g = g_transform(make_catalog("fb", {"b": 2.0}))
        assert radius_of(g, "starlike").radius == 1.0

    def test_koebe_convexity_radius(self, monkeypatch):
        # classical value 2 - sqrt(3), bisected after a scan of RADIUS_CAP,
        # one circle per scan
        _scan_only(monkeypatch)
        radii = _record_radii(monkeypatch)
        res = radius_of(make_catalog("koebe"), "convex")
        assert res.radius == pytest.approx(2.0 - np.sqrt(3.0), abs=1e-4)
        assert all(np.ndim(r) == 0 for r in radii) and len(radii) <= 15


def _sampled_pair(kind):
    """The first two certified members of a sampled kind."""
    members = []
    for seed in range(40):
        a2 = (0.6 + 0.9 * (0.37 * seed % 1.0)) * np.exp(0.7j * seed)
        try:
            members.append(build_member(a2, sample_schwarz(seed, kind, 3)))
        except DenominatorVanishes:
            continue
        if len(members) == 2:
            return members


def _planted_transform():
    """g of a Blaschke member whose D = a2 + omega1 vanishes at
    z0 = 0.45 e^{-2.5i}: a2 = -omega1(z0)."""
    z0, gen = 0.45 * np.exp(-2.5j), SchwarzGenerator.blaschke([0.3 + 0.4j, -0.6j], 0.7, 2.0)
    return g_transform(build_member(-gen.member(0.0)[1].omega_jet(np.array([z0]), 0)[0][0], gen))


def _g_of_g_parents():
    return [make_catalog("fb", {"b": 0.5}), _sampled_pair("random_polynomial")[0]]


def _rational_transforms():
    """g of a series polynomial, and g of g of fb(0.5) and of a sampled
    polynomial member: the g-transforms whose zeros the rational kernel
    places."""
    series = DiskFunction.from_series(ComplexSeries([0.0, 1.0, 0.4 + 0.1j, -0.2 + 0.05j, 0.1]))
    return [g_transform(series)] + [g_transform(g_transform(f)) for f in _g_of_g_parents()]


class TestRadiusAgainstWalk:
    """The bisection on a proven analytic disk finds the radius that an
    outward walk over fixed radii (``oracles.walk_radius``) finds, within
    tol: on sampled members, on the g-transforms of rational functions, of
    Blaschke members and of log_map, and at integer alphas, where simple
    zeros of f/z are poles or removable."""

    @pytest.mark.parametrize("kind", ["scaled_unimodular", "random_polynomial",
                                      "blaschke_product", "rational_g"])
    def test_agrees_with_the_walk(self, kind):
        policy, tol = ScanPolicy(grid=256, refine_iters=4), 1e-4
        members = _rational_transforms() if kind == "rational_g" else _sampled_pair(kind)
        cases = [(f, tag, alpha) for f in members for tag, alpha in
                 (("starlike", None), ("bounded_turning", None),
                  ("convex", None), ("mocanu", 0.5))]
        self.check(cases, policy, tol)

    def test_transforms_of_blaschke_members_and_log_map(self):
        # g' of the sampled member vanishes near 0.89, and D and g' of the
        # planted one near 0.45 and 0.24.  The winding counts do not prove
        # the zeros of that D simple, but at integer alphas only the disk
        # that the pole of g' leaves, where D has none, must be proven
        policy, tol = ScanPolicy(grid=256, refine_iters=4), 1e-4
        sampled = g_transform(_sampled_pair("blaschke_product")[0])
        log_map = g_transform(make_catalog("log_map"))
        planted = _planted_transform()
        assert not zero_bracket(planted, "root", RADIUS_CAP)[2]
        cases = [(sampled, tag, alpha) for tag, alpha in
                 (("starlike", None), ("convex", None), ("mocanu", 2.0))]
        cases += [(planted, tag, alpha) for tag, alpha in
                  (("U", None), ("convex", None), ("mocanu", -1.0), ("mocanu", 1.0),
                   ("mocanu", 2.0), ("mocanu", 3.0))]
        cases += [(log_map, "convex", None), (log_map, "mocanu", -1.0)]
        self.check(cases, policy, tol)

    def test_integer_alphas(self):
        # g of fb(0.3) is z (1 + z/0.3): the simple zero -0.3 of g/z is
        # removable at alpha = 1 and a pole at alpha = 2
        policy, tol = ScanPolicy(grid=256, refine_iters=4), 1e-4
        members = [g_transform(make_catalog("fb", {"b": 0.3})),
                   g_transform(_sampled_pair("scaled_unimodular")[0])]
        self.check([(f, "mocanu", alpha) for f in members for alpha in (1.0, 2.0)], policy, tol)

    @staticmethod
    def check(cases, policy, tol):
        assert all(membership._first_pole(f, tag, alpha, tol) for f, tag, alpha in cases)
        fast = [radius_of(f, tag, tol, policy, alpha).radius for f, tag, alpha in cases]
        walked = [walk_radius(f, tag, tol, policy, alpha) for f, tag, alpha in cases]
        assert fast == pytest.approx(walked, abs=tol)
        assert min(fast) < 1.0  # some bisection ran

    @pytest.mark.parametrize("parent", _g_of_g_parents(), ids=["fb(0.5)", "random_polynomial"])
    def test_g_of_g_keeps_its_quotient_coprime(self, parent):
        # a common zero of N and M in h = N/M would read as a pole of g o g
        kernel = g_transform(g_transform(parent)).kernel
        n, m = kernel.factor("pole"), kernel.factor("root")
        centres = [z for z, _ in _inclusion_disks(n)]
        assert centres
        assert min(abs(npp.polyval(z, m)) for z in centres) > 1e-3 * np.abs(m).max()


def _radius_matrix_functions():
    for cid in ("example_sec1", "f1", "f2", "half_plane", "identity", "koebe", "log_map"):
        yield cid, make_catalog(cid)
    for b in (0.3, 1.0, 2.0):
        yield f"fb({b})", make_catalog("fb", {"b": b})
    for kind in ("scaled_unimodular", "random_polynomial", "blaschke_product"):
        yield kind, build_member(0.9 * np.exp(0.7j), sample_schwarz(3, kind, 3))


RADIUS_MATRIX = list(_radius_matrix_functions())
RADIUS_MATRIX += [(f"g of {name}", g_transform(f)) for name, f in RADIUS_MATRIX
                  if abs(f.a2) > 1e-8]  # g needs a2 != 0


class TestRadiusEarlyExit:
    """A bisection circle whose grid already fails skips the zoom refine,
    and every radius stays what full scans give.  The circle proof of a
    rational h is bypassed here, so that every circle is scanned."""

    TAGS = [("U", None), ("starlike", None), ("convex", None), ("bounded_turning", None),
            ("mocanu", 0.5), ("mocanu", -1.0), ("mocanu", 1.0)]

    @pytest.mark.parametrize("name, f", RADIUS_MATRIX, ids=[n for n, _ in RADIUS_MATRIX])
    def test_radius_bits_equal_full_scans(self, monkeypatch, name, f):
        _scan_only(monkeypatch)
        policy = ScanPolicy(grid=256, refine_iters=4)
        fast = [radius_of(f, tag, policy=policy, alpha=alpha) for tag, alpha in self.TAGS]
        original = membership.extremal_on_circle

        def full_scan(functional, radius, policy=None, threshold=None):
            return original(functional, radius, policy)

        monkeypatch.setattr(membership, "extremal_on_circle", full_scan)
        full = [radius_of(f, tag, policy=policy, alpha=alpha) for tag, alpha in self.TAGS]
        for (tag, alpha), a, b in zip(self.TAGS, fast, full):
            assert [x.hex() for x in (a.radius, *a.bracket)] == \
                [x.hex() for x in (b.radius, *b.bracket)], (name, tag, alpha)

    def test_koebe_convexity_skips_the_refine_on_failing_circles(self, monkeypatch):
        # a scan without refine evaluates its functional once, on the grid
        _scan_only(monkeypatch)
        per_scan = []
        scan, call = membership.extremal_on_circle, PointFunctional.__call__

        def recorded(*args, **kwargs):
            per_scan.append(0)
            return scan(*args, **kwargs)

        def counted(self, z):
            per_scan[-1] += 1
            return call(self, z)

        monkeypatch.setattr(membership, "extremal_on_circle", recorded)
        monkeypatch.setattr(PointFunctional, "__call__", counted)
        radius_of(make_catalog("koebe"), "convex")
        assert len(per_scan) <= 15
        assert per_scan.count(1) >= 5
        assert set(per_scan) <= {1, 1 + ScanPolicy().refine_iters, 2 + ScanPolicy().refine_iters}


class TestOneCircleScans:
    """A radius search decides each circle alone: every circle it scans is
    one scalar radius, the per-radius rows serving only the conjecture
    ladder."""

    @pytest.mark.parametrize("name, f", RADIUS_MATRIX, ids=[n for n, _ in RADIUS_MATRIX])
    def test_every_scan_is_one_circle(self, monkeypatch, name, f):
        _scan_only(monkeypatch)
        radii = _record_radii(monkeypatch)
        policy = ScanPolicy(grid=256, refine_iters=4)
        for tag, alpha in TestRadiusEarlyExit.TAGS:
            radius_of(f, tag, policy=policy, alpha=alpha)
        assert radii and all(np.ndim(r) == 0 for r in radii), name


def _record_proofs(monkeypatch):
    """Patch the circle proof; each call appends (polys, r, grid, answer).
    Returns the list and the unpatched proof."""
    calls, original = [], membership._circle_proof

    def recorded(polys, r, grid):
        answer = original(polys, r, grid)
        calls.append((polys, r, grid, answer))
        return answer

    monkeypatch.setattr(membership, "_circle_proof", recorded)
    return calls, original


class TestCircleProof:
    """Circles of a rational h are decided by the grid bound on T before any
    scan, on 64 nodes, then 512, then the scan's own grid, and the radius
    and bracket stay those of scan-only searches."""

    TAGS = TestRadiusEarlyExit.TAGS + [("mocanu", 2.0)]

    @staticmethod
    def searches(f, policy, tags):
        out = []
        for tag, alpha in tags:
            res = radius_of(f, tag, policy=policy, alpha=alpha)
            out.append([x.hex() for x in (res.radius, *res.bracket)])
        return out

    @pytest.mark.parametrize("name, f", RADIUS_MATRIX, ids=[n for n, _ in RADIUS_MATRIX])
    def test_radius_bits_equal_scan_only(self, monkeypatch, name, f):
        for policy in (ScanPolicy(), ScanPolicy(grid=256, refine_iters=4)):
            proven = self.searches(f, policy, self.TAGS)
            with monkeypatch.context() as m:
                _scan_only(m)
                assert proven == self.searches(f, policy, self.TAGS), (name, policy)

    def test_top_queries_make_no_scans_and_blaschke_members_still_scan(self, monkeypatch):
        scans = _record_scans(monkeypatch)
        koebe = radius_of(make_catalog("koebe"), "convex")
        g = radius_of(g_transform(make_catalog("fb", {"b": 1.0})), "starlike")
        assert scans == []
        assert koebe.radius == pytest.approx(2.0 - np.sqrt(3.0), abs=1e-4)
        assert g.radius == pytest.approx(0.5, abs=1e-4)
        blaschke = dict(RADIUS_MATRIX)["blaschke_product"]
        radius_of(blaschke, "starlike")
        assert len(scans) >= 2

    @pytest.mark.parametrize("name, f", RADIUS_MATRIX, ids=[n for n, _ in RADIUS_MATRIX])
    def test_coarse_answers_agree_with_the_full_grid(self, monkeypatch, name, f):
        # the coarse nodes are nodes of the full grid, bit for bit: a circle
        # failed at one fails there too, and one proven clear is never
        # proven failed
        calls, original = _record_proofs(monkeypatch)
        policy = ScanPolicy()
        self.searches(f, policy, self.TAGS)
        coarse = [call for call in calls if call[2] < policy.grid and call[3] is not None]
        assert coarse or membership._circle_polys(f, "U", None) is None, name
        for polys, r, grid, answer in coarse:
            assert original(polys, r, policy.grid) in (answer, None), (name, r, grid)

    def test_top_queries_reach_the_full_grid_on_at_most_two_circles(self, monkeypatch):
        calls, _ = _record_proofs(monkeypatch)
        for f, tag in ((make_catalog("koebe"), "convex"),
                       (g_transform(make_catalog("fb", {"b": 1.0})), "starlike")):
            calls.clear()
            radius_of(f, tag)
            grids = [grid for _, _, grid, _ in calls]
            assert grids[0] == 64 and set(grids) == {64, 512, ScanPolicy().grid}, tag
            assert grids.count(ScanPolicy().grid) <= 2, tag
            assert grids.count(64) >= 15, tag  # one per circle

    def test_a_grid_too_coarse_for_the_bound_falls_back(self, monkeypatch):
        # at grid 2, kappa = 4^2 pi^2/8 >= 1 for koebe's degree-4 T: no circle
        # is proven clear, so the circles that clear are scanned
        policy, f = ScanPolicy(grid=2), make_catalog("koebe")
        polys = membership._circle_polys(f, "convex", None)
        assert membership._circle_proof(polys, 0.1, 2) is None
        scans = _record_scans(monkeypatch)
        proven = self.searches(f, policy, [("convex", None)])
        assert scans
        _scan_only(monkeypatch)
        assert proven == self.searches(f, policy, [("convex", None)])

    def test_a_spike_between_grid_nodes_is_not_proven_clear(self, monkeypatch):
        # h = 1 - c z^16 on a 48-point grid (kappa = pi^2/18): -Re z f'/f is
        # largest where c z^16 = -|c| r^16, halfway between two grid
        # nodes, and positive only near there
        m, r, grid = 16, 0.9, 48
        c = 1.05 / (m - 1) / r ** m * np.exp(4j * np.pi / 3)
        f = DiskFunction("spike", {}, quotient=ComplexSeries([1.0] + [0.0] * (m - 1) + [-c]))
        policy = ScanPolicy(grid=grid)
        fn = membership.class_functional(f, "starlike")
        assert fn(r * _unit_circle(grid)).max() < 0.0
        assert fn(r * _unit_circle(64 * grid)).max() > 0.0
        assert extremal_on_circle(fn, r, policy)[0] > 0.0
        assert membership._circle_proof(membership._circle_polys(f, "starlike", None),
                                        r, grid) is None
        proven = self.searches(f, policy, [("starlike", None)])
        _scan_only(monkeypatch)
        assert proven == self.searches(f, policy, [("starlike", None)])

    def test_non_finite_values_fall_back_to_the_scan(self, monkeypatch):
        # P = A^2 + alpha z (A'B - AB') has finite coefficients at alpha =
        # 1e307, but its values on |z| = RADIUS_CAP overflow: that circle,
        # the first one checked, is scanned, and the scan meets the
        # overflow too
        f = make_catalog("koebe")
        polys = membership._circle_polys(f, "mocanu", 1e307)
        assert all(np.isfinite(poly.c).all() for poly in polys)
        assert membership._circle_proof(polys, RADIUS_CAP, ScanPolicy().grid) is None
        scans = _record_scans(monkeypatch)
        with pytest.raises(NonFiniteValue):
            radius_of(f, "mocanu", alpha=1e307)
        assert scans == [(1, NonFiniteValue)]


class TestPairedChecks:
    def test_parts_on_fb(self):
        f = make_catalog("fb", {"b": 0.8})
        # part a sup is 2r/b at r = 0.99 b/2, i.e. 0.99 for every b
        for part, expect in (("a", 0.99), ("b", None), ("c", None)):
            rep = theorem3_check(f, part)
            assert rep.verdict == "IN", part
            assert rep.scan_radius == pytest.approx(0.99 * 0.4)
            # a theorem-3 part is a sup row against 1 with no rescale
            assert rep.boundary_estimate == rep.extremal_value
            assert rep.class_tag == f"theorem3.{part}"
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

    @pytest.mark.parametrize("shrink", [-0.5, 0.0, 1.0, 1.5, float("nan")])
    def test_shrink_outside_unit_interval_raises(self, shrink):
        # shrink = -0.5 used to scan |z| = 1.5 on Koebe, outside the disk
        with pytest.raises(ParamOutOfRange):
            theorem3_check(make_catalog("koebe"), "a", shrink)

    def test_sampled_member_parts_below_one(self):
        f = build_member(0.8, sample_schwarz(3, "blaschke_product"))
        for part in ("a", "b", "c"):
            rep = theorem3_check(f, part)
            assert rep.extremal_value < 1.0, part

    def test_half_plane_against_alpha_family(self):
        [rec] = theorem2_grid(make_catalog("half_plane"), [-1.0])
        assert rec.m_alpha.verdict == "IN"
        assert rec.u.verdict == "IN"
        assert rec.implication_respected

    def test_log_map_against_alpha_family(self):
        [rec] = theorem2_grid(make_catalog("log_map"), [1.0])
        assert rec.m_alpha.verdict == "IN"   # convex
        assert rec.u.verdict == "OUT"        # not in the deviation class
        assert rec.implication_respected     # alpha = 1 makes no claim

    def test_record_serializes(self):
        [rec] = theorem2_grid(make_catalog("identity"), [-2.0])
        assert rec.alpha == -2.0
        assert rec.u.to_dict()["verdict"] == "IN"
        assert rec.m_alpha.to_dict()["class"] == "mocanu(-2)"


def _theorem2_functions():
    for cid, params in catalog_prepends("theorem2"):
        yield f"{cid}{params or ''}", make_catalog(cid, params)
    for seed in range(3):
        a2 = 0.6 * np.exp(1j * seed)
        yield (f"polynomial{seed}",
               build_member(a2, sample_schwarz(seed, "random_polynomial", 6)))
        yield (f"blaschke{seed}",
               build_member(a2, sample_schwarz(seed, "blaschke_product", 3)))
    # g's kernel serves the U row its order-2 h jet
    yield "g of fb(1)", g_transform(make_catalog("fb", {"b": 1.0}))
    yield "g of blaschke", g_transform(build_member(0.8, sample_schwarz(3, "blaschke_product")))


class TestBatchedAlphaGrid:
    def test_rows_equal_one_row_scans_bit_for_bit(self):
        policy = ScanPolicy()
        for label, f in _theorem2_functions():
            records = theorem2_grid(f, ALPHA_GRID, policy)
            assert [rec.alpha for rec in records] == list(ALPHA_GRID)
            assert _same_report_bits(records[0].u, classify(f, "U", policy)), label
            for rec in records:
                single = classify(f, "mocanu", policy, alpha=rec.alpha)
                assert rec.m_alpha == single, (label, rec.alpha)
                assert rec.m_alpha.extremal_value.hex() == single.extremal_value.hex()
                assert rec.m_alpha.witness.real.hex() == single.witness.real.hex()
                assert rec.m_alpha.witness.imag.hex() == single.witness.imag.hex()


def _same_report_bits(a, b):
    return (a == b and _same_bits(a.extremal_value, b.extremal_value)
            and _same_bits(a.witness.real, b.witness.real)
            and _same_bits(a.witness.imag, b.witness.imag))


def _small_a2_members():
    yield "fb(0.8)", make_catalog("fb", {"b": 0.8})
    yield "blaschke", build_member(0.8, sample_schwarz(3, "blaschke_product"))
    yield "polynomial", build_member(0.6 * np.exp(1j),
                                     sample_schwarz(2, "random_polynomial", 6))


class TestTheorem3Rows:
    def test_part_rows_equal_one_part_scans_bit_for_bit(self):
        cases = [(label, f, "abc") for label, f in _small_a2_members()]
        cases += [("koebe", make_catalog("koebe"), "ab"),
                  ("fb(0.8)", make_catalog("fb", {"b": 0.8}), "ca")]
        for label, f, parts in cases:
            reports = theorem3_check(f, parts)
            assert [rep.class_tag for rep in reports] == [f"theorem3.{p}" for p in parts]
            for part, rep in zip(parts, reports):
                assert _same_report_bits(rep, theorem3_check(f, part)), (label, part)

    def test_ladder_rungs_equal_one_shrink_scans_bit_for_bit(self):
        ladder = (0.1, 0.01, 0.001)
        for f in (make_catalog("koebe"), make_catalog("fb", {"b": 1.5}),
                  build_member(0.8, sample_schwarz(3, "blaschke_product"))):
            rungs = theorem3_check(f, "c", ladder, allow_large_a2=True)
            assert len(rungs) == len(ladder)
            for eps, rep in zip(ladder, rungs):
                single = theorem3_check(f, "c", eps, allow_large_a2=True)
                assert _same_report_bits(rep, single), (f.id, eps)

    def test_parts_a_and_b_match_the_omega_closed_forms(self):
        for label, f in _small_a2_members():
            a2 = f.a2
            radius = 0.99 * abs(a2) / 2.0
            z = radius * np.exp(2j * np.pi * np.arange(64) / 64)

            def closed_forms(zz):
                om, psi = f.kernel.omega_jet(zz, 1)
                return (om + zz * psi) / a2, zz * psi / (a2 + om)

            got = theorem3_parts(g_transform(f), "ab")(z)
            for row, ref in zip(got, closed_forms(z)):
                assert np.max(np.abs(row - ref)) <= 1e-14, label
            for i, rep in enumerate(theorem3_check(f, "ab")):
                ref = closed_forms(np.array([rep.witness]))[i][0]
                assert rep.extremal_value == pytest.approx(abs(ref), abs=1e-14), label

    def test_rows_are_the_operators_on_g(self):
        # part a is g' - 1, part b z g'/g - 1 and part c U of g, bit for bit,
        # with one row per part on one circle or on per-row points
        for label, f in _small_a2_members():
            g = g_transform(f)
            z = 0.99 * abs(f.a2) / 2.0 * np.exp(2j * np.pi * np.arange(64) / 64)
            refs = [turning_derivative(g)(z) - 1.0, starlike_quotient(g)(z) - 1.0,
                    u_operator(g)(z)]
            rows = theorem3_parts(g, "abc")
            for part, row, ref in zip("abc", rows(z), refs):
                assert np.array_equal(row, ref), (label, part)
            batched = rows(np.array([z, 0.5 * z, z]))
            assert np.array_equal(batched[0], refs[0]), label
            assert np.array_equal(batched[1], starlike_quotient(g)(0.5 * z) - 1.0), label
            assert np.array_equal(batched[2], refs[2]), label
            for part, ref in zip("abc", refs):
                assert np.array_equal(theorem3_parts(g, part)(z), ref), (label, part)

    def test_scalar_input_gives_one_report(self):
        f = make_catalog("fb", {"b": 0.8})
        assert isinstance(theorem3_check(f, "a"), membership.MembershipReport)
        assert len(theorem3_check(f, "b", [0.01])) == 1

    def test_parts_and_shrinks_are_never_batched_together(self):
        with pytest.raises(ParamOutOfRange):
            theorem3_check(make_catalog("fb", {"b": 0.8}), "ab", [0.1, 0.01])

    @pytest.mark.parametrize("shrink", [[], [0.1, 1.0], [[0.1]], "x", True, [0.1, True],
                                        [[0.1], [0.2, 0.3]], float("nan")])
    def test_shrink_arrays_are_validated(self, shrink):
        with pytest.raises(ParamOutOfRange):
            theorem3_check(make_catalog("koebe"), "a", shrink)

    def test_part_c_precondition_covers_batched_parts(self):
        with pytest.raises(PartCPrecondition):
            theorem3_check(make_catalog("koebe"), "abc")


class TestScanEvaluations:
    """Every scan reads one PointFunctional, evaluated once on the coarse
    grids of all its circles and once per refine evaluation."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        original = PointFunctional.__call__

        def counting(self, z):
            calls.append(np.shape(z))
            return original(self, z)

        monkeypatch.setattr(PointFunctional, "__call__", counting)
        return calls

    POLICIES = [ScanPolicy(), ScanPolicy(grid=256, refine_iters=4)]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_theorem2_grid_scans(self, monkeypatch, policy):
        f = build_member(0.6 * np.exp(1j), sample_schwarz(2, "random_polynomial", 6))
        calls = self.counted(monkeypatch)
        theorem2_grid(f, ALPHA_GRID, policy)
        # one scan of |U| and of the alpha-convex functional of every alpha
        assert len(calls) == 1 + policy.refine_iters

    @pytest.mark.parametrize("policy", POLICIES)
    def test_theorem3_check_scans(self, monkeypatch, policy):
        f = make_catalog("fb", {"b": 0.8})
        calls = self.counted(monkeypatch)
        theorem3_check(f, "abc", 0.01, policy)
        assert len(calls) == 1 + policy.refine_iters
        calls.clear()
        theorem3_check(f, "c", (0.1, 0.01, 0.001), policy)
        assert len(calls) == 1 + policy.refine_iters  # the rungs are one (3, grid) batch


class TestNonFiniteSettings:
    def test_infinite_delta_is_rejected(self):
        with pytest.raises(ParamOutOfRange, match="delta"):
            ScanPolicy(delta=float("inf"))

    def test_infinite_tolerance_is_rejected(self, monkeypatch):
        scans = _record_scans(monkeypatch)
        for tol in (float("inf"), True, None, "x"):
            with pytest.raises(ParamOutOfRange, match="tol"):
                radius_of(make_catalog("koebe"), "convex", tol=tol)
        assert scans == []
