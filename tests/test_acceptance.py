"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states the guaranteed quantity, its reference value, and the
tolerance in code; run with -v to get one pass/fail line per guarantee.
The campaign-backed checks share module-scoped runs sized to finish the
whole file in a few minutes on a laptop.
"""
import math

import numpy as np
import pytest

from diskclass import (
    CampaignConfig,
    SchwarzGenerator,
    build_member,
    canonical_json,
    decompose,
    g_transform,
    hankel_det,
    make_catalog,
    radius_of,
    run_campaign,
    replay,
    sample_schwarz,
    starlike_quotient,
    test_class as classify,
    theorem2_grid,
    u_operator,
)
from diskclass.catalog import catalog_ids
from diskclass.errors import DiskClassError
from diskclass.explorer import ALPHA_GRID, catalog_prepends
from diskclass.hankel import prokhorov_szynal_check, reduced_h2, reduced_h3
from oracles import (c3_envelope, c_coefficients, coeffs_from_c, jet_at, rotate,
                     u_series)


def sample_members(count, seed, t_range=(0.05, 2.0)):
    """Admissible members drawn like the campaign sampler: paired-root
    constants everywhere, an even mix with free generator kinds while
    |a2| <= 1 keeps rejection cheap."""
    rng = np.random.default_rng(seed)
    kinds = ("scaled_unimodular", "blaschke_product", "random_polynomial")
    members = []
    while len(members) < count:
        t = float(rng.uniform(*t_range))
        chi = float(rng.uniform(0.0, 2.0 * np.pi))
        a2 = t * np.exp(1j * chi)
        try:
            if t > 1.0 or rng.random() < 0.5:
                cap = math.sqrt(max(1.0 - 0.25 * t * t, 0.0))
                mu = float(rng.uniform(0.0, cap))
                gen = SchwarzGenerator.constant(
                    -np.exp(2j * chi) * (0.25 * t * t + mu * mu))
            else:
                gen = sample_schwarz(int(rng.integers(2 ** 31)),
                                     kinds[int(rng.integers(3))],
                                     degree=int(rng.integers(1, 5)))
            members.append(build_member(a2, gen))
        except DiskClassError:
            continue
    return members


@pytest.fixture(scope="module")
def theorem1_big():
    cfg = CampaignConfig("theorem1", samples=10_000, seed=20260815)
    return run_campaign(cfg)


@pytest.fixture(scope="module")
def theorem3_run():
    cfg = CampaignConfig("theorem3", samples=200, seed=5, a2_range=(0.01, 1.0))
    return run_campaign(cfg)


@pytest.fixture(scope="module")
def conjecture_run():
    cfg = CampaignConfig("conjecture", samples=1000, seed=31, a2_range=(1.0, 2.0))
    return run_campaign(cfg)


def test_criterion_01_log_map_operator_value_and_verdict():
    f = make_catalog("log_map")
    u_fn = u_operator(f)
    value = abs(u_fn(0.99))
    assert value == pytest.approx(3.621, abs=1e-3), f"|U|(0.99) = {value}"
    assert classify(f, "U").verdict == "OUT"


def test_criterion_02_quartic_example_quotient_and_scans():
    f = make_catalog("example_sec1")
    value = starlike_quotient(f)(1j)
    assert abs(value - (-0.2 + 0.6j)) <= 1e-12, f"zf'/f(i) = {value}"
    assert classify(f, "starlike").verdict == "OUT"
    rep = classify(f, "U")
    assert rep.extremal_value <= 1.0 + 1e-9, rep.extremal_value


def test_criterion_03_sharp_determinant_moduli():
    for cid in ("koebe", "f1"):
        h2 = hankel_det(make_catalog(cid), 2, 2)
        assert abs(h2.modulus - 1.0) <= 1e-12, (cid, h2.modulus)
    h3 = hankel_det(make_catalog("f2"), 3, 1)
    assert abs(h3.modulus - 0.25) <= 1e-12, h3.modulus


def test_criterion_04_closed_form_operator_series():
    cases = {"koebe": {2: -1.0}, "f1": {2: 1.0}, "f2": {3: 1.0}}
    for cid, expected in cases.items():
        series = u_series(make_catalog(cid))
        for k, coeff in enumerate(series.coeffs):
            want = expected.get(k, 0.0)
            assert abs(coeff - want) <= 1e-12, (cid, k, coeff)


def test_criterion_05_operator_equals_scaled_primitive_derivative():
    for f in sample_members(100, seed=404):
        series = u_series(f)
        psi = decompose(f).omega1.derivative()
        worst = 0.0
        for k, coeff in enumerate(series.coeffs):
            want = psi.coeffs[k - 2] if 2 <= k < len(psi.coeffs) + 2 else 0.0
            worst = max(worst, abs(coeff - want))
        assert worst <= 1e-10, worst


def test_criterion_06_reduced_determinants_on_rebuilt_coefficients():
    rng = np.random.default_rng(606)
    for _ in range(1000):
        a2, c1, c2, c3 = (complex(x, y) for x, y in rng.uniform(-1, 1, (4, 2)))
        a3, a4, a5 = coeffs_from_c(a2, (c1, c2, c3))
        h2 = a2 * a4 - a3 * a3
        h3 = (a3 * (a2 * a4 - a3 * a3) - a4 * (a4 - a2 * a3)
              + a5 * (a3 - a2 * a2))
        assert abs(h2 - reduced_h2(a2, (c1, c2, c3))) <= 1e-10
        assert abs(h3 - reduced_h3((c1, c2, c3))) <= 1e-10


def test_criterion_07_rotation_invariance_of_determinants():
    from diskclass.catalog import DiskFunction

    rng = np.random.default_rng(707)
    for f in sample_members(20, seed=707):
        h2 = hankel_det(f, 2, 2).modulus
        h3 = hankel_det(f, 3, 1).modulus
        for theta in rng.uniform(0.0, 2.0 * np.pi, 50):
            rotated = DiskFunction.from_series(rotate(f.series, float(theta)))
            assert abs(hankel_det(rotated, 2, 2).modulus - h2) <= 1e-10
            assert abs(hankel_det(rotated, 3, 1).modulus - h3) <= 1e-10


def test_criterion_08_coefficient_constraint_slacks_and_envelope():
    kinds = ("scaled_unimodular", "blaschke_product", "random_polynomial")
    for i in range(1000):
        gen = sample_schwarz(i, kinds[i % 3], degree=1 + i % 4)
        ps = prokhorov_szynal_check(*c_coefficients(gen))
        assert min(ps.slack1, ps.slack2, ps.slack3) >= -1e-9, i
    # the |c3| envelope meets the third constraint exactly at |c2| extremes
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        y = 0.5 * (1.0 - x * x)
        t = c3_envelope(x, y)
        assert t == pytest.approx(x * (1.0 - x * x) / 3.0, abs=1e-12)
        meeting = prokhorov_szynal_check(x, y, -t).slack3
        assert abs(meeting) <= 1e-9, (x, meeting)
        beyond = prokhorov_szynal_check(x, y, -1.05 * t).slack3
        assert beyond < 0.0, (x, beyond)


def test_criterion_09_determinant_campaign_hits_sharp_bounds(theorem1_big):
    rep = theorem1_big
    h2 = rep["worst_case"]["h2_modulus"]["value"]
    h3 = rep["worst_case"]["h3_modulus"]["value"]
    assert h2 <= 1.0 + 1e-9, h2
    assert h2 >= 0.999, h2
    assert h3 <= 0.25 + 1e-9, h3
    assert h3 >= 0.2499, h3
    assert rep["status"] == "ok"


def test_criterion_10_transform_bounds_inside_half_a2_circle(theorem3_run):
    rep = theorem3_run
    assert rep["status"] == "ok"
    assert rep["violations"] == []
    for part in ("a", "b", "c"):
        value = rep["worst_case"][f"part_{part}_sup"]["value"]
        assert value < 1.0, (part, value)
    assert rep["worst_case"]["phi_min_step"]["value"] >= -1e-12


def test_criterion_11_quadratic_family_starlike_radius():
    for b in (0.5, 1.0, 1.5, 2.0):
        g = g_transform(make_catalog("fb", {"b": b}))
        res = radius_of(g, "starlike")
        assert res.radius == pytest.approx(b / 2.0, abs=1e-4), (b, res.radius)
        assert abs(jet_at(g.kernel, "f", 1, -b / 2.0)[1]) <= 1e-14, b


def test_criterion_12_alpha_family_versus_deviation_class():
    log_map = make_catalog("log_map")
    assert classify(log_map, "convex").verdict == "IN"
    assert classify(log_map, "U").verdict == "OUT"
    [rec] = theorem2_grid(make_catalog("half_plane"), [-1.0])
    assert rec.m_alpha.verdict == "IN"
    assert rec.u.verdict == "IN"
    alphas = [a for a in ALPHA_GRID if a <= -1.0]
    for cid, params in catalog_prepends("theorem2"):
        for rec in theorem2_grid(make_catalog(cid, params), alphas):
            assert rec.implication_respected, (cid, rec.alpha)


def test_criterion_13_conjecture_campaign_finds_no_counterexample(conjecture_run):
    rep = conjecture_run
    assert rep["status"] == "evidence"
    assert rep["violations"] == []
    for cert in rep["worst_case"].values():
        out = replay(cert)
        assert abs(out["replayed_value"] - cert["value"]) <= 1e-9


def test_criterion_14_reports_are_thread_count_invariant():
    cfg = CampaignConfig("theorem1", samples=300, seed=777)
    solo = canonical_json(run_campaign(cfg, threads=1))
    pooled = canonical_json(run_campaign(cfg, threads=4))
    assert solo.encode() == pooled.encode()
