"""Campaign pipeline: determinism, aggregation, certificates, replay."""
import io
import json
import os
import signal

import numpy as np
import pytest

from diskclass import (
    CampaignConfig,
    canonical_json,
    catalog_prepends,
    replay,
    run_campaign,
    write_rows_csv,
)
from diskclass import explorer
from diskclass.errors import ParamOutOfRange, ReplayMismatch
from diskclass.catalog import SchwarzGenerator, make_catalog
from diskclass.explorer import (ALPHA_GRID, CAMPAIGNS, FB_GRID, LADDER, TIE_RTOL, _SPECS,
                                _aggregate, _beats)
from diskclass.series import MAX_ORDER, ComplexSeries
from oracles import constant_psi, moebius_deviation_sup


@pytest.fixture(scope="module")
def t1_report():
    return run_campaign(CampaignConfig("theorem1", samples=20, seed=11))


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"campaign": "theorem5"},
        {"campaign": "theorem1", "samples": 0},
        {"campaign": "theorem1", "order": 4},
        {"campaign": "theorem1", "a2_range": (0.5, 0.1)},
        {"campaign": "theorem1", "a2_range": (0.0, 1.0)},
        {"campaign": "theorem1", "a2_range": (0.5, 2.5)},
        {"campaign": "theorem3", "shrink": 0.0},
        {"campaign": "theorem3", "shrink": 1.0},
        {"campaign": "conjecture", "ladder": (1.5,)},
        {"campaign": "theorem2", "alpha_grid": ()},
        {"campaign": "theorem2", "alpha_grid": (0.5, float("nan"))},
        {"campaign": "theorem2", "alpha_grid": (float("inf"),)},
        {"campaign": "theorem1", "samples": 2.7},
        {"campaign": "theorem1", "samples": 3.0},
        {"campaign": "theorem1", "seed": 1.9},
        {"campaign": "theorem1", "order": 64.0},
        {"campaign": "theorem1", "samples": True},
        {"campaign": "theorem1", "seed": False},
        {"campaign": "theorem3", "shrink": True},
        {"campaign": "theorem1", "a2_range": (True, 1.0)},
        {"campaign": "conjecture", "ladder": (True,)},
        {"campaign": "theorem2", "alpha_grid": (0.5, False)},
        # alpha_summary counts each alpha under its :g label
        {"campaign": "theorem2", "alpha_grid": (0.5, 0.5)},
        {"campaign": "theorem2", "alpha_grid": (1e-7, 1.0000001e-7)},
        # worst_case keys each rung by its :g label
        {"campaign": "conjecture", "ladder": (0.1, 0.1)},
        {"campaign": "conjecture", "ladder": (1e-7, 1.0000001e-7)},
        # no series is built above MAX_ORDER
        {"campaign": "theorem1", "order": MAX_ORDER + 1},
        {"campaign": "theorem1", "order": 10 ** 11},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParamOutOfRange):
            CampaignConfig(**kwargs)

    @pytest.mark.parametrize("data", [
        ["theorem1"],
        {"campaign": "theorem1", "bogus": 1},
        {"campaign": "theorem1", "samples": "5"},
        {"campaign": "theorem1", "a2_range": 0.5},
        {"campaign": "theorem1", "a2_range": [0.1, 0.5, 0.9]},
        {"campaign": "conjecture", "ladder": ["x"]},
        {"campaign": "theorem1", "policy": [512]},
        {"campaign": "theorem1", "policy": {"grid": "x"}},
        {"campaign": "theorem1", "policy": {"grid": 512.5}},
        {"campaign": "theorem1", "policy": {"delta": None}},
        {"campaign": "theorem1", "policy": {"frobnicate": 1}},
        {"campaign": "theorem1", "policy": {"grid": True}},
        {"campaign": "theorem1", "policy": {"refine_iters": False}},
        {"campaign": "theorem1", "policy": {"delta": True}},
    ])
    def test_from_dict_rejects_malformed_json(self, data):
        with pytest.raises(ParamOutOfRange):
            CampaignConfig.from_dict(data)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_fewer_than_one_thread(self, threads):
        with pytest.raises(ParamOutOfRange, match="threads"):
            run_campaign(CampaignConfig("theorem1", samples=1), threads=threads)

    @pytest.mark.parametrize("threads", [1.5, 2.0, True, "2"])
    def test_rejects_a_thread_count_that_is_no_integer(self, threads):
        with pytest.raises(ParamOutOfRange, match="threads"):
            run_campaign(CampaignConfig("theorem1", samples=1), threads=threads)

    def test_round_trips_through_json(self):
        cfg = CampaignConfig("theorem3", samples=7, seed=42,
                             a2_range=(0.1, 0.9), shrink=0.05)
        clone = CampaignConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg

    def test_defaults_echo_module_constants(self):
        cfg = CampaignConfig("conjecture")
        assert cfg.ladder == LADDER
        assert cfg.alpha_grid == ALPHA_GRID


class TestPrepends:
    def test_extremal_rows_always_included(self):
        rows = catalog_prepends("theorem1")
        assert rows[:3] == [("koebe", None), ("f1", None), ("f2", None)]
        assert [p["b"] for _, p in rows[3:]] == list(FB_GRID)

    def test_comparison_rows_for_the_alpha_campaign(self):
        ids = [cid for cid, _ in catalog_prepends("theorem2")]
        for cid in ("identity", "half_plane", "log_map", "example_sec1"):
            assert cid in ids


class TestDeterminism:
    def test_thread_count_never_changes_bytes(self):
        cfg = CampaignConfig("theorem1", samples=12, seed=3)
        solo = canonical_json(run_campaign(cfg, threads=1))
        pooled = canonical_json(run_campaign(cfg, threads=4))
        assert solo == pooled

    def test_seed_changes_the_samples(self):
        a = run_campaign(CampaignConfig("theorem1", samples=12, seed=3))
        b = run_campaign(CampaignConfig("theorem1", samples=12, seed=4))
        assert canonical_json(a) != canonical_json(b)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """``threads=k`` runs rows in k - 1 forked children plus the caller."""

    CONFIGS = {kind: CampaignConfig(kind, samples=3, seed=2, **extra) for kind, extra in (
        ("theorem1", {}), ("theorem2", {}), ("theorem3", {}),
        ("conjecture", {"a2_range": (1.0, 2.0)}))}

    @pytest.fixture(scope="class")
    def serial(self):
        return {kind: canonical_json(run_campaign(cfg, threads=1, keep_rows=True))
                for kind, cfg in self.CONFIGS.items()}

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("kind", CAMPAIGNS)
    def test_reports_and_rows_are_byte_identical(self, serial, kind, workers):
        report = run_campaign(self.CONFIGS[kind], threads=workers, keep_rows=True)
        assert canonical_json(report) == serial[kind]
        _assert_no_child_left()

    @staticmethod
    def _failing_rows(monkeypatch, fail_at, action):
        """Make ``_run_one`` call ``action(index)`` at each row in ``fail_at``."""
        real = explorer._run_one

        def run_one(cfg, prepends, index):
            if index in fail_at:
                action(index)
            return real(cfg, prepends, index)

        monkeypatch.setattr(explorer, "_run_one", run_one)

    @staticmethod
    def _raise_pid_and_index(index):
        raise RuntimeError(os.getpid(), index)

    def test_a_row_error_in_a_child_reaches_the_caller(self, monkeypatch):
        # at 2 workers the child runs the odd rows
        row = len(catalog_prepends("theorem1"))
        self._failing_rows(monkeypatch, {row}, self._raise_pid_and_index)
        with pytest.raises(RuntimeError) as exc:
            run_campaign(CampaignConfig("theorem1", samples=2), threads=2)
        pid, index = exc.value.args
        assert row % 2 == 1 and pid != os.getpid() and index == row
        _assert_no_child_left()

    def test_a_row_error_in_the_caller_raises_there(self, monkeypatch):
        # at 2 workers the caller runs the even rows
        self._failing_rows(monkeypatch, {0}, self._raise_pid_and_index)
        with pytest.raises(RuntimeError) as exc:
            run_campaign(CampaignConfig("theorem1", samples=2), threads=2)
        assert exc.value.args == (os.getpid(), 0)
        _assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_lowest_failing_row_raises_at_any_worker_count(self, monkeypatch, workers):
        # at 2 workers the caller fails at row 2 before the child's row 1 is read
        self._failing_rows(monkeypatch, {1, 2}, self._raise_pid_and_index)
        with pytest.raises(RuntimeError) as exc:
            run_campaign(CampaignConfig("theorem1", samples=2), threads=workers)
        assert exc.value.args[1] == 1
        _assert_no_child_left()

    @pytest.mark.parametrize("death, code", [
        (lambda index: os._exit(7), "7"),
        (lambda index: os.kill(os.getpid(), signal.SIGKILL), "-9")])
    def test_a_child_that_dies_makes_the_call_raise(self, monkeypatch, death, code):
        self._failing_rows(monkeypatch, {len(catalog_prepends("theorem1"))}, death)
        with pytest.raises(RuntimeError, match=f"exit code {code}\\)"):
            run_campaign(CampaignConfig("theorem1", samples=3), threads=3)
        _assert_no_child_left()

    def test_an_error_in_the_callers_chunk_reaps_every_child(self, monkeypatch):
        def fail(index):
            raise ValueError("caller")

        self._failing_rows(monkeypatch, {0}, fail)
        with pytest.raises(ValueError, match="caller"):
            run_campaign(CampaignConfig("theorem2", samples=4), threads=4)
        _assert_no_child_left()

    def test_rows_run_in_the_caller_without_fork(self, monkeypatch):
        cfg = self.CONFIGS["theorem1"]
        expected = canonical_json(run_campaign(cfg))
        monkeypatch.delattr(os, "fork")
        assert canonical_json(run_campaign(cfg, threads=3)) == expected


class TestTheorem1Report:
    def test_sample_accounting(self, t1_report):
        rep = t1_report
        assert rep["samples_run"] == 20 + len(catalog_prepends("theorem1"))
        total = rep["accepted"] + rep["rejected"] + rep["inapplicable"]
        assert total == rep["samples_run"]
        # the sampler is tuned to keep the rejection rate moderate
        assert rep["rejected"] < rep["samples_run"] / 2

    def test_worst_cases_are_the_catalog_extremals(self, t1_report):
        worst = t1_report["worst_case"]
        h2 = worst["h2_modulus"]
        assert h2["value"] == pytest.approx(1.0, abs=1e-12)
        assert h2["source"] == "catalog:koebe"
        h3 = worst["h3_modulus"]
        assert h3["value"] == pytest.approx(0.25, abs=1e-12)
        assert h3["source"] == "catalog:f2"

    def test_no_violations_and_tight_slacks(self, t1_report):
        rep = t1_report
        assert rep["status"] == "ok"
        assert rep["violations"] == []
        assert rep["worst_case"]["ps_slack_min"]["value"] >= -1e-9
        assert rep["worst_case"]["h3_profile_slack"]["value"] >= -1e-9
        assert rep["worst_case"]["reduction_gap"]["value"] <= 1e-8

    def test_histogram_covers_accepted_samples(self, t1_report):
        hist = t1_report["histogram"]
        assert hist["quantity"] == "h3_modulus"
        assert sum(hist["counts"]) == t1_report["accepted"]
        assert len(hist["counts"]) == 30

    def test_certificate_shape(self, t1_report):
        cert = t1_report["worst_case"]["h2_modulus"]
        for key in ("config", "index", "seed", "source", "quantity",
                    "value", "margin", "witness", "function"):
            assert key in cert, key
        assert cert["config"]["campaign"] == "theorem1"
        assert cert["margin"] == pytest.approx(cert["value"] - 1.0)
        assert cert["config"] == t1_report["config"]
        assert cert["function"] == {"id": "koebe", "params": {}}


class TestReplay:
    def test_certificate_replays(self, t1_report):
        cert = t1_report["worst_case"]["h2_modulus"]
        out = replay(cert)
        assert out["replayed_value"] == pytest.approx(cert["value"], abs=1e-9)

    def test_tampered_value_is_rejected(self, t1_report):
        cert = dict(t1_report["worst_case"]["h3_modulus"])
        cert["value"] = cert["value"] + 1e-3
        with pytest.raises(ReplayMismatch):
            replay(cert)

    def test_unknown_quantity_is_rejected(self, t1_report):
        cert = dict(t1_report["worst_case"]["h2_modulus"])
        cert["quantity"] = "h9_modulus"
        with pytest.raises(ReplayMismatch):
            replay(cert)


@pytest.fixture(scope="module")
def t2_report():
    return run_campaign(CampaignConfig("theorem2", samples=6, seed=5))


@pytest.fixture(scope="module")
def t3_report():
    return run_campaign(CampaignConfig(
        "theorem3", samples=10, seed=3, a2_range=(0.05, 1.0)))


@pytest.fixture(scope="module")
def conj_report():
    return run_campaign(CampaignConfig(
        "conjecture", samples=20, seed=9, a2_range=(1.0, 2.0)))


class TestTheorem2Report:

    def test_catalog_rows_carry_joint_verdicts(self, t2_report):
        rows = {(r["source"], r["alpha"]): r for r in t2_report["rows"]}
        log1 = rows[("catalog:log_map", 1.0)]
        assert log1["m_verdict"] == "IN" and log1["u_verdict"] == "OUT"
        half = rows[("catalog:half_plane", -1.0)]
        assert half["m_verdict"] == "IN" and half["u_verdict"] == "IN"
        assert half["implication_respected"]

    def test_separating_examples_are_collected(self, t2_report):
        pairs = {(e["source"], e["alpha"]) for e in t2_report["exhibits"]}
        assert ("catalog:log_map", 1.0) in pairs
        assert all(e["m_verdict"] == "IN" and e["u_verdict"] == "OUT"
                   for e in t2_report["exhibits"])

    def test_implication_holds_for_negative_alpha(self, t2_report):
        assert t2_report["violations"] == []
        assert t2_report["status"] == "ok"

    def test_alpha_summary_counts_sampled_rows(self, t2_report):
        sampled_ok = t2_report["accepted"] - len(t2_report["rows"]) // len(ALPHA_GRID)
        for alpha in ALPHA_GRID:
            counts = t2_report["alpha_summary"][f"{alpha:g}"]
            assert sum(counts.values()) == sampled_ok


class TestTheorem3Report:
    def test_zero_second_coefficient_rows_are_inapplicable(self, t3_report):
        assert t3_report["inapplicable"] >= 2  # the two odd catalog extremals

    def test_all_parts_stay_below_one(self, t3_report):
        assert t3_report["status"] == "ok"
        assert t3_report["violations"] == []
        for part in ("a", "b", "c"):
            cert = t3_report["worst_case"][f"part_{part}_sup"]
            assert cert["value"] < 1.0, part
        # part a attains 2r/b = 1 - shrink on every quadratic catalog row
        assert t3_report["worst_case"]["part_a_sup"]["value"] == pytest.approx(
            0.99, abs=1e-9)

    def test_majorizing_profile_is_increasing(self, t3_report):
        assert t3_report["worst_case"]["phi_min_step"]["value"] > 0.0


class TestConjectureReport:
    def test_status_is_evidence_with_no_candidates(self, conj_report):
        assert conj_report["status"] == "evidence"
        assert conj_report["violations"] == []

    def test_ladder_rungs_tracked_separately(self, conj_report):
        for eps in LADDER:
            cert = conj_report["worst_case"][f"ug_sup@{eps:g}"]
            assert cert["value"] <= 1.0 + 1e-9
        tight = conj_report["worst_case"][f"ug_sup@{LADDER[-1]:g}"]
        assert tight["value"] > 0.99  # the bound is approached, not beaten

    def test_tightest_rung_certificate_replays(self, conj_report):
        cert = conj_report["worst_case"][f"ug_sup@{LADDER[-1]:g}"]
        out = replay(cert)
        assert out["replayed_value"] == pytest.approx(cert["value"], abs=1e-9)

    def test_histogram_uses_tightest_rung(self, conj_report):
        assert conj_report["histogram"]["quantity"] == "ug_sup_tightest"

    def test_histogram_does_not_depend_on_ladder_order(self):
        # the tightest rung is the one of smallest eps, wherever it sits
        hists = [run_campaign(CampaignConfig("conjecture", samples=3, seed=4,
                                             a2_range=(1.0, 2.0), ladder=ladder))["histogram"]
                 for ladder in ((0.001, 0.1), (0.1, 0.001), (0.001,))]
        assert hists[0] == hists[1] == hists[2]


class TestMoebiusClosedForm:
    """On a constant-psi member g is a Moebius map, so every theorem-3
    part-c sup and conjecture rung has a closed form to match."""

    @pytest.mark.parametrize("kind, a2_range", [("theorem3", (0.05, 2.0)),
                                                ("conjecture", (1.0, 2.0))])
    def test_constant_psi_rows_match_the_closed_form(self, kind, a2_range):
        report = run_campaign(CampaignConfig(kind, samples=100, seed=0, a2_range=a2_range),
                              keep_rows=True)
        checked = 0
        for row in report["per_sample"]:
            moebius = row["status"] == "ok" and constant_psi(row["function"])
            if not moebius:
                continue
            rec = row["record"]
            rungs = rec.get("rungs") or [{"radius": rec["radius"], "sup": rec["part_c_sup"]}]
            for rung in rungs:
                if rung["sup"] is not None:
                    want = moebius_deviation_sup(*moebius, rung["radius"])
                    assert abs(rung["sup"] - want) <= 1e-10 * want, (row["index"], rung)
                    checked += 1
        assert checked >= 40


class TestWorstCaseTies:
    def test_a_later_value_must_beat_the_held_one_by_more_than_the_tie_tolerance(self):
        held = 0.99
        assert not _beats(np.nextafter(held, 2.0), held, largest=True)
        assert not _beats(held * (1.0 + 0.5 * TIE_RTOL), held, largest=True)
        assert _beats(held * (1.0 + 2.0 * TIE_RTOL), held, largest=True)
        assert not _beats(np.nextafter(-held, -2.0), -held, largest=False)
        assert _beats(-held * (1.0 + 2.0 * TIE_RTOL), -held, largest=False)

    def test_aggregate_keeps_the_first_index_of_a_tie(self):
        cfg = CampaignConfig("conjecture", samples=1, a2_range=(1.0, 2.0), ladder=(0.5,))

        def row(index, sup):
            rung = {"eps": 0.5, "radius": 0.5, "sup": sup, "witness": [0.5, 0.0]}
            return {"index": index, "source": "sampled", "status": "ok", "error": None,
                    "record": {"rungs": [rung]}, "function": {"id": "koebe"}}

        ulp_noise = [row(0, 0.99), row(1, np.nextafter(0.99, 2.0))]
        assert _aggregate(cfg, ulp_noise)["worst_case"]["ug_sup@0.5"]["index"] == 0
        larger = ulp_noise + [row(2, 0.99 * (1.0 + 1e-11))]
        assert _aggregate(cfg, larger)["worst_case"]["ug_sup@0.5"]["index"] == 2

    def test_quadratic_catalog_ties_stay_with_koebe(self, t3_report, conj_report):
        # part a is 1 - shrink on koebe and every fb(b) in exact arithmetic
        assert t3_report["worst_case"]["part_a_sup"]["source"] == "catalog:koebe"
        for eps in LADDER:
            cert = conj_report["worst_case"][f"ug_sup@{eps:g}"]
            assert cert["source"] == "catalog:koebe", eps


class TestRowExport:
    def test_csv_flattens_per_sample_rows(self):
        rep = run_campaign(CampaignConfig("theorem1", samples=3, seed=1),
                           keep_rows=True)
        buf = io.StringIO()
        n = write_rows_csv(rep, buf)
        assert n == rep["samples_run"]
        lines = buf.getvalue().splitlines()
        assert lines[0] == "index,source,status,error,record"
        assert len(lines) == n + 1

    def test_csv_without_rows_is_header_only(self, t1_report):
        buf = io.StringIO()
        assert write_rows_csv(t1_report, buf) == 0
        assert buf.getvalue().splitlines() == [
            "index,source,status,error,record"]


class TestReplayCoverage:
    @pytest.mark.parametrize("fixture, quantities", [
        ("t1_report", {"h2_modulus", "h3_modulus", "reduction_gap",
                       "ps_slack_min", "h3_profile_slack"}),
        ("t2_report", {"u_boundary_estimate"}),
        ("t3_report", {"part_a_sup", "part_b_sup", "part_c_sup", "phi_min_step"}),
        ("conj_report", {f"ug_sup@{eps:g}" for eps in LADDER}),
    ])
    def test_every_worst_case_certificate_replays(self, request, fixture,
                                                  quantities):
        report = request.getfixturevalue(fixture)
        assert set(report["worst_case"]) == quantities
        for name, cert in report["worst_case"].items():
            out = replay(cert)
            assert out["replayed_value"] == pytest.approx(cert["value"],
                                                          abs=1e-9), name


class TestTheorem2Scans:
    def test_one_scan_per_sample(self, monkeypatch):
        # |U| and every alpha-convex row share one row-batched scan per
        # sample, whatever the size of the alpha grid
        import diskclass.membership as membership

        scans = []
        original = membership.extremal_on_circle

        def counted(*args, **kwargs):
            scans.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(membership, "extremal_on_circle", counted)
        report = run_campaign(CampaignConfig("theorem2", samples=3, seed=5))
        assert report["rejected"] == report["inapplicable"] == 0
        assert len(scans) == report["samples_run"]


class TestTheorem3Scans:
    @pytest.mark.parametrize("kind, a2_range", [
        ("theorem3", (0.05, 2.0)),
        ("conjecture", (1.0, 2.0)),
    ])
    def test_one_scan_per_sample(self, monkeypatch, kind, a2_range):
        # parts a, b and c (a and b alone past |a2| = 1) or every ladder
        # rung are rows of one scan
        import diskclass.membership as membership

        scans = []
        original = membership.extremal_on_circle

        def counted(*args, **kwargs):
            scans.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(membership, "extremal_on_circle", counted)
        cfg = CampaignConfig(kind, samples=6, seed=2, a2_range=a2_range)
        evaluate = _SPECS[kind].evaluate
        for cid, params in catalog_prepends(kind)[3:] + [("koebe", None)]:
            scans.clear()
            evaluate(make_catalog(cid, params), cfg)
            assert len(scans) == 1, (cid, params)
        scans.clear()
        report = run_campaign(cfg)
        assert report["rejected"] == 0
        assert len(scans) == report["accepted"]


class TestSeriesInversions:
    @pytest.mark.parametrize("kind, kwargs, expected", [
        ("theorem2", {}, 1),
        ("theorem3", {}, 1),
        ("conjecture", {"a2_range": (1.0, 2.0)}, 0),
    ])
    def test_reciprocal_calls_per_campaign(self, monkeypatch, kind, kwargs, expected):
        # scans read pointwise values from the kernels; only a Blaschke
        # member's psi expansion inverts a series (U builds no series)
        calls = []
        reciprocal = ComplexSeries.reciprocal

        def counted(series):
            calls.append(series.order)
            return reciprocal(series)

        monkeypatch.setattr(ComplexSeries, "reciprocal", counted)
        run_campaign(CampaignConfig(kind, samples=20, seed=7, **kwargs))
        assert len(calls) == expected

    def test_theorem1_rows_invert_only_f_prefixes(self, monkeypatch):
        # a row derives a_0..a_5 once (six terms of 1/h); only a Blaschke
        # member's psi expansion inverts a series to the full order
        f_terms, psi_terms, expanding = [], [], []
        reciprocal = ComplexSeries.reciprocal
        member = SchwarzGenerator.member

        def counted(series, *args, **kwargs):
            (psi_terms if expanding else f_terms).append(series.order + 1)
            return reciprocal(series, *args, **kwargs)

        def expand(gen, *args, **kwargs):
            expanding.append(gen.kind)
            try:
                return member(gen, *args, **kwargs)
            finally:
                expanding.pop()

        monkeypatch.setattr(ComplexSeries, "reciprocal", counted)
        monkeypatch.setattr(SchwarzGenerator, "member", expand)
        report = run_campaign(CampaignConfig("theorem1", samples=20, seed=7))
        assert max(f_terms) <= 6
        assert len(f_terms) == report["accepted"]
        assert set(psi_terms) == {65}
