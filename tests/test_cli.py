"""Command line surface: exit codes, payload shapes, determinism, errors."""
import json
import subprocess
import sys

import pytest

from diskclass import make_catalog
from diskclass.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out)


class TestMembershipCommand:
    def test_out_verdict_exits_3(self, capsys):
        code, payload = run_json(capsys, "membership", "--id", "log_map",
                                 "--class", "U")
        assert code == 3
        assert payload["verdict"] == "OUT"
        assert payload["config"]["class"] == "U"
        assert payload["config"]["policy"]["grid"] == 4096

    def test_boundary_verdict_exits_4(self, capsys):
        code, payload = run_json(capsys, "membership", "--id", "f1",
                                 "--class", "U")
        assert code == 4
        assert payload["boundary_estimate"] == pytest.approx(1.0, abs=1e-9)

    def test_in_verdict_exits_0(self, capsys):
        code, payload = run_json(capsys, "membership", "--id", "identity",
                                 "--class", "starlike")
        assert code == 0
        assert payload["verdict"] == "IN"

    def test_policy_flags_are_echoed(self, capsys):
        code, payload = run_json(capsys, "membership", "--id", "koebe",
                                 "--class", "U", "--grid", "512",
                                 "--r-max", "0.5")
        assert payload["config"]["policy"]["grid"] == 512
        assert payload["scan_radius"] == 0.5


class TestHankelCommand:
    def test_koebe_second_determinant(self, capsys):
        code, payload = run_json(capsys, "hankel", "--id", "koebe",
                                 "--q", "2", "--n", "2")
        assert code == 0
        assert payload["value"] == pytest.approx([-1.0, 0.0], abs=1e-12)
        assert payload["modulus"] == pytest.approx(1.0, abs=1e-12)

    def test_f2_third_determinant(self, capsys):
        _, payload = run_json(capsys, "hankel", "--id", "f2",
                              "--q", "3", "--n", "1")
        assert payload["modulus"] == pytest.approx(0.25, abs=1e-12)


class TestRadiusCommand:
    def test_transform_starlike_radius(self, capsys):
        code, payload = run_json(capsys, "radius", "--id", "fb", "--b", "1",
                                 "--of-g", "--class", "starlike")
        assert code == 0
        assert payload["radius"] == pytest.approx(0.5, abs=1e-4)
        assert payload["config"]["function"]["of_g"] is True


class TestEvalCommand:
    def test_point_and_functionals(self, capsys):
        code, payload = run_json(capsys, "eval", "--id", "log_map", "0.99")
        assert code == 0
        assert payload["f"][0] == pytest.approx(-float(__import__("math").log(0.01)))
        assert payload["f_prime"] == pytest.approx([100.0, 0.0])
        assert payload["deviation_u_abs"] > 3.6

    def test_comma_point_syntax(self, capsys):
        _, payload = run_json(capsys, "eval", "--id", "identity", "0.3,0.4")
        assert payload["f"] == pytest.approx([0.3, 0.4])

    def test_unparseable_point(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--id", "identity", "x;y")
        assert code == 2
        assert "cannot parse point" in err


class TestDecomposeCommand:
    def test_koebe_normal_form(self, capsys):
        code, payload = run_json(capsys, "decompose", "--id", "koebe")
        assert code == 0
        assert payload["a2"] == pytest.approx([2.0, 0.0], abs=1e-12)
        assert payload["c"][0] == pytest.approx([-1.0, 0.0], abs=1e-12)


class TestCatalogCommand:
    def test_lists_all_ids(self, capsys):
        code, payload = run_json(capsys, "catalog")
        assert code == 0
        ids = {e["id"] for e in payload["catalog"]}
        assert {"koebe", "f1", "f2", "fb", "log_map", "half_plane",
                "identity", "example_sec1"} <= ids


class TestSeriesFile:
    def test_round_trip_through_file(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(make_catalog("koebe").series.to_json_dict()))
        code, payload = run_json(capsys, "hankel", "--series-file", str(path),
                                 "--q", "2", "--n", "2")
        assert code == 0
        assert payload["modulus"] == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_series_exits_2(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"order": 2, "coeffs": [[0, 0], [2, 0], [1, 0]]}))
        code, out, err = run_cli(capsys, "hankel", "--series-file", str(path),
                                 "--q", "1", "--n", "1")
        assert code == 2
        assert "not normalized" in err

    @pytest.mark.parametrize("c0, expected", [(5e-10, 0), (5e-9, 2)])
    def test_normalization_tolerance_is_shared(self, capsys, tmp_path, c0, expected):
        # a constant term inside the tolerance is accepted and dropped when
        # the quotient is derived; one outside it is rejected up front
        coeffs = make_catalog("koebe").series.to_json_dict()["coeffs"]
        coeffs[0] = [c0, 0.0]
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"order": len(coeffs) - 1, "coeffs": coeffs}))
        code, out, err = run_cli(capsys, "hankel", "--series-file", str(path),
                                 "--q", "2", "--n", "2")
        assert code == expected
        assert ("error:" in err) == (expected == 2)

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "hankel", "--series-file",
                                 str(tmp_path / "absent.json"),
                                 "--q", "2", "--n", "2")
        assert code == 2
        assert "error:" in err


class TestCampaignCommand:
    def test_thread_count_keeps_bytes_identical(self, capsys, tmp_path):
        base = ["campaign", "--kind", "theorem1", "--samples", "5",
                "--seed", "2"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(base + ["--threads", "1", "--out", str(p1)]) == 0
        assert main(base + ["--threads", "3", "--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text())["status"] == "ok"

    def test_config_file_with_flag_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"campaign": "theorem1", "samples": 3,
                                   "seed": 7}))
        code, payload = run_json(capsys, "campaign", "--config", str(cfg),
                                 "--seed", "9")
        assert code == 0
        assert payload["config"]["samples"] == 3
        assert payload["config"]["seed"] == 9

    def test_csv_rows_written_and_stripped_from_report(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, payload = run_json(capsys, "campaign", "--kind", "theorem1",
                                 "--samples", "3", "--seed", "1",
                                 "--csv", str(csv_path))
        assert code == 0
        assert "per_sample" not in payload
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "index,source,status,error,record"
        assert len(lines) == payload["samples_run"] + 1

    def test_a2_range_flag(self, capsys):
        code, payload = run_json(capsys, "campaign", "--kind", "conjecture",
                                 "--samples", "2", "--seed", "1",
                                 "--a2", "1.0:2.0")
        assert code == 0
        assert payload["config"]["a2_range"] == [1.0, 2.0]

    def test_malformed_a2_range(self, capsys):
        code, out, err = run_cli(capsys, "campaign", "--kind", "theorem1",
                                 "--samples", "2", "--a2", "1-2")
        assert code == 2
        assert "lo:hi" in err

    def test_kind_required_without_config(self, capsys):
        code, out, err = run_cli(capsys, "campaign", "--samples", "2")
        assert code == 2
        assert "campaign kind missing" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_membership_requires_class(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["membership", "--id", "koebe"])
        assert exc.value.code == 2

    def test_unknown_catalog_id(self, capsys):
        code, out, err = run_cli(capsys, "membership", "--id", "zeta",
                                 "--class", "U")
        assert code == 2
        assert "error:" in err

    def test_fb_requires_b(self, capsys):
        code, out, err = run_cli(capsys, "radius", "--id", "fb",
                                 "--class", "starlike")
        assert code == 2
        assert "--b" in err

    def test_function_source_required(self, capsys):
        code, out, err = run_cli(capsys, "decompose")
        assert code == 2
        assert "--id or --series-file" in err

    @pytest.mark.parametrize("argv", [
        ["hankel", "--id", "koebe", "--q", "5", "--n", "1"],
        ["hankel", "--id", "koebe", "--q", "2", "--n", "0"],
        ["hankel", "--id", "log_map", "--q", "2", "--n", "2", "--order", "-1"],
        ["hankel", "--id", "koebe", "--q", "2", "--n", "2", "--order", "0"],
        ["membership", "--id", "koebe", "--class", "foo"],
        ["radius", "--id", "koebe", "--class", "foo"],
        ["membership", "--id", "koebe", "--class", "mocanu"],
        ["membership", "--id", "koebe", "--class", "mocanu", "--alpha", "nan"],
        ["membership", "--id", "koebe", "--class", "U", "--alpha", "0.5"],
        ["radius", "--id", "koebe", "--class", "starlike", "--alpha", "0.5"],
        ["campaign", "--kind", "theorem1", "--samples", "2", "--a2", "x:y"],
        ["eval", "--id", "log_map", "1"],
        ["eval", "--id", "koebe", "0.6+0.8j"],
    ])
    def test_bad_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.filterwarnings("error")
    def test_non_finite_scan_value_exits_2(self, capsys):
        # alpha = 1e308 overflows the alpha-convex functional on the circle;
        # the scan reports it once, with no floating-point warning
        code, out, err = run_cli(capsys, "membership", "--id", "koebe", "--class",
                                 "mocanu", "--alpha", "1e308", "--json")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
        assert "non-finite" in err

    def test_non_finite_alpha_grid_in_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"campaign": "theorem2", "samples": 1, "alpha_grid": [NaN]}')
        code, out, err = run_cli(capsys, "campaign", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "alpha_grid entries must be finite" in err

    @pytest.mark.parametrize("flags, word", [
        (["--grid", "0"], "grid"),
        (["--r-max", "1.5"], "r_max"),
        (["--r-max", "0"], "r_max"),
        (["--delta=-1e-6"], "delta"),
    ])
    def test_scan_policy_is_validated(self, capsys, flags, word):
        code, out, err = run_cli(capsys, "membership", "--id", "koebe",
                                 "--class", "U", *flags)
        assert code == 2
        assert out == ""
        assert word in err


@pytest.fixture
def scan_budget(monkeypatch):
    """Fail, instead of hanging, once a radius search runs away."""
    import diskclass.membership as membership

    scans = []
    original = membership.extremal_on_circle

    def counted(*args, **kwargs):
        scans.append(1)
        assert len(scans) < 400, "radius bisection does not terminate"
        return original(*args, **kwargs)

    monkeypatch.setattr(membership, "extremal_on_circle", counted)


class TestRadiusTolerance:
    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_nonpositive_tolerance_is_rejected(self, capsys, scan_budget, tol):
        code, out, err = run_cli(capsys, "radius", "--id", "koebe",
                                 "--class", "convex", "--tol", tol)
        assert code == 2
        assert "tol must be positive" in err

    def test_tolerance_below_float_resolution_terminates(self, capsys,
                                                          scan_budget):
        # bisection stops once the midpoint no longer splits the bracket
        code, payload = run_json(capsys, "radius", "--id", "log_map", "--class",
                                 "U", "--tol", "1e-20", "--grid", "64")
        assert code == 0
        lo, hi = payload["bracket"]
        assert 0.9 < lo < hi < 1.0
        assert (lo + hi) / 2 in (lo, hi)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diskclass", "catalog", "--json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "koebe" in proc.stdout
