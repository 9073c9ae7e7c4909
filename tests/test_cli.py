"""Command line surface: exit codes, payload shapes, determinism, errors."""
import json
import subprocess
import sys

import numpy as np
import pytest

from diskclass import cli, make_catalog
from diskclass.cli import build_parser, main


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


class TestOutFile:
    def test_out_writes_the_canonical_line_and_prints_nothing(self, capsys, tmp_path):
        argv = ["hankel", "--id", "koebe", "--q", "2", "--n", "2"]
        _, expected, _ = run_cli(capsys, *argv, "--json")
        path = tmp_path / "h.json"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert (code, out, err) == (0, "", "")
        assert path.read_text(encoding="utf-8") == expected
        assert expected.endswith("}\n") and "\n" not in expected[:-1]


class TestTransformOrder:
    """--of-g at --order N gives a g of order N, for series-defined ids too."""

    @pytest.mark.parametrize("cid", ["log_map", "koebe"])
    def test_g_takes_the_requested_order(self, cid):
        args = build_parser().parse_args(["decompose", "--id", cid, "--of-g", "--order", "5"])
        assert cli._function_from(args).order == 5

    @pytest.mark.parametrize("argv", [["hankel", "--q", "3", "--n", "1"], ["decompose"]])
    def test_log_map_at_order_five_exits_0(self, capsys, argv):
        code, payload = run_json(capsys, *argv, "--id", "log_map", "--of-g", "--order", "5")
        assert code == 0
        assert payload["config"]["function"]["order"] == 5


class TestRadiusCommand:
    def test_transform_starlike_radius(self, capsys):
        code, payload = run_json(capsys, "radius", "--id", "fb", "--b", "1",
                                 "--of-g", "--class", "starlike")
        assert code == 0
        assert payload["radius"] == pytest.approx(0.5, abs=1e-4)
        assert payload["config"]["function"]["of_g"] is True

    @pytest.mark.parametrize("b", ["0.3", "0.7"])
    def test_mocanu_at_alpha_zero_is_the_starlike_radius(self, capsys, b):
        # the bisection's first midpoint is -b/2, a zero of g', which is no
        # pole of the alpha = 0 functional
        argv = ("radius", "--id", "fb", "--b", b, "--of-g", "--class")
        code, mocanu = run_json(capsys, *argv, "mocanu", "--alpha", "0")
        assert code == 0
        _, starlike = run_json(capsys, *argv, "starlike")
        assert float.hex(mocanu["radius"]) == float.hex(starlike["radius"])


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

    @pytest.mark.parametrize("point", ["-0.4j", "-0.1-0.2j", "-0.15", "-1e-1+0.2j"])
    def test_point_with_a_leading_minus(self, capsys, point):
        # argparse reads "-0.4j" as an unknown option unless main keeps it positional
        z = complex(point)
        code, payload = run_json(capsys, "eval", "--id", "koebe", point)
        assert code == 0
        assert payload["config"]["point"] == [z.real, z.imag]
        assert complex(*payload["f"]) == pytest.approx(z / (1 - z) ** 2, rel=1e-12)

    def test_point_with_a_leading_minus_before_flags(self, capsys):
        code, out, err = run_cli(capsys, "eval", "-0.1-0.2j", "--id", "fb", "--b",
                                 "-0.5", "--json")
        assert code == 2 and out == ""
        assert "outside (0, 2]" in err

    @pytest.mark.parametrize("flag", ["--out", "--series-file"])
    def test_a_file_name_that_starts_like_a_number_is_left_alone(self, capsys, tmp_path,
                                                                 monkeypatch, flag):
        # only a token made of point characters is kept positional; "-1.json"
        # stays an option-like string, which argparse refuses as before
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--id", "koebe", "0.1", flag, "-1.json"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_process_argv_goes_through_the_same_path(self):
        proc = subprocess.run([sys.executable, "-m", "diskclass", "eval", "--id", "koebe",
                               "-0.4j", "--json"], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["config"]["point"] == [0.0, -0.4]


class TestEvalClosedForms:
    """eval against closed forms of f, f', f'', h = z/f and U = h^2 f' - 1,
    one case for each kind of kernel."""

    @staticmethod
    def check(payload, z, f, f1, f2):
        h = z / f
        for key, want in (("f", f), ("f_prime", f1), ("f_second", f2),
                          ("quotient_h", h), ("deviation_u", h * h * f1 - 1.0)):
            assert complex(*payload[key]) == pytest.approx(want, rel=1e-12, abs=1e-15), key
        assert payload["deviation_u_abs"] == pytest.approx(abs(h * h * f1 - 1.0), abs=1e-15)

    def test_koebe_polynomial_kernel(self, capsys):
        z = 0.3 - 0.4j
        code, payload = run_json(capsys, "eval", "--id", "koebe", "(0.3-0.4j)")
        assert code == 0
        self.check(payload, z, z / (1 - z) ** 2, (1 + z) / (1 - z) ** 3,
                   (2 * z + 4) / (1 - z) ** 4)
        assert complex(*payload["deviation_u"]) == pytest.approx(-z * z, abs=1e-15)

    @pytest.mark.parametrize("point", ["0.0001", "0.9"])
    def test_log_map_kernel(self, capsys, point):
        # 1e-4 lies inside the kernel's 1e-3 mask, where h comes from the series;
        # a real z keeps log1p accurate
        z = float(point)
        code, payload = run_json(capsys, "eval", "--id", "log_map", point)
        assert code == 0
        self.check(payload, z, -np.log1p(-z), 1 / (1 - z), 1 / (1 - z) ** 2)

    def test_g_transform_kernel(self, capsys):
        # g of fb(b) is z + z^2/b
        b, z = 0.7, 0.2 + 0.1j
        code, payload = run_json(capsys, "eval", "--id", "fb", "--b", "0.7", "--of-g",
                                 "(0.2+0.1j)")
        assert code == 0
        self.check(payload, z, z + z * z / b, 1 + 2 * z / b, 2 / b)

    def test_series_file_is_the_polynomial(self, capsys, tmp_path):
        # f = z + c2 z^2 + c3 z^3 is evaluated as that polynomial
        c2, c3 = 0.25 + 0.1j, -0.05 + 0.02j
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"order": 3, "coeffs": [
            [0, 0], [1, 0], [c2.real, c2.imag], [c3.real, c3.imag]]}))
        code, payload = run_json(capsys, "eval", "--series-file", str(path), "(-0.5+0.3j)")
        assert code == 0
        z = -0.5 + 0.3j
        self.check(payload, z, z + c2 * z * z + c3 * z ** 3, 1 + 2 * c2 * z + 3 * c3 * z * z,
                   2 * c2 + 6 * c3 * z)

    @pytest.mark.parametrize("point", ["0.0001", "(0.5+0.2j)"])
    def test_g_of_a_series_file(self, capsys, tmp_path, point):
        # g of f = z + c z^2 is z/(1 + c z), exactly, near the origin too
        c, z = 0.25 + 0.1j, complex(point)
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"order": 2, "coeffs": [[0, 0], [1, 0], [c.real, c.imag]]}))
        code, payload = run_json(capsys, "eval", "--series-file", str(path), "--of-g", point)
        assert code == 0
        w = 1 + c * z
        self.check(payload, z, z / w, w ** -2, -2 * c / w ** 3)


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

    @pytest.mark.parametrize("flag", [["--id", "koebe"], ["--b", "0.5"]])
    def test_series_file_with_catalog_flag_exits_2(self, capsys, tmp_path, flag):
        # the file defines the function; a catalog flag beside it would be ignored
        path = tmp_path / "series.json"
        path.write_text(json.dumps(make_catalog("koebe").series.to_json_dict()))
        code, out, err = run_cli(capsys, "membership", "--series-file", str(path),
                                 *flag, "--class", "U")
        assert code == 2
        assert out == ""
        assert "--series-file takes neither --id nor --b" in err

    def test_series_file_with_order_exits_2(self, capsys, tmp_path):
        # the file carries its own order; --order beside it would be ignored
        path = tmp_path / "series.json"
        path.write_text(json.dumps(make_catalog("koebe").series.to_json_dict()))
        code, out, err = run_cli(capsys, "hankel", "--series-file", str(path),
                                 "--order", "8", "--q", "1", "--n", "2")
        assert code == 2
        assert out == ""
        assert "--series-file takes no --order" in err

    @pytest.mark.parametrize("flags, order", [([], 64), (["--order", "8"], 8)])
    def test_catalog_order_is_echoed(self, capsys, flags, order):
        code, payload = run_json(capsys, "hankel", "--id", "koebe", *flags,
                                 "--q", "2", "--n", "2")
        assert code == 0
        assert payload["config"]["function"]["order"] == order

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "hankel", "--series-file",
                                 str(tmp_path / "absent.json"),
                                 "--q", "2", "--n", "2")
        assert code == 2
        assert "error:" in err


class TestCampaignCommand:
    def test_threads_flag_is_gone(self, capsys):
        # the CLI has no worker flag (campaign runs serially); the flag is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--kind", "theorem1", "--samples", "1",
                  "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

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


class TestMalformedJson:
    """Malformed --config and --series-file contents are input errors."""

    @pytest.mark.parametrize("text, word", [
        ('{"campaign": "theorem1",', "not valid JSON"),
        ('["theorem1"]', "JSON object"),
        ('{"campaign": "theorem1", "bogus": 1}', "bogus"),
        ('{"campaign": "theorem1", "policy": {"grid": "x"}}', "grid"),
        ('{"campaign": "theorem1", "policy": "x"}', "policy"),
        ('{"campaign": "conjecture", "ladder": ["x"]}', "ladder"),
        ('{"campaign": "theorem1", "samples": "x"}', "samples"),
        ('{"campaign": "theorem1", "samples": 2.7}', "samples"),
        ('{"campaign": "theorem1", "samples": true}', "samples"),
        ('{"campaign": "theorem1", "policy": {"grid": true}}', "grid"),
    ])
    def test_config_exits_2(self, capsys, tmp_path, text, word):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "campaign", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and word in err

    @pytest.mark.parametrize("text, word", [
        ('{"order": 1, "coeffs": [[0, 0], [1, 0]', "not valid JSON"),
        ('[[0, 0], [1, 0]]', "JSON object"),
        ('{"coeffs": [[0, 0], [1, 0]]}', "order"),
        ('{"order": 3, "coeffs": [[0, 0], [1, 0]]}', "disagrees"),
        ('{"order": 1, "coeffs": [[0, 0, 0], [1, 0]]}', "coeffs"),
    ])
    def test_series_file_exits_2(self, capsys, tmp_path, text, word):
        path = tmp_path / "series.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "eval", "--series-file", str(path), "0.1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and word in err

    @pytest.mark.parametrize("coeff", ["[NaN, 0]", "[0, Infinity]"])
    @pytest.mark.parametrize("argv", [["hankel", "--q", "1", "--n", "2"],
                                      ["decompose"], ["eval", "0.5"]])
    def test_non_finite_series_coefficient_exits_2(self, capsys, tmp_path, coeff, argv):
        # Python's json reads NaN and Infinity, and NaN slips past the
        # normalization check, whose comparisons it makes false
        path = tmp_path / "series.json"
        path.write_text(f'{{"order": 2, "coeffs": [[0, 0], [1, 0], {coeff}]}}')
        code, out, err = run_cli(capsys, *argv, "--series-file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_membership_requires_class(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["membership", "--id", "koebe"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--r-max", "--delta"])
    def test_radius_takes_no_verdict_flags(self, capsys, flag):
        # a radius search reads neither the scan radius nor the margin
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--id", "koebe", "--class", "convex", flag, "0.5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err

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

    @pytest.mark.parametrize("order", ["3", "4"])
    def test_decompose_below_order_five_exits_2(self, capsys, order):
        # c3 reads h_4; the quotient of an order-N series has order N - 1
        code, out, err = run_cli(capsys, "decompose", "--id", "log_map",
                                 "--order", order, "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

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
        ["membership", "--id", "koebe", "--b", "0.5", "--class", "U"],
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
        (["--delta", "inf"], "delta"),  # used to end in a JSON encoder traceback
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
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
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


class TestParserReuse:
    """``main`` reuses one parser per process; no call leaves state in it."""

    MOCANU = ["radius", "--id", "fb", "--b", "1", "--class", "mocanu"]

    def test_omitted_flag_reads_its_default_again(self, capsys):
        _, first = run_json(capsys, *self.MOCANU, "--alpha", "0.5")
        assert first["config"]["alpha"] == 0.5
        # mocanu takes one alpha: a leaked 0.5 would let this call succeed
        code, out, err = run_cli(capsys, *self.MOCANU, "--json")
        assert code == 2 and "mocanu" in err and out == ""
        _, second = run_json(capsys, "radius", "--id", "fb", "--b", "1", "--class",
                             "starlike")
        assert second["config"]["alpha"] is None

    def test_usage_error_leaves_the_parser_as_built(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--id", "koebe", "--class", "convex", "--grid", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        argv = ["radius", "--id", "koebe", "--class", "convex", "--grid", "64", "--json"]
        reused = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "_parser", build_parser)
        assert run_cli(capsys, *argv) == reused

    def test_main_keeps_one_parser_and_build_parser_makes_new_ones(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()
        assert build_parser() is not cli._parser()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diskclass", "catalog", "--json"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "koebe" in proc.stdout
