"""The eight canonical campaign reports stay as pinned under tests/golden/.

Keys, strings, integers, booleans and None must match exactly; floats
match to 1e-12 relative, since numpy's SIMD exp, log and sin may differ by
an ulp between hosts.  A mismatch names the path of the first field that
differs.  ``regen_golden.py`` rewrites the files.
"""
import json

import pytest

from regen_golden import CASES, GOLDEN, report_text

FLOAT_RTOL = 1e-12


def first_difference(expected, actual, path="$"):
    """Path of the first field where actual departs from expected, or None."""
    if type(expected) is not type(actual):
        return f"{path}: {type(expected).__name__} {expected!r} != {type(actual).__name__} {actual!r}"
    if isinstance(expected, dict):
        if sorted(expected) != sorted(actual):
            return f"{path}: keys {sorted(expected)} != {sorted(actual)}"
        for key in sorted(expected):
            diff = first_difference(expected[key], actual[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} != {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = first_difference(e, a, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(expected, float):
        if abs(expected - actual) <= FLOAT_RTOL * max(abs(expected), abs(actual)):
            return None
    elif expected == actual:
        return None
    return f"{path}: {expected!r} != {actual!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    actual = json.loads(report_text(CASES[name]))
    diff = first_difference(expected, actual)
    assert diff is None, f"{name} differs from tests/golden/{name}.json at {diff}"


class TestFirstDifference:
    def test_names_the_first_differing_path(self):
        expected = {"a": [1, {"b": 0.5, "c": "x"}], "d": None}
        assert first_difference(expected, {"a": [1, {"b": 0.5, "c": "y"}], "d": None}) \
            == "$.a[1].c: 'x' != 'y'"
        assert first_difference(expected, {"a": [1, {"b": 0.5, "c": "x"}], "d": 0}) \
            .startswith("$.d: NoneType")

    def test_floats_match_to_relative_tolerance(self):
        assert first_difference([1.0], [1.0 + 4e-16]) is None
        assert first_difference([1.0], [1.0 + 1e-11]) == "$[0]: 1.0 != 1.00000000001"

    def test_integers_booleans_and_keys_match_exactly(self):
        assert first_difference(1, 1.0) is not None
        assert first_difference(True, 1) is not None
        assert first_difference({"a": 1}, {"b": 1}).startswith("$: keys")
