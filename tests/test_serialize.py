"""Canonical JSON: sorted keys, list encodings, and refusals."""
import json

import numpy as np
import pytest

from diskclass.serialize import canonical_json


def test_numpy_values_and_complex_numbers_become_lists():
    payload = {"b": np.float64(0.5), "a": np.arange(3), "z": 1.5 - 2j,
               "m": np.array([[1j, 2.0]]), "n": np.int64(7), "t": (True, None)}
    text = canonical_json(payload)
    assert text == ('{"a":[0,1,2],"b":0.5,"m":[[[0.0,1.0],[2.0,0.0]]],'
                    '"n":7,"t":[true,null],"z":[1.5,-2.0]}')
    assert json.loads(text)["z"] == [1.5, -2.0]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf,
                                   np.float64("nan"), complex(1.0, np.inf)])
def test_non_finite_floats_raise_value_error(value):
    with pytest.raises(ValueError):
        canonical_json({"x": [value]})


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"])
def test_unknown_types_raise_type_error(value):
    with pytest.raises(TypeError):
        canonical_json({"x": value})
