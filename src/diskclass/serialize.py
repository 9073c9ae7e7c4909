"""Canonical JSON encoding shared by reports, certificates, and the CLI.

Dict keys are sorted and floats rendered as their shortest round-trip repr
so that equal payloads serialize to identical bytes regardless of insertion
order.
"""
from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["canonical_json"]


def _canon(obj):
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _canon(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, complex):
        return [_canon(obj.real), _canon(obj.imag)]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float in canonical payload: {obj!r}")
        return obj  # shortest repr round-trips exactly and is deterministic
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON text for a payload of dicts/lists/numbers/strings."""
    return json.dumps(_canon(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def complex_pair(z) -> list:
    """[re, im] encoding used throughout the JSON schemas."""
    z = complex(z)
    return [z.real, z.imag]
