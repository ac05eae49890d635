"""Compare an operation's outcome with its stored reference.

``deviation`` walks both JSON structures together. Numbers and lists of
numbers are compared relative to the largest magnitude in the reference
list (so each trace column has its own scale); everything else (exit
codes, flags, keys, row counts, nulls) must match exactly, and a mismatch
there counts as an infinite deviation.
"""

from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-12  # relative, as the roadmap fixes for "unchanged outputs"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(out: list, ref: list) -> float:
    a = np.asarray(out, dtype=float)
    b = np.asarray(ref, dtype=float)
    if a.shape != b.shape:
        return math.inf
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return 0.0
    finite = np.isfinite(b)
    scale = float(np.max(np.abs(b[finite]))) if finite.any() else 0.0
    diff = np.abs(a - b)[~same]
    if not np.all(np.isfinite(diff)) or scale == 0.0:
        return math.inf
    return float(np.max(diff)) / scale


def deviation(out, ref) -> float:
    """Largest relative deviation of ``out`` from ``ref`` (0 when equal)."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or out.keys() != ref.keys():
            return math.inf
        return max((deviation(out[k], ref[k]) for k in ref), default=0.0)
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return math.inf
        if all(_is_number(v) for v in ref) and all(_is_number(v) for v in out):
            return _numbers(out, ref)
        return max((deviation(o, r) for o, r in zip(out, ref)), default=0.0)
    if _is_number(ref) and _is_number(out):
        return _numbers([out], [ref])
    return 0.0 if (type(out) is type(ref) and out == ref) else math.inf
