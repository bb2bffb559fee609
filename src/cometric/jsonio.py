"""Deterministic serialization: JSON with 17-significant-digit floats and CSV
trajectory tables.

``stdlib json`` cannot pin significant digits, so a small recursive emitter
formats every float with ``%.17g`` (lossless round-trip) while keeping key
order exactly as insertion order.  Identical inputs therefore serialize to
identical bytes, which the CLI's determinism contract relies on.  A float
array is formatted in one pass and laid out as its nested lists would be, a
trajectory row is one ``map`` of ``%.17g``, and :func:`float_array` checks an
all-number input in bulk, walking its leaves only to name what it refuses.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import ConfigurationError


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ConfigurationError(f"cannot serialize non-finite number {x!r}")
    if x == int(x) and abs(x) < 1e16:
        # keep integral floats readable but unambiguous
        return f"{x:.1f}"
    return f"{x:.17g}"


ONE_LINE = 72  # a list of numbers whose items total fewer characters stays on one line


def _block(items: list[str], depth: int) -> str:
    """A non-empty list laid out one item per line, closed at ``depth``."""
    pad_in = "\n" + "  " * (depth + 1)
    return "[" + pad_in + ("," + pad_in).join(items) + "\n" + "  " * depth + "]"


def _emit_floats(arr: np.ndarray, depth: int) -> str:
    """A non-empty float array as ``dumps`` writes its ``tolist()``: short rows
    of numbers on one line, every other list one item per line."""
    flat = arr.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        _fmt_float(float(flat[~finite][0]))  # refuses the first, as the element walk would
    values = flat.tolist()
    items = [f"{x:.17g}" for x in values]
    for i in np.flatnonzero((flat == np.trunc(flat)) & (np.abs(flat) < 1e16)).tolist():
        items[i] = f"{values[i]:.1f}"
    leaf, m = depth + arr.ndim - 1, arr.shape[-1]
    lists = list(map(("[" + ", ".join(["{}"] * m) + "]").format, *(items[j::m] for j in range(m))))
    for r in [r for r, row in enumerate(lists) if len(row) - 2 * m >= ONE_LINE]:  # less brackets and ", "s
        lists[r] = _block(items[r * m:(r + 1) * m], leaf)
    for size in reversed(arr.shape[:-1]):  # group into the enclosing lists, innermost first
        leaf -= 1
        lists = [_block(lists[i:i + size], leaf) for i in range(0, len(lists), size)]
    return lists[0]


def dumps(obj: Any) -> str:
    """Serialize to JSON text with deterministic float formatting and a
    two-space indent."""

    def emit(o: Any, depth: int) -> str:
        pad = "  " * depth
        pad_in = "  " * (depth + 1)
        if o is None:
            return "null"
        if isinstance(o, (bool, np.bool_)):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _fmt_float(float(o))
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            if o.dtype == np.float64 and o.ndim and o.size:
                return _emit_floats(o, depth)
            return emit(o.tolist(), depth)  # a 0-d array as its scalar
        if isinstance(o, (list, tuple)):
            if len(o) == 0:
                return "[]"
            items = [emit(v, depth + 1) for v in o]
            if all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in o) and sum(map(len, items)) < ONE_LINE:
                return "[" + ", ".join(items) + "]"
            return _block(items, depth)
        if isinstance(o, dict):
            if not o:
                return "{}"
            rows = []
            for k, v in o.items():
                if not isinstance(k, str):
                    raise ConfigurationError(f"JSON object keys must be strings, got {k!r}")
                rows.append(pad_in + json.dumps(k) + ": " + emit(v, depth + 1))
            return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
        raise ConfigurationError(f"cannot serialize object of type {type(o).__name__}")

    return emit(obj, 0) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
        raise ConfigurationError(f"invalid JSON: {exc}") from exc


def load_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def integer(value: Any, what: str) -> int:
    """A JSON integer; a float (even ``3.0``) or ``true`` is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return value


def number(value: Any, what: str) -> float:
    """A JSON number read as a float; anything else (a string, ``true``) is
    refused, and so is an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"{what} is beyond the float range") from None


def float_array(value: Any, what: str) -> np.ndarray:
    """Nested JSON lists of finite numbers as a float array; ragged lists are
    refused, and so is any string, boolean or ``null`` among the numbers, which
    ``np.asarray`` would read as a number (``"1e0"`` and ``true`` as 1.0)."""
    try:  # the common case: a rectangular array of ints and floats, checked in bulk
        grid = np.array(value, dtype=object)
        if set(map(type, grid.ravel().tolist())) <= {float, int}:
            arr = grid.astype(float)
            if np.isfinite(arr).all():
                return arr
    except (OverflowError, TypeError, ValueError):
        pass
    leaves = [value]  # name what is refused
    while leaves:
        leaf = leaves.pop()
        if isinstance(leaf, list):
            leaves.extend(leaf)
        elif isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise ConfigurationError(f"{what} must be a rectangular array of numbers, got {repr(leaf)[:32]}")
    try:
        arr = np.asarray(value, dtype=float)
        finite = bool(np.isfinite(arr).all())
    except OverflowError:  # an integer beyond the float range
        finite = False
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what} must be a rectangular array of numbers") from exc
    if not finite:
        raise ConfigurationError(f"{what} contain non-finite entries")
    return arr


def trajectory_csv(
    ts: np.ndarray,
    qs: np.ndarray,           # (k, p, D)
    ps: np.ndarray,           # (k, p, D)
    hams: np.ndarray,         # (k,)
    linear: np.ndarray,       # (k, D)
    angular: np.ndarray,      # (k, nA)
) -> str:
    """Render a trajectory as CSV: t, positions, momenta, H, conserved sums."""
    k, p, d = qs.shape
    cols = ["t"]
    cols += [f"q_{a+1}_{i+1}" for a in range(p) for i in range(d)]
    cols += [f"p_{a+1}_{i+1}" for a in range(p) for i in range(d)]
    cols += ["H"]
    cols += [f"P_{i+1}" for i in range(d)]
    cols += [f"L_{i+1}{j+1}" for i in range(d) for j in range(i + 1, d)]
    lines = [",".join(cols)]
    table = np.column_stack([ts, qs.reshape(k, p * d), ps.reshape(k, p * d), hams, linear, angular])
    row = ",".join(["%.17g"] * len(cols))  # one format call per row
    lines += [row % tuple(values) for values in table.tolist()]
    return "\n".join(lines) + "\n"
