"""Deterministic serialization: JSON with 17-significant-digit floats and CSV
trajectory tables.

``stdlib json`` cannot pin significant digits, so a small recursive emitter
formats every float with ``%.17g`` (lossless round-trip) while keeping key
order exactly as insertion order.  Identical inputs therefore serialize to
identical bytes, which the CLI's determinism contract relies on.
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


def dumps(obj: Any) -> str:
    """Serialize to JSON text with deterministic float formatting and a
    two-space indent."""

    def emit(o: Any, depth: int) -> str:
        pad = "  " * depth
        pad_in = "  " * (depth + 1)
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _fmt_float(float(o))
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            o = o.tolist()
        if isinstance(o, (list, tuple)):
            if len(o) == 0:
                return "[]"
            items = [emit(v, depth + 1) for v in o]
            if all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in o) and sum(map(len, items)) < 72:
                return "[" + ", ".join(items) + "]"
            return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
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
    """A JSON number read as a float; anything else (a string, ``true``) is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    return float(value)


def float_array(value: Any, what: str) -> np.ndarray:
    """Nested JSON lists of numbers as a float array; ragged or non-numeric lists are refused."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what} must be a rectangular array of numbers") from exc


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
    for idx in range(k):
        row = [f"{ts[idx]:.17g}"]
        row += [f"{v:.17g}" for v in qs[idx].reshape(-1)]
        row += [f"{v:.17g}" for v in ps[idx].reshape(-1)]
        row.append(f"{hams[idx]:.17g}")
        row += [f"{v:.17g}" for v in linear[idx]]
        row += [f"{v:.17g}" for v in angular[idx]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
