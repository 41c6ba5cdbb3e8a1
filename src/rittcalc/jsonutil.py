"""JSON-friendly conversion helpers shared by reports and the CLI."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sanitize", "matrix_to_json", "matrix_from_json"]


def sanitize(obj):
    """Recursively convert numpy scalars/arrays and infinities for JSON.

    Non-finite floats render as the strings "inf", "-inf" and "nan";
    complex scalars as [re, im] pairs; arrays as nested lists.
    """
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else str(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def matrix_to_json(M: np.ndarray) -> dict:
    """{rows, cols, entries: [[re, im], ...]} in row-major order."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in M.reshape(-1)],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    entries = obj["entries"]
    if len(entries) != rows * cols:
        raise ValueError(f"entries length {len(entries)} != rows*cols {rows * cols}")
    flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    return flat.reshape(rows, cols)
