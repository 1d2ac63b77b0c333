"""Argument-checking helpers shared across the library.

These helpers raise early, with messages that name the offending argument,
so that algorithm code can assume clean inputs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def as_float_array(values: Iterable[float], name: str) -> np.ndarray:
    """Convert ``values`` to a 1-D float64 array, validating finiteness."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, "
                         f"got shape {array.shape}")
    if array.size and not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite values")
    return array


def as_index_array(values: Iterable[int], name: str) -> np.ndarray:
    """Convert ``values`` to a 1-D int64 array of non-negative indices."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, "
                         f"got shape {array.shape}")
    if array.size == 0:
        return array.astype(np.int64)
    if not np.issubdtype(array.dtype, np.integer):
        rounded = np.rint(np.asarray(array, dtype=np.float64))
        if not np.allclose(array, rounded):
            raise ValueError(f"{name} must contain integers")
        array = rounded
    array = array.astype(np.int64)
    if array.min() < 0:
        raise ValueError(f"{name} must contain non-negative indices")
    return array


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed unit interval."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive."""
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_same_length(name_a: str, a: Sequence, name_b: str,
                      b: Sequence) -> None:
    """Validate that two sequences have equal length."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length "
            f"({len(a)} != {len(b)})"
        )
