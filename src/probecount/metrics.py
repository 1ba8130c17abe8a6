"""Error metrics of an estimate column against a reference column, each taking the
two joined series as float columns (or sequences) and adding with ``left_sum``."""

from __future__ import annotations

import math

import numpy as np

from .ingest import left_sum


def _columns(estimates: np.ndarray, references: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two series as float64 columns, checked for every metric."""
    y, r = np.asarray(estimates, dtype=np.float64), np.asarray(references, dtype=np.float64)
    if y.shape != r.shape or not r.size:
        raise ValueError("series must be non-empty and of equal length")
    for name, column in (("references", r), ("estimates", y)):
        if not np.isfinite(column).all():
            raise ValueError(f"{name} must be finite")
    if (r < 0).any():
        raise ValueError("references are counts and must be non-negative")
    return y, r


def _bounded(value: float, what: str) -> float:
    """``value``, refused if it overflowed to inf (the columns are finite)."""
    if math.isinf(value):
        raise ValueError(f"{what} overflows")
    return value


def rmse(estimates: np.ndarray, references: np.ndarray) -> float:
    y, r = _columns(estimates, references)
    with np.errstate(over="ignore"):
        return math.sqrt(_bounded(left_sum((y - r) ** 2), "the sum of squared errors") / r.size)


def mape(estimates: np.ndarray, references: np.ndarray) -> float:
    """Mean absolute percentage error; zero-reference windows are filtered."""
    y, r = _columns(estimates, references)
    nonzero = r != 0.0
    if not nonzero.any():
        raise ValueError("all reference values are zero")
    with np.errstate(over="ignore"):
        terms = np.abs(y[nonzero] - r[nonzero]) / r[nonzero]
    return _bounded(left_sum(terms), "the sum of percentage errors") / terms.size


def nrmse(estimates: np.ndarray, references: np.ndarray) -> float:
    total = _bounded(left_sum(_columns(estimates, references)[1]), "the sum of references")
    mean_ref = total / len(references)
    if mean_ref <= 0:
        raise ValueError("reference mean must be positive")
    return _bounded(rmse(estimates, references) / mean_ref, "nrmse")
