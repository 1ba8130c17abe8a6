"""Device-to-person calibration and people-count estimation.

Series are numpy record arrays: a reference series has fields ``start`` and
``value`` (``REFERENCE_DTYPE``), a people series ``PEOPLE_DTYPE``.  A device
series is the counting model's, read here by its ``start``, ``w``,
``burst_count``, ``n_hat`` and ``nrmse`` fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import (
    ParseError, finite, format_rows, non_negative, non_negative_or_nan, positive, read_keys,
    read_records,
)

_RATIO_KEYS = dict.fromkeys(
    ("alpha", "nrmse_people_ref", "nrmse_device_cal", "source_window_span"), finite
)

REFERENCE_DTYPE = np.dtype([("start", np.float64), ("value", np.float64)])
# The NRMSE of a reference people counter whose own is not given.
PEOPLE_NRMSE = 0.08
# m_hat = n_hat / alpha, and the propagated NRMSE (NaN for an empty window).
PEOPLE_DTYPE = np.dtype([
    ("start", np.float64), ("w", np.float64), ("m_hat", np.float64), ("nrmse", np.float64),
])
# The converter of each column of the two series files.
REFERENCE_COLUMNS = (finite, finite)
PEOPLE_COLUMNS = (finite, positive, non_negative, non_negative_or_nan)


@dataclass(frozen=True)
class CalibrationRatio:
    """Devices carried per person, with the error terms it inherits."""

    alpha: float
    nrmse_people_ref: float
    nrmse_device_cal: float
    source_window_span: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not self.nrmse_people_ref >= 0 or not self.nrmse_device_cal >= 0:
            raise ValueError("NRMSE components must be non-negative")


def estimate_ratio(
    device_series: np.recarray,
    people_series: np.recarray,
    *,
    nrmse_people_ref: float = PEOPLE_NRMSE,
) -> CalibrationRatio:
    """Device-to-person ratio from a calibration region.

    ``people_series`` holds the reference people counts (``REFERENCE_DTYPE``)
    on the same windows as ``device_series``.  The ratio is the ratio of sums,
    i.e. dwell-time weighted; the reference NRMSE is caller-supplied and the
    device-side NRMSE is the mean of the per-window estimates.  Series that
    give no ratio raise ParseError.
    """
    if len(device_series) != len(people_series) or not len(device_series):
        raise ValueError("device and people series must align on identical windows")
    start, people_start = device_series.start, people_series.start
    with np.errstate(invalid="ignore"):
        misaligned = np.flatnonzero(np.abs(start - people_start) > 1e-6)
    if misaligned.size:
        i = misaligned[0]
        raise ValueError(f"misaligned windows: device window at {start[i].item()}, "
                         f"people at {people_start[i].item()}")
    if np.any(people_series.value < 0):
        raise ParseError("people counts must be non-negative")
    # Python's left-to-right sums, on which the written ratio's last digits depend
    people_total = sum(people_series.value.tolist())
    if people_total <= 0:
        raise ParseError("people series sums to zero")
    device_total = sum(device_series.n_hat.tolist())
    if device_total <= 0:
        raise ParseError("device series sums to zero; cannot calibrate")
    alpha = device_total / people_total
    if not 0 < alpha < math.inf:
        raise ParseError(
            f"the ratio of the device total {device_total!r} to the people total "
            f"{people_total!r} is not a positive finite number"
        )
    nrmse = device_series.nrmse
    per_window = nrmse[~np.isnan(nrmse)].tolist()
    nrmse_device_cal = sum(per_window) / len(per_window) if per_window else 0.0
    return CalibrationRatio(
        alpha=alpha,
        nrmse_people_ref=nrmse_people_ref,
        nrmse_device_cal=nrmse_device_cal,
        source_window_span=float(start[-1] + device_series.w[-1] - start[0]),
    )


def people_count(series: np.recarray, ratio: CalibrationRatio) -> np.recarray:
    """People counts of a device series: n_hat / alpha, with propagated NRMSE.

    An empty window (B = 0) has m_hat 0 and NaN NRMSE; elsewhere a window's
    NaN NRMSE counts as 0 in the root-sum-square.
    """
    seen = series.burst_count > 0
    with np.errstate(over="ignore"):
        m_hat = np.where(seen, series.n_hat / ratio.alpha, 0.0)
    if np.isinf(m_hat).any():
        raise ValueError(f"n_hat / alpha overflows: alpha {ratio.alpha!r} is too small")
    device = np.where(np.isnan(series.nrmse), 0.0, series.nrmse)
    fixed = ratio.nrmse_people_ref**2 + ratio.nrmse_device_cal**2
    # device * device can differ from Python's device**2 in the last bit, far
    # below the six decimals the people series is written with
    return np.rec.fromarrays(
        [series.start, series.w, m_hat,
         np.where(seen, np.sqrt(fixed + device * device), np.nan)],
        dtype=PEOPLE_DTYPE,
    )


def format_ratio(ratio: CalibrationRatio) -> str:
    return (
        f"alpha {ratio.alpha!r}\n"
        f"nrmse_people_ref {ratio.nrmse_people_ref!r}\n"
        f"nrmse_device_cal {ratio.nrmse_device_cal!r}\n"
        f"source_window_span {ratio.source_window_span!r}\n"
    )


def parse_ratio(text: str) -> CalibrationRatio:
    return CalibrationRatio(**read_keys(text, "ratio", _RATIO_KEYS))


def format_people_series(series: np.recarray) -> str:
    return "# start w m_hat nrmse\n" + format_rows(
        "%.6f %.6f %.6f %.6f\n", [series[name] for name in PEOPLE_DTYPE.names]
    )


def format_reference_series(series: np.recarray) -> str:
    return format_rows("%.6f %.6f\n", [series.start, series.value])


def parse_reference_series(data: bytes | str) -> np.recarray:
    """Parse `start value` reference lines (e.g. camera people counts)."""
    return read_records(data, REFERENCE_DTYPE, REFERENCE_COLUMNS)
