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
    finite, format_rows, left_sum, non_negative, non_negative_or_nan, positive, read_keys,
    read_table, round6,
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
    """Devices carried per person, with the error terms it inherits; its fields are the
    ratio file's keys."""

    alpha: float
    nrmse_people_ref: float
    nrmse_device_cal: float
    source_window_span: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not self.nrmse_people_ref >= 0 or not self.nrmse_device_cal >= 0:
            raise ValueError("NRMSE components must be non-negative")
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if np.isinf(self._fixed_square()):
            raise ValueError("the root-sum-square of the NRMSE terms overflows")

    def _fixed_square(self) -> np.float64:
        """The squares every window's people NRMSE shares (libm's pow, as Python's **)."""
        with np.errstate(over="ignore"):
            return np.float64(self.nrmse_people_ref) ** 2 + np.float64(self.nrmse_device_cal) ** 2


def estimate_ratio(device_series: np.recarray, people_series: np.recarray, *,
                   nrmse_people_ref: float = PEOPLE_NRMSE) -> CalibrationRatio:
    """Device-to-person ratio from a calibration region.

    ``people_series`` holds the reference people counts (``REFERENCE_DTYPE``)
    on the same windows as ``device_series``.  The ratio is the ratio of sums,
    i.e. dwell-time weighted; the reference NRMSE is caller-supplied and the
    device-side NRMSE is the mean of the per-window estimates.
    """
    if len(device_series) != len(people_series) or not len(device_series):
        raise ValueError("device and people series must align on identical windows")
    start, people_start = device_series.start, people_series.start
    # one window to the microsecond, as the CLI joins series
    misaligned = np.flatnonzero(round6(start) != round6(people_start))
    if misaligned.size:
        i = misaligned[0]
        raise ValueError(f"misaligned windows: device window at {start[i].item()}, "
                         f"people at {people_start[i].item()}")
    if np.any(people_series.value < 0):
        raise ValueError("people counts must be non-negative")
    # left-to-right sums, on which the written ratio's last digits depend
    people_total = left_sum(people_series.value)
    if people_total <= 0:
        raise ValueError("people series sums to zero")
    device_total = left_sum(device_series.n_hat)
    if device_total <= 0:
        raise ValueError("device series sums to zero; cannot calibrate")
    alpha = device_total / people_total
    if not 0 < alpha < math.inf:
        raise ValueError(f"the ratio of the device total {device_total!r} to the people "
                         f"total {people_total!r} is not a positive finite number")
    per_window = device_series.nrmse[~np.isnan(device_series.nrmse)]
    return CalibrationRatio(
        alpha=alpha,
        nrmse_people_ref=nrmse_people_ref,
        nrmse_device_cal=left_sum(per_window) / per_window.size if per_window.size else 0.0,
        source_window_span=start[-1].item() + device_series.w[-1].item() - start[0].item(),
    )


def people_count(series: np.recarray, ratio: CalibrationRatio) -> np.recarray:
    """People counts of a device series: n_hat / alpha, with propagated NRMSE.

    An empty window (B = 0) has m_hat 0 and NaN NRMSE; elsewhere a window's
    NaN NRMSE counts as 0 in the root-sum-square.  A quotient or a root-sum-square
    that overflows is refused.
    """
    seen = series.burst_count > 0
    device = np.where(np.isnan(series.nrmse), 0.0, series.nrmse)
    with np.errstate(over="ignore"):
        m_hat = np.where(seen, series.n_hat / ratio.alpha, 0.0)
        # device * device can differ from Python's device**2 in the last bit, far below
        # the six decimals the people series is written with
        nrmse = np.where(seen, np.sqrt(ratio._fixed_square() + device * device), np.nan)
    if np.isinf(m_hat).any():
        raise ValueError(f"n_hat / alpha overflows: alpha {ratio.alpha!r} is too small")
    if np.isinf(nrmse).any():
        raise ValueError("the root-sum-square of the NRMSE terms overflows")
    return np.rec.fromarrays([series.start, series.w, m_hat, nrmse], dtype=PEOPLE_DTYPE)


def format_ratio(ratio: CalibrationRatio) -> str:
    return "".join(f"{key} {value!r}\n" for key, value in vars(ratio).items())


def parse_ratio(text: str) -> CalibrationRatio:
    keys = dict.fromkeys(CalibrationRatio.__dataclass_fields__, finite)
    return CalibrationRatio(**read_keys(text, "ratio", keys))


def format_people_series(series: np.recarray) -> str:
    return "# start w m_hat nrmse\n" + format_rows(
        "%.6f %.6f %.6f %.6f\n", [series[name] for name in PEOPLE_DTYPE.names]
    )


def format_reference_series(series: np.recarray) -> str:
    return format_rows("%.6f %.6f\n", [series.start, series.value])


def parse_reference_series(data: bytes | str) -> np.recarray:
    """Parse `start value` reference lines (e.g. camera people counts)."""
    return np.rec.fromarrays(read_table(data, REFERENCE_COLUMNS)[1], dtype=REFERENCE_DTYPE)
