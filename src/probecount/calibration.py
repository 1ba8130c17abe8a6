"""Device-to-person calibration and people-count estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .counting import Window, WindowEstimate
from .ingest import finite, read_keys, read_rows

_RATIO_KEYS = dict.fromkeys(
    ("alpha", "nrmse_people_ref", "nrmse_device_cal", "source_window_span"), finite
)


@dataclass(frozen=True)
class CalibrationRatio:
    """Devices carried per person, with the error terms it inherits."""

    alpha: float
    nrmse_people_ref: float
    nrmse_device_cal: float
    source_window_span: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.nrmse_people_ref < 0 or self.nrmse_device_cal < 0:
            raise ValueError("NRMSE components must be non-negative")


@dataclass(frozen=True)
class PeopleEstimate:
    window: Window
    m_hat: float
    nrmse_estimate: float | None


def estimate_ratio(
    device_series: Sequence[WindowEstimate],
    people_series: Sequence[tuple[float, float]],
    *,
    nrmse_people_ref: float = 0.08,
) -> CalibrationRatio:
    """Device-to-person ratio from a calibration region.

    ``people_series`` holds (window start, reference people count) pairs on
    the same windows as ``device_series``.  The ratio is the ratio of sums,
    i.e. dwell-time weighted; the reference NRMSE is caller-supplied and the
    device-side NRMSE is the mean of the per-window estimates.
    """
    if len(device_series) != len(people_series) or not device_series:
        raise ValueError("device and people series must align on identical windows")
    for est, (start, _) in zip(device_series, people_series):
        if abs(est.window.start - start) > 1e-6:
            raise ValueError(
                f"misaligned windows: device window at {est.window.start}, people at {start}"
            )
    people_total = sum(v for _, v in people_series)
    if people_total <= 0:
        raise ValueError("people series sums to zero")
    device_total = sum(e.n_hat for e in device_series)
    if device_total <= 0:
        raise ValueError("device series sums to zero; cannot calibrate")
    per_window = [e.nrmse_estimate for e in device_series if e.nrmse_estimate is not None]
    nrmse_device_cal = sum(per_window) / len(per_window) if per_window else 0.0
    first, last = device_series[0].window, device_series[-1].window
    return CalibrationRatio(
        alpha=device_total / people_total,
        nrmse_people_ref=nrmse_people_ref,
        nrmse_device_cal=nrmse_device_cal,
        source_window_span=last.end - first.start,
    )


def people_count(estimate: WindowEstimate, ratio: CalibrationRatio) -> PeopleEstimate:
    """People count for one window: n_hat / alpha, with propagated NRMSE."""
    if estimate.burst_count == 0:
        return PeopleEstimate(estimate.window, 0.0, None)
    nrmse = math.sqrt(
        ratio.nrmse_people_ref**2
        + ratio.nrmse_device_cal**2
        + (estimate.nrmse_estimate or 0.0) ** 2
    )
    return PeopleEstimate(estimate.window, estimate.n_hat / ratio.alpha, nrmse)


def format_ratio(ratio: CalibrationRatio) -> str:
    return (
        f"alpha {ratio.alpha!r}\n"
        f"nrmse_people_ref {ratio.nrmse_people_ref!r}\n"
        f"nrmse_device_cal {ratio.nrmse_device_cal!r}\n"
        f"source_window_span {ratio.source_window_span!r}\n"
    )


def parse_ratio(text: str) -> CalibrationRatio:
    return CalibrationRatio(**read_keys(text, "ratio", _RATIO_KEYS))


def format_people_series(estimates: Sequence[PeopleEstimate]) -> str:
    lines = ["# start w m_hat nrmse\n"]
    for e in estimates:
        nrmse = "nan" if e.nrmse_estimate is None else f"{e.nrmse_estimate:.6f}"
        lines.append(f"{e.window.start:.6f} {e.window.size:.6f} {e.m_hat:.6f} {nrmse}\n")
    return "".join(lines)


def format_reference_series(series: Sequence[tuple[float, float]]) -> str:
    return "".join(f"{start:.6f} {value:.6f}\n" for start, value in series)


def parse_reference_series(text: str) -> list[tuple[float, float]]:
    """Parse `start value` reference lines (e.g. camera people counts)."""
    return read_rows(text, lambda start, value: (start, value), (finite, finite))
