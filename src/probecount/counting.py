"""Sliding-window device counting from burst rates, with its error bound."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bursts import Burst
from .ingest import MacAddress, PrfEvent, finite, read_rows
from .intervals import IntervalModel

DEFAULT_WINDOW_SIZE = 180.0
DEFAULT_STEP = 180.0


@dataclass(frozen=True)
class Window:
    start: float
    size: float

    def __post_init__(self) -> None:
        if not self.size > 0:
            raise ValueError("window size must be positive")

    @property
    def end(self) -> float:
        return self.start + self.size

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class WindowEstimate:
    """Per-window output of the counting model.

    ``n_hat`` is burst_count * tau_mean / size: the ratio of the window's
    aggregated probing rate to the mean per-device rate.  ``var_lower_bound``
    is burst_count * tau_std^2 / size^2, and ``nrmse_estimate`` is
    tau_std / (tau_mean * sqrt(burst_count)), or None for an empty window.
    """

    window: Window
    burst_count: int
    rate: float
    n_hat: float
    var_lower_bound: float
    nrmse_estimate: float | None

    def __post_init__(self) -> None:
        if self.burst_count < 0:
            raise ValueError("burst count cannot be negative")


def window_grid(start: float, end: float, size: float, step: float) -> list[Window]:
    """Windows of ``size`` at start, start+step, ... that end at or before ``end``."""
    if not size > 0 or not step > 0:
        raise ValueError("window size and step must be positive")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError("window grid start and end must be finite")
    windows = []
    i = 0
    while start + i * step + size <= end + 1e-9:
        windows.append(Window(start + i * step, size))
        i += 1
    return windows


def grid_start(first: float, step: float) -> float:
    """Default grid start: the multiple of ``step`` at or before ``first``.

    Anchoring every default grid on the k*step lattice lets series computed
    from different inputs (counts, baseline, ground truth) join by start.
    """
    if not step > 0:
        raise ValueError("window step must be positive")
    start = math.floor(first / step) * step
    # first/step can round up to the next integer when first lies just below
    # a lattice point; the grid must still start at or before first
    return start - step if start > first else start


def _series_grid(
    times: Iterable[float],
    what: str,
    size: float,
    step: float,
    start: float | None,
    end: float | None,
) -> tuple[list[Window], np.ndarray]:
    """The grid over sorted ``times`` and each window's [lo, hi) slice of them.

    ``start`` defaults to the lattice point at or before the first time and
    ``end`` to the last time plus ``size``, so the trailing window holding the
    last time is kept.  Without data, a grid needs both bounds.
    """
    if not size > 0 or not step > 0:
        raise ValueError("window size and step must be positive")
    times = np.array(list(times), dtype=float)
    if np.any(np.diff(times) < 0):
        raise ValueError(f"{what} not sorted")
    if times.size == 0 and (start is None or end is None):
        return [], np.empty((2, 0), dtype=int)
    if start is None:
        start = grid_start(float(times[0]), step)
    if end is None:
        end = float(times[-1]) + size
    windows = window_grid(start, end, size, step)
    starts = np.array([w.start for w in windows], dtype=float)
    return windows, np.searchsorted(times, [starts, starts + size], side="left")


def _check_model(model: IntervalModel) -> None:
    if model.sample_count == 0:
        raise ValueError("unfitted interval model")
    if not model.tau_mean > 0:
        raise ValueError("interval model has non-positive tau_mean")


def _estimate(window: Window, burst_count: int, model: IntervalModel) -> WindowEstimate:
    w = window.size
    rate = burst_count / w
    n_hat = burst_count * model.tau_mean / w
    var_lower_bound = burst_count * model.tau_std**2 / w**2
    if burst_count > 0:
        nrmse = model.tau_std / (model.tau_mean * math.sqrt(burst_count))
    else:
        nrmse = None
    return WindowEstimate(window, burst_count, rate, n_hat, var_lower_bound, nrmse)


def sliding_windows(
    bursts: Sequence[Burst],
    size: float = DEFAULT_WINDOW_SIZE,
    step: float = DEFAULT_STEP,
    model: IntervalModel | None = None,
    *,
    start: float | None = None,
    end: float | None = None,
) -> list[WindowEstimate]:
    """Estimates on the window grid over the bursts' probing instants.

    A burst counts in a window when its probing instant lies in
    [start, start+size).  ``start`` defaults to the multiple of ``step`` at or
    before the first instant, and ``end`` to the last instant plus ``size``.
    """
    if model is None:
        raise ValueError("an interval model is required")
    _check_model(model)
    instants = (b.probing_instant for b in bursts)
    windows, (lo, hi) = _series_grid(instants, "bursts", size, step, start, end)
    return [_estimate(w, int(h - l), model) for w, l, h in zip(windows, lo, hi)]


def mac_count_series(
    events: Sequence[PrfEvent],
    size: float = DEFAULT_WINDOW_SIZE,
    step: float = DEFAULT_STEP,
    *,
    start: float | None = None,
    end: float | None = None,
) -> list[tuple[Window, int]]:
    """Distinct MACs heard per window (randomization-blind), on the same grid."""
    timestamps = (e.timestamp for e in events)
    windows, (lo, hi) = _series_grid(timestamps, "events", size, step, start, end)
    ids: dict[MacAddress, int] = {}
    codes = [ids.setdefault(e.mac, len(ids)) for e in events]
    return [(w, len(set(codes[l:h]))) for w, l, h in zip(windows, lo, hi)]


def format_series(estimates: Iterable[WindowEstimate]) -> str:
    """One line per window: start size burst_count rate n_hat var_bound nrmse."""
    lines = ["# start w B R n_hat var_lower_bound nrmse\n"]
    for e in estimates:
        nrmse = "nan" if e.nrmse_estimate is None else f"{e.nrmse_estimate:.6f}"
        lines.append(
            f"{e.window.start:.6f} {e.window.size:.6f} {e.burst_count} "
            f"{e.rate:.6f} {e.n_hat:.6f} {e.var_lower_bound:.6f} {nrmse}\n"
        )
    return "".join(lines)


def _nrmse(text: str) -> float | None:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"infinite nrmse {text!r}")
    return None if math.isnan(value) else value


def _window_estimate(start, size, burst_count, rate, n_hat, var_lower_bound, nrmse):
    return WindowEstimate(Window(start, size), burst_count, rate, n_hat, var_lower_bound, nrmse)


def parse_series(text: str) -> list[WindowEstimate]:
    return read_rows(
        text, _window_estimate, (finite, finite, int, finite, finite, finite, _nrmse)
    )
