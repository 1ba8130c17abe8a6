"""Sliding-window device counting from burst rates, with its error bound."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bursts import Burst, instants_and_macs
from .ingest import Events, PrfEvent, finite, read_rows
from .intervals import IntervalModel

DEFAULT_WINDOW_SIZE = 180.0
DEFAULT_STEP = 180.0
# The most windows one grid may hold.
MAX_WINDOWS = 1_000_000


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
    return [Window(s, size) for s in _grid_starts(start, end, size, step).tolist()]


def _grid_starts(start: float, end: float, size: float, step: float) -> np.ndarray:
    """Starts ``start + i*step`` of the windows that end by ``end`` (within 1e-9).

    The count is computed, then settled on the rule itself, so the grid is the
    one a loop over i would build; more than ``MAX_WINDOWS`` is an error.
    """
    if not size > 0 or not step > 0:
        raise ValueError("window size and step must be positive")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError("window grid start and end must be finite")

    def fits(i: int) -> bool:
        return start + i * step + size <= end + 1e-9

    estimate = (end + 1e-9 - size - start) / step
    n = math.floor(min(estimate, MAX_WINDOWS)) + 1 if estimate >= 0 else 0
    while n > 0 and not fits(n - 1):
        n -= 1
    while n <= MAX_WINDOWS and fits(n):
        n += 1
    if n > MAX_WINDOWS:
        exact = MAX_WINDOWS <= estimate < 2**53
        count = math.floor(estimate) + 1 if exact else f"more than {MAX_WINDOWS}"
        raise ValueError(f"window grid of {count} windows exceeds the limit of {MAX_WINDOWS}")
    return start + np.arange(n) * step


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
    times: np.ndarray,
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
    if np.any(times[1:] < times[:-1]):
        raise ValueError(f"{what} not sorted")
    if times.size == 0 and (start is None or end is None):
        return [], np.empty((2, 0), dtype=int)
    if start is None:
        start = grid_start(float(times[0]), step)
    if end is None:
        end = float(times[-1]) + size
    starts = _grid_starts(start, end, size, step)
    windows = [Window(s, size) for s in starts.tolist()]
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
    instants, _ = instants_and_macs(bursts)
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
    events = Events.of(events)
    windows, (lo, hi) = _series_grid(events.t, "events", size, step, start, end)
    return list(zip(windows, _distinct_counts(events.mac, lo, hi).tolist()))


def _distinct_counts(mac: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Distinct values of ``mac[lo[w]:hi[w]]`` for each w, with lo and hi non-decreasing.

    Event i is its MAC's first in window w when prev[i] < lo[w] <= i < hi[w],
    prev[i] being the MAC's previous event; those windows form one run of w.
    """
    index = np.arange(mac.size)
    by_mac = np.argsort(mac, kind="stable")
    repeat = mac[by_mac[1:]] == mac[by_mac[:-1]]
    prev = np.full(mac.size, -1)
    prev[by_mac[1:][repeat]] = by_mac[:-1][repeat]
    begin = np.maximum(np.searchsorted(lo, prev, side="right"),
                       np.searchsorted(hi, index, side="right"))
    stop = np.searchsorted(lo, index, side="right")
    run = begin < stop
    edges = np.bincount(begin[run], minlength=lo.size + 1)
    edges -= np.bincount(stop[run], minlength=lo.size + 1)
    return np.cumsum(edges)[: lo.size]


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
