"""Sliding-window device counting from burst rates, with its error bound.

A window series is a numpy record array with one field per column of its
file: ``SERIES_DTYPE`` for the counting model, ``MAC_SERIES_DTYPE`` for the
unique-MAC baseline.
"""

from __future__ import annotations

import math

import numpy as np

from .bursts import Bursts, by_key
from .ingest import (
    Events, finite, format_rows, non_negative, non_negative_int, non_negative_or_nan, positive,
    read_table,
)
from .intervals import IntervalModel

DEFAULT_WINDOW_SIZE = 180.0
DEFAULT_STEP = 180.0
# The most windows one grid may hold.
MAX_WINDOWS = 1_000_000

# One window of the counting model: its start and size w, the bursts B whose
# probing instant lies in [start, start+w), the rate B/w, n_hat = B*tau_mean/w,
# the variance lower bound B*tau_std^2/w^2, and the predicted NRMSE
# tau_std/(tau_mean*sqrt(B)), NaN for an empty window.
SERIES_DTYPE = np.dtype([
    ("start", np.float64), ("w", np.float64), ("burst_count", np.int64), ("rate", np.float64),
    ("n_hat", np.float64), ("var_lower_bound", np.float64), ("nrmse", np.float64),
])
# One window of the baseline: its start and the distinct MACs heard in it.
MAC_SERIES_DTYPE = np.dtype([("start", np.float64), ("macs", np.int64)])
# The converter of each column of the count series file and of the baseline's
# file (start w unique_macs).
SERIES_COLUMNS = (finite, positive, non_negative_int, non_negative, non_negative, non_negative,
                  non_negative_or_nan)
MAC_SERIES_COLUMNS = (finite, positive, non_negative_int)


def window_grid(start: float, end: float, size: float, step: float) -> np.ndarray:
    """Starts ``start + i*step`` of the windows of ``size`` that end by ``end`` (within 1e-9).

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


def series_grid(size: float, step: float, first: float | None, last: float | None,
                start: float | None = None, end: float | None = None) -> np.ndarray:
    """The starts of every series' window grid over data from ``first`` to ``last`` (None
    without data): ``start`` defaults to the multiple of ``step`` at or before ``first`` and
    ``end`` to ``last``; a default edge without data and a grid with no window are refused."""
    if (start is None or end is None) and (first is None or last is None):
        raise ValueError("no observations to place the window grid on: pin --start and --end")
    start = grid_start(first, step) if start is None else start
    _check_start(start)
    starts = window_grid(start, last if end is None else end, size, step)
    if not starts.size:
        raise ValueError("no complete window fits before --end")
    _check_start(float(starts[-1]))
    return starts


def _check_start(start: float) -> None:
    """Refuse a start where float seconds no longer keep microseconds apart."""
    if abs(start) >= 2**33:
        raise ValueError(f"window start {start!r} lies 2**33 s or more from 0, where float "
                         "seconds no longer keep microseconds apart")


def _series_grid(
    times: np.ndarray,
    size: float,
    step: float,
    start: float | None,
    end: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid's starts over sorted ``times``, which reach to the last time plus ``size``
    (so the trailing window holding it is kept), and each window's [lo, hi) slice of them."""
    first, last = (float(times[0]), float(times[-1]) + size) if times.size else (None, None)
    starts = series_grid(size, step, first, last, start, end)
    lo, hi = np.searchsorted(times, [starts, starts + size], side="left")
    return starts, lo, hi


def sliding_windows(
    bursts: Bursts,
    size: float,
    step: float,
    model: IntervalModel,
    *,
    start: float | None = None,
    end: float | None = None,
) -> np.recarray:
    """The count series (``SERIES_DTYPE``) on the window grid over the bursts' instants.

    A burst counts in a window when its probing instant lies in
    [start, start+size).  ``start`` defaults to the multiple of ``step`` at or
    before the first instant, and ``end`` to the last instant plus ``size``.
    A value that overflows a float is inf, without a warning.
    """
    starts, lo, hi = _series_grid(bursts.instant, size, step, start, end)
    b = hi - lo
    # the square stays a Python float: numpy's x*x and Python's x**2 can differ
    # in the last bit, and the written series must not change; from 2**512 on it overflows
    square = model.tau_std**2 if model.tau_std < 2**512 else math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.rec.fromarrays(
            [starts, np.full(b.size, size), b, b / size, b * model.tau_mean / size,
             b * square / size**2,
             np.where(b > 0, model.tau_std / (model.tau_mean * np.sqrt(b)), np.nan)],
            dtype=SERIES_DTYPE,
        )


def mac_count_series(
    events: Events,
    size: float,
    step: float,
    *,
    start: float | None = None,
    end: float | None = None,
) -> np.recarray:
    """Distinct MACs heard per window (randomization-blind), on the same grid,
    as ``MAC_SERIES_DTYPE`` records."""
    starts, lo, hi = _series_grid(events.t, size, step, start, end)
    return np.rec.fromarrays([starts, _distinct_counts(events.mac, lo, hi)],
                             dtype=MAC_SERIES_DTYPE)


def _distinct_counts(mac: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Distinct values of ``mac[lo[w]:hi[w]]`` for each w, with lo and hi non-decreasing.

    Event i is its MAC's first in window w when prev[i] < lo[w] <= i < hi[w],
    prev[i] being the MAC's previous event; those windows form one run of w.
    """
    index = np.arange(mac.size)
    by_mac, starts = by_key(mac)
    repeat = ~starts[1:]
    prev = np.full(mac.size, -1)
    prev[by_mac[1:][repeat]] = by_mac[:-1][repeat]
    begin = np.maximum(np.searchsorted(lo, prev, side="right"),
                       np.searchsorted(hi, index, side="right"))
    stop = np.searchsorted(lo, index, side="right")
    run = begin < stop
    edges = np.bincount(begin[run], minlength=lo.size + 1)
    edges -= np.bincount(stop[run], minlength=lo.size + 1)
    return np.cumsum(edges)[: lo.size]


def format_series(series: np.recarray) -> str:
    """One line per window: start w B rate n_hat var_lower_bound nrmse."""
    return "# start w B R n_hat var_lower_bound nrmse\n" + format_rows(
        "%.6f %.6f %d %.6f %.6f %.6f %.6f\n", [series[name] for name in SERIES_DTYPE.names]
    )


def format_mac_series(series: np.recarray, w: float) -> str:
    """One line per window of the baseline: start w unique_macs."""
    return "# start w unique_macs\n" + format_rows(
        f"%.6f {w:.6f} %d\n", [series.start, series.macs]
    )


def parse_series(data: bytes | str) -> np.recarray:
    """The count series of ``format_series`` text, as ``SERIES_DTYPE`` records."""
    return np.rec.fromarrays(read_table(data, SERIES_COLUMNS)[1], dtype=SERIES_DTYPE)
