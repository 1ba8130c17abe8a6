"""Grouping of probe-request events into probing bursts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import Events

DEFAULT_BURST_GAP = 4.0


@dataclass(frozen=True, eq=False)
class Bursts:
    """Bursts as columns, sorted by (probing instant, MAC).

    ``instant``, ``end`` and ``frame_count`` are each burst's first and last
    frame time and its number of frames, ``mac`` its MAC (uint64).
    """

    instant: np.ndarray
    end: np.ndarray
    mac: np.ndarray
    frame_count: np.ndarray

    def __len__(self) -> int:
        return len(self.instant)


def aggregate(events: Events, gap: float = DEFAULT_BURST_GAP) -> Bursts:
    """Group events into bursts per MAC.

    Consecutive events of one MAC separated by at most ``gap`` seconds belong
    to the same burst; a larger gap starts a new one.  The probing instant is
    the first event's timestamp.
    """
    if not gap > 0:
        raise ValueError("gap must be positive")
    order = np.lexsort((events.t, events.mac))
    t, mac = events.t[order], events.mac[order]
    starts = np.ones(t.shape, dtype=bool)
    starts[1:] = (mac[1:] != mac[:-1]) | ~(np.diff(t) <= gap)
    first = np.flatnonzero(starts)
    count = np.diff(first, append=t.size)
    by_instant = np.lexsort((mac[first], t[first]))
    first, count = first[by_instant], count[by_instant]
    return Bursts(t[first], t[first + count - 1], mac[first], count)
