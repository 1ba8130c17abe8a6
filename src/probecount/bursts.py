"""Grouping of probe-request events into probing bursts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import Events

DEFAULT_BURST_GAP = 4.0


@dataclass(frozen=True, eq=False)
class Bursts:
    """Bursts as columns, sorted by (probing instant, MAC): ``instant`` is each
    burst's first frame time, ``mac`` its MAC (uint64)."""

    instant: np.ndarray
    mac: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.instant[1:] < self.instant[:-1]):
            raise ValueError("bursts not sorted by probing instant")

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
    order, starts = by_key(events.mac)  # the events are in time order
    t, mac = events.t[order], events.mac[order]
    starts[1:] |= ~(np.diff(t) <= gap)
    first = np.flatnonzero(starts)
    burst = np.full(t.size, -1)
    burst[order[first]] = np.arange(first.size)  # each at its first event's place in time
    first = first[by_time(t[first], mac[first], burst[burst >= 0])]
    return Bursts(t[first], mac[first])


def by_key(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(key, kind="stable")``, and where each run of equal keys starts in it.

    numpy's unstable argsort (a SIMD quicksort where the CPU has one) groups the keys;
    one sort of the words ``group << 32 | index`` then puts each group's indices in
    order.  From 2**32 keys on a word cannot hold the index: the stable argsort runs.
    """
    order = np.argsort(key)
    sorted_key = key[order]
    starts = np.ones(key.size, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=starts[1:])
    if key.size >= 2**32:
        return np.argsort(key, kind="stable"), starts
    words = np.cumsum(starts, dtype=np.uint64) << np.uint64(32)
    words |= order.view(np.uint64)
    words.sort()
    words &= np.uint64(2**32 - 1)
    return words.view(np.intp), starts


def by_time(t: np.ndarray, mac: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``np.lexsort((mac, t))`` from an ``order`` that sorts ``t``: only the rows in
    runs of equal times are sorted again, by (MAC, index)."""
    sorted_t = t[order]
    same = sorted_t[1:] == sorted_t[:-1]
    tied = np.zeros(t.size, dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    rows = order[tied]
    order = order.copy()
    order[tied] = rows[np.lexsort((rows, mac[rows], sorted_t[tied]))]
    return order
