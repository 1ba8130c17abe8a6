"""Grouping of probe-request events into probing bursts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import Events, freeze_time_mac

DEFAULT_BURST_GAP = 4.0


@dataclass(frozen=True, eq=False)
class Bursts:
    """Bursts as read-only columns, sorted by (probing instant, MAC): ``instant`` is
    each burst's first frame time (float64), ``mac`` its 48-bit MAC (uint64)."""

    instant: np.ndarray
    mac: np.ndarray

    def __post_init__(self) -> None:
        freeze_time_mac(self, "instant", "burst")
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
    """``np.argsort(key, kind="stable")`` of a uint64 ``key``, and where each run of equal
    keys starts in it.

    One sort of the words ``high << bits | index`` gives both, with ``bits`` the width
    of the largest index.  ``high`` is the key itself where every key fits in the
    other ``64 - bits``: 48-bit MACs do up to 2**16 keys.  Otherwise numpy's unstable
    argsort ranks the keys first and ``high`` is each key's group.  From 2**32 keys on
    a word cannot hold the index: the stable argsort runs.
    """
    if key.size >= 2**32:
        order = np.argsort(key, kind="stable")
        return order, _run_starts(key[order])
    bits = np.uint64(max(1, (key.size - 1).bit_length()))
    if key.size and key.max() >> (np.uint64(64) - bits):
        order = np.argsort(key)
        words = np.cumsum(_run_starts(key[order]), dtype=np.uint64) << bits
        words |= order.view(np.uint64)
    else:
        words = key << bits
        words |= np.arange(key.size, dtype=np.uint64)
    words.sort()
    starts = _run_starts(words >> bits)
    words &= (np.uint64(1) << bits) - np.uint64(1)
    return words.view(np.intp), starts


def _run_starts(sorted_key: np.ndarray) -> np.ndarray:
    """True where a run of equal values of ``sorted_key`` starts."""
    starts = np.ones(sorted_key.size, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=starts[1:])
    return starts


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
