"""Grouping of probe-request events into probing bursts."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .ingest import Events, MacAddress, PrfEvent

DEFAULT_BURST_GAP = 4.0


@dataclass(frozen=True)
class Burst:
    """A probing burst: consecutive frames from one MAC within the gap."""

    mac: MacAddress
    probing_instant: float
    end_time: float
    frame_count: int
    ap_ids: frozenset[str]

    def __post_init__(self) -> None:
        if self.end_time < self.probing_instant:
            raise ValueError("burst ends before it starts")
        if self.frame_count < 1:
            raise ValueError("burst must contain at least one frame")


@dataclass(frozen=True, eq=False)
class Bursts(Sequence):
    """Bursts as columns, sorted by (probing instant, MAC).

    ``instant``, ``end`` and ``frame_count`` are each burst's first and last
    frame time and its number of frames, ``mac`` its MAC (uint64).  Indexing
    and iteration yield ``Burst`` views, whose ``ap_ids`` are read from the
    events only then: burst ``i`` holds the events
    ``order[first[i]:first[i] + frame_count[i]]``.
    """

    instant: np.ndarray
    end: np.ndarray
    mac: np.ndarray
    frame_count: np.ndarray
    events: Events = field(repr=False)
    first: np.ndarray = field(repr=False)
    order: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.instant)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        first, count = int(self.first[i]), int(self.frame_count[i])
        members = self.order[first : first + count]
        aps = self.events.aps
        return Burst(
            MacAddress(int(self.mac[i])),
            float(self.instant[i]),
            float(self.end[i]),
            count,
            frozenset(aps[a] for a in np.unique(self.events.ap[members]).tolist()),
        )

    def __iter__(self) -> Iterator[Burst]:
        return (self[i] for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


def instants_and_macs(bursts: Sequence[Burst]) -> tuple[np.ndarray, np.ndarray]:
    """The probing instants (float64) and MACs (uint64) of bursts, in their order."""
    if isinstance(bursts, Bursts):
        return bursts.instant, bursts.mac
    return (
        np.array([b.probing_instant for b in bursts], dtype=np.float64),
        np.array([b.mac.value for b in bursts], dtype=np.uint64),
    )


def aggregate(events: Iterable[PrfEvent], gap: float = DEFAULT_BURST_GAP) -> Bursts:
    """Group time-sorted events into bursts per MAC.

    Consecutive events of one MAC separated by at most ``gap`` seconds belong
    to the same burst; a larger gap starts a new one.  The probing instant is
    the first event's timestamp.  Raises on unsorted input rather than
    re-sorting, to surface upstream bugs.
    """
    if gap <= 0:
        raise ValueError("gap must be positive")
    events = Events.of(events)
    order = np.lexsort((events.t, events.mac))
    t, mac = events.t[order], events.mac[order]
    starts = np.ones(t.shape, dtype=bool)
    starts[1:] = (mac[1:] != mac[:-1]) | ~(np.diff(t) <= gap)
    first = np.flatnonzero(starts)
    count = np.diff(first, append=t.size)
    by_instant = np.lexsort((mac[first], t[first]))
    first, count = first[by_instant], count[by_instant]
    return Bursts(t[first], t[first + count - 1], mac[first], count, events, first, order)
