"""Grouping of probe-request events into probing bursts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .ingest import MacAddress, PrfEvent

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


def aggregate(events: Iterable[PrfEvent], gap: float = DEFAULT_BURST_GAP) -> list[Burst]:
    """Group time-sorted events into bursts per MAC.

    Consecutive events of one MAC separated by at most ``gap`` seconds belong
    to the same burst; a larger gap starts a new one.  The probing instant is
    the first event's timestamp.  Raises on unsorted input rather than
    re-sorting, to surface upstream bugs.
    """
    if gap <= 0:
        raise ValueError("gap must be positive")
    # per-MAC accumulator: [start, last_timestamp, frame_count, ap_ids]
    open_bursts: dict[MacAddress, list] = {}
    out: list[Burst] = []
    prev_t = None
    for event in events:
        if prev_t is not None and event.timestamp < prev_t:
            raise ValueError(
                f"events not sorted by timestamp ({event.timestamp} after {prev_t})"
            )
        prev_t = event.timestamp
        cur = open_bursts.get(event.mac)
        if cur is not None and event.timestamp - cur[1] <= gap:
            cur[1] = event.timestamp
            cur[2] += 1
            cur[3].add(event.ap_id)
        else:
            if cur is not None:
                out.append(_close(event.mac, cur))
            open_bursts[event.mac] = [event.timestamp, event.timestamp, 1, {event.ap_id}]
    for mac, cur in open_bursts.items():
        out.append(_close(mac, cur))
    out.sort(key=lambda b: (b.probing_instant, b.mac))
    return out


def _close(mac: MacAddress, acc: list) -> Burst:
    return Burst(mac, acc[0], acc[1], acc[2], frozenset(acc[3]))
