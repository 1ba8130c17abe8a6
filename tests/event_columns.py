"""Test-local event rows ``(t, mac, ap, rssi)`` and the ``Events`` columns of them."""

from collections import namedtuple

from probecount.ingest import RSSI_NONE, Events

# One probe request: time (s), the MAC's integer, the ap name and the rssi (None for none).
Event = namedtuple("Event", "t mac ap rssi", defaults=(None,))


def mac(text):
    """The integer of colon-hex MAC ``text``."""
    return int(text.replace(":", ""), 16)


def mac_text(value):
    """The lowercase colon-hex text of a MAC's integer."""
    return value.to_bytes(6, "big").hex(":")


def events_of(rows):
    """The columns of time-sorted ``Event`` rows, ap names numbered in order of appearance."""
    rows = list(rows)
    aps = {}
    return Events(
        [e.t for e in rows],
        [e.mac for e in rows],
        [aps.setdefault(e.ap, len(aps)) for e in rows],
        [RSSI_NONE if e.rssi is None else e.rssi for e in rows],
        tuple(aps),
    )


def event_rows(events):
    """The ``Event`` rows of ``Events`` columns: each ap index looked up in ``aps``."""
    return [Event(t, m, events.aps[a], None if r == RSSI_NONE else r)
            for t, m, a, r in zip(events.t.tolist(), events.mac.tolist(), events.ap.tolist(),
                                  events.rssi.tolist())]
