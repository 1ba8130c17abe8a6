"""Test-local event rows ``(t, mac)`` and the ``Events`` columns of them."""

from collections import namedtuple

from probecount.ingest import Events

# One probe request: time (s) and the MAC's integer.
Event = namedtuple("Event", "t mac")


def mac(text):
    """The integer of colon-hex MAC ``text``."""
    return int(text.replace(":", ""), 16)


def mac_text(value):
    """The lowercase colon-hex text of a MAC's integer."""
    return value.to_bytes(6, "big").hex(":")


def events_of(rows):
    """The columns of time-sorted ``Event`` rows."""
    rows = list(rows)
    return Events([e.t for e in rows], [e.mac for e in rows])


def event_rows(events):
    """The ``Event`` rows of ``Events`` columns."""
    return list(map(Event, events.t.tolist(), events.mac.tolist()))
