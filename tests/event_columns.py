"""``Events`` columns built from ``PrfEvent`` views, for tests."""

from probecount.ingest import RSSI_NONE, Events, MacAddress


def mac(text):
    """The MAC address of colon-hex ``text``."""
    return MacAddress(int(text.replace(":", ""), 16))


def events_of(events):
    """The columns of time-sorted ``PrfEvent``s, ap names numbered in order of appearance."""
    events = list(events)
    aps = {}
    return Events(
        [e.timestamp for e in events],
        [e.mac.value for e in events],
        [aps.setdefault(e.ap_id, len(aps)) for e in events],
        [RSSI_NONE if e.rssi is None else e.rssi for e in events],
        tuple(aps),
    )
