"""Plain-Python reference implementations of the columnar core.

Each works one object at a time: a per-record capture decoder, a per-event
burst grouper, a per-burst interval extractor and the window-grid loop.  The
differential tests compare the package's numpy code against them.
"""

import struct

from probecount.bursts import Burst
from probecount.counting import Window
from probecount.ingest import MacAddress, ParseError, PrfEvent

_FORMATS = {
    0xA1B2C3D4: ("<", "microsecond", 10**6),
    0xD4C3B2A1: (">", "microsecond", 10**6),
    0xA1B23C4D: ("<", "nanosecond", 10**9),
    0x4D3CB2A1: (">", "nanosecond", 10**9),
}
_RADIOTAP_LAYOUT = {0: (8, 8), 1: (1, 1), 2: (1, 1), 3: (2, 4), 4: (1, 2)}


def parse_capture(data, ap_id="cap0"):
    """Probe-request events of a classic capture, decoded record by record."""
    if len(data) < 24:
        raise ParseError("malformed capture header: shorter than 24 bytes")
    magic = struct.unpack_from("<I", data, 0)[0]
    if magic not in _FORMATS:
        raise ParseError(f"malformed capture header: unrecognized magic 0x{magic:08x}")
    bo, unit, per_second = _FORMATS[magic]
    linktype = struct.unpack_from(bo + "I", data, 20)[0]
    if linktype not in (105, 127):
        raise ParseError(f"unsupported link type {linktype}")

    record = struct.Struct(bo + "IIII")
    events = []
    offset = 24
    while offset < len(data):
        if offset + 16 > len(data):
            raise ParseError(f"truncated packet record header at byte offset {offset}")
        ts_sec, fraction, incl_len, _orig_len = record.unpack_from(data, offset)
        if fraction >= per_second:
            raise ParseError(f"{unit} field {fraction} out of range at byte offset {offset}")
        if offset + 16 + incl_len > len(data):
            raise ParseError(f"truncated packet record at byte offset {offset}")
        frame = data[offset + 16 : offset + 16 + incl_len]
        offset += 16 + incl_len
        parsed = _probe_request(frame, linktype)
        if parsed is None:
            continue
        mac, rssi = parsed
        if per_second == 10**6:
            timestamp = round(ts_sec + fraction / 1e6, 6)
        else:
            timestamp = (ts_sec * 10**6 + round(fraction / 1000)) / 10**6
        events.append(PrfEvent(timestamp, mac, ap_id, rssi))
    events.sort(key=lambda e: e.timestamp)
    return events


def _probe_request(frame, linktype):
    rssi = None
    if linktype == 127:
        if len(frame) < 8:
            return None
        rt_len = struct.unpack_from("<H", frame, 2)[0]
        if rt_len < 8 or rt_len > len(frame):
            return None
        rssi = _radiotap_antsignal(frame[:rt_len])
        frame = frame[rt_len:]
    if len(frame) < 16:
        return None
    if frame[0] != 0x40:
        return None
    return MacAddress(int.from_bytes(frame[10:16], "big")), rssi


def _radiotap_antsignal(header):
    words = []
    offset = 4
    while True:
        if offset + 4 > len(header):
            return None
        word = struct.unpack_from("<I", header, offset)[0]
        words.append(word)
        offset += 4
        if not word & 1 << 31:
            break
    present = words[0]
    for bit in range(6):
        if not present & (1 << bit):
            continue
        if bit == 5:
            if offset >= len(header):
                return None
            return struct.unpack_from("<b", header, offset)[0]
        align, size = _RADIOTAP_LAYOUT[bit]
        offset = (offset + align - 1) // align * align + size
    return None


def aggregate(events, gap):
    """Bursts of time-sorted events, grouped event by event."""
    open_bursts = {}  # mac -> [start, last_timestamp, frame_count, ap_ids]
    out = []
    for event in events:
        cur = open_bursts.get(event.mac)
        if cur is not None and event.timestamp - cur[1] <= gap:
            cur[1] = event.timestamp
            cur[2] += 1
            cur[3].add(event.ap_id)
        else:
            if cur is not None:
                out.append(Burst(event.mac, cur[0], cur[1], cur[2], frozenset(cur[3])))
            open_bursts[event.mac] = [event.timestamp, event.timestamp, 1, {event.ap_id}]
    for mac, cur in open_bursts.items():
        out.append(Burst(mac, cur[0], cur[1], cur[2], frozenset(cur[3])))
    out.sort(key=lambda b: (b.probing_instant, b.mac))
    return out


def extract_intervals(bursts, cutoff):
    """Kept intervals between each MAC's consecutive bursts, burst by burst."""
    last_seen = {}
    taus = []
    for burst in bursts:
        instant = burst.probing_instant
        last = last_seen.get(burst.mac)
        if last is not None and 0 < instant - last <= cutoff:
            taus.append(instant - last)
        last_seen[burst.mac] = instant
    return taus


def window_grid(start, end, size, step):
    """Windows of ``size`` at start + i*step that end by ``end``, one at a time."""
    windows = []
    i = 0
    while start + i * step + size <= end + 1e-9:
        windows.append(Window(start + i * step, size))
        i += 1
    return windows
