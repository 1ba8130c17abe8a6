"""Probe-request event ingestion from 802.11 capture files and text logs.

Also holds the two readers behind every line-oriented text file: ``read_rows``
for column files and ``read_keys`` for ``key value`` files.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

_Row = TypeVar("_Row")

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
LINKTYPE_IEEE802_11 = 105
LINKTYPE_RADIOTAP = 127

# A capture stores seconds in 32 bits; no event can be later than that.
MAX_TIMESTAMP = float(2**32)

# Frame-control low byte for a probe request: protocol version 0,
# type 0 (management), subtype 4.
_PROBE_REQUEST_FC = 0x40

# Radiotap fields that can precede the antenna-signal field, in present-bit
# order: bit -> (alignment, size).  Alignment is relative to the start of the
# radiotap header.
_RADIOTAP_LAYOUT = {
    0: (8, 8),  # TSFT
    1: (1, 1),  # flags
    2: (1, 1),  # rate
    3: (2, 4),  # channel
    4: (1, 2),  # FHSS
}
_RADIOTAP_ANTSIGNAL_BIT = 5
_RADIOTAP_EXT_BIT = 1 << 31


class ParseError(ValueError):
    """Raised when a capture file or a text input cannot be decoded."""


def finite(text: str) -> float:
    """A float field that must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _data_lines(text: str) -> Iterable[tuple[int, str]]:
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def read_rows(
    text: str, build: Callable[..., _Row], *layouts: Sequence[Callable[[str], Any]]
) -> list[_Row]:
    """Rows of a whitespace-separated column file, skipping blank and ``#`` lines.

    Each layout is one converter per column; a row's field count picks its
    layout, and ``build`` receives the converted fields.  Every error names
    the line.
    """
    by_count = {len(layout): layout for layout in layouts}
    rows = []
    for lineno, line in _data_lines(text):
        fields = line.split()
        layout = by_count.get(len(fields))
        if layout is None:
            expected = " or ".join(str(n) for n in sorted(by_count))
            raise ParseError(f"line {lineno}: expected {expected} fields, got {len(fields)}")
        try:
            rows.append(build(*[convert(f) for convert, f in zip(layout, fields)]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return rows


def read_keys(
    text: str, what: str, keys: Mapping[str, Callable[[str], Any]], *, required: bool = True
) -> dict[str, Any]:
    """Converted values of a ``key value`` file, skipping blank and ``#`` lines.

    Unknown and repeated keys are rejected; with ``required`` every key must
    be present.  Every error about one line names it.
    """
    values: dict[str, Any] = {}
    for lineno, line in _data_lines(text):
        key, *rest = line.split(None, 1)
        if not rest:
            raise ParseError(f"line {lineno}: expected 'key value'")
        if key not in keys:
            raise ParseError(f"line {lineno}: unknown {what} key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate {what} key {key!r}")
        try:
            values[key] = keys[key](rest[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {key}: {exc}") from None
    missing = [k for k in keys if k not in values]
    if required and missing:
        raise ParseError(f"{what} file missing keys: {', '.join(missing)}")
    return values


@dataclass(frozen=True, order=True, slots=True)
class MacAddress:
    """A 48-bit MAC address held as an integer.

    The integer is the address's only identity: it orders, hashes and compares
    MACs.  Its order is the order of the canonical lowercase colon-hex text.
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 1 << 48:
            raise ValueError(f"MAC value out of range: {self.value!r}")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        try:
            raw = bytes.fromhex(text.replace(":", ""))
        except ValueError:
            raw = b""
        if len(text) != 17 or text[2::3] != ":::::" or len(raw) != 6:
            raise ValueError(f"malformed MAC address {text!r}")
        return cls(int.from_bytes(raw, "big"))

    @property
    def octets(self) -> tuple[int, ...]:
        return tuple(self.value.to_bytes(6, "big"))

    def __str__(self) -> str:
        return self.value.to_bytes(6, "big").hex(":")


@dataclass(frozen=True)
class PrfEvent:
    """One received probe request frame."""

    timestamp: float
    mac: MacAddress
    ap_id: str
    rssi: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.timestamp < MAX_TIMESTAMP:
            raise ValueError(f"event timestamp {self.timestamp!r} outside [0, 2**32) s")


def is_randomized(mac: MacAddress) -> bool:
    """True for a locally-administered unicast address (a fabricated MAC)."""
    return mac.value >> 40 & 0x03 == 0x02


def parse_capture(data: bytes, ap_id: str = "cap0") -> list[PrfEvent]:
    """Extract probe-request events from a classic capture file.

    Supports the 24-byte-header format with microsecond timestamps, in either
    byte order, with link type 105 (bare 802.11) or 127 (radiotap-prefixed).
    Frames other than probe requests are skipped silently.
    """
    if len(data) < 24:
        raise ParseError("malformed capture header: shorter than 24 bytes")
    magic = struct.unpack_from("<I", data, 0)[0]
    if magic == PCAP_MAGIC:
        bo = "<"
    elif magic == PCAP_MAGIC_SWAPPED:
        bo = ">"
    else:
        raise ParseError(f"malformed capture header: unrecognized magic 0x{magic:08x}")
    linktype = struct.unpack_from(bo + "I", data, 20)[0]
    if linktype not in (LINKTYPE_IEEE802_11, LINKTYPE_RADIOTAP):
        raise ParseError(f"unsupported link type {linktype}")

    record = struct.Struct(bo + "IIII")
    events: list[PrfEvent] = []
    offset = 24
    while offset < len(data):
        if offset + 16 > len(data):
            raise ParseError(f"truncated packet record header at byte offset {offset}")
        ts_sec, ts_usec, incl_len, _orig_len = record.unpack_from(data, offset)
        if ts_usec >= 1_000_000:
            raise ParseError(f"microsecond field {ts_usec} out of range at byte offset {offset}")
        if offset + 16 + incl_len > len(data):
            raise ParseError(f"truncated packet record at byte offset {offset}")
        frame = data[offset + 16 : offset + 16 + incl_len]
        offset += 16 + incl_len
        parsed = _probe_request(frame, linktype)
        if parsed is None:
            continue
        mac, rssi = parsed
        # Round to the capture's microsecond resolution so that text
        # serialization round-trips exactly.
        timestamp = round(ts_sec + ts_usec / 1e6, 6)
        events.append(PrfEvent(timestamp, mac, ap_id, rssi))
    events.sort(key=lambda e: e.timestamp)
    return events


def _probe_request(frame: bytes, linktype: int) -> tuple[MacAddress, int | None] | None:
    rssi = None
    if linktype == LINKTYPE_RADIOTAP:
        if len(frame) < 8:
            return None
        # Radiotap length is little-endian regardless of the capture byte order.
        rt_len = struct.unpack_from("<H", frame, 2)[0]
        if rt_len < 8 or rt_len > len(frame):
            return None
        rssi = _radiotap_antsignal(frame[:rt_len])
        frame = frame[rt_len:]
    if len(frame) < 16:
        return None
    if frame[0] != _PROBE_REQUEST_FC:
        return None
    return MacAddress(int.from_bytes(frame[10:16], "big")), rssi


def _radiotap_antsignal(header: bytes) -> int | None:
    words = []
    offset = 4
    while True:
        if offset + 4 > len(header):
            return None
        word = struct.unpack_from("<I", header, offset)[0]
        words.append(word)
        offset += 4
        if not word & _RADIOTAP_EXT_BIT:
            break
    present = words[0]
    for bit in range(_RADIOTAP_ANTSIGNAL_BIT + 1):
        if not present & (1 << bit):
            continue
        if bit == _RADIOTAP_ANTSIGNAL_BIT:
            if offset >= len(header):
                return None
            return struct.unpack_from("<b", header, offset)[0]
        align, size = _RADIOTAP_LAYOUT[bit]
        offset = (offset + align - 1) // align * align + size
    return None


def parse_events(text: str) -> list[PrfEvent]:
    """Parse the line-delimited event format.

    Each non-comment line is ``<timestamp> <mac> <ap_id> [rssi]``.  Events are
    returned sorted by timestamp; input order is preserved for ties.
    """
    events = read_rows(
        text,
        PrfEvent,
        (float, MacAddress.parse, str),
        (float, MacAddress.parse, str, int),
    )
    events.sort(key=lambda e: e.timestamp)
    return events


def format_events(events: Iterable[PrfEvent]) -> str:
    """Serialize events to the line-delimited text format."""
    lines = []
    for e in events:
        line = f"{e.timestamp:.6f} {e.mac} {e.ap_id}"
        if e.rssi is not None:
            line += f" {e.rssi}"
        lines.append(line + "\n")
    return "".join(lines)
