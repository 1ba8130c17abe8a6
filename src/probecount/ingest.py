"""Probe-request event ingestion from 802.11 capture files and text logs.

Events are held as columns (``Events``); ``PrfEvent`` is the one-event view
that iterating them yields.  ``parse_events`` decodes a uniform event file (what
``format_events`` writes) from one byte buffer, indexing its separators in one
pass and decoding each column as a block; any other event file goes through
``read_rows``, with the same events and the same errors.  Also holds the two
readers behind every line-oriented text file, where only ``\\n`` ends a line:
``read_rows`` for column files and ``read_keys`` for ``key value`` files; the
writer ``format_rows``; ``read_file``, which names the file in its content's
errors; and ``round6``, the package's one rounding to the microsecond.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar

import numpy as np

_Row = TypeVar("_Row")
_T = TypeVar("_T")

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
PCAP_NSEC_MAGIC = 0xA1B23C4D
PCAP_NSEC_MAGIC_SWAPPED = 0x4D3CB2A1
PCAPNG_MAGIC = 0x0A0D0D0A  # a section header block; the same in either byte order
LINKTYPE_IEEE802_11 = 105
LINKTYPE_RADIOTAP = 127

# Classic capture magic, read little-endian -> (record byte order, name and
# units per second of the timestamp's fraction field).
_PCAP_FORMATS = {
    PCAP_MAGIC: ("<", "microsecond", 10**6),
    PCAP_MAGIC_SWAPPED: (">", "microsecond", 10**6),
    PCAP_NSEC_MAGIC: ("<", "nanosecond", 10**9),
    PCAP_NSEC_MAGIC_SWAPPED: (">", "nanosecond", 10**9),
}
# Every magic that marks a capture file rather than event text.
CAPTURE_MAGICS = frozenset({*_PCAP_FORMATS, PCAPNG_MAGIC})

# A capture stores seconds in 32 bits; no event can be later than that.
MAX_TIMESTAMP = float(2**32)

# The rssi column's value for an event without one; every other int16 is a
# valid signal strength.
RSSI_NONE = -(2**15)

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


def positive(text: str) -> float:
    """A float field that must be finite and above zero."""
    value = finite(text)
    if not value > 0:
        raise ValueError(f"non-positive number {text!r}")
    return value


def non_negative(text: str) -> float:
    """A float field that must be finite and not negative."""
    value = finite(text)
    if value < 0:
        raise ValueError(f"negative number {text!r}")
    return value


def non_negative_or_nan(text: str) -> float:
    """A float field that must be NaN (no value) or finite and not negative."""
    value = float(text)
    return value if math.isnan(value) else non_negative(text)


def non_negative_int(text: str) -> int:
    """An integer field in [0, 2**63)."""
    value = int(text)
    if not 0 <= value < 2**63:
        raise ValueError(f"count {value} outside [0, 2**63)")
    return value


def round6(x: np.ndarray) -> np.ndarray:
    """``round(v, 6)`` of each element, exact for every finite float: np.rint of its
    microseconds, or Python's round within their rounding error of a half or on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        us = x * 1e6
        near = ~(np.abs(us - np.floor(us) - 0.5) > np.abs(np.spacing(us)))
    out = np.rint(us) / 1e6
    out[near] = [round(v, 6) for v in x[near].tolist()]
    return out


def data_lines(text: str) -> Iterable[tuple[int, str]]:
    """(number, stripped text) of each line but blank and ``#`` lines; only ``\\n`` ends a line."""
    for lineno, line in enumerate(text.split("\n"), start=1):
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
    for lineno, line in data_lines(text):
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


# Rows converted to Python objects at once by format_rows.
_FORMAT_CHUNK = 1 << 16


def format_rows(fmt: str, columns: Sequence[np.ndarray]) -> str:
    """The lines ``fmt % row`` for the rows of equal-length ``columns``.

    Rows are converted a chunk at a time, so that only one chunk's Python
    numbers are alive at once rather than every column's.
    """
    return "".join(
        "".join(map(fmt.__mod__, zip(*(c[i : i + _FORMAT_CHUNK].tolist() for c in columns))))
        for i in range(0, len(columns[0]), _FORMAT_CHUNK)
    )


def read_keys(
    text: str, what: str, keys: Mapping[str, Callable[[str], Any]], *, required: bool = True
) -> dict[str, Any]:
    """Converted values of a ``key value`` file, skipping blank and ``#`` lines.

    Unknown and repeated keys are rejected; with ``required`` every key must
    be present.  Every error about one line names it.
    """
    values: dict[str, Any] = {}
    for lineno, line in data_lines(text):
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


def read_file(path: str, parse: Callable[[Any], _T], *, binary: bool = False) -> _T:
    """``parse`` of the UTF-8 text (with ``binary``, the bytes) of file ``path``;
    an error in the content names the file."""
    data = Path(path).read_bytes()
    try:
        return parse(data if binary else data.decode("utf-8"))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _mac_value(text: str) -> int:
    """The integer of a colon-hex MAC address."""
    try:
        raw = bytes.fromhex(text.replace(":", ""))
    except ValueError:
        raw = b""
    if len(text) != 17 or text[2::3] != ":::::" or len(raw) != 6:
        raise ValueError(f"malformed MAC address {text!r}")
    return int.from_bytes(raw, "big")


def _mac_text(value: int) -> str:
    """The lowercase colon-hex text of a MAC's integer."""
    return value.to_bytes(6, "big").hex(":")


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

    @property
    def octets(self) -> tuple[int, ...]:
        return tuple(self.value.to_bytes(6, "big"))

    def __str__(self) -> str:
        return _mac_text(self.value)


def _check_event(timestamp: float, rssi: int | None) -> None:
    if not 0 <= timestamp < MAX_TIMESTAMP:
        raise ValueError(f"event timestamp {timestamp!r} outside [0, 2**32) s")
    if rssi is not None and not RSSI_NONE < rssi < 2**15:
        raise ValueError(f"rssi {rssi!r} outside [{RSSI_NONE + 1}, {2**15 - 1}]")


@dataclass(frozen=True)
class PrfEvent:
    """One received probe request frame."""

    timestamp: float
    mac: MacAddress
    ap_id: str
    rssi: int | None = None

    def __post_init__(self) -> None:
        _check_event(self.timestamp, self.rssi)


@dataclass(frozen=True, eq=False)
class Events:
    """Probe-request events as read-only columns, sorted by time.

    ``t`` holds the timestamps (float64, non-decreasing), ``mac`` the 48-bit
    MACs (uint64), ``ap`` indices into the ``aps`` names (int32) and ``rssi``
    the signal strengths (int16, ``RSSI_NONE`` where a frame has none).
    """

    t: np.ndarray
    mac: np.ndarray
    ap: np.ndarray
    rssi: np.ndarray
    aps: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name, dtype in (("t", np.float64), ("mac", np.uint64), ("ap", np.int32),
                            ("rssi", np.int16)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "aps", tuple(self.aps))
        t = self.t
        if not len(t) == len(self.mac) == len(self.ap) == len(self.rssi):
            raise ValueError("event columns differ in length")
        if not np.all((t >= 0) & (t < MAX_TIMESTAMP)):
            raise ValueError("event timestamp outside [0, 2**32) s")
        unsorted = np.flatnonzero(t[1:] < t[:-1])
        if unsorted.size:
            i = unsorted[0]
            raise ValueError(f"events not sorted by timestamp ({t[i + 1]} after {t[i]})")
        if np.any(self.mac >> np.uint64(48)):
            raise ValueError("MAC value out of range")
        if np.any((self.ap < 0) | (self.ap >= len(self.aps))):
            raise ValueError("event ap index outside the ap table")

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[PrfEvent]:
        """``PrfEvent`` views, one per event; outside tests only ``bench/inputs.py`` iterates."""
        aps = self.aps
        columns = (self.t.tolist(), self.mac.tolist(), self.ap.tolist(), self.rssi.tolist())
        for t, mac, ap, rssi in zip(*columns):
            yield PrfEvent(t, MacAddress(mac), aps[ap], None if rssi == RSSI_NONE else rssi)


def is_randomized(mac: int | np.ndarray) -> bool | np.ndarray:
    """True for a locally-administered unicast address (a fabricated MAC).

    ``mac`` is a MAC's integer or a uint64 column of them, such as
    ``Bursts.mac``; a column gives a boolean array.
    """
    return mac >> 40 & 0x03 == 0x02


def _uint(buf: np.ndarray, pos: np.ndarray, size: int, little: bool = True) -> np.ndarray:
    """The unsigned ``size``-byte integers of ``buf`` at each of ``pos``, as int64."""
    word = np.zeros((pos.size, 8), dtype=np.uint8)
    field = slice(0, size) if little else slice(8 - size, 8)
    word[:, field] = buf[pos[:, None] + np.arange(size)]
    return word.view("<u8" if little else ">u8").ravel().astype(np.int64)


def parse_capture(data: bytes, ap_id: str = "cap0") -> Events:
    """Extract probe-request events from a classic capture file.

    Supports the 24-byte-header format with microsecond or nanosecond
    timestamps, in either byte order, with link type 105 (bare 802.11) or 127
    (radiotap-prefixed).  Timestamps are rounded to the microsecond.  Frames
    other than probe requests are skipped silently.
    """
    if len(data) < 24:
        raise ParseError("malformed capture header: shorter than 24 bytes")
    magic = struct.unpack_from("<I", data, 0)[0]
    if magic == PCAPNG_MAGIC:
        raise ParseError(
            "pcapng capture files are not supported: convert it to classic pcap "
            "(e.g. editcap -F pcap IN.pcapng OUT.pcap)"
        )
    if magic not in _PCAP_FORMATS:
        raise ParseError(f"malformed capture header: unrecognized magic 0x{magic:08x}")
    bo, unit, per_second = _PCAP_FORMATS[magic]
    linktype = struct.unpack_from(bo + "I", data, 20)[0]
    if linktype not in (LINKTYPE_IEEE802_11, LINKTYPE_RADIOTAP):
        raise ParseError(f"unsupported link type {linktype}")

    record = _record_offsets(data, bo, unit, per_second)
    buf = np.frombuffer(data, dtype=np.uint8)
    little = bo == "<"
    length = _uint(buf, record + 8, 4, little)
    frame = record + 16
    rt_len = np.zeros_like(frame)
    if linktype == LINKTYPE_RADIOTAP:
        # Radiotap length is little-endian regardless of the capture byte order.
        has_header = length >= 8
        rt_len[has_header] = _uint(buf, frame[has_header] + 2, 2)
        has_header &= (rt_len >= 8) & (rt_len <= length)
    else:
        has_header = np.ones(frame.shape, dtype=bool)
    body = frame + rt_len
    probe = has_header & (length - rt_len >= 16)
    probe[probe] = buf[body[probe]] == _PROBE_REQUEST_FC
    probe = np.flatnonzero(probe)

    micros = _microseconds(buf, record[probe], little, per_second)
    if linktype == LINKTYPE_RADIOTAP:
        rssi = _radiotap_antsignal(buf, frame[probe], rt_len[probe])
    else:
        rssi = np.full(probe.shape, RSSI_NONE, dtype=np.int16)
    order = np.argsort(micros, kind="stable")
    return Events(
        micros[order] / 1e6,
        _uint(buf, body[probe][order] + 10, 6, little=False),
        np.zeros(probe.size, dtype=np.int32),
        rssi[order],
        (ap_id,),
    )


def _record_offsets(data: bytes, bo: str, unit: str, per_second: int) -> np.ndarray:
    """Byte offset of every packet record, checking each record header."""
    fraction_and_length = struct.Struct(bo + "4xII").unpack_from
    offsets = []
    offset, end = 24, len(data)
    while offset + 16 <= end:
        fraction, incl_len = fraction_and_length(data, offset)
        if fraction >= per_second:
            raise ParseError(f"{unit} field {fraction} out of range at byte offset {offset}")
        if offset + 16 + incl_len > end:
            raise ParseError(f"truncated packet record at byte offset {offset}")
        offsets.append(offset)
        offset += 16 + incl_len
    if offset < end:
        raise ParseError(f"truncated packet record header at byte offset {offset}")
    return np.array(offsets, dtype=np.int64)


def _microseconds(buf: np.ndarray, record: np.ndarray, little: bool, per_second: int) -> np.ndarray:
    """Whole microseconds of each record's timestamp, nanoseconds rounded half to even.

    For a microsecond capture ``micros / 1e6`` equals
    ``round(sec + usec / 1e6, 6)``: below 2**32 s the float sum lies within
    half a microsecond of the exact time.
    """
    sec = _uint(buf, record, 4, little)
    fraction = _uint(buf, record + 4, 4, little)
    if per_second == 10**9:
        fraction, rest = np.divmod(fraction, 1000)
        fraction += (rest > 500) | ((rest == 500) & (fraction % 2 == 1))
        late = np.flatnonzero(sec * 10**6 + fraction >= 2**32 * 10**6)
        if late.size:
            raise ParseError(
                f"timestamp rounds to 2**32 s at byte offset {record[late[0]]}"
            )
    return sec * 10**6 + fraction


def _radiotap_antsignal(buf: np.ndarray, frame: np.ndarray, rt_len: np.ndarray) -> np.ndarray:
    """The int8 antenna signal of each radiotap header, or ``RSSI_NONE``.

    The present words are read for every header, word by word while the
    extension bit is set; the field offset is computed once per layout.
    """
    first_word = np.zeros_like(frame)
    words = np.zeros_like(frame)  # present words of a complete bitmap, else 0
    reading = np.arange(frame.size)
    pos = 4
    while reading.size:
        reading = reading[pos + 4 <= rt_len[reading]]
        word = _uint(buf, frame[reading] + pos, 4)
        if pos == 4:
            first_word[reading] = word
        last = (word & _RADIOTAP_EXT_BIT) == 0
        words[reading[last]] = pos // 4
        reading = reading[~last]
        pos += 4
    layout = (first_word & 0x3F) | (words << 6)
    layouts, which = np.unique(layout, return_inverse=True)
    field = np.array(
        [_antsignal_offset(int(key) & 0x3F, 4 + 4 * (int(key) >> 6)) for key in layouts],
        dtype=np.int64,
    )[which.reshape(-1)]
    ok = (words > 0) & (field >= 0) & (field < rt_len)
    rssi = np.full(frame.shape, RSSI_NONE, dtype=np.int16)
    rssi[ok] = buf[frame[ok] + field[ok]].view(np.int8)
    return rssi


def _antsignal_offset(present: int, offset: int) -> int:
    """Offset of the antenna-signal field after the present words end at ``offset``,
    or -1 when the field is absent."""
    if not present & 1 << _RADIOTAP_ANTSIGNAL_BIT:
        return -1
    for bit, (align, size) in _RADIOTAP_LAYOUT.items():
        if present & 1 << bit:
            offset = (offset + align - 1) // align * align + size
    return offset


def _event_row(timestamp: float, mac: int, ap_id: str, rssi: int | None = None) -> tuple:
    _check_event(timestamp, rssi)
    return timestamp, mac, ap_id.encode(), RSSI_NONE if rssi is None else rssi


_AP_BYTES = 64  # the longest ap id the columnar reader takes, and its buffer's zero padding
# The value of each hex digit byte, 256 for any other byte; and the octet of two
# bytes read as one little-endian uint16, above 255 unless both are hex digits.
_HEX = np.full(256, 256, dtype=np.uint16)
_HEX[np.frombuffer(b"0123456789abcdefABCDEF", dtype=np.uint8)] = [*range(16), *range(10, 16)]
_OCTETS = ((_HEX << 4) + _HEX[:, None]).ravel()


def _rows(buf: np.ndarray, pos: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` from each of ``pos``, one row each."""
    items = np.ndarray(buffer=buf, dtype=f"V{width}", shape=(buf.size - width + 1,), strides=(1,))
    return items[pos].view(np.uint8).reshape(-1, width)


def _decimals(buf: np.ndarray, end: np.ndarray, length: np.ndarray, digits: int,
              mark: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The exact integer of the digits of each field ending before ``end`` and how many follow
    its ``mark`` (-1 if none); None unless all are 1 to ``digits`` digits and at most one mark."""
    width, mark_digit = digits + 1, np.uint8(ord(mark) - 48 & 0xFF)
    field = _rows(buf, end - width, width) - np.uint8(48)
    field *= np.arange(width) >= width - length[:, None]  # 0 digits before the field
    is_mark = field == mark_digit
    at = is_mark.argmax(axis=1)  # the mark, or 0
    marked = is_mark[np.arange(end.size), at]
    field *= ~is_mark
    if (field.max(initial=0) > 9 or np.count_nonzero(is_mark) > np.count_nonzero(marked)
            or np.any((length - marked < 1) | (length - marked > digits))):
        return None
    value = np.zeros(end.size, dtype=np.int64)
    for column in field.T:
        value *= 10
        value += column
    scale = 10 ** np.where(marked, width - 1 - at, width)  # take out the mark, read as a 0
    return value // (scale * 10) * scale + value % scale, np.where(marked, width - 1 - at, -1)


def _uniform_events(text: str) -> Events | None:
    """The events of a uniform event file, decoded as columns; None for any other.

    Uniform is what ``format_events`` writes: ASCII, no ``#`` and no control byte
    but ``\\n``, ``\\n``-ended lines of 3 or 4 fields split by single spaces,
    timestamps ``[digits][.digits]`` of at most 15 digits, MACs in either case,
    rssi ``-?digits``, ap ids of at most 64 bytes, and every value in range.
    """
    if not text or not text.isascii() or "#" in text or "\x7f" in text:
        return None
    data = text.encode("ascii") + b"\n" * (text[-1] != "\n")
    buf = np.pad(np.frombuffer(data, dtype=np.uint8), _AP_BYTES)
    sep = np.flatnonzero(buf[_AP_BYTES:-_AP_BYTES] <= 32) + _AP_BYTES
    kind = buf[sep]
    length = np.diff(sep, prepend=_AP_BYTES - 1) - 1  # of the field before each separator
    ends = np.flatnonzero(kind == 10)
    fields = np.diff(ends, prepend=-1)
    if np.any((kind != 10) & (kind != 32)) or 0 in length or np.any((fields < 3) | (fields > 4)):
        return None
    line = ends - fields + 1  # the index of each line's first field
    level = line[fields == 4] + 3
    # at most 15 digits: the integer and its power of ten are exact, so t rounds once
    stamps = _decimals(buf, sep[line], length[line], 15, ".")
    levels = _decimals(buf, sep[level], length[level], 5, "-")
    mac = _rows(buf, sep[line] + 1, 18)
    octets = _OCTETS[np.ndarray(buffer=mac, dtype="<u2", shape=(line.size, 6), strides=(18, 3))]
    width = int(length[line + 2].max())
    if (stamps is None or levels is None or np.any(length[line + 1] != 17)
            or np.any(mac[:, 2:17:3] != ord(":")) or octets.max(initial=0) > 255
            or np.any((levels[1] >= 0) & (levels[1] != length[level] - 1)) or width > _AP_BYTES):
        return None
    t = stamps[0] / 10.0 ** np.maximum(stamps[1], 0)
    if not np.all(t < MAX_TIMESTAMP) or np.any(levels[0] >= 2**15):
        return None
    rssi = np.full(line.size, RSSI_NONE, dtype=np.int16)
    rssi[fields == 4] = np.where(levels[1] >= 0, -levels[0], levels[0])
    macs = np.pad(octets.astype(np.uint8), ((0, 0), (2, 0))).view(">u8")
    names = _rows(buf, sep[line + 1] + 1, width)
    names[np.arange(width) >= length[line + 2, None]] = 0
    return _sorted_events(t, macs.ravel(), names.view(f"S{width}").ravel(), rssi)


def _sorted_events(t: np.ndarray, mac: np.ndarray, names: np.ndarray,
                   rssi: np.ndarray) -> Events:
    """The events of the columns, stably sorted by time, with ap ids numbered by
    their UTF-8 ``names``' first appearance in that order."""
    order = np.argsort(t, kind="stable") if np.any(t[1:] < t[:-1]) else slice(None)
    aps, first, ap = np.unique(names[order], return_index=True, return_inverse=True)
    rank = np.argsort(first)  # names by first appearance
    return Events(t[order], mac[order], np.argsort(rank)[ap.ravel()], rssi[order],
                  [name.decode() for name in aps[rank]])


def parse_events(text: str) -> Events:
    """Parse the line-delimited event format.

    Each non-comment line is ``<timestamp> <mac> <ap_id> [rssi]``.  Events are
    returned sorted by timestamp; input order is preserved for ties.
    """
    events = _uniform_events(text)
    if events is not None:
        return events
    rows = read_rows(text, _event_row, (float, _mac_value, str), (float, _mac_value, str, int))
    return _sorted_events(*(np.array([row[k] for row in rows]) for k in range(4)))


def format_events(events: Events) -> str:
    """Serialize events to the line-delimited text format."""
    columns = (events.t.tolist(), events.mac.tolist(), events.ap.tolist(), events.rssi.tolist())
    return "".join(
        f"{t:.6f} {_mac_text(mac)} {events.aps[ap]}"
        f"{'' if rssi == RSSI_NONE else f' {rssi}'}\n"
        for t, mac, ap, rssi in zip(*columns)
    )
