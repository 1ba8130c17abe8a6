"""Probe-request event ingestion from 802.11 capture files and text logs.

Events are held only as columns (``Events``), each MAC as the uint64 of its six
octets, whose order is the order of its colon-hex text.  Also holds the text
layer behind every line-oriented file, where only ``\\n`` ends a line.  Every
column file (event text, window series, reference series, ground-truth sidecar) is
read by ``read_table``: it indexes the separators of its bytes in one pass, with ``#`` and
blank lines, runs of whitespace and CRLF endings masked, and decodes a block of a
column at a time by its converter's grammar, or, for a block that holds a field
outside the grammar or its range, by the converter itself, so that every value and
every error message are those of a reader of one line at a time.  ``read_keys``
reads ``key value`` files;
``format_rows`` writes ``%.6f``, ``%d`` and ``%s`` rows as one digit matrix,
with the text ``%`` writes; ``read_file`` hands a file's bytes to its parser, a
regular file's as a read-only mapping.
``naming`` is the one edge that names a file or line in an input error,
``_whole_us`` the one rounding to the microsecond and ``left_sum`` the one float sum.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import mmap
import os
import re
import stat
import struct
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar

import numpy as np

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
# order: bit -> (alignment, size).  Alignment is a power of two, relative to the
# start of the radiotap header.
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


def left_sum(column: np.ndarray | Sequence[float]) -> float:
    """A float column added left to right from 0.0, bit for bit Python's ``sum`` before 3.12
    (whose ``sum`` compensates); an overflow gives inf without a warning, as ``sum`` does."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.0 + np.cumsum(column, dtype=np.float64)[-1].item() if len(column) else 0.0


def _whole_us(x: np.ndarray) -> np.ndarray:
    """Each float's whole microseconds, rounded half to even from its exact value as
    ``round(v, 6)`` and ``%.6f`` round, for |x| < 2**53/1e6: np.rint of x·1e6, or the ``%.6f``
    digits within |x·1e6|·2**-52 (a bound on the product's rounding error) of a half."""
    us = x * 1e6
    near = np.flatnonzero(~(np.abs(us - np.floor(us) - 0.5) > np.abs(us) * 2.0**-52))
    np.rint(us, out=us)
    us[near] = [float(("%.6f" % v).replace(".", "")) for v in x[near].tolist()]
    return us


def round6(x: np.ndarray) -> np.ndarray:
    """``round(v, 6)`` of each element, exact for every finite float (Python's own where
    |v| >= 2**53/1e6)."""
    big = ~(np.abs(x) < 2**53 / 1e6)
    out = _whole_us(np.where(big, 0.0, x)) / 1e6
    out[big] = [round(v, 6) for v in x[big].tolist()]
    return out


def data_lines(text: str | bytes) -> Iterable[tuple[int, str]]:
    """(number, stripped text) of each line but blank and ``#`` lines of the text (or
    UTF-8 bytes, or a buffer of them); only ``\\n`` ends a line."""
    if not isinstance(text, str):
        text = str(text, "utf-8")
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


# Rows handled at once by the reader and by format_rows, and bytes scanned at once
# by the reader: so that their temporaries stay small.
_CHUNK = 1 << 16
_SCAN = 1 << 22
# The conversions format_rows writes as a digit matrix.
_SPECS = re.compile(r"(%\.6f|%d|%s)")
# Digits as little-endian uint16 lanes of two ASCII bytes: _PAIRS[p] is 0..99
# without a leading zero (nothing for 0) and _PAIRS[100 + p] with it; _UNITS[d]
# is one digit, and _POINTS[d] a digit and the point.
_PAIRS = np.frombuffer((b"%2d" * 100 % tuple(range(100))).replace(b" ", b"\0")
                       + b"%02d" * 100 % tuple(range(100)), dtype="<u2").copy()
_PAIRS[0] = 0
_UNITS = np.frombuffer(b"".join(b"\0%d" % d for d in range(10)), dtype="<u2")
_POINTS = np.frombuffer(b"".join(b"%d." % d for d in range(10)), dtype="<u2")
# A MAC octet's text: its hex digits (two ASCII bytes as one uint16 lane) and a colon.
_HEX_PAIRS = np.frombuffer(bytes(range(256)).hex().encode(), dtype="<u2")
_OCTET_TEXT = np.dtype({"names": ["hex", "colon"], "formats": ["<u2", "u1"], "itemsize": 3})


def _upper(v: np.ndarray, lanes: np.ndarray) -> None:
    """Write the digits of each uint64 of ``v`` into the uint16 ``lanes``, two a lane from
    the right, without leading zeros; digits past the lanes are dropped."""
    for i in range(lanes.shape[1] - 1, -1, -1):
        quotient = v // 100  # a division by a constant; numpy's % is several times slower
        lanes[:, i] = _PAIRS.take(v - quotient * 100 + (quotient > 0) * np.uint64(100))
        v = quotient


def _decimal(x: np.ndarray, spec: str) -> np.ndarray | None:
    """``%.6f`` of each float64 (``%d`` of each integer) as zero-padded ASCII rows; None for
    another dtype, an infinity or |x| >= 2**53/1e6."""
    point = spec == "%.6f"
    if x.dtype != np.float64 if point else x.dtype.kind not in "iu":
        return None
    nan = np.isnan(x)
    if point:
        us = np.abs(x)
        us[nan] = 0.0
        if not np.all(us < 2**53 / 1e6):
            return None
        magnitude = _whole_us(us).astype(np.int64).view(np.uint64)
    else:
        magnitude = x.astype(np.uint64)  # two's complement, so negation gives |x|
        np.negative(magnitude, out=magnitude, where=x < 0)
    whole = magnitude // 10**6 if point else magnitude
    tens = whole // 10
    upper = (len(str(int(tens.max(initial=0)))) + 1) // 2
    lanes = np.zeros((x.size, upper + 2 + 3 * point), dtype="<u2")
    lanes[:, 0] = np.signbit(x) * np.uint16(ord("-"))  # Python keeps the sign of -0.000000
    _upper(tens, lanes[:, 1 : upper + 1])
    lanes[:, upper + 1] = (_POINTS if point else _UNITS).take(whole - tens * 10)
    if point:
        _upper(magnitude - whole * 10**6 + 10**6, lanes[:, upper + 2 :])  # the 1 is dropped
    block = lanes.view(np.uint8)
    block[nan] = 0
    block[nan, :3] = np.frombuffer(b"nan", dtype=np.uint8)
    return block


def _text(column: np.ndarray) -> np.ndarray | None:
    """``%s`` of each value as zero-padded UTF-8 rows (bytes columns are taken as ASCII
    text, and ASCII numpy ``str`` without a NUL is narrowed code by code); None when a
    value holds a NUL."""
    if column.dtype.kind == "U":
        codes = np.ascontiguousarray(column).view(np.uint32)
        codes = codes.reshape(column.size, column.itemsize // 4)
        if codes.max(initial=0) < 128 and not np.any((codes[:, :-1] == 0) & (codes[:, 1:] != 0)):
            return codes.astype(np.uint8)
    if column.dtype.kind != "S":
        encoded = [str(v).encode() for v in column.tolist()]
        if b"\0" in b"".join(encoded):
            return None
        column = np.array(encoded, dtype=bytes)
    column = np.ascontiguousarray(column)
    return column.view(np.uint8).reshape(column.size, column.itemsize)


def utf8_str(column: np.ndarray) -> np.ndarray:
    """A bytes column of UTF-8 text as numpy ``str`` (ASCII widened byte by byte)."""
    width = column.itemsize
    codes = np.ascontiguousarray(column).view(np.uint8).reshape(-1, width)
    if codes.max(initial=0) < 128:
        return codes.astype(np.uint32).view(f"U{width}").ravel()
    return np.char.decode(column, "utf-8")


def _format_chunk(parts: list[str], columns: list[np.ndarray]) -> str | None:
    """The lines of ``columns`` formatted with the split format ``parts`` as one digit
    matrix, each column a zero-padded block, written without its 0 bytes; None when a
    block cannot be."""
    n = len(columns[0])
    blocks = []
    for k, literal in enumerate(parts[::2]):
        text = np.frombuffer(literal.encode(), dtype=np.uint8)
        blocks.append(np.broadcast_to(text, (n, text.size)))
        if k < len(columns):
            spec = parts[2 * k + 1]
            blocks.append(_text(columns[k]) if spec == "%s" else _decimal(columns[k], spec))
            if blocks[-1] is None:
                return None
    matrix = np.concatenate(blocks, axis=1)
    return matrix[matrix != 0].tobytes().decode()


def format_rows(fmt: str, columns: Sequence[np.ndarray]) -> str:
    """The lines ``fmt % row`` for the rows of equal-length ``columns``; a bytes
    column is ASCII text.

    A chunk of rows at a time, a format made of ``%.6f``, ``%d`` and ``%s`` is
    written as a digit matrix (``_format_chunk``); a chunk that holds an
    infinity, |x| >= 2**53/1e6 or a NUL, and any other format, takes ``%``.
    """
    parts = _SPECS.split(fmt)
    literals = "".join(parts[::2])
    matrix = "%" not in literals and "\0" not in literals and len(parts) // 2 == len(columns)
    out = []
    for i in range(0, len(columns[0]), _CHUNK):
        chunk = [c[i : i + _CHUNK] for c in columns]
        text = _format_chunk(parts, chunk) if matrix else None
        if text is None:
            rows = zip(*((c.astype(str) if c.dtype.kind == "S" else c).tolist() for c in chunk))
            text = "".join(map(fmt.__mod__, rows))
        out.append(text)
    return "".join(out)


@contextlib.contextmanager
def naming(*places: str) -> Iterator[None]:
    """An error raised inside names ``places``, the files (or the line) it is about."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(f"{', '.join(places)}: {exc}") from None


def read_keys(
    text: str | bytes, what: str, keys: Mapping[str, Callable[[str], Any]], *, required: bool = True
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
        with naming(f"line {lineno}: {key}"):
            values[key] = keys[key](rest[0])
    missing = [k for k in keys if k not in values]
    if required and missing:
        raise ParseError(f"{what} file missing keys: {', '.join(missing)}")
    return values


def read_file(path: str, parse: Callable[[bytes], _T]) -> _T:
    """``parse`` of the bytes of file ``path``; an error in the content (UTF-8
    decoding included) names the file.

    A regular file that is not empty is read in place, as a read-only ``mmap`` of the
    page cache; any other (an empty file, a pipe, a device, a file the system will not
    map, such as a sysfs attribute) is read into ``bytes``.  Parsers read either only
    through what a mapping does in C: ``len``, slices, ``find``, ``struct.unpack_from``,
    ``np.frombuffer`` and ``str(data, "utf-8")`` (``in`` would walk a mapping byte by
    byte in Python).  The mapping is unmapped once ``parse`` returns, as its values hold
    no view of it.  A file that another process truncates while it is parsed ends this
    one with SIGBUS.
    """
    with Path(path).open("rb") as fh:
        data = None
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size:
            with contextlib.suppress(OSError):
                data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        if data is None:
            data = fh.read()
    with naming(path):
        return parse(data)


def _mac_value(text: str) -> int:
    """The integer of a colon-hex MAC address."""
    try:
        raw = bytes.fromhex(text.replace(":", ""))
    except ValueError:
        raw = b""
    if len(text) != 17 or text[2::3] != ":::::" or len(raw) != 6:
        raise ValueError(f"malformed MAC address {text!r}")
    return int.from_bytes(raw, "big")


# The rules of an event line, as read_table checks them (rssi 0 for none).
_EVENT_CHECKS = (
    (lambda t, *_: (t >= 0) & (t < MAX_TIMESTAMP),
     lambda t, *_: f"event timestamp {t!r} outside [0, 2**32) s"),
    (lambda t, mac, ap, rssi: (rssi > RSSI_NONE) & (rssi < 2**15),
     lambda t, mac, ap, rssi: f"rssi {rssi!r} outside [{RSSI_NONE + 1}, {2**15 - 1}]"),
)


# The row view of ``Events.__iter__``: a frame's time and its MAC's six octets.
_Row = namedtuple("_Row", "timestamp mac")
_Octets = namedtuple("_Octets", "octets")


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

    def __iter__(self) -> Iterator[_Row]:
        """``(timestamp, mac)`` rows whose ``mac.octets`` lists the MAC's six octets, most
        significant first.  They serve only ``bench/inputs.py``, which reads these two
        fields, and go once it reads the columns."""
        octets = self.mac.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 2:]
        return map(_Row, self.t.tolist(), map(_Octets, octets.tolist()))


def is_randomized(mac: int | np.ndarray) -> bool | np.ndarray:
    """True for a locally-administered unicast address (a fabricated MAC).

    ``mac`` is a MAC's integer or a uint64 column of them, such as
    ``Bursts.mac``; a column gives a boolean array.
    """
    return mac >> 40 & 0x03 == 0x02


def _gather(buf: np.ndarray, pos: np.ndarray, dtype: str) -> np.ndarray:
    """The ``dtype`` item that starts at each of ``pos`` in the bytes of ``buf``."""
    size = np.dtype(dtype).itemsize
    return np.ndarray(buffer=buf, dtype=dtype, shape=(buf.size - size + 1,), strides=(1,))[pos]


def _rows(buf: np.ndarray, pos: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` from each of ``pos``, one row each."""
    return _gather(buf, pos, f"V{width}").view(np.uint8).reshape(-1, width)


# Records decoded at once.  A block's temporaries are reused from the heap, where
# whole-capture ones fault in fresh pages whenever the heap has been trimmed.  On the
# benchmark's 42k-record capture (fit then count, 2-core x86-64 host), blocks of 2**13
# gave a pipeline_rel of 0.118-0.121 and 1220 minor faults a repetition; 2**11, 2**12
# and 2**14 gave 0.135-0.140, and 2**15 0.137-0.141 with 1738 faults.
_BLOCK = 1 << 13
_MAC_BITS = (1 << 48) - 1


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

    record, head = _record_offsets(data, bo, unit, per_second)
    buf = np.frombuffer(data, dtype=np.uint8)
    last = buf.size - 8  # the last byte offset an 8-byte read may start at
    micros = np.empty(record.size, dtype=np.int64)
    mac = np.empty(record.size, dtype=np.uint64)
    rssi = np.full(record.size, RSSI_NONE, dtype=np.int16)
    n = 0
    for lo in range(0, record.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        frame = record[block] + 16
        length = head[block, 2].astype(np.int64)
        if linktype == LINKTYPE_RADIOTAP:
            # rt_len and the first present word, little-endian in either capture byte order;
            # a frame shorter than 8 bytes reads its neighbours' bytes, and is dropped
            prefix = _gather(buf, np.minimum(frame, last), "<u8")
            rt_len = (prefix >> 16 & 0xFFFF).astype(np.int64)
            rt_len *= (length >= 8) & (rt_len >= 8) & (rt_len <= length)
            probe = (rt_len > 0) & (length - rt_len >= 16)
        else:
            rt_len, probe = 0, length >= 16
        body = frame + rt_len
        probe &= buf[np.minimum(body, last)] == _PROBE_REQUEST_FC
        keep = np.flatnonzero(probe)
        end = n + keep.size
        micros[n:end] = _microseconds(head[block], keep, record[block], per_second)
        # the source address is the low 48 bits of the big-endian word at body + 8
        mac[n:end] = _gather(buf, body[keep] + 8, ">u8") & _MAC_BITS
        if linktype == LINKTYPE_RADIOTAP:
            rssi[n:end] = _radiotap_antsignal(buf, frame[keep], rt_len[keep], prefix[keep] >> 32)
        n = end
    micros = micros[:n]
    order = np.argsort(micros, kind="stable") if np.any(micros[1:] < micros[:-1]) else slice(None)
    return Events(micros[order] / 1e6, mac[:n][order], np.zeros(n, dtype=np.int32),
                  rssi[:n][order], (ap_id,))


_SPAN = 1 << 14  # bytes walked one by one before a check: finds runs soon, costs little itself
_WINDOW = 1 << 8  # records a run's first check reads: a few hundred cost about as much as one
_RUN = 1 << 16  # most records one check reads, so that its temporaries stay small
_PAYS = 32  # fewest records a run must yield for its checks to cost less than walking them


def _record_offsets(data: bytes, bo: str, unit: str,
                    per_second: int) -> tuple[np.ndarray, np.ndarray]:
    """Byte offset and header of every packet record, checking each record header.

    The walk follows the lengths a span at a time.  After a span ending in three records of one
    length it reads the ``incl_len`` of the records that would follow at that stride through one
    strided view and keeps the prefix whose ``incl_len`` is the stride less 16 (each ends where
    the next begins: the records the walk would reach); the window doubles while whole windows
    hold, and a run too short to pay makes the next check wait twice as long.  Every header is
    then read once, as a row of its four fields (seconds, fraction, ``incl_len``, ``orig_len``)
    in the capture's byte order.  The checks run afterwards and name the first fault in record
    order, as a record-by-record check would.
    """
    incl_len = struct.Struct(bo + "8xI").unpack_from
    parts, offsets = [], []
    append = offsets.append
    offset, end, last = 24, len(data), len(data) - 16
    stride = window = taken = wait = backoff = 0
    while offset <= last:
        if stride:
            n = min(window, (last - offset) // stride + 1)
            same = np.ndarray((n,), bo + "u4", data, offset + 8, (stride,)) == stride - 16
            m = n if same.all() else int(same.argmin())
            parts += np.array(offsets, dtype=np.int64), np.arange(
                offset, offset + m * stride, stride, dtype=np.int64)
            offsets.clear()
            offset, taken = offset + m * stride, taken + m
            if m == n:
                window = min(2 * window, _RUN)
                continue
            backoff = 0 if taken >= _PAYS else 2 * backoff + 1
            stride, wait = 0, backoff
        stop = min(offset + _SPAN, last)
        while offset <= stop:
            append(offset)
            offset += 16 + incl_len(data, offset)[0]
        if wait:
            wait -= 1
        elif len(offsets) > 2 and (offset - offsets[-1] == offsets[-1] - offsets[-2]
                                   == offsets[-2] - offsets[-3]):
            stride, window, taken = offset - offsets[-1], _WINDOW, 0
    record = np.concatenate([*parts, np.array(offsets, dtype=np.int64)])
    buf = np.frombuffer(data, dtype=np.uint8)
    head = _gather(buf, record, "V16").view(bo + "u4").reshape(-1, 4)
    if (bad := np.flatnonzero(head[:, 1] >= per_second)).size:
        first = bad[0]
        raise ParseError(f"{unit} field {head[first, 1]} out of range "
                         f"at byte offset {record[first]}")
    if offset > end:
        raise ParseError(f"truncated packet record at byte offset {record[-1]}")
    if offset < end:
        raise ParseError(f"truncated packet record header at byte offset {offset}")
    return record, head


def _microseconds(head: np.ndarray, keep: np.ndarray, record: np.ndarray,
                  per_second: int) -> np.ndarray:
    """Whole microseconds of the timestamps of the records ``keep`` picks from the record
    headers ``head`` at ``record``, nanoseconds rounded half to even.

    For a microsecond capture ``micros / 1e6`` equals
    ``round(sec + usec / 1e6, 6)``: below 2**32 s the float sum lies within
    half a microsecond of the exact time.
    """
    micros = head[:, 0] * np.int64(10**6)
    if per_second == 10**6:
        micros += head[:, 1]
        return micros[keep]
    fraction, rest = np.divmod(head[:, 1], 1000)
    micros += fraction + ((rest > 500) | ((rest == 500) & (fraction % 2 == 1)))
    micros = micros[keep]
    late = np.flatnonzero(micros >= 2**32 * 10**6)
    if late.size:
        raise ParseError(f"timestamp rounds to 2**32 s at byte offset {record[keep[late[0]]]}")
    return micros


def _antsignal_offsets() -> np.ndarray:
    """Bytes from the end of the present words to the antenna-signal field, indexed by
    ``phase << 5 | present & 31``: ``phase`` is 1 where the words end 4 bytes past an
    8-byte boundary of the header, and bits 0-4 are the fields that precede the signal."""
    table = np.zeros(64, dtype=np.int64)
    for phase, bits in itertools.product((0, 1), range(32)):
        field = start = 4 * phase
        for bit, (align, size) in _RADIOTAP_LAYOUT.items():
            if bits >> bit & 1:
                field = (field + align - 1 & -align) + size
        table[phase << 5 | bits] = field - start
    return table


_ANTSIGNAL_AT = _antsignal_offsets()


def _radiotap_antsignal(buf: np.ndarray, frame: np.ndarray, rt_len: np.ndarray,
                        present: np.ndarray) -> np.ndarray:
    """The int8 antenna signal of each radiotap header, or ``RSSI_NONE``.

    ``present`` is each header's first present word.  The words that follow it are read
    only while the extension bit is set; the signal's offset then comes from one table.
    """
    # present words of a complete bitmap, else 0
    words = (present < _RADIOTAP_EXT_BIT).astype(np.int64)
    chain, pos = np.flatnonzero(present >= _RADIOTAP_EXT_BIT), 8
    while chain.size:
        chain = chain[pos + 4 <= rt_len[chain]]
        word = _gather(buf, frame[chain] + pos, "<u4")
        words[chain[word < _RADIOTAP_EXT_BIT]] = pos // 4
        chain, pos = chain[word >= _RADIOTAP_EXT_BIT], pos + 4
    start = 4 + 4 * words  # where the present words end
    field = start + _ANTSIGNAL_AT[(start & 4) << 3 | (present & 31).astype(np.int64)]
    ok = (words > 0) & (present >> _RADIOTAP_ANTSIGNAL_BIT & 1 == 1) & (field < rt_len)
    signal = buf[frame + field * ok].view(np.int8)  # a header without one reads its first byte
    return np.where(ok, signal, np.int16(RSSI_NONE))


# Zero bytes around the reader's buffer: room for a number's window before the
# first field, and the longest token its grammar takes.
_PAD = 64
# The bytes that str.split() and str.strip() take as whitespace; and the characters
# beyond ASCII they take as whitespace, as the big-endian integers of their UTF-8 bytes.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_WIDE_SPACES = [int.from_bytes(c.encode(), "big") for c in
                "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009"
                "\u200a\u2028\u2029\u202f\u205f\u3000"]
# The value of each hex digit byte, 256 for any other byte; and the octet of two
# bytes read as one little-endian uint16, above 255 unless both are hex digits.
_HEX = np.full(256, 256, dtype=np.uint16)
_HEX[np.frombuffer(b"0123456789abcdefABCDEF", dtype=np.uint8)] = [*range(16), *range(10, 16)]
_OCTETS = ((_HEX << 4) + _HEX[:, None]).ravel()


def _window(width: int) -> tuple[np.ndarray, ...]:
    """A number's ``width``-byte window as byte masks, one window-sized item a row: its
    last n bytes (row n), and the bytes after column c (row c + 1; row 0 keeps all); and
    the power of ten that a point in column c divides by (item c + 1; item 0 is 1)."""
    lanes = np.arange(width)
    tail = (lanes >= width - np.arange(width + 1)[:, None]) * np.uint8(255)
    after = (lanes > np.arange(-1, width)[:, None]) * np.uint8(255)
    return (tail.view(f"V{width}").ravel(), after.view(f"V{width}").ravel(),
            10.0 ** np.append(0, width - 1 - lanes))


# The tables of a window of one and of two 8-byte words, by word count.
_WINDOWS = {words: _window(8 * words) for words in (1, 2)}
# Multipliers that move a word's lanes' point count (_POINTS_IN) or 8 * word + 1 + the
# point's lane in the word (_COLUMN_OF; 0 without a point) to its top byte.
_POINTS_IN = np.uint64(0x0101010101010101)
_COLUMN_OF = 0x0102030405060708 + 0x0808080808080808 * np.arange(2, dtype=np.uint64)
# Lemire's SWAR steps: each adds lane pairs of a word, as (multiplier, shift, mask).
_SWAR = ((10, 8, 0x00FF00FF00FF00FF), (100, 16, 0x0000FFFF0000FFFF), (10000, 32, 0xFFFFFFFF))


def _number(buf: np.ndarray, end: np.ndarray, length: np.ndarray,
            point: bool = True) -> np.ndarray | None:
    """Each field [end - length, end) read as ``-?digits[.digits]`` (float64), or without
    ``point`` as ``-?digits`` (int64), of at most 16 digits whose integer lies below
    2**53, so that a float is exact; None unless all are.

    The window that ends each field is little-endian words of digit lanes: one word when
    no field has more than 8 bytes after its sign, else two.  The lanes before the point
    move up over it, and each word is read as eight digits at once (Lemire's SWAR digit
    parsing), in place.  A field of 16 digits and a point starts a byte before the
    window: its first digit fills the lane the move frees.
    """
    negative = buf.take(end - length) == ord("-")
    length = length - negative
    words = 1 if length.max(initial=0) <= 8 else 2
    width = 8 * words
    tail, after, scale = _WINDOWS[words]
    window = _rows(buf, end - width, width)
    window -= np.uint8(48)
    word = window.view("<u8")
    word &= tail.take(np.minimum(length, width)).view("<u8").reshape(-1, words)  # 0 before it
    mark = (window == np.uint8(ord(".") - 48 & 0xFF)).view("<u8")  # 1 in the point's lane
    scratch = np.multiply(mark, 0xFF, dtype=np.uint64)
    word &= np.invert(scratch, out=scratch)
    top = scratch.view(np.int64)  # each scratch word, once its top byte is shifted down
    np.right_shift(np.multiply(mark, _POINTS_IN, out=scratch), 56, out=scratch)
    marks = sum(top[:, k] for k in range(words))
    if (window.max(initial=0) > 9 or marks.max(initial=0) > point
            or np.any((length - marks < 1) | (length - marks > width))):
        return None
    if point:
        np.right_shift(np.multiply(mark, _COLUMN_OF[:words], out=scratch), 56, out=scratch)
        column = sum(top[:, k] for k in range(words))  # a copy: 1 + the point's column, or 0
        shifted = np.left_shift(word, 8, out=scratch)
        shifted[:, 1:] |= word[:, :-1] >> 56
        word ^= shifted  # the lanes after the point, the shifted ones up to it
        word &= after.take(column).view("<u8").reshape(-1, words)
        word ^= shifted
        if (long := np.flatnonzero(length > width)).size:
            first = buf[end[long] - width - 1] - np.uint8(48)
            if first.max() > 9:
                return None
            word[long, 0] |= first
    for multiplier, shift, keep in _SWAR:
        np.right_shift(word, shift, out=scratch)
        word *= multiplier
        word += scratch
        word &= keep
    lanes = word.view(np.int64)  # each below 10**8
    value = lanes[:, 0]
    for k in range(1, words):
        value = value * 10**8 + lanes[:, k]
    if value.max(initial=0) >= 2**53:
        return None
    if point:
        value = value / scale.take(column)
    return np.negative(value, out=value, where=negative)


def _nan_or_number(buf: np.ndarray, end: np.ndarray, length: np.ndarray) -> np.ndarray | None:
    """Each field read as ``nan`` or as ``_number``; None unless all are."""
    nan = (length == 3) & (_gather(buf, end - 4, "<u4") >> 8 == int.from_bytes(b"nan", "little"))
    value = np.full(end.size, np.nan)
    number = _number(buf, end[~nan], length[~nan])
    if number is not None:
        value[~nan] = number
        return value


def _mac(buf: np.ndarray, end: np.ndarray, length: np.ndarray) -> np.ndarray | None:
    """Each field read as a colon-hex MAC in either case, as int64; None unless all are."""
    mac = _rows(buf, end - 17, 17)
    octets = _OCTETS.take(np.ndarray(buffer=mac, dtype="<u2", shape=(end.size, 6), strides=(17, 3)))
    if np.any(length != 17) or np.any(mac[:, 2::3] != ord(":")) or octets.max(initial=0) > 255:
        return None
    word = np.zeros((end.size, 8), dtype=np.uint8)
    word[:, 2:] = octets
    return word.view(">i8").ravel()


def _token(buf: np.ndarray, end: np.ndarray, length: np.ndarray) -> np.ndarray | None:
    """Each field as bytes; None when one is longer than the buffer's padding."""
    width = int(length.max(initial=1))
    if width > _PAD:
        return None
    tokens = _rows(buf, end - length, width)
    tokens *= np.arange(width) < length[:, None]
    return tokens.view(f"S{width}").ravel()


# The reader's grammar for each converter, and the range its values must lie in.
_GRAMMARS = {
    float: (_number, None),
    finite: (_number, None),
    positive: (_number, lambda x: x > 0),
    non_negative: (_number, lambda x: x >= 0),
    non_negative_or_nan: (_nan_or_number, lambda x: ~(x < 0)),
    int: (lambda *field: _number(*field, point=False), None),
    non_negative_int: (lambda *field: _number(*field, point=False), lambda x: x >= 0),
    _mac_value: (_mac, None),
    str: (_token, None),
}


def _fields(data: bytes | str) -> tuple[Any, ...]:
    """The zero-padded UTF-8 bytes of the text, each field's end and length in them, the
    first field and field count of each data line (``#`` and blank lines skipped, runs of
    whitespace splitting fields), and whether the text holds a NUL (which numpy's bytes
    drop from a field's end) or a lone surrogate: only ``str.encode`` converts those text
    fields.  The separators are indexed in one pass (structural indexing, after Langdale
    and Lemire's simdjson).  Whitespace is what ``str.split`` splits on: Python's whitespace
    beyond ASCII is overwritten with spaces in the copy, and other bytes are token bytes.
    Bytes that are not UTF-8 raise the decoder's error for the whole text.  ``data`` is read
    through ``len``, ``find`` and one copy, which a mapped file does in C."""
    odd, checked = False, isinstance(data, str)
    if checked:
        try:
            data = data.encode()
        except UnicodeEncodeError:
            data, odd = data.encode("utf-8", "surrogatepass"), True
    size, hashed = len(data), data.find(b"#") >= 0
    buf = np.zeros(size + 2 * _PAD, dtype=np.uint8)
    buf[_PAD : _PAD + size] = np.frombuffer(data, dtype=np.uint8)
    if buf.max() > 127:
        high = np.flatnonzero(buf > 127)
        if not checked:  # each run of non-ASCII bytes, which ASCII bytes bound, at once
            try:
                str(np.insert(buf[high], np.flatnonzero(np.diff(high) > 1) + 1, 32), "utf-8")
            except UnicodeDecodeError:
                str(data, "utf-8")  # raises, at the whole text's positions
        lead = _gather(buf, high, ">u4") >> 8  # each non-ASCII byte and the two after it
        wide = np.where(np.isin(lead, _WIDE_SPACES), 3, 2 * np.isin(lead >> 8, _WIDE_SPACES))
        for k in range(3):
            buf[high[wide > k] + k] = ord(" ")
    # the last line's end, once: after the text, unless the text ends with one
    stop = _PAD + size + int(buf[_PAD + size - 1] != ord("\n"))
    buf[_PAD + size] = ord("\n")
    index = np.int32 if buf.size < 2**31 else np.int64
    sep = np.concatenate([np.flatnonzero(buf[i : min(i + _SCAN, stop)] <= 32).astype(index) + i
                          for i in range(_PAD, stop, _SCAN)])
    kind = buf.take(sep)
    newline = kind == ord("\n")
    if not np.all(newline | (kind == ord(" "))) and not (space := _SPACE[kind]).all():
        odd |= bool(np.any(kind == 0))
        sep, newline = sep[space], newline[space]
    length = np.diff(sep, prepend=index(_PAD - 1))
    length -= 1  # of the field before each separator
    newline = np.flatnonzero(newline)
    empty = np.flatnonzero(length == 0)  # separators with no field before them
    ends = newline + 1 - np.searchsorted(empty, newline, side="right")  # fields up to each line end
    count = np.diff(ends, prepend=0).astype(index)
    first, count = (ends - count)[count > 0].astype(index), count[count > 0]
    if empty.size:
        sep, length = sep[length > 0], length[length > 0]
    if hashed:
        data_row = buf[sep[first] - length[first]] != ord("#")
        first, count = first[data_row], count[data_row]
    return buf, sep, length, first, count, odd


def _converted(convert: Callable[[str], Any], buf: np.ndarray, end: np.ndarray,
               length: np.ndarray) -> tuple[np.ndarray, str | None]:
    """``convert`` of each field's text (``str.encode`` for ``str``), up to the first field
    it refuses, and that refusal or None.  Floats and ints come as float64 and int64, which
    any run of them keeps; text and ints outside int64 as objects."""
    start = end - length
    raw = buf[start.min() : end.max()].tobytes()
    spans = zip((start - start.min()).tolist(), (end - start.min()).tolist())
    text = raw.decode() if raw.isascii() else None  # byte offsets are then character offsets
    fields = (raw[a:b].decode("utf-8", "surrogatepass") if text is None else text[a:b]
              for a, b in spans)
    convert, values, refusal = str.encode if convert is str else convert, [], None
    try:
        for field in fields:
            values.append(convert(field))
    except ValueError as exc:
        refusal = str(exc)
    with contextlib.suppress(OverflowError):
        return np.array(values, dtype=type(values[0]) if values and convert is not str.encode
                        else object), refusal
    return np.array(values, dtype=object), refusal


def read_table(data: bytes | str, *layouts: Sequence[Callable[[str], Any]],
               checks: Sequence[tuple] = ()) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each data row's field count and the columns of the longest layout its rows have (of
    the longest given when there is no row; text as UTF-8 bytes, 0 or b"" where a row has no
    field).  A layout is one converter per column: a row's field count picks its layout, or,
    when the layouts are not prefixes of the longest, the first data row's picks one for
    every row.  A check is a file rule, a pair (holds, say): ``holds``, one numpy expression
    of the columns of the longest layout, and ``say``, the refusal worded from one row's values.

    A column is decoded a block of ``_CHUNK`` rows at a time from ``_fields``' index by its
    converter's grammar and range (``_GRAMMARS``), through strided views of the index when
    every line is a data row of one field count, else through gathers from it; a block they
    decline goes through the converter field by field.  The error names the first faulty
    line, as a reader of one line at a time does: within a line the field count comes first,
    then the converters from left to right; and the checks hold on the rows before it, or
    name the earliest row where one fails, by its lowest check.
    """
    buf, end, length, first, count, odd = _fields(data)
    by_count = {len(layout): tuple(layout) for layout in layouts}
    widest = max(by_count.values(), key=len)
    if count.size and any(widest[:n] != layout for n, layout in by_count.items()):
        by_count = {n: by_count[n]} if (n := int(count[0])) in by_count else by_count
        widest = max(by_count.values(), key=len)
    present = np.flatnonzero(np.bincount(count))
    # rows of one field count and no other field indexed: the fields are a row-major matrix
    matrix = (end.reshape(count.size, -1), length.reshape(count.size, -1)) if (
        present.size and end.size == count.size * present[0]) else None
    limit, fault = count.size, None
    if not set(present.tolist()) <= by_count.keys():
        limit = int(np.argmin(np.isin(count, list(by_count))))
        fault = f"expected {' or '.join(map(str, sorted(by_count)))} fields, got {count[limit]}"
        present = np.flatnonzero(np.bincount(count[:limit]))
    layout, shortest = (by_count[present[-1]], present[0]) if present.size else (widest, 0)
    decoded = []
    for j, convert in enumerate(layout):
        grammar, check = _GRAMMARS.get(convert, (None, None))
        grammar = None if odd and convert is str else grammar
        rows = np.flatnonzero(count[:limit] > j) if j >= shortest else None  # None: all
        if matrix and present.size:
            ends, lengths = matrix[0][:limit, j], matrix[1][:limit, j]
        else:
            at = (first[:limit] if rows is None else first[rows]) + j
            ends, lengths = end[at], length[at]
        parts = []
        for i in range(0, ends.size, _CHUNK):
            block, refusal = (ends[i : i + _CHUNK], lengths[i : i + _CHUNK]), None
            part = grammar and grammar(buf, *block)
            if part is None or check is not None and not np.all(check(part)):
                part, refusal = _converted(convert, buf, *block)
            parts.append(part)
            if refusal is not None:
                limit, fault = i + part.size if rows is None else int(rows[i + part.size]), refusal
                break
        decoded.append((np.concatenate(parts) if parts else
                        np.array([], dtype=object if convert is str else None), rows))
    columns = []
    for (column, rows), convert in zip(decoded, layout):
        n = limit if rows is None else int(np.searchsorted(rows, limit))
        column = column[:n]
        if rows is not None:
            column, held = np.full(limit, b"" if convert is str else 0, column.dtype), column
            column[rows[:n]] = held
        if column.dtype == object and convert is not str:  # ints, some outside int64
            column = np.array(column.tolist())  # typed as numpy types a list of them
        columns.append(column)
    absent = [b"" if convert is str else 0 for convert in widest[len(columns):]]
    failed = [(int(np.flatnonzero(np.logical_not(held))[0]), k)
              for k, (holds, _) in enumerate(checks)
              if not np.all(held := holds(*columns, *absent))]
    if failed:
        limit, k = min(failed)
        fault = checks[k][1](*[column[limit : limit + 1].item() for column in columns], *absent)
    if fault is not None:
        at = end[first[limit]] - length[first[limit]]  # where the faulty line's first field is
        raise ParseError(f"line {np.count_nonzero(buf[_PAD:at] == 10) + 1}: {fault}")
    return count, [column.astype(bytes) if convert is str and column.dtype == object else column
                   for column, convert in zip(columns, layout)]


def _sorted_events(t: np.ndarray, mac: np.ndarray, names: np.ndarray,
                   rssi: np.ndarray) -> Events:
    """The events of the columns, stably sorted by time, with ap ids numbered by
    their UTF-8 ``names``' first appearance in that order (a run of equal names' head)."""
    order = np.argsort(t, kind="stable") if np.any(t[1:] < t[:-1]) else slice(None)
    names = names[order]
    heads = np.flatnonzero(np.concatenate(([True], names[1:] != names[:-1]))[: names.size])
    aps, first, ap = np.unique(names[heads], return_index=True, return_inverse=True)
    rank = np.argsort(first)  # names by first appearance
    ap = np.repeat(np.argsort(rank)[ap.ravel()], np.diff(heads, append=names.size))
    return Events(t[order], mac[order], ap, rssi[order], [name.decode() for name in aps[rank]])


_EVENT_LAYOUT = (float, _mac_value, str)


def parse_events(data: bytes | str) -> Events:
    """Parse the line-delimited event format.

    Each non-comment line is ``<timestamp> <mac> <ap_id> [rssi]``.  Events are
    returned sorted by timestamp; input order is preserved for ties.
    """
    count, (t, mac, names, *level) = read_table(data, _EVENT_LAYOUT, (*_EVENT_LAYOUT, int),
                                                checks=_EVENT_CHECKS)
    rssi = np.where(count == 4, level[0] if level else 0, RSSI_NONE)
    return _sorted_events(t, mac, names, rssi.astype(np.int16))


def _mac_texts(mac: np.ndarray) -> np.ndarray:
    """The lowercase colon-hex text of each MAC, as bytes."""
    text = np.empty((mac.size, 6), dtype=_OCTET_TEXT)
    text["hex"] = _HEX_PAIRS.take(mac.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 2:])
    text["colon"] = np.frombuffer(b":::::\0", dtype=np.uint8)  # no colon after the last
    return text.view("S18").ravel()


def format_events(events: Events) -> str:
    """Serialize events to the line-delimited text format, whose ap names must be one
    token without whitespace each, so that they read back as themselves."""
    for name in events.aps:
        if name.split() != [name]:
            raise ValueError(f"ap name must be one token without whitespace, got {name!r}")
    aps = "".join(events.aps)
    names = np.array(events.aps, dtype=bytes if aps.isascii() and "\0" not in aps else object)
    levels, level = np.unique(events.rssi, return_inverse=True)
    levels = np.array([b"" if r == RSSI_NONE else b" %d" % r for r in levels.tolist()])
    return format_rows("%.6f %s %s%s\n", [events.t, _mac_texts(events.mac), names[events.ap],
                                          levels[level.ravel()]])
