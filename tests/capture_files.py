"""Builders for hand-crafted capture files used by the parser tests."""

import struct

LINKTYPE_IEEE802_11 = 105
LINKTYPE_RADIOTAP = 127


def mac_bytes(text):
    return bytes(int(p, 16) for p in text.split(":"))


def mgmt_frame(subtype, sa, body=b"\x00\x00"):
    fc = (subtype & 0x0F) << 4  # version 0, type 0 (management)
    return (
        struct.pack("<HH", fc, 0)
        + mac_bytes("ff:ff:ff:ff:ff:ff")
        + mac_bytes(sa)
        + mac_bytes("ff:ff:ff:ff:ff:ff")
        + struct.pack("<H", 0)
        + body
    )


def probe_request(sa, body=b"\x00\x00"):
    return mgmt_frame(4, sa, body)


def beacon(sa):
    return mgmt_frame(8, sa)


def data_frame(sa):
    # type 2 (data), subtype 0
    return struct.pack("<HH", 0x0008, 0) + mac_bytes("ff:ff:ff:ff:ff:ff") + mac_bytes(sa) * 2 + b"\x00\x00"


def radiotap(frame, rssi=None, tsft=None, extended=False):
    """Wrap a frame in a radiotap header exercising alignment and extension."""
    present = 0
    fields = b""
    offset = 8 + (4 if extended else 0)
    if tsft is not None:
        present |= 1 << 0
        pad = -offset % 8
        fields += b"\x00" * pad + struct.pack("<Q", tsft)
        offset += pad + 8
    if rssi is not None:
        present |= 1 << 5
        fields += struct.pack("<b", rssi)
        offset += 1
    header = struct.pack("<BBH", 0, 0, offset)
    if extended:
        header += struct.pack("<II", present | 0x80000000, 0)
    else:
        header += struct.pack("<I", present)
    return header + fields + frame


# Radiotap fields up to the antenna signal: present bit -> (alignment, size).
RADIOTAP_FIELDS = {0: (8, 8), 1: (1, 1), 2: (1, 1), 3: (2, 4), 4: (1, 2), 5: (1, 1)}
RADIOTAP_EXT = 0x80000000


def radiotap_fields(frame, fields, ext_words=0, rt_len=None):
    """Wrap a frame in a radiotap header holding ``fields`` (present bit -> bytes).

    ``ext_words`` extra present words follow the first one, chained by the
    extension bit; ``rt_len`` overrides the header's length field.
    """
    present = sum(1 << bit for bit in fields)
    words = [present] + [0] * ext_words
    body = b"".join(
        struct.pack("<I", word | (RADIOTAP_EXT if i < ext_words else 0))
        for i, word in enumerate(words)
    )
    offset = 4 + len(body)
    for bit in sorted(fields):
        align, size = RADIOTAP_FIELDS[bit]
        assert len(fields[bit]) == size
        pad = -offset % align
        body += b"\x00" * pad + fields[bit]
        offset += pad + size
    length = offset if rt_len is None else rt_len
    return struct.pack("<BBH", 0, 0, length) + body + frame


def pcap(records, linktype=LINKTYPE_IEEE802_11, swapped=False, nanosecond=False):
    """Classic capture file from (timestamp, frame) pairs."""
    per_second = 10**9 if nanosecond else 10**6
    raw = []
    for ts, frame in records:
        sec = int(ts)
        fraction = round((ts - sec) * per_second)
        if fraction == per_second:
            sec, fraction = sec + 1, 0
        raw.append((sec, fraction, frame))
    return pcap_records(raw, linktype, swapped, nanosecond)


def pcap_records(records, linktype=LINKTYPE_IEEE802_11, swapped=False, nanosecond=False):
    """Classic capture file from (seconds, fraction, frame) records."""
    bo = ">" if swapped else "<"
    magic = 0xA1B23C4D if nanosecond else 0xA1B2C3D4
    out = [struct.pack(bo + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)]
    for sec, fraction, frame in records:
        out.append(struct.pack(bo + "IIII", sec, fraction, len(frame), len(frame)) + frame)
    return b"".join(out)
