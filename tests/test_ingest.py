import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probecount.ingest import (
    MacAddress,
    ParseError,
    PrfEvent,
    format_events,
    is_randomized,
    parse_capture,
    parse_events,
)

from capture_files import beacon, data_frame, pcap, probe_request, radiotap


# ---------------------------------------------------------------- MacAddress


def test_mac_parse_and_format_canonical():
    mac = MacAddress.parse("AA:bb:CC:dd:EE:01")
    assert str(mac) == "aa:bb:cc:dd:ee:01"
    assert MacAddress.parse(str(mac)) == mac


MAC_VALUES = st.integers(0, 2**48 - 1)


@given(MAC_VALUES)
def test_mac_round_trip(value):
    mac = MacAddress(value)
    assert MacAddress.parse(str(mac)) == mac


@given(st.lists(MAC_VALUES, max_size=20))
def test_mac_integer_identity(values):
    macs = [MacAddress(v) for v in values]
    assert sorted(macs) == sorted(macs, key=str)
    for mac in macs:
        assert MacAddress.parse(str(mac)) == mac
        assert len(mac.octets) == 6
        assert MacAddress(int.from_bytes(bytes(mac.octets), "big")) == mac
        assert ":".join(f"{o:02x}" for o in mac.octets) == str(mac)


@given(st.one_of(st.integers(max_value=-1), st.integers(min_value=2**48)))
def test_mac_rejects_values_outside_48_bits(value):
    with pytest.raises(ValueError, match="out of range"):
        MacAddress(value)


@pytest.mark.parametrize("bad", ["", "aa:bb:cc:dd:ee", "zz:00:00:00:00:01", "aabbccddeeff", "a:b:c:d:e:f"])
def test_mac_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        MacAddress.parse(bad)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("02:00:00:00:00:01", True),   # locally administered
        ("00:16:3e:00:00:01", False),  # globally unique OUI
        ("03:00:00:00:00:01", False),  # multicast bit excludes
    ],
)
def test_is_randomized(text, expected):
    assert is_randomized(MacAddress.parse(text)) is expected


@given(MAC_VALUES)
def test_is_randomized_depends_only_on_first_octet(value):
    mac = MacAddress(value)
    octets = value.to_bytes(6, "big")
    expected = bool(octets[0] & 0x02) and not octets[0] & 0x01
    assert is_randomized(mac) is expected


def test_event_rejects_bad_timestamp():
    mac = MacAddress.parse("02:00:00:00:00:01")
    with pytest.raises(ValueError):
        PrfEvent(float("nan"), mac, "ap")
    with pytest.raises(ValueError):
        PrfEvent(-1.0, mac, "ap")
    with pytest.raises(ValueError):
        PrfEvent(2.0**32, mac, "ap")
    assert PrfEvent(2.0**32 - 1e-6, mac, "ap").timestamp < 2**32


# ---------------------------------------------------------------- text format


def test_parse_events_sorts_by_timestamp():
    text = "2.0 aa:bb:cc:dd:ee:02 ap1\n1.0 aa:bb:cc:dd:ee:01 ap1\n"
    events = parse_events(text)
    assert [e.timestamp for e in events] == [1.0, 2.0]


def test_parse_events_stable_for_ties():
    text = "1.0 aa:bb:cc:dd:ee:02 ap1\n1.0 aa:bb:cc:dd:ee:01 ap2\n"
    events = parse_events(text)
    assert [e.ap_id for e in events] == ["ap1", "ap2"]


def test_parse_events_empty_input():
    assert parse_events("") == []
    assert parse_events("# just a comment\n\n") == []


def test_parse_events_rssi_optional():
    events = parse_events("1.0 aa:bb:cc:dd:ee:01 ap1 -63\n2.0 aa:bb:cc:dd:ee:01 ap1\n")
    assert events[0].rssi == -63
    assert events[1].rssi is None


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("1.0 zz:00:00:00:00:01 ap1", "line 1"),
        ("nan aa:bb:cc:dd:ee:01 ap1", "line 1"),
        ("1e308 aa:bb:cc:dd:ee:01 ap1", "line 1: event timestamp"),
        ("4294967296.0 aa:bb:cc:dd:ee:01 ap1", "line 1: event timestamp"),
        ("notatime aa:bb:cc:dd:ee:01 ap1", "line 1"),
        ("1.0 aa:bb:cc:dd:ee:01", "line 1"),
        ("1.0 aa:bb:cc:dd:ee:01 ap1 low", "line 1"),
    ],
)
def test_parse_events_errors_name_the_line(line, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_events(line + "\n")


def test_parse_events_error_line_number_counts_comments():
    text = "# header\n1.0 aa:bb:cc:dd:ee:01 ap1\nbroken\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_events(text)


def test_text_round_trip_is_byte_identical():
    text = "1.500000 aa:bb:cc:dd:ee:01 ap1 -60\n2.000000 02:00:00:00:00:01 ap2\n"
    once = format_events(parse_events(text))
    assert once == text
    assert format_events(parse_events(once)) == once


# ---------------------------------------------------------------- capture format


GOLDEN_RECORDS = [
    (1.0, probe_request("aa:bb:cc:dd:ee:01")),
    (2.0, probe_request("aa:bb:cc:dd:ee:02")),
    (3.0, probe_request("aa:bb:cc:dd:ee:03")),
]


def test_parse_capture_golden():
    events = parse_capture(pcap(GOLDEN_RECORDS), ap_id="ap0")
    assert [(e.timestamp, str(e.mac)) for e in events] == [
        (1.0, "aa:bb:cc:dd:ee:01"),
        (2.0, "aa:bb:cc:dd:ee:02"),
        (3.0, "aa:bb:cc:dd:ee:03"),
    ]
    assert all(e.ap_id == "ap0" and e.rssi is None for e in events)


def test_parse_capture_skips_non_probe_frames():
    records = GOLDEN_RECORDS[:1] + [(1.5, beacon("aa:bb:cc:dd:ee:09"))] + GOLDEN_RECORDS[1:]
    records.append((3.5, data_frame("aa:bb:cc:dd:ee:08")))
    events = parse_capture(pcap(records))
    assert [str(e.mac) for e in events] == [
        "aa:bb:cc:dd:ee:01",
        "aa:bb:cc:dd:ee:02",
        "aa:bb:cc:dd:ee:03",
    ]


def test_parse_capture_byte_swapped_matches_native():
    native = parse_capture(pcap(GOLDEN_RECORDS))
    swapped = parse_capture(pcap(GOLDEN_RECORDS, swapped=True))
    assert native == swapped


def test_parse_capture_radiotap_with_rssi():
    records = [(1.25, radiotap(probe_request("aa:bb:cc:dd:ee:01"), rssi=-72))]
    events = parse_capture(pcap(records, linktype=127))
    assert len(events) == 1
    assert events[0].rssi == -72
    assert str(events[0].mac) == "aa:bb:cc:dd:ee:01"
    assert events[0].timestamp == 1.25


def test_parse_capture_radiotap_without_rssi():
    records = [(1.0, radiotap(probe_request("aa:bb:cc:dd:ee:01")))]
    events = parse_capture(pcap(records, linktype=127))
    assert events[0].rssi is None


def test_parse_capture_radiotap_alignment_and_extension():
    # TSFT forces 8-byte alignment before the antenna signal; the extended
    # present bitmap shifts the field area by another word.
    frame = radiotap(probe_request("aa:bb:cc:dd:ee:01"), rssi=-55, tsft=123456, extended=True)
    events = parse_capture(pcap([(2.0, frame)], linktype=127))
    assert events[0].rssi == -55


def test_parse_capture_radiotap_swapped_byte_order():
    records = [(1.25, radiotap(probe_request("aa:bb:cc:dd:ee:01"), rssi=-72))]
    native = parse_capture(pcap(records, linktype=127))
    swapped = parse_capture(pcap(records, linktype=127, swapped=True))
    assert native == swapped


def test_parse_capture_sorts_out_of_order_records():
    events = parse_capture(pcap(list(reversed(GOLDEN_RECORDS))))
    assert [e.timestamp for e in events] == [1.0, 2.0, 3.0]


def test_parse_capture_microsecond_timestamps():
    events = parse_capture(pcap([(1.000001, probe_request("aa:bb:cc:dd:ee:01"))]))
    assert events[0].timestamp == 1.000001


def test_parse_capture_rejects_bad_magic():
    with pytest.raises(ParseError, match="magic"):
        parse_capture(b"\x00" * 24)


def test_parse_capture_rejects_short_file():
    with pytest.raises(ParseError, match="header"):
        parse_capture(b"\xd4\xc3\xb2\xa1")


def test_parse_capture_rejects_unknown_linktype():
    with pytest.raises(ParseError, match="147"):
        parse_capture(pcap(GOLDEN_RECORDS, linktype=147))


def test_parse_capture_truncated_record_names_offset():
    data = pcap(GOLDEN_RECORDS)[:-5]
    with pytest.raises(ParseError, match=r"byte offset \d+"):
        parse_capture(data)


def test_parse_capture_rejects_microseconds_past_one_second():
    # the second record (at byte offset 24 + 16 + 24) claims 5,000,000 us
    data = bytearray(pcap(GOLDEN_RECORDS))
    offset = 24 + 16 + len(GOLDEN_RECORDS[0][1])
    struct.pack_into("<I", data, offset + 4, 5_000_000)
    with pytest.raises(ParseError, match=f"microsecond field 5000000 .* byte offset {offset}"):
        parse_capture(bytes(data))
    struct.pack_into("<I", data, offset + 4, 999_999)
    assert [e.timestamp for e in parse_capture(bytes(data))] == [1.0, 2.999999, 3.0]


def test_parse_capture_truncated_record_header_names_offset():
    data = pcap(GOLDEN_RECORDS) + b"\x00" * 7
    with pytest.raises(ParseError, match=r"byte offset \d+"):
        parse_capture(data)


def test_capture_to_text_round_trip():
    records = [
        (1.0, probe_request("aa:bb:cc:dd:ee:01")),
        (1.000001, probe_request("02:00:00:00:00:07")),
        (2.5, probe_request("aa:bb:cc:dd:ee:02")),
    ]
    events = parse_capture(pcap(records), ap_id="ap0")
    text = format_events(events)
    assert parse_events(text) == events
    assert format_events(parse_events(text)) == text
