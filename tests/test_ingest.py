import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from event_columns import Event, event_rows, events_of, mac, mac_text
from probecount import ingest
from probecount.ingest import (
    Events,
    ParseError,
    format_events,
    is_randomized,
    parse_capture,
    parse_events,
)

from capture_files import (
    RADIOTAP_FIELDS,
    beacon,
    data_frame,
    pcap,
    pcap_records,
    probe_request,
    radiotap,
    radiotap_fields,
)


# ---------------------------------------------------------------- MAC addresses


def macs_read_back(macs):
    """The MACs of an event text holding one event per MAC text, in the same order."""
    return parse_events("".join(f"0.0 {m} ap\n" for m in macs)).mac.tolist()


def mac_texts(values):
    """``ingest._mac_texts`` of MAC integers, as ``str``."""
    return [text.decode() for text in ingest._mac_texts(np.array(values, dtype=np.uint64))]


def test_mac_parse_and_format_canonical():
    events = parse_events("1.0 AA:bb:CC:dd:EE:01 ap\n")
    assert events.mac.tolist() == [0xAA_BB_CC_DD_EE_01]
    assert format_events(events, "ap") == "1.000000 aa:bb:cc:dd:ee:01 ap\n"
    assert macs_read_back(mac_texts(events.mac)) == events.mac.tolist()


MAC_VALUES = st.integers(0, 2**48 - 1)


@given(MAC_VALUES)
def test_mac_round_trip(value):
    assert mac_texts([value]) == [mac_text(value)]
    assert macs_read_back(mac_texts([value])) == [value]


@given(st.lists(MAC_VALUES, max_size=20))
def test_mac_integer_identity(values):
    texts = mac_texts(values)
    assert sorted(texts) == mac_texts(sorted(values))  # integer order is text order
    assert macs_read_back(texts) == values
    for value, text in zip(values, texts):
        assert text == ":".join(f"{o:02x}" for o in value.to_bytes(6, "big"))


@pytest.mark.parametrize("bad", ["", "aa:bb:cc:dd:ee", "zz:00:00:00:00:01", "aabbccddeeff", "a:b:c:d:e:f"])
def test_mac_parse_rejects_malformed(bad):
    with pytest.raises(ParseError, match="line 1"):
        parse_events(f"1.0 {bad} ap\n")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("02:00:00:00:00:01", True),   # locally administered
        ("00:16:3e:00:00:01", False),  # globally unique OUI
        ("03:00:00:00:00:01", False),  # multicast bit excludes
    ],
)
def test_is_randomized(text, expected):
    assert is_randomized(mac(text)) is expected


@given(MAC_VALUES)
def test_is_randomized_depends_only_on_first_octet(value):
    octets = value.to_bytes(6, "big")
    expected = bool(octets[0] & 0x02) and not octets[0] & 0x01
    assert is_randomized(value) is expected


@given(st.lists(MAC_VALUES, max_size=20))
def test_is_randomized_on_a_column_matches_the_scalar_form(values):
    flags = is_randomized(np.array(values, dtype=np.uint64))
    assert flags.dtype == np.bool_
    assert flags.tolist() == [is_randomized(v) for v in values]


# ---------------------------------------------------------------- text format


def test_parse_events_sorts_by_timestamp():
    text = "2.0 aa:bb:cc:dd:ee:02 ap1\n1.0 aa:bb:cc:dd:ee:01 ap1\n"
    events = parse_events(text)
    assert events.t.tolist() == [1.0, 2.0]


def test_parse_events_stable_for_ties():
    text = "1.0 aa:bb:cc:dd:ee:02 ap1\n1.0 aa:bb:cc:dd:ee:01 ap2\n0.5 aa:bb:cc:dd:ee:03 ap1\n"
    events = parse_events(text)
    assert list(map(mac_text, events.mac.tolist())) == [
        "aa:bb:cc:dd:ee:03", "aa:bb:cc:dd:ee:02", "aa:bb:cc:dd:ee:01"]


def test_parse_events_empty_input():
    assert len(parse_events("")) == 0
    assert len(parse_events("# just a comment\n\n")) == 0


def test_parse_events_rssi_optional():
    events = parse_events("1.0 aa:bb:cc:dd:ee:01 ap1 -63\n2.0 aa:bb:cc:dd:ee:01 ap1\n")
    assert event_rows(events) == [(1.0, mac("aa:bb:cc:dd:ee:01")), (2.0, mac("aa:bb:cc:dd:ee:01"))]


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
    for rssi in (None, -60):
        lines = ["1.500000 aa:bb:cc:dd:ee:01 ap1", "2.000000 02:00:00:00:00:01 ap1"]
        text = "".join(line + ("" if rssi is None else f" {rssi}") + "\n" for line in lines)
        once = format_events(parse_events(text), "ap1", rssi)
        assert once == text
        assert format_events(parse_events(once), "ap1", rssi) == once


# ---------------------------------------------------------------- column reader
#
# parse_events decodes a file as columns, a block of a column by its grammar or,
# where that declines, by the column's converter; it must give the events or
# the error of the row-at-a-time oracles.read_rows.


def _outcome(text):
    """parse_events' events, ``t`` as bits, with the field counts and the ap and rssi
    columns that ``read_table`` decodes from the text (parse_events checks them and drops
    them); or its error message."""
    try:
        events = parse_events(text)
    except ParseError as exc:
        return str(exc)
    count, columns = ingest.read_table(text, ingest._EVENT_LAYOUT, (*ingest._EVENT_LAYOUT, int),
                                       checks=ingest._EVENT_CHECKS)
    return (events.t.view(np.uint64).tolist(), events.mac.tolist(), count.tolist(),
            [column.tolist() for column in columns[2:]])


def _row_outcome(text):
    with mock.patch.object(ingest, "read_table", oracles.read_rows):
        return _outcome(text)


_HEX_DIGITS = "0123456789abcdefABCDEF"
_AP_CHARS = "".join(chr(c) for c in range(33, 127) if chr(c) != "#")

_stamps = st.one_of(
    st.builds("{:.{}f}".format, st.floats(0, 2**32 - 1), st.integers(0, 5)),
    st.builds(str, st.integers(0, 2**32 - 1)),
    st.from_regex(r"\A[0-9]{0,7}\.[0-9]{1,8}\Z"),
    st.sampled_from(["5.", ".5", "0", "007.250", "4294967295.99999", "4294967295.9999",
                     "123456789.012345", "0.00000000000001"]),
)
_macs = st.lists(st.text(_HEX_DIGITS, min_size=2, max_size=2), min_size=6, max_size=6).map(":".join)
_aps = st.text(_AP_CHARS, min_size=1, max_size=6) | st.sampled_from(["ap1", "ap2", "AP1", "0"])
_rssis = st.builds(str, st.integers(-32767, 32767)) | st.sampled_from(["-0", "0007", "-00060"])
_lines = st.tuples(_stamps, _macs, _aps, st.none() | _rssis).map(
    lambda f: " ".join(x for x in f if x is not None))


def _text(lines, trailing):
    return "\n".join(lines) + ("\n" if trailing and lines else "")


@settings(max_examples=300, deadline=None)
@given(st.lists(_lines, max_size=12), st.booleans())
def test_uniform_text_reads_as_the_row_reader_reads_it(lines, trailing):
    text = _text(lines, trailing)
    assert _outcome(text) == _row_outcome(text)


# Each line that once sent a whole event file to the row reader, as a line that
# differs from a uniform line only by it: the reader masks, splits or decodes it,
# or sends the block of a column that holds it through the column's converter.
FALLBACK_LINES = {
    "comment": "# 1.0 aa:bb:cc:dd:ee:01 ap1",
    "hash in an ap id": "1.0 aa:bb:cc:dd:ee:01 ap#1",
    "blank line": "",
    "tab": "1.0\taa:bb:cc:dd:ee:01 ap1",
    "two spaces": "1.0  aa:bb:cc:dd:ee:01 ap1",
    "leading space": " 1.0 aa:bb:cc:dd:ee:01 ap1",
    "trailing space": "1.0 aa:bb:cc:dd:ee:01 ap1 ",
    "crlf": "1.0 aa:bb:cc:dd:ee:01 ap1\r",
    "lone cr": "1.0 aa:bb:cc:dd:ee:01 ap1\r2.0 aa:bb:cc:dd:ee:02 ap1",
    "form feed": "1.0 aa:bb:cc:dd:ee:01 ap1\x0c",
    "nul": "1.0 aa:bb:cc:dd:ee:01 ap\x001",
    "delete": "1.0 aa:bb:cc:dd:ee:01 ap\x7f",
    "non-ascii ap id": "1.0 aa:bb:cc:dd:ee:01 café",
    "non-ascii space": "1.0\u00a0aa:bb:cc:dd:ee:01 ap1",
    "non-ascii comment": "# caf\u00e9 \u20ac\U0001f4e1",
    "non-ascii comment after spaces": " \t# caf\u00e9",
    "non-ascii space before a comment": "\u00a0# caf\u00e9",
    "non-ascii after a hash in an ap id": "1.0 aa:bb:cc:dd:ee:01 ap#caf\u00e9",
    "lone surrogate in a comment": "# caf\ud800",
    "plus sign rssi": "1.0 aa:bb:cc:dd:ee:01 ap1 +5",
    "underscore rssi": "1.0 aa:bb:cc:dd:ee:01 ap1 -6_0",
    "underscore timestamp": "1_0.5 aa:bb:cc:dd:ee:01 ap1",
    "unicode digits": "\u0661.5 aa:bb:cc:dd:ee:01 ap1",
    "unicode rssi digits": "1.0 aa:bb:cc:dd:ee:01 ap1 -\u0666\u0660",
    "exponent": "1e3 aa:bb:cc:dd:ee:01 ap1",
    "nan": "nan aa:bb:cc:dd:ee:01 ap1",
    "inf": "inf aa:bb:cc:dd:ee:01 ap1",
    "sign on a timestamp": "+1.0 aa:bb:cc:dd:ee:01 ap1",
    "two points": "1.0.5 aa:bb:cc:dd:ee:01 ap1",
    "point alone": ". aa:bb:cc:dd:ee:01 ap1",
    "16 digits": "4294967295.123456 aa:bb:cc:dd:ee:01 ap1",
    "16 digits below 2**53": "12345.67890123456 aa:bb:cc:dd:ee:01 ap1",
    "16 digits at 2**53": "9.007199254740992 aa:bb:cc:dd:ee:01 ap1",
    "sign before 15 digits and a point": "+700000000.991770 aa:bb:cc:dd:ee:01 ap1",
    "letter before 15 digits and a point": "J700000000.991770 aa:bb:cc:dd:ee:01 ap1",
    "17 digits at 2**32": "4294967295.9999999 aa:bb:cc:dd:ee:01 ap1",
    "17 digits rounding below 2**32": "4294967295.9999990 aa:bb:cc:dd:ee:01 ap1",
    "timestamp at 2**32": "4294967296 aa:bb:cc:dd:ee:01 ap1",
    "rssi above int16": "1.0 aa:bb:cc:dd:ee:01 ap1 32768",
    "rssi below -32767": "1.0 aa:bb:cc:dd:ee:01 ap1 -32768",
    "six-digit rssi": "1.0 aa:bb:cc:dd:ee:01 ap1 -000060",
    "minus alone": "1.0 aa:bb:cc:dd:ee:01 ap1 -",
    "minus inside rssi": "1.0 aa:bb:cc:dd:ee:01 ap1 6-0",
    "dashed mac": "1.0 aa-bb-cc-dd-ee-01 ap1",
    "colon in a nibble": "1.0 aa:b::cc:dd:ee:01 ap1",
    "short mac": "1.0 aa:bb:cc:dd:ee:1 ap1",
    "non-hex mac": "1.0 aa:bb:cc:dd:ee:0g ap1",
    "two fields": "1.0 aa:bb:cc:dd:ee:01",
    "five fields": "1.0 aa:bb:cc:dd:ee:01 ap1 -60 x",
    "long ap id": "1.0 aa:bb:cc:dd:ee:01 " + "a" * 65,
}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("trigger", sorted(FALLBACK_LINES))
def test_fallback_triggers_read_as_the_row_reader_reads_them(trigger, where):
    lines = ["0.5 02:00:00:00:00:01 ap2 -60", "2.0 aa:BB:cc:DD:ee:02 ap1"]
    lines.insert({"first": 0, "middle": 1, "last": 2}[where], FALLBACK_LINES[trigger])
    text = "\n".join(lines) + "\n"
    assert _outcome(text) == _row_outcome(text)


def test_a_lone_surrogate_in_an_ap_id_is_refused_though_the_ap_is_not_kept():
    text = "0.5 02:00:00:00:00:01 ap2 -60\n1.0 aa:bb:cc:dd:ee:01 ap\ud800\n"
    message = ("line 2: 'utf-8' codec can't encode character '\\ud800' in position 2: "
               "surrogates not allowed")
    assert _outcome(text) == _row_outcome(text) == message


_EVENT_LINES ="0.5 02:00:00:00:00:01 ap2 -60\n2.0 aa:BB:cc:DD:ee:02 ap1\n"


@pytest.mark.parametrize("comment", ["# caf\u00e9", " \t# \u20ac\u00a0\U0001f4e1\r"])
def test_utf8_comment_bytes_are_skipped(comment):
    data = f"{comment}\n{_EVENT_LINES}{comment}".encode()
    assert _outcome(data) == _outcome(_EVENT_LINES) == _row_outcome(data)


@pytest.mark.parametrize("data", [
    b"1.0 aa:bb:cc:dd:ee:01 caf\xc3\xa9\n# caf\xc3\xa9\n",
    b"# caf\xc3\xa9\n\xc2\xa0# caf\xc3\xa9\n",
    b"1.0 aa:bb:cc:dd:ee:01 ap#caf\xc3\xa9\n",
    b"# caf\xc3\xa9\n1.0 \xc3\xa9a:bb:cc:dd:ee:01 ap\n",
])
def test_other_non_ascii_bytes_read_as_the_row_reader_reads_them(data):
    assert _outcome(data + _EVENT_LINES.encode()) == _row_outcome(data + _EVENT_LINES.encode())


@pytest.mark.parametrize("comment", [b"# caf\xe9", b"# caf\xc3", b"# \x80 caf\xc3\xa9",
                                     b"# \xed\xa0\x80", b"# \xc0\xaf"])
def test_a_comment_that_is_not_utf8_keeps_the_decoders_message(tmp_path, comment):
    data = _EVENT_LINES.encode() + comment + b"\n"
    path = tmp_path / "bad.events"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as decoding:
        data.decode("utf-8")
    with pytest.raises(ParseError) as parsing:
        ingest.read_file(str(path), parse_events)
    assert str(parsing.value) == f"{path}: {decoding.value}"


@settings(max_examples=200, deadline=None)
@given(st.lists(_lines, min_size=1, max_size=8), st.sampled_from(sorted(FALLBACK_LINES)),
       st.data())
def test_fallback_within_generated_text_matches_the_row_reader(lines, trigger, data):
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, FALLBACK_LINES[trigger])
    # a blank last line is a line only with a newline after it
    last_blank = (trigger, at) == ("blank line", len(lines) - 1)
    text = _text(lines, data.draw(st.booleans()) or last_blank)
    assert _outcome(text) == _row_outcome(text)


def test_columnar_path_decodes_unix_epoch_timestamps():
    # 16 digits, the first one a byte before the 16-byte window, below 2**53
    text = ("1700000000.991770 aa:bb:cc:dd:ee:01 ap1 -60\n"
            "-1700000003.609513 02:00:00:00:00:02 ap1\n")
    # a negative time is out of range
    assert _outcome(text) == _row_outcome(text) == (
        "line 2: event timestamp -1700000003.609513 outside [0, 2**32) s")
    text = text.replace("-17", "17")
    assert parse_events(text).t.tolist() == [1700000000.99177, 1700000003.609513]
    assert _outcome(text) == _row_outcome(text)


def test_columnar_path_decodes_15_digits():
    stamp = "4294967295.99999"  # 15 digits: decoded, and below 2**32
    text = f"{stamp} aa:bb:cc:dd:ee:01 ap1\n"
    assert parse_events(text).t[0] == float(stamp)
    assert _outcome(text) == _row_outcome(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(1, 3)),
                max_size=10))
def test_runs_out_of_time_order_are_sorted_stably(runs):
    """Runs of one MAC, interleaved and out of time order, come out in stable time order,
    on both reading paths."""
    rows = [(t, f"aa:bb:cc:dd:ee:0{m}") for t, m, length in runs for _ in range(length)]
    text = "".join(f"{t}.5 {m} caf\u00e9\n" for t, m in rows)
    ordered = sorted(rows, key=lambda row: row[0])
    assert event_rows(parse_events(text)) == [(t + 0.5, mac(m)) for t, m in ordered]
    assert _outcome(text) == _row_outcome(text)


# ---------------------------------------------------------------- capture format


GOLDEN_RECORDS = [
    (1.0, probe_request("aa:bb:cc:dd:ee:01")),
    (2.0, probe_request("aa:bb:cc:dd:ee:02")),
    (3.0, probe_request("aa:bb:cc:dd:ee:03")),
]


def test_parse_capture_golden():
    events = parse_capture(pcap(GOLDEN_RECORDS))
    assert event_rows(events) == [
        (1.0, mac("aa:bb:cc:dd:ee:01")),
        (2.0, mac("aa:bb:cc:dd:ee:02")),
        (3.0, mac("aa:bb:cc:dd:ee:03")),
    ]


def test_parse_capture_skips_non_probe_frames():
    records = GOLDEN_RECORDS[:1] + [(1.5, beacon("aa:bb:cc:dd:ee:09"))] + GOLDEN_RECORDS[1:]
    records.append((3.5, data_frame("aa:bb:cc:dd:ee:08")))
    events = parse_capture(pcap(records))
    assert list(map(mac_text, events.mac.tolist())) == [
        "aa:bb:cc:dd:ee:01",
        "aa:bb:cc:dd:ee:02",
        "aa:bb:cc:dd:ee:03",
    ]


def test_parse_capture_byte_swapped_matches_native():
    native = parse_capture(pcap(GOLDEN_RECORDS))
    swapped = parse_capture(pcap(GOLDEN_RECORDS, swapped=True))
    assert event_rows(native) == event_rows(swapped)


def test_parse_capture_radiotap_with_rssi():
    # the antenna-signal field is skipped with the rest of the header
    records = [(1.25, radiotap(probe_request("aa:bb:cc:dd:ee:01"), rssi=-72))]
    assert event_rows(parse_capture(pcap(records, linktype=127))) == [
        (1.25, mac("aa:bb:cc:dd:ee:01"))]


def test_parse_capture_radiotap_without_rssi():
    records = [(1.0, radiotap(probe_request("aa:bb:cc:dd:ee:01")))]
    assert event_rows(parse_capture(pcap(records, linktype=127))) == [
        (1.0, mac("aa:bb:cc:dd:ee:01"))]


def test_parse_capture_radiotap_alignment_and_extension():
    # TSFT forces 8-byte alignment before the antenna signal, and the extended present
    # bitmap shifts the field area by another word: the frame still starts at rt_len
    frame = radiotap(probe_request("aa:bb:cc:dd:ee:01"), rssi=-55, tsft=123456, extended=True)
    assert event_rows(parse_capture(pcap([(2.0, frame)], linktype=127))) == [
        (2.0, mac("aa:bb:cc:dd:ee:01"))]


def test_parse_capture_radiotap_swapped_byte_order():
    records = [(1.25, radiotap(probe_request("aa:bb:cc:dd:ee:01"), rssi=-72))]
    native = parse_capture(pcap(records, linktype=127))
    swapped = parse_capture(pcap(records, linktype=127, swapped=True))
    assert event_rows(native) == event_rows(swapped)


def test_parse_capture_sorts_out_of_order_records():
    events = parse_capture(pcap(list(reversed(GOLDEN_RECORDS))))
    assert events.t.tolist() == [1.0, 2.0, 3.0]


def test_parse_capture_microsecond_timestamps():
    events = parse_capture(pcap([(1.000001, probe_request("aa:bb:cc:dd:ee:01"))]))
    assert events.t.tolist() == [1.000001]


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
    assert parse_capture(bytes(data)).t.tolist() == [1.0, 2.999999, 3.0]


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
    events = parse_capture(pcap(records))
    text = format_events(events, "ap0")
    assert event_rows(parse_events(text)) == event_rows(events)
    assert format_events(parse_events(text), "ap0") == text


# ---------------------------------------------------------------- Events columns


def sample_events():
    return [Event(1.0, 1), Event(1.0, 2), Event(2.5, 2**48 - 1)]


def test_events_columns_and_views():
    listed = sample_events()
    events = events_of(listed)
    assert len(events) == 3
    assert events.t.dtype == np.float64 and events.mac.dtype == np.uint64
    assert event_rows(events) == listed
    assert [(row.timestamp, tuple(row.mac.octets)) for row in events] == [
        (1.0, (0, 0, 0, 0, 0, 1)), (1.0, (0, 0, 0, 0, 0, 2)), (2.5, (255,) * 6)]


# Time-sorted event rows up to the last float below 2**32 (2**32 - 2**-21) and the MAC
# 2**48 - 1.
_EVENT_ROWS = st.lists(st.tuples(
    st.floats(0, 2**32, exclude_max=True) | st.sampled_from([0.0, 2**32 - 1e-6, 2**32 - 2**-21]),
    MAC_VALUES | st.sampled_from([0, 2**48 - 1]),
), max_size=30).map(sorted)


@given(_EVENT_ROWS)
def test_the_row_view_holds_each_time_and_mac_octets(listed):
    events = Events(*([list(column) for column in zip(*listed)] or [[]] * 2))
    assert event_rows(events) == listed
    assert [(row.timestamp, list(row.mac.octets)) for row in events] == [
        (t, list(m.to_bytes(6, "big"))) for t, m in listed]
    for row in events:
        assert type(row.timestamp) is float and all(type(o) is int for o in row.mac.octets)


@pytest.mark.parametrize("line,message", [
    ("-1.0 01:00:00:00:00:01 ap", "event timestamp -1.0 outside [0, 2**32) s"),
    ("4294967296.0 01:00:00:00:00:01 ap", "event timestamp 4294967296.0 outside [0, 2**32) s"),
    ("nan 01:00:00:00:00:01 ap", "event timestamp nan outside [0, 2**32) s"),
    ("1.0 01:00:00:00:00:01 ap -32768", "rssi -32768 outside [-32767, 32767]"),
    (f"1.0 01:00:00:00:00:01 ap {2**15}", "rssi 32768 outside [-32767, 32767]"),
])
def test_each_event_rule_says_what_it_refuses(line, message):
    with pytest.raises(ParseError) as raised:
        parse_events(line + "\n")
    assert str(raised.value) == f"line 1: {message}"


def test_events_columns_are_read_only():
    events = events_of(sample_events())
    with pytest.raises(ValueError):
        events.t[0] = 5.0


@pytest.mark.parametrize(
    "columns,fragment",
    [
        (([2.0, 1.0], [1, 1]), "not sorted"),
        (([-1.0], [1]), "timestamp"),
        (([float("nan")], [1]), "timestamp"),
        (([2.0**32], [1]), "timestamp"),
        (([1.0], [2**48]), "MAC"),
        (([1.0], [2**64 - 1]), "MAC"),
        (([float("inf")], [1]), "timestamp"),
        (([1.0], [1, 2]), "length"),
        (([[1.0]], [[1]]), "1-D"),
    ],
)
def test_events_reject_bad_columns(columns, fragment):
    with pytest.raises(ValueError, match=fragment):
        Events(*columns)


def test_parse_events_rejects_rssi_outside_int16():
    assert len(parse_events("1.0 aa:bb:cc:dd:ee:01 ap1 32767\n")) == 1
    for rssi in ("32768", "-32768", "40000"):
        with pytest.raises(ParseError, match="line 1: rssi"):
            parse_events(f"1.0 aa:bb:cc:dd:ee:01 ap1 {rssi}\n")


def test_format_events_matches_per_event_writer():
    # tied timestamps and the MACs 0 and 2**48 - 1
    events = events_of([Event(1.0, 5), Event(1.0, 3), Event(1.0, 3), Event(2.5, 2**48 - 1),
                        Event(2.5, 0), Event(3.000001, 7)])
    text = format_events(events, "lobby", -60)
    assert text == oracles.format_events(event_rows(events), "lobby", -60)
    assert text.splitlines()[:2] == [
        "1.000000 00:00:00:00:00:05 lobby -60",
        "1.000000 00:00:00:00:00:03 lobby -60",
    ]
    assert event_rows(parse_events(text)) == event_rows(events)


@pytest.mark.parametrize("rssi", [None, -32767, 32767])
@pytest.mark.parametrize("ap", ["ap0", "caf\u00e9", "\u6771\u4eac", "50%", "%s%d%%", "%.6f", "a%"])
def test_format_events_writes_one_ap_and_rssi_on_every_line(ap, rssi):
    # an ap name holding '%' writes itself, as does one beyond ASCII
    events = events_of(sample_events())
    text = format_events(events, ap, rssi)
    assert text == oracles.format_events(event_rows(events), ap, rssi)
    tail = f" {ap}" + ("" if rssi is None else f" {rssi}")
    assert all(line.endswith(tail) for line in text.splitlines())
    assert event_rows(parse_events(text)) == event_rows(events)
    # the rssi reads back as itself
    _, columns = ingest.read_table(text, ingest._EVENT_LAYOUT, (*ingest._EVENT_LAYOUT, int),
                                   checks=ingest._EVENT_CHECKS)
    assert [c.tolist() for c in columns[3:]] == ([] if rssi is None else [[rssi] * len(events)])


def test_format_events_keeps_the_digit_matrix_for_ordinary_names():
    events = events_of(sample_events())
    written = []

    def spy(parts, columns):
        written.append(real(parts, columns))
        return written[-1]

    real = ingest._format_chunk
    with mock.patch.object(ingest, "_format_chunk", spy):
        format_events(events, "ap0")
        format_events(events, "caf\u00e9", -60)
    assert len(written) == 2 and None not in written


@given(
    st.lists(st.tuples(st.sampled_from([0.0, 0.5, 7.25, 1e6 + 0.000001]),
                       st.integers(0, 2**48 - 1)), max_size=30),
    st.sampled_from(["a", "ap-3", "50%", "caf\u00e9"]),
    st.none() | st.integers(-(2**15 - 1), 2**15 - 1),
)
def test_format_events_from_columns_matches_the_per_event_writer(listed, ap, rssi):
    listed = sorted(map(Event._make, listed), key=lambda row: row.t)
    assert format_events(events_of(listed), ap, rssi) == oracles.format_events(listed, ap, rssi)


def test_format_events_needs_time_order():
    late, early = (Event(t, 1) for t in (2.0, 1.0))
    with pytest.raises(ValueError, match="not sorted by timestamp"):
        format_events(events_of([late, early]), "ap0")


@pytest.mark.parametrize("name", ["hall 7", "", "a b", "tab\tap", "no-break\xa0ap"])
def test_format_events_refuses_an_ap_name_that_reads_back_as_other_values(name):
    # "hall 7" would read back as ap "hall" with rssi 7; "" and "a b" would write lines
    # that parse_events refuses
    events = parse_capture(pcap(GOLDEN_RECORDS))
    with pytest.raises(ValueError) as raised:
        format_events(events, name)
    assert str(raised.value) == f"ap name must be one token without whitespace, got {name!r}"


def test_format_events_writes_any_one_token_ap_name():
    events = parse_capture(pcap(GOLDEN_RECORDS))
    text = format_events(events, "hall_7#\u00e9")
    assert text.splitlines()[0] == "1.000000 aa:bb:cc:dd:ee:01 hall_7#\u00e9"
    assert event_rows(parse_events(text)) == event_rows(events)


@pytest.mark.parametrize("rssi", [10**6, -(2**15), 2**15, True, False, -60.0, "-60",
                                  np.int64(-60)])
def test_format_events_refuses_an_rssi_that_does_not_read_back(rssi):
    # 10**6 would write lines that parse_events refuses, and True would write "ap True"
    events = parse_capture(pcap(GOLDEN_RECORDS))
    with pytest.raises(ValueError) as raised:
        format_events(events, "ap", rssi)
    assert str(raised.value) == f"rssi must be None or an int in [-32767, 32767], got {rssi!r}"


# ---------------------------------------------------------------- capture variants


@pytest.mark.parametrize("swapped", [False, True])
def test_parse_capture_nanosecond_matches_microsecond(swapped):
    records = [(1.0, radiotap(probe_request("aa:bb:cc:dd:ee:01"))),
               (2.000001, radiotap(probe_request("aa:bb:cc:dd:ee:02"), rssi=-40)),
               (3.5, radiotap(probe_request("aa:bb:cc:dd:ee:03")))]
    micro = parse_capture(pcap(records, linktype=127, swapped=swapped))
    nano = parse_capture(pcap(records, linktype=127, swapped=swapped, nanosecond=True))
    assert event_rows(nano) == event_rows(micro)
    assert nano.t.tolist() == [1.0, 2.000001, 3.5]


def test_parse_capture_nanoseconds_round_half_to_even():
    frame = probe_request("aa:bb:cc:dd:ee:01")
    fractions = [499, 500, 1500, 2500, 2501, 999_999_499, 999_999_500]
    data = pcap_records([(7, f, frame) for f in fractions], nanosecond=True)
    assert parse_capture(data).t.tolist() == [
        7.0, 7.0, 7.000002, 7.000002, 7.000003, 7.999999, 8.0
    ]


def test_parse_capture_rejects_nanoseconds_past_one_second():
    frame = probe_request("aa:bb:cc:dd:ee:01")
    data = pcap_records([(1, 0, frame), (2, 10**9, frame)], nanosecond=True)
    offset = 24 + 16 + len(frame)
    with pytest.raises(ParseError, match=f"nanosecond field 1000000000 .* byte offset {offset}"):
        parse_capture(data)


def test_parse_capture_rejects_nanoseconds_rounding_past_32_bits():
    frame = probe_request("aa:bb:cc:dd:ee:01")
    last = 2**32 - 1
    assert parse_capture(pcap_records([(last, 999_999_499, frame)], nanosecond=True))
    with pytest.raises(ParseError, match="byte offset 24"):
        parse_capture(pcap_records([(last, 999_999_500, frame)], nanosecond=True))


# The run check's constants, and small ones under which a capture of a few
# hundred records crosses many spans, window edges and back-offs.
WALK_CONSTANTS = {
    "module": {name: getattr(ingest, name) for name in ("_SPAN", "_WINDOW", "_RUN", "_PAYS")},
    "small": {"_SPAN": 256, "_WINDOW": 2, "_RUN": 16, "_PAYS": 4},
}


def walk_outcome(walk, data):
    """The record offsets a walk gives, or its error; the headers that
    ``ingest._record_offsets`` returns beside its offsets must be those at the offsets."""
    bo, unit, per_second = ingest._PCAP_FORMATS[struct.unpack_from("<I", data)[0]]
    try:
        offsets = walk(data, bo, unit, per_second)
    except ParseError as exc:
        return str(exc)
    if walk is ingest._record_offsets:
        offsets, head = offsets
        assert head.tolist() == [list(struct.unpack_from(bo + "4I", data, offset))
                                 for offset in offsets]
    return list(offsets)


def assert_walks_agree(data, constants=WALK_CONSTANTS["module"]):
    expected = walk_outcome(oracles.record_offsets, data)
    with mock.patch.multiple(ingest, **constants):
        assert walk_outcome(ingest._record_offsets, data) == expected
    return expected


def _corrupt_capture(fault, swapped, nanosecond):
    """A five-record capture with the faults that ``fault`` names."""
    per_second = 10**9 if nanosecond else 10**6
    frames = [probe_request(f"aa:bb:cc:dd:ee:0{i}", b"\x00" * i) for i in range(5)]
    records = [(i + 1, i, frame) for i, frame in enumerate(frames)]
    bad = {"fraction_at_0": [0], "fraction_at_2": [2], "fraction_at_last": [4],
           "fractions_at_3_and_1": [3, 1], "fraction_in_truncated_last": [4],
           "fraction_then_truncated_last": [1], "fraction_then_truncated_header": [3]}
    for i in bad.get(fault, []):
        records[i] = (records[i][0], per_second + i, records[i][2])
    data = pcap_records(records, swapped=swapped, nanosecond=nanosecond)
    if "truncated_last" in fault:
        data = data[:-3]
    if fault.endswith("truncated_header"):
        data += b"\x00" * 7
    return data


@pytest.mark.parametrize("nanosecond", [False, True])
@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("fault", [
    "none", "fraction_at_0", "fraction_at_2", "fraction_at_last", "fractions_at_3_and_1",
    "truncated_last", "truncated_header", "fraction_in_truncated_last",
    "fraction_then_truncated_last", "fraction_then_truncated_header",
])
def test_record_walk_matches_record_by_record_checks(fault, swapped, nanosecond):
    expected = assert_walks_agree(_corrupt_capture(fault, swapped, nanosecond))
    assert (fault == "none") == isinstance(expected, list)


def test_parse_capture_names_pcapng():
    block = struct.pack("<III", 0x0A0D0D0A, 28, 0x1A2B3C4D) + bytes(16)
    with pytest.raises(ParseError, match="pcapng.*classic pcap"):
        parse_capture(block)


def test_parse_capture_radiotap_every_field_before_antsignal():
    fields = {0: bytes(8), 1: b"\x10", 2: b"\x02", 3: bytes(4), 4: bytes(2), 5: b"\xb5"}
    frame = radiotap_fields(probe_request("aa:bb:cc:dd:ee:01"), fields, ext_words=2)
    assert event_rows(parse_capture(pcap([(1.0, frame)], linktype=127))) == [
        (1.0, mac("aa:bb:cc:dd:ee:01"))]



@pytest.mark.parametrize("ext_words", [0, 1])
def test_parse_capture_antenna_signal_after_every_field_subset(ext_words):
    # every subset of present bits 0-4 before the signal (bit 5), with present words ending
    # on and off an 8-byte boundary; rt_len ends at the signal byte, just past it, or one
    # byte later, and each header is padded or cut to rt_len so that the frame follows it:
    # each frame, of its own MAC, is read from rt_len on, whatever the fields claim
    records, expected = [], []
    for bits in range(32):
        fields = {bit: bytes([0x10 * bit + i + 1 for i in range(RADIOTAP_FIELDS[bit][1])])
                  for bit in range(5) if bits >> bit & 1}
        fields[5] = struct.pack("<b", -1 - bits - 32 * ext_words)
        full = radiotap_fields(b"", fields, ext_words)
        for rt_len in (len(full) - 1, len(full), len(full) + 1):
            header = radiotap_fields(b"", fields, ext_words, rt_len)[:rt_len].ljust(rt_len, b"\0")
            t, source = len(records) + 1.0, mac_text(0x02_00_00_00_00_00 + len(records))
            records.append((t, header + probe_request(source)))
            expected.append((t, mac(source)))
    data = pcap(records, linktype=127)
    assert event_rows(parse_capture(data)) == oracles.parse_capture(data) == expected


def test_parse_capture_radiotap_antsignal_past_header_is_not_read():
    # rt_len 8 ends the header where the antenna signal would start: the byte
    # there is the frame's first (0x40), which starts the probe request
    frame = struct.pack("<BBHI", 0, 0, 8, 1 << 5) + probe_request("aa:bb:cc:dd:ee:01")
    assert event_rows(parse_capture(pcap([(1.0, frame)], linktype=127))) == [
        (1.0, mac("aa:bb:cc:dd:ee:01"))]

# ---------------------------------------------------------------- differential and fuzz

MAC_TEXTS = MAC_VALUES.map(mac_text)

FRAMES = st.one_of(
    st.builds(probe_request, MAC_TEXTS),
    st.builds(probe_request, MAC_TEXTS, st.binary(max_size=4)),
    st.builds(beacon, MAC_TEXTS),
    st.builds(data_frame, MAC_TEXTS),
    st.binary(max_size=20),  # short or arbitrary frames
)


@st.composite
def radiotap_frames(draw):
    bits = draw(st.sets(st.sampled_from(sorted(RADIOTAP_FIELDS))))
    fields = {bit: draw(st.binary(min_size=RADIOTAP_FIELDS[bit][1],
                                  max_size=RADIOTAP_FIELDS[bit][1])) for bit in bits}
    rt_len = draw(st.none() | st.none() | st.integers(0, 64))  # a bad length now and then
    frame = radiotap_fields(draw(FRAMES), fields, draw(st.integers(0, 3)), rt_len)
    if draw(st.integers(0, 9)) == 0:
        frame = frame[: draw(st.integers(0, len(frame)))]
    return frame


@st.composite
def captures(draw):
    """A classic capture mixing frame kinds, radiotap layouts and byte orders,
    with a timestamp fraction out of range or the file cut short now and then."""
    linktype = draw(st.sampled_from([105, 127]))
    nanosecond = draw(st.booleans())
    per_second = 10**9 if nanosecond else 10**6
    seconds = st.integers(0, 2**32 - 1)
    frames = radiotap_frames() if linktype == 127 else FRAMES
    records = draw(st.lists(
        st.tuples(st.one_of(st.integers(0, 3), seconds),
                  st.one_of(st.integers(0, 2), st.integers(0, per_second - 1)), frames),
        max_size=12,
    ))
    if records and draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(records) - 1))
        records[i] = (records[i][0], draw(st.integers(per_second, 2**32 - 1)), records[i][2])
    data = pcap_records(records, linktype, draw(st.booleans()), nanosecond)
    if draw(st.integers(0, 7)) == 0:
        data = data[: draw(st.integers(24, len(data)))]
    return data


def outcome(parse, data):
    """The event rows ``parse`` gives ``data``, or its error message."""
    try:
        events = parse(data)
    except ParseError as exc:
        return str(exc)
    return event_rows(events) if isinstance(events, Events) else events


# The decoder's block size, and small ones that put block edges inside small captures.
BLOCKS = [ingest._BLOCK, 1, 3, 64]


@pytest.mark.parametrize("block", BLOCKS)
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(captures())
def test_parse_capture_matches_record_by_record_decoder(block, data):
    with mock.patch.object(ingest, "_BLOCK", block):
        assert outcome(parse_capture, data) == outcome(oracles.parse_capture, data)


@settings(max_examples=300)
@given(
    st.sampled_from([0xA1B2C3D4, 0xD4C3B2A1, 0xA1B23C4D, 0x4D3CB2A1]),
    st.sampled_from([105, 127]),
    st.lists(st.tuples(st.binary(min_size=8, max_size=8), st.integers(0, 80),
                       st.binary(max_size=80)), max_size=8),
    st.binary(max_size=20),
)
def test_parse_capture_random_frames_raise_only_parse_error(magic, linktype, records, tail):
    """Random record headers (lengths that may lie) and random frame bytes."""
    bo = "<" if magic in (0xA1B2C3D4, 0xA1B23C4D) else ">"
    data = struct.pack("<I", magic) + struct.pack(bo + "HHiIII", 2, 4, 0, 0, 65535, linktype)
    for times, length, frame in records:
        data += times + struct.pack(bo + "II", length, length) + frame
    try:
        events = parse_capture(data + tail)
    except ParseError:
        return
    assert len(events) <= len(records)
    assert np.all(np.diff(events.t) >= 0)


# ---------------------------------------------------------------- record walk over runs


def run_capture(runs, swapped=False, nanosecond=False):
    """A capture of ``(length, count[, orig_len])`` runs of records of zero bytes, each
    with its own timestamp; ``orig_len`` is above ``incl_len``, as a snap length leaves
    it, unless given."""
    per_second = 10**9 if nanosecond else 10**6
    header = struct.Struct(">IIII" if swapped else "<IIII").pack
    records = [(length, (orig or [length + 100])[0]) for length, count, *orig in runs
               for _ in range(count)]
    return pcap_records([], swapped=swapped, nanosecond=nanosecond) + b"".join(
        header(i, i * 7919 % per_second, length, orig) + bytes(length)
        for i, (length, orig) in enumerate(records))


def first_check(length):
    """Records walked one by one before the first run check, in a capture of one length."""
    return ingest._SPAN // (16 + length) + 1


@st.composite
def run_captures(draw):
    """Hundreds to thousands of records in runs of a few lengths, in either byte order,
    with a fraction out of range, the last record cut short or a partial header now and then."""
    nanosecond, swapped = draw(st.booleans()), draw(st.booleans())
    lengths = draw(st.lists(st.integers(0, 400), min_size=1, max_size=3))
    runs = draw(st.lists(st.tuples(st.sampled_from(lengths), st.integers(1, 800)),
                         min_size=1, max_size=8).filter(lambda r: sum(c for _, c in r) >= 200))
    data = run_capture(runs, swapped, nanosecond)
    fault = draw(st.sampled_from(["none", "fraction", "truncated_last", "truncated_header"]))
    if fault == "fraction":
        # the header of a record the walk reaches, run check or not
        offset = draw(st.sampled_from(oracles.record_offsets(data, *ingest._PCAP_FORMATS[
            struct.unpack_from("<I", data)[0]])))
        per_second = 10**9 if nanosecond else 10**6
        bad = draw(st.integers(per_second, 2**32 - 1))
        data = (data[: offset + 4] + struct.pack(">I" if swapped else "<I", bad)
                + data[offset + 8 :])
    elif fault == "truncated_last":
        data = data[: -draw(st.integers(1, 16))]
    elif fault == "truncated_header":
        data += bytes(draw(st.integers(1, 15)))
    return data


@pytest.mark.parametrize("constants", WALK_CONSTANTS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run_captures())
def test_record_walk_over_runs_matches_record_by_record_checks(constants, data):
    assert_walks_agree(data, WALK_CONSTANTS[constants])


@pytest.mark.parametrize("nanosecond", [False, True])
@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("fault", ["fraction", "truncated_last", "truncated_header"])
def test_a_fault_inside_a_checked_run_is_named_as_record_by_record(fault, swapped, nanosecond):
    length = 60
    count = first_check(length) + 3 * ingest._WINDOW
    data = run_capture([(length, count)], swapped, nanosecond)
    # a record the run check reads in its second window, and the last one, which it
    # reads in its second window too
    offset = 24 + (first_check(length) + ingest._WINDOW + 5) * (16 + length)
    last = 24 + (count - 1) * (16 + length)
    if fault == "fraction":
        per_second = 10**9 if nanosecond else 10**6
        data = data[: offset + 4] + struct.pack(">I" if swapped else "<I", per_second) + data[
            offset + 8 :]
        message = f"field {per_second} out of range at byte offset {offset}"
    elif fault == "truncated_last":
        data = data[:-1]
        message = f"truncated packet record at byte offset {last}"
    else:
        data = data[: last + 7]
        message = f"truncated packet record header at byte offset {last}"
    assert message in assert_walks_agree(data)


@pytest.mark.parametrize("edge", [-1, 0, 1, 2])
@pytest.mark.parametrize("windows", [1, 3])
def test_a_run_that_breaks_at_a_window_edge(edge, windows):
    # the first check reads _WINDOW records, the next ones twice as many as the last
    length = 60
    first = first_check(length)
    run = first + ingest._WINDOW * (2**windows - 1) + edge
    offsets = assert_walks_agree(run_capture([(length, run), (length + 1, 5), (length, 700)]))
    assert len(offsets) == run + 705


@pytest.mark.parametrize("swapped", [False, True])
def test_a_run_check_reads_incl_len_in_the_capture_byte_order(swapped):
    # the first record the check reads is 65536 bytes long: its orig_len, and its
    # incl_len read in the other byte order, are the run's 256
    first = first_check(256)
    data = run_capture([(256, first, 256), (65536, 1, 256), (256, 5, 256)], swapped)
    assert len(assert_walks_agree(data)) == first + 6


@pytest.mark.parametrize("tail", [b"", b"\x00" * 7])
@pytest.mark.parametrize("extra", [-1, 0, 1, ingest._WINDOW, 3 * ingest._WINDOW])
def test_a_run_to_the_end_of_the_file(extra, tail):
    length = 40
    count = first_check(length) + ingest._WINDOW + extra
    expected = assert_walks_agree(run_capture([(length, count)]) + tail)
    if tail:
        assert expected == f"truncated packet record header at byte offset {24 + count * 56}"
    else:
        assert len(expected) == count


@pytest.mark.parametrize("block", BLOCKS)
def test_parse_capture_matches_record_by_record_decoder_over_mixed_runs(block):
    rng = np.random.default_rng(5)
    frames = [probe_request("aa:bb:cc:dd:ee:01"), beacon("00:11:22:33:44:55"),
              data_frame("aa:bb:cc:dd:ee:02"), probe_request("02:00:00:00:00:03", bytes(9))]
    layouts = [radiotap(f, rssi=-40 - i) for i, f in enumerate(frames)]
    layouts += [radiotap(frames[0], tsft=7, rssi=-70), radiotap(frames[3], extended=True)]
    records, t = [], 1.0
    while len(records) < 5000:
        frame = layouts[rng.integers(len(layouts))]
        for _ in range(int(rng.geometric(1 / 150))):
            records.append((t, frame))
            t += float(rng.integers(1, 10**6)) / 1e6
    data = pcap(records[:5000], linktype=127)
    with mock.patch.object(ingest, "_BLOCK", block):
        assert outcome(parse_capture, data) == outcome(oracles.parse_capture, data)


def three_block_capture(swapped, nanosecond, fault):
    """About three decoder blocks of records in random time order, mixing frame kinds,
    radiotap layouts (extension words, a bad or cut rt_len, frames too short to read)
    and frame lengths.  ``fault`` "late" rounds two nanosecond timestamps past 2**32 s,
    a beacon's in the first block and a probe request's in the second; "fraction" puts
    a fraction out of range in the third block."""
    rng = np.random.default_rng(11)
    per_second = 10**9 if nanosecond else 10**6
    frames = [probe_request("aa:bb:cc:dd:ee:01"), probe_request("02:00:00:00:00:03", bytes(9)),
              beacon("00:11:22:33:44:55"), data_frame("aa:bb:cc:dd:ee:02"), bytes(5)]
    layouts = [radiotap(f, rssi=-40 - i) for i, f in enumerate(frames)]
    layouts += [radiotap(frames[0], tsft=7, rssi=-70), radiotap(frames[1], extended=True),
                radiotap(frames[0], tsft=9, extended=True),
                radiotap_fields(frames[0], {1: b"\x10", 3: bytes(4), 5: b"\xc4"}, 2),
                radiotap_fields(frames[0], {5: b"\xc4"}, 0, 4), radiotap(frames[0])[:12],
                b"\x00\x00\x10"]
    n = 3 * ingest._BLOCK + 123
    kinds = rng.integers(len(layouts), size=n)
    seconds = rng.integers(0, 10**6, size=n)
    fractions = rng.integers(0, per_second, size=n)
    records = [[int(s), int(f), layouts[k]] for s, f, k in zip(seconds, fractions, kinds)]
    if fault == "late":
        records[ingest._BLOCK // 2] = [2**32 - 1, 999_999_700, layouts[2]]
        records[ingest._BLOCK + 500] = [2**32 - 1, 999_999_600, layouts[0]]
    elif fault == "fraction":
        records[2 * ingest._BLOCK + 7][1] = per_second
    return pcap_records(records, 127, swapped, nanosecond)


@pytest.mark.parametrize("swapped, nanosecond, fault", [
    (False, False, "none"), (False, False, "fraction"),
    (True, True, "none"), (True, True, "late"), (True, True, "fraction"),
])
def test_parse_capture_matches_record_by_record_decoder_over_three_blocks(
        swapped, nanosecond, fault):
    data = three_block_capture(swapped, nanosecond, fault)
    expected = outcome(oracles.parse_capture, data)
    assert outcome(parse_capture, data) == expected
    assert isinstance(expected, str) == (fault != "none")


# ---------------------------------------------------------------- left_sum


def test_left_sum_adds_left_to_right():
    # Python 3.12's sum compensates and gives 1.0000000000000002e16 here
    assert ingest.left_sum([1e16, 1.0, 1.0]) == 1e16
    assert ingest.left_sum(np.array([1.0, 1.0, 1e16])) == 1.0000000000000002e16
    assert ingest.left_sum([]) == 0.0
    # a sum from 0.0 is never -0.0, and an overflow is an infinity without a warning
    assert repr(ingest.left_sum(np.array([-0.0, -0.0]))) == "0.0"
    with np.errstate(all="raise"):
        assert ingest.left_sum([1e308, 1e308, -1.0]) == np.inf


# magnitudes from subnormal to near overflow, of either sign, and values whose order shows
_MIXED = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e3, 1e3),
                   st.sampled_from([1e16, -1e16, 1.0, 2.0**-1074, 0.1, -0.0]))


@given(st.lists(_MIXED, max_size=40))
def test_left_sum_is_a_for_loop_bit_for_bit(values):
    total = 0.0
    for value in values:
        total += value
    got = ingest.left_sum(np.array(values, dtype=np.float64))
    assert struct.pack("<d", got) == struct.pack("<d", total)
