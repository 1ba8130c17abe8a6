"""The columnar text layer: read_table and the digit-matrix format_rows.

Every column file is read by read_table, which decodes a block of a column by
its grammar or, where that declines, by the column's converter; format_rows
writes a chunk as a digit matrix or with ``%``.  Each must give exactly what the
row-at-a-time path gives (oracles.read_rows): the same records or the same
error message, and the same bytes.
"""

import sys
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzz_read_table
import oracles
from probecount import calibration, cli, counting, ingest, simulate
from probecount.ingest import (
    Events, finite, non_negative, non_negative_int, non_negative_or_nan, positive,
)


def _rows_only():
    """Patches that make every parser read its file with the row-at-a-time oracle, and
    eval pick a series' format by its first row as that reader's caller did."""
    stack = ExitStack()
    for module in (ingest, calibration, counting, simulate):
        stack.enter_context(mock.patch.object(module, "read_table", oracles.read_rows))
    stack.enter_context(mock.patch.object(cli, "read_table", oracles.read_first_row_format))
    return stack


def _bits(column):
    return column.view(np.uint64).tolist() if column.dtype == np.float64 else column.tolist()


def _outcome(parse, data):
    """``parse``'s result (floats as bits) or its error."""
    try:
        result = parse(data)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, Events):
        return [_bits(c) for c in (result.t, result.mac)]
    if isinstance(result, list):
        return [_bits(c) for c in result]
    records = result.entities if isinstance(result, simulate.GroundTruthTrace) else result
    return records.dtype, [_bits(records[name]) for name in records.dtype.names]


# ---------------------------------------------------------------- reader


def _event_columns(data):
    """The field counts and the columns (t, mac, ap, rssi) of event text, as ``read_table``
    reads them with the event layouts and rules; ``parse_events`` keeps only t and mac."""
    count, columns = ingest.read_table(data, ingest._EVENT_LAYOUT, (*ingest._EVENT_LAYOUT, int),
                                       checks=ingest._EVENT_CHECKS)
    return [count, *columns]


def _decimal(lo, hi):
    """Decimal text of at most 16 digits, all of which the columnar reader takes when
    |hi| and |lo| lie below 2**32 (so the digits' integer lies below 2**53)."""
    return st.builds("{:.{}f}".format, st.floats(lo, hi), st.integers(0, 6))


def _pointed(sign, digits, at):
    return sign + (digits if at is None else f"{digits[:at]}.{digits[at:]}")


# Numbers of 15 to 17 digits, and numbers from 2**53 - 3 on, with a sign or none and a
# point anywhere among the digits or none: the grammar takes those of 16 digits whose
# integer lies below 2**53 (and the shorter ones it took before), and the converter
# the rest.
_LONG = st.one_of(*(
    st.builds(_pointed, st.sampled_from(["", "-", "+"]), digits, st.none() | st.integers(0, 16))
    for digits in (st.text("0123456789", min_size=15, max_size=17),
                   st.builds(str, st.integers(2**53 - 3, 10**16 - 1)))))
_JUNK = st.one_of(
    _LONG,
    st.from_regex(r"\A-?[0-9]{0,9}\.?[0-9]{0,9}\Z"),
    st.builds(str, st.integers(-(2**63) - 2, 2**63 + 2)),
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "1e3", "+1.5", "-0", "-0.0", "5.",
                     ".5", "1_0", "1.2.3", "--1", "-", "1234567890123456", "9" * 15, "device",
                     "person", "#", "aa:bb:cc:dd:ee:0g", "AA:BB:CC:DD:EE:FF", "١", "é",
                     "a\x00b", "a" * 70]),
)
_TOKENS = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8)
_MACS = st.lists(st.text("0123456789abcdefABCDEF", min_size=2, max_size=2),
                 min_size=6, max_size=6).map(":".join)
_VALID = {
    finite: _decimal(-1e9, 1e9),
    positive: _decimal(1, 1e9),
    non_negative: _decimal(0, 1e9),
    non_negative_or_nan: _decimal(0, 1e9) | st.just("nan"),
    non_negative_int: st.builds(str, st.integers(0, 10**12) | st.integers(0, 2**53 - 1)),
}
_EVENT = [_decimal(0, 2**32 - 1), _MACS, _TOKENS, st.builds(str, st.integers(-32767, 32767))]
_TRACE = [_TOKENS, st.sampled_from(["device", "person"]), _TOKENS, _decimal(0, 1e4),
          _decimal(0, 1e4)]

# Each layout, as (reader, field strategies of its longest rows, shorter field counts).
LAYOUTS = {
    "event": (ingest.parse_events, _EVENT, (3,)),
    "event columns": (_event_columns, _EVENT, (3,)),
    "trace": (simulate.parse_trace, _TRACE, ()),
    "count series": (counting.parse_series, [_VALID[c] for c in counting.SERIES_COLUMNS], ()),
    "count series, as eval reads it":
        (cli._parse_value_series, [_VALID[c] for c in counting.SERIES_COLUMNS], ()),
    "MAC series": (cli._parse_value_series,
                   [_VALID[c] for c in counting.MAC_SERIES_COLUMNS], ()),
    "people": (cli._parse_value_series, [_VALID[c] for c in calibration.PEOPLE_COLUMNS], ()),
    "reference": (calibration.parse_reference_series,
                  [_VALID[c] for c in calibration.REFERENCE_COLUMNS], ()),
    "reference, as eval reads it":
        (cli._parse_value_series, [_VALID[c] for c in calibration.REFERENCE_COLUMNS], ()),
}


@st.composite
def column_files(draw, fields, shorter):
    """The text of a column file of ``fields`` rows (some cut to a ``shorter`` count), a
    field in ten swapped for junk, split by whitespace runs and mixed with ``#`` and
    blank lines."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", "# start value", " # x 1 2"])))
            continue
        row = [draw(st.one_of(field, _JUNK) if draw(st.integers(0, 9)) == 0 else field)
               for field in fields]
        width = draw(st.sampled_from([len(fields), *shorter]))
        if draw(st.integers(0, 19)) == 0:
            width = draw(st.integers(1, len(fields) + 1))
        row = (row + ["1"])[:width]
        space = st.sampled_from([" ", " ", " ", "  ", "\t", " \t", "\x0b"])
        text = "".join(f + draw(space) for f in row[:-1]) + row[-1]
        lines.append(draw(st.sampled_from(["", "", "", " ", "\t"])) + text
                     + draw(st.sampled_from(["", "", "", " ", "\r"])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "\n", "", "\r\n"]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_reader_matches_the_row_reader(data):
    for name, (parse, fields, shorter) in LAYOUTS.items():
        text = data.draw(column_files(fields, shorter), label=name)
        with _rows_only():
            expected = _outcome(parse, text)
        assert _outcome(parse, text) == expected, name
        assert _outcome(parse, text.encode()) == expected, name


def _valid_file(fields, rows=5):
    return st.lists(st.tuples(*fields), min_size=1, max_size=rows).map(
        lambda rows: "# a header line\n\n" + "".join(" ".join(r) + " \r\n" for r in rows))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_headed_files_read_as_the_row_reader_reads_them(data):
    for name, (parse, fields, _) in LAYOUTS.items():
        if name == "trace":  # enter before leave, so that every row is valid, and an id
            # that starts with '#' would make its row a comment line
            fields = [fields[0].filter(lambda id_: not id_.startswith("#")), *fields[1:3],
                      st.just("1.5"), st.just("2.25")]
        text = data.draw(_valid_file(fields), label=name)
        with _rows_only():
            expected = _outcome(parse, text)
        assert expected[0] != "ParseError", expected
        assert _outcome(parse, text) == expected, name


@pytest.mark.parametrize("layout", [
    ingest._EVENT_LAYOUT, simulate._TRACE_LAYOUT, counting.SERIES_COLUMNS,
    counting.MAC_SERIES_COLUMNS, calibration.REFERENCE_COLUMNS, calibration.PEOPLE_COLUMNS,
], ids=["events", "trace", "series", "mac series", "reference", "people"])
def test_every_column_converter_has_a_columnar_grammar(layout):
    # without one, every field of the layout would go through its converter
    assert [convert for convert in layout if convert not in ingest._GRAMMARS] == []


def test_a_headed_event_and_series_file_read_as_the_row_reader_reads_them():
    events = ("# timestamp mac ap_id rssi\n1.5 aa:bb:cc:dd:ee:01 ap1 -60\n\n"
              "\t2.0  AA:BB:CC:DD:EE:02 ap2\r\n")
    series = counting.format_series(np.rec.fromarrays(
        [[0.0, 180.0], [180.0, 180.0], [0, 3], [0.0, 3 / 180], [0.0, 1.0], [0.0, 0.5],
         [np.nan, 0.57735]], dtype=counting.SERIES_DTYPE))
    assert series.startswith("# start")
    count, _, _, ap, rssi = _event_columns(events)
    assert count.tolist() == [4, 3] and ap.tolist() == [True, True]  # checked, not kept
    assert rssi.tolist() == [-60, 0]  # 0 where a row has none
    assert counting.format_series(counting.parse_series(series)) == series
    assert cli._parse_value_series(series.encode()).value.tolist() == [0.0, 1.0]
    for parse, text in ((ingest.parse_events, events), (_event_columns, events),
                        (counting.parse_series, series),
                        (cli._parse_value_series, series.encode())):
        with _rows_only():
            expected = _outcome(parse, text)
        assert _outcome(parse, text) == expected


@pytest.mark.parametrize("nrmse", ["nan", "-nan", "NaN", "1nan", "xnan", "nan.", "0.5"])
def test_an_nrmse_field_near_nan_matches_the_row_reader(nrmse):
    text = f"# start w m_hat nrmse\n0.0 180.0 1.5 0.25\n180.0 180.0 0.0 {nrmse}\n"
    for parse in (cli._parse_value_series, counting.parse_series):
        series = text if parse is cli._parse_value_series else text.replace(
            "180.0 1.5", "180.0 2 0.01 1.5 0.3").replace("180.0 0.0", "180.0 0 0.0 0.0 0.0")
        with _rows_only():
            expected = _outcome(parse, series)
        assert _outcome(parse, series) == expected


def test_a_file_the_reader_declines_keeps_the_row_readers_message():
    text = "# start value\n0.0 1.0\n180.0 -inf\n"
    with _rows_only():
        expected = _outcome(calibration.parse_reference_series, text)
    assert expected == ("ParseError", "line 3: non-finite number '-inf'")
    assert _outcome(calibration.parse_reference_series, text) == expected


_MAC = "aa:bb:cc:dd:ee:01"


@pytest.mark.parametrize("parse, text, line, message", [
    (ingest.parse_events, "-1 zz ap\n", 1, "malformed MAC address 'zz'"),
    (ingest.parse_events, f"-1 {_MAC} ap 40000\n", 1,
     "event timestamp -1.0 outside [0, 2**32) s"),
    (ingest.parse_events, f"-1 {_MAC} ap\nx {_MAC} ap\n", 1,
     "event timestamp -1.0 outside [0, 2**32) s"),
    (simulate.parse_trace, "d0 robot p0 x 1\n", 1, "could not convert string to float: 'x'"),
    (simulate.parse_trace, "d0 device p0 5 1\nd1 robot p0 0 1\n", 1,
     "entity must leave strictly after entering"),
    (simulate.parse_trace, "d0 device p0 0 1\nd1 device p0 inf 1\n", 2,
     "non-finite number 'inf'"),
    (simulate.parse_trace, "d0 device\0 p0 0 1\n", 1, "unknown entity kind 'device\\x00'"),
])
def test_the_first_fault_in_line_order_is_named(parse, text, line, message):
    """The first faulty line is named, and within a line a converter's fault before a
    rule's, whether the file is ASCII or not."""
    for data, at in ((text, line), (text.encode(), line), ("# caf\u00e9\n" + text, line + 1)):
        assert _outcome(parse, data) == ("ParseError", f"line {at}: {message}")


def test_non_ascii_text_reads_as_str():
    text = "\u00e9 device \u00fc 0.000000 1.000000\n"
    with _rows_only():
        expected = _outcome(simulate.parse_trace, text)
    assert _outcome(simulate.parse_trace, text) == expected
    trace = simulate.parse_trace(text)
    assert [tuple(entity) for entity in trace.entities] == [
        ("\u00e9", "device", "\u00fc", 0.0, 1.0)]
    assert simulate.format_trace(trace) == text
    events = f"1.5 {_MAC} caf\u00e9 -60\n2.0 {_MAC} ap\n"
    assert _columnar_and_row_outcomes_agree(_event_columns, events.encode())[3] == [True, True]
    assert _outcome(ingest.parse_events, events) == _outcome(
        ingest.parse_events, events.replace("caf\u00e9", "ap"))


_ROW_LINES = [f"1.5 {_MAC} ap", f"2 {_MAC} ap -60", f"3 {_MAC} caf\u00e9", "", "  ", "\r",
              "# 1.0 x", f"x {_MAC} ap", f"-1 {_MAC} ap", f"1 {_MAC} ap 99999999999999999999"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_ROW_LINES), max_size=20), st.integers(1, 12),
       st.integers(1, 3))
def test_the_reader_scans_and_decodes_a_block_at_a_time(lines, scan, chunk):
    """Bytes indexed a block at a time, and rows decoded a block at a time, give the
    events or message of the row reader, which reads the lines of one split of the text."""
    text = "\n".join(lines)
    assert list(ingest.data_lines(text)) == [
        (n, line.strip()) for n, line in enumerate(text.split("\n"), start=1)
        if line.strip() and not line.strip().startswith("#")]
    with _rows_only():
        expected = _outcome(ingest.parse_events, text)
    with mock.patch.object(ingest, "_SCAN", scan), mock.patch.object(ingest, "_CHUNK", chunk):
        assert _outcome(ingest.parse_events, text) == expected


def test_the_wide_spaces_are_pythons_whitespace_beyond_ascii():
    # what str.split() splits on, and so what the reader must take as a separator
    wide = [c for c in map(chr, range(128, sys.maxunicode + 1)) if c.isspace()]
    assert ingest._WIDE_SPACES == [int.from_bytes(c.encode(), "big") for c in wide]


def test_fuzzed_files_read_as_the_row_reader_reads_them():
    mismatch, refused = fuzz_read_table.run(700, seed=27)
    assert mismatch is None
    assert 0 < refused < 2 * 700


def test_one_exponent_sends_at_most_one_block_through_its_converter():
    calls = []

    def counted(text):
        calls.append(text)
        return finite(text)

    n = ingest._CHUNK + 1000
    lines = [f"{i}.5 {i % 977}.25" for i in range(n)]
    lines[n // 2] = f"{n // 2}.5 2.5e-1"
    text = "\n".join(lines) + "\n"
    with mock.patch.dict(ingest._GRAMMARS, {counted: ingest._GRAMMARS[finite]}):
        count, columns = ingest.read_table(text, (finite, counted))
    assert 0 < len(calls) <= ingest._CHUNK and "2.5e-1" in calls
    expected = oracles.read_rows(text, calibration.REFERENCE_COLUMNS)
    assert count.tolist() == expected[0].tolist()
    assert [c.tolist() for c in columns] == [c.tolist() for c in expected[1]]


def _columnar_and_row_outcomes_agree(parse, text):
    """``text`` is read, with the row reader's values."""
    with _rows_only():
        expected = _outcome(parse, text)
    assert expected[0] != "ParseError", expected
    assert _outcome(parse, text) == expected
    return expected


# Numbers at the edges of the one-word window (at most 8 bytes after the sign) and of the
# two-word one: 8 and 9 bytes, with and without a sign, the point in a window's first or
# last lane, -0, and 16-digit epoch times (with the point, a byte longer than the window).
_EDGE_NUMBERS = [
    "12345678", "-12345678", ".1234567", "-.1234567", "1234567.", "-1234567.", "-0", "-0.0",
    "123456789", "-123456789", ".12345678", "-.12345678", "12345678.", "-12345678.",
    "1.2345678", "-1234567.8", "1700000000.991770", "-1700000000.991770", "1700000000991770",
]


@pytest.mark.parametrize("field", _EDGE_NUMBERS)
def test_a_number_at_a_window_edge_reads_as_the_row_reader_reads_it(field):
    # the field sets its column's window alone, and beside a field of either width it does not
    for other in ("", "1\n", "1700000000.991770\n"):
        text = f"0.5 {field}\n" + (f"1.5 {other}" if other else "")
        _columnar_and_row_outcomes_agree(calibration.parse_reference_series, text)
        _columnar_and_row_outcomes_agree(calibration.parse_reference_series,
                                         text.replace("0.5 ", f"{field} ", 1))


@pytest.mark.parametrize("count", ["0", "-0", "12345678", "00000000", "123456789",
                                   "000000000", "9007199254740991"])
@pytest.mark.parametrize("nrmse", ["nan", "0.123456", "0.1234567", "12.345678"])
def test_a_count_and_an_nrmse_at_a_window_edge_read_as_the_row_reader_reads_them(count, nrmse):
    text = (f"0.000000 180.000000 {count} 0.000000 1.000000 0.500000 {nrmse}\n"
            "180.000000 180.000000 3 0.016667 1.000000 0.500000 nan\n")
    _columnar_and_row_outcomes_agree(counting.parse_series, text)


@pytest.mark.parametrize("rssi", ["-60", "-0", "-00000060", "-000000060", "-0000000060",
                                  "00000032767", "-32767"])
def test_an_rssi_at_a_window_edge_reads_as_the_row_reader_reads_it(rssi):
    _columnar_and_row_outcomes_agree(
        _event_columns, f"1.5 {_MAC} ap {rssi}\n1700000000.991770 {_MAC} ap -1\n")


@pytest.mark.parametrize("rssi", [2**63, 2**64, -(2**63) - 1])
def test_an_rssi_outside_int64_is_named_as_the_row_reader_names_it(rssi):
    # numpy types a list of ints by all of them, the 0 of a row without an rssi included
    text = f"1.5 {_MAC} ap\n2.5 {_MAC} ap {rssi}\n"
    with _rows_only():
        expected = _outcome(ingest.parse_events, text)
    assert expected[0] == "ParseError"
    assert _outcome(ingest.parse_events, text) == expected


_UNIFORM = (f"1.5 {_MAC} ap1 -60\n2.000001 AA:BB:CC:DD:EE:02 ap2 -00000000071\n"
            f"1700000000.991770 {_MAC} ap1 7\n")


@pytest.mark.parametrize("text, rssi", [
    (_UNIFORM, [-60, -71, 7]),
    ("\n" + _UNIFORM.replace("\n", "\n\n"), [-60, -71, 7]),  # blank lines
    (_UNIFORM.replace("\n", "\r\n"), [-60, -71, 7]),  # CRLF
    ("\t " + _UNIFORM.replace("\n", "\n  "), [-60, -71, 7]),  # leading whitespace
    ("# timestamp mac ap_id rssi\n" + _UNIFORM, [-60, -71, 7]),  # fields of no data row
    (_UNIFORM.replace(" -60\n", "\n"), [0, -71, 7]),  # rows of 3 and 4 fields
    (_UNIFORM.replace(" 7\n", "\n"), [-60, -71, 0]),
], ids=["uniform", "blank lines", "crlf", "leading whitespace", "comment", "mixed", "mixed last"])
def test_uniform_and_other_rows_read_as_the_row_reader_reads_them(text, rssi):
    """A file whose every line is a data row of one field count is read through views of
    the index, and any other through gathers: the same events either way."""
    columns = _columnar_and_row_outcomes_agree(_event_columns, text)
    uniform = _outcome(_event_columns, _UNIFORM)
    assert columns[1:4] == uniform[1:4]
    assert columns[4] == rssi
    assert _outcome(ingest.parse_events, text) == _outcome(ingest.parse_events, _UNIFORM)


# ---------------------------------------------------------------- writer

# Every format format_rows is given in the package, with the column kinds it takes
# (f float, d int, s text).
FORMATS = {
    "%.6f %.6f %d %.6f %.6f %.6f %.6f\n": "ffdffff",
    "%.6f 180.000000 %d\n": "fd",
    "%.6f %.6f %.6f %.6f\n": "ffff",
    "%.6f %.6f\n": "ff",
    "%s %s %s %.6f %.6f\n": "sssff",
    "%.6f %s ap\n": "fs",
}


def test_the_formats_are_the_packages():
    seen = set()
    real = ingest.format_rows

    def spy(fmt, columns):
        seen.add(fmt)
        return real(fmt, columns)

    with mock.patch.object(ingest, "format_rows", spy), \
            mock.patch.object(counting, "format_rows", spy), \
            mock.patch.object(calibration, "format_rows", spy), \
            mock.patch.object(simulate, "format_rows", spy):
        counting.format_series(np.zeros(1, dtype=counting.SERIES_DTYPE).view(np.recarray))
        counting.format_mac_series(np.zeros(1, counting.MAC_SERIES_DTYPE).view(np.recarray), 180)
        calibration.format_people_series(
            np.zeros(1, calibration.PEOPLE_DTYPE).view(np.recarray))
        calibration.format_reference_series(
            np.zeros(1, calibration.REFERENCE_DTYPE).view(np.recarray))
        simulate.format_trace(simulate.GroundTruthTrace(np.rec.fromarrays(
            [["d0"], ["device"], ["p0"], [0.0], [1.0]], names=simulate.TRACE_FIELDS)))
        ingest.format_events(Events([0.0], [1]), "ap")
    assert seen == set(FORMATS)


_BOUND = 2**53 / 1e6  # the largest |x| whose microseconds np.rint takes exactly


def _near_tie(k, ulps):
    """A float within ``ulps`` of the half microsecond after k us."""
    x = (k + 0.5) / 1e6
    return float(x + ulps * np.spacing(x))


_FLOATS = st.one_of(
    st.floats(),
    st.floats(-1e4, 1e4),
    st.builds(_near_tie, st.integers(-(2**52), 2**52), st.integers(-3, 3)),
    st.builds(_near_tie, st.integers(-(10**7), 10**7), st.integers(-3, 3)),
    st.sampled_from([0.0, -0.0, -1e-7, -4.9e-7, -5e-7, -5.1e-7, 5e-7, _BOUND, -_BOUND,
                     float(np.nextafter(_BOUND, 0)), float(np.nextafter(-_BOUND, 0)), 1e300,
                     float("nan"), float("-nan"), float("inf"), float("-inf")]),
)
_INTS = st.integers(-(2**63), 2**63 - 1) | st.integers(-1000, 1000)
_TEXTS = st.text(max_size=6) | st.sampled_from(["", "ap1", "a\x00", "\x00", "a\x00b", "é", "-60",
                                                " -60"])


@st.composite
def _columns(draw, kinds):
    """Columns of one to twelve rows for ``kinds``: a text column is str objects, numpy
    str, or bytes when all its values are ASCII without NUL and a coin says so."""
    n = draw(st.integers(1, 12))
    columns = []
    for kind in kinds:
        if kind == "f":
            columns.append(np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n))))
        elif kind == "d":
            columns.append(np.array(draw(st.lists(_INTS, min_size=n, max_size=n)), np.int64))
        else:
            texts = draw(st.lists(_TEXTS, min_size=n, max_size=n))
            ascii_text = all(t.isascii() and "\x00" not in t for t in texts)
            kind = draw(st.sampled_from(["S", "U", object] if ascii_text else ["U", object]))
            columns.append(np.array([t.encode() for t in texts] if kind == "S" else texts,
                                    dtype=kind))
    return columns


def _percent(fmt, columns):
    rows = zip(*(c.astype(str) if c.dtype.kind == "S" else c for c in columns))
    return "".join(fmt % tuple(v.item() if isinstance(v, np.generic) else v for v in row)
                   for row in rows)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FORMATS)), st.data())
def test_format_rows_matches_percent_formatting(fmt, data):
    columns = data.draw(_columns(FORMATS[fmt]))
    expected = _percent(fmt, columns)
    with mock.patch.object(ingest, "_CHUNK", data.draw(st.sampled_from([1, 3, 1 << 16]))):
        assert ingest.format_rows(fmt, columns) == expected
    # the digit matrix itself, wherever format_rows takes it
    floats = [c for c, k in zip(columns, FORMATS[fmt]) if k == "f"]
    texts = [c.tolist() for c, k in zip(columns, FORMATS[fmt]) if k == "s"]
    matrix = ingest._format_chunk(ingest._SPECS.split(fmt), columns)
    if all(np.all(np.isnan(c) | (np.abs(c) < _BOUND)) for c in floats) and not any(
            "\x00" in str(t) for column in texts for t in column):
        assert matrix == expected
    else:
        assert matrix is None


def test_format_rows_keeps_percent_for_other_formats():
    columns = [np.array([1.25, -0.5]), np.array([3, 4])]
    for fmt in ("%.3f %d\n", "%.6f%% %d\n", "%.6f %i\n"):
        assert ingest.format_rows(fmt, columns) == _percent(fmt, columns)
