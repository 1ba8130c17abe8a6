"""read_file hands a regular file that is not empty to its parser as a read-only mapping,
and any other input as bytes.

Every parser that read_file feeds must give the same values, or the same error message,
from the mapping as from the file's bytes; and it must read its buffer only through what
a mapping does in C, never through ``in``, iteration or a ``bytes`` method that walks it.
"""

import itertools
import mmap
import os
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from probecount import calibration, cli, counting, ingest, intervals, simulate
from probecount.ingest import Events, ParseError

from capture_files import LINKTYPE_RADIOTAP, pcap, probe_request, radiotap
from test_ingest import captures
from test_text_columns import LAYOUTS, column_files

PARSERS = {
    "capture": ingest.parse_capture,
    "events": ingest.parse_events,
    "trace": simulate.parse_trace,
    "series": counting.parse_series,
    "reference": calibration.parse_reference_series,
    "value series": cli._parse_value_series,
    "model": intervals.parse_model,
    "config": simulate.parse_config,
    "ratio": calibration.parse_ratio,
}

# Lines of each key-value file: its keys with good values, and lines a reader refuses.
KEY_LINES = {
    "model": ["area_id a1", "tau_mean 60.0", "tau_std 12.5", "sample_count 3", "bin_width 600.0",
              "histogram 3", "histogram 1 2", "tau_mean x", "sample_count -1", "colour 1",
              "area_id"],
    "config": ["duration 900", "seed 1", "rotation_prob 0.3", "interval_dist exp:mean=60",
               "frames_per_burst 1..3", "fixed_persons 2", "arrival_rate 0", "duration abc",
               "seed", "interval_dist exp:mean=-1", "colour 1"],
    "ratio": ["alpha 1.5", "nrmse_people_ref 0.08", "nrmse_device_cal 0.1",
              "source_window_span 180.0", "alpha nan", "alpha", "colour 1"],
}


def _bits(column):
    return column.view(np.uint64).tolist() if column.dtype == np.float64 else column.tolist()


def _values(result):
    """A parser's result as plain values, floats as bits."""
    if isinstance(result, Events):
        return [_bits(c) for c in (result.t, result.mac)]
    if isinstance(result, simulate.GroundTruthTrace):
        result = result.entities
    if isinstance(result, np.ndarray):
        return result.dtype.descr, [_bits(result[name]) for name in result.dtype.names]
    return repr(result)


def read_outcome(path, parse):
    """``read_file``'s values, or its error message."""
    try:
        return _values(ingest.read_file(str(path), parse))
    except ParseError as exc:
        return "error", str(exc)


def bytes_outcome(path, parse):
    """The values of ``parse`` of the file's bytes, or the error message ``read_file``
    would give for its error."""
    try:
        return _values(parse(path.read_bytes()))
    except ValueError as exc:
        return "error", f"{path}: {exc}"


_names = itertools.count()


def _write(directory, data):
    """A new file holding ``data``: a file stays as written while a mapping of it lives."""
    path = directory / f"{next(_names)}.in"
    path.write_bytes(data)
    return path


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


# ---------------------------------------------------------------- generated inputs


@st.composite
def text_variants(draw, text):
    """``text`` as UTF-8 bytes, changed in the ways text files differ: CRLF endings, no
    final newline, a '#' line holding non-ASCII text, and bytes that are not UTF-8."""
    data = text.encode()
    if draw(st.booleans()):
        data = data.replace(b"\n", b"\r\n")
    if draw(st.booleans()):
        data = data.rstrip(b"\n")
    if draw(st.booleans()):
        line = draw(st.sampled_from([b"# caf\xc3\xa9", b" \t# \xe2\x82\xac\xc2\xa0", b"#\xff"]))
        at = draw(st.sampled_from([0, len(data)]))
        data = data[:at] + (b"\n" if at else b"") + line + (b"" if at else b"\n") + data[at:]
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


@st.composite
def column_inputs(draw):
    """A column file of one of the layouts, with the reader that takes it."""
    name = draw(st.sampled_from(sorted(LAYOUTS)))
    parse, fields, shorter = LAYOUTS[name]
    return parse, draw(text_variants(draw(column_files(fields, shorter))))


@st.composite
def key_inputs(draw):
    """A key-value file of one of the kinds, with its parser."""
    kind = draw(st.sampled_from(sorted(KEY_LINES)))
    lines = draw(st.lists(st.sampled_from(KEY_LINES[kind] + ["", "# note"]), max_size=8))
    return PARSERS[kind], draw(text_variants("".join(f"{line}\n" for line in lines)))


@st.composite
def capture_inputs(draw):
    """A capture, cut short or padded with bytes past its last record now and then."""
    data = draw(captures())
    if draw(st.integers(0, 3)) == 0:
        data += draw(st.binary(min_size=1, max_size=24))
    return PARSERS["capture"], data


INPUTS = st.one_of(capture_inputs(), column_inputs(), key_inputs())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(INPUTS)
def test_a_mapped_file_reads_as_its_bytes(input_dir, case):
    parse, data = case
    path = _write(input_dir, data)
    assert read_outcome(path, parse) == bytes_outcome(path, parse)


class Guarded(bytes):
    """Bytes whose walks in Python, and whose methods a mapping lacks, raise: ``in`` on a
    mapping walks it one byte at a time in Python (14 ms for ``b"#"`` on a 722 KB event
    file on a 2-core x86-64 host, against 0.05 ms for ``find``)."""

    def _walk(self, *args, **kwargs):
        raise AssertionError("a parser read its buffer through a walk a mapping does in Python")

    __contains__ = __iter__ = isascii = endswith = decode = _walk


def _outcome(parse, data):
    try:
        return _values(parse(data))
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(INPUTS)
def test_parsers_read_their_buffer_only_through_what_a_mapping_does_in_c(case):
    parse, data = case
    assert _outcome(parse, Guarded(data)) == _outcome(parse, data)


# ---------------------------------------------------------------- what is mapped


VALID = {
    "capture": pcap([(1.0, radiotap(probe_request("aa:bb:cc:dd:ee:01"))),
                     (2.5, radiotap(probe_request("aa:bb:cc:dd:ee:02"), rssi=-60))],
                    LINKTYPE_RADIOTAP),
    "events": b"0.5 02:00:00:00:00:01 ap2 -60\n2.0 aa:BB:cc:DD:ee:02 ap1\n",
    "trace": b"p0 person - 0.0 600.0\nd0 device p0 0.0 600.0\n",
    "series": b"0.000000 180.000000 30 0.166667 11.400000 1.000000 0.100000\n",
    "reference": b"0.000000 1.000000\n180.000000 2.500000\n",
    "value series": b"0.000000 180.000000 3\n",
    "model": b"area_id a1\ntau_mean 60.0\ntau_std 60.0\nsample_count 3\nbin_width 600.0\n"
             b"histogram 3\n",
    "config": b"duration 900\nseed 1\n",
    "ratio": b"alpha 1.0\nnrmse_people_ref 0.08\nnrmse_device_cal 0.1\n"
             b"source_window_span 180.0\n",
}


def test_a_regular_file_is_mapped_and_an_empty_one_read(tmp_path):
    full, empty = tmp_path / "full", tmp_path / "empty"
    full.write_bytes(b"1.0 aa:bb:cc:dd:ee:01 ap\n")
    empty.write_bytes(b"")
    assert ingest.read_file(str(full), type) is mmap.mmap
    assert ingest.read_file(str(empty), type) is bytes


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_a_pipe_is_read(tmp_path):
    # tests/test_cli.py checks that a pipe's outputs are a regular file's
    fifo = tmp_path / "events.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(VALID["events"],), daemon=True)
    writer.start()
    assert ingest.read_file(str(fifo), type) is bytes
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_a_file_the_system_will_not_map_is_read(tmp_path, name):
    path = _write(tmp_path, VALID[name])
    expected = read_outcome(path, PARSERS[name])
    with mock.patch.object(ingest.mmap, "mmap", side_effect=OSError(19, "No such device")):
        assert ingest.read_file(str(path), type) is bytes
        assert read_outcome(path, PARSERS[name]) == expected
    assert expected == bytes_outcome(path, PARSERS[name])
    assert expected[0] != "error"


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_the_values_hold_no_view_of_the_mapping(tmp_path, name):
    # else the mapping would outlive read_file, and a later write of the same file
    # would change the values or end the process
    path, mapped = _write(tmp_path, VALID[name]), []

    def parse(data):
        mapped.append(weakref.ref(data))
        return PARSERS[name](data)

    result = ingest.read_file(str(path), parse)
    assert result is not None
    assert mapped[0]() is None
