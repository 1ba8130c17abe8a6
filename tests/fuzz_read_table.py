"""Differential fuzz of ingest.read_table against the row-at-a-time oracles.read_rows.

    PYTHONPATH=src python tests/fuzz_read_table.py --files 20000 --seed 1

Each file takes one layout of the package (event text, the ground-truth sidecar, the
count, MAC, people and reference series, and eval's series, whose first row picks its
format) and mixes valid rows with what a file written without cleaning may hold:
exponents, signs, underscores, non-ASCII digits, ``inf`` and ``nan``, tokens over 64
bytes, control, DEL and NUL bytes, Python's whitespace beyond ASCII, UTF-8 ids, bytes
that are not UTF-8, lone surrogates (in ``str`` text) and field counts of no layout.
Every file is read as ``str`` and as bytes, some with small blocks (``_CHUNK``,
``_SCAN``); the reader must give the oracle's values (floats bit for bit, with their
dtype kind and width) or its error, type and message.  Exits 1 at the first mismatch.
"""

from __future__ import annotations

import argparse
import random
import sys
from unittest import mock

import numpy as np

import oracles
from probecount import calibration, cli, counting, ingest, simulate
from probecount.ingest import non_negative, non_negative_int, non_negative_or_nan, positive

# Each layout as (layouts, checks, first-row rule).
LAYOUTS = {
    "events": ((ingest._EVENT_LAYOUT, (*ingest._EVENT_LAYOUT, int)), ingest._EVENT_CHECKS, False),
    "trace": ((simulate._TRACE_LAYOUT,), simulate._TRACE_CHECKS, False),
    "series": ((counting.SERIES_COLUMNS,), (), False),
    "mac series": ((counting.MAC_SERIES_COLUMNS,), (), False),
    "reference": ((calibration.REFERENCE_COLUMNS,), (), False),
    "people": ((calibration.PEOPLE_COLUMNS,), (), False),
    "eval": (tuple(layout for layout, _ in cli._SERIES_FORMATS.values()), (), True),
}

_NUMBER_JUNK = ["1e3", "1.5E-2", "%.18e", "%.6e", "+1.5", "+0", "1_0", "1_000.5", "١٢",
                "١.5", "inf", "-inf", "Infinity", "nan", "NaN", "-nan", "1.2.3", ".", "-",
                "--1", "12345678901234567", "4294967296", "-0", "-0.0", "5.", ".5", "0x10",
                "1\x00", "1\x7f", "1\x01", "x"]
_INT_JUNK = ["+5", "1_0", "٣", "-٦٠", "99999999999999999999", str(2**63),
             str(2**64), str(-(2**63) - 1), "-32768", "32768", "1.0", "1e2", "-0", "0007", "5\x00"]
_TEXT_JUNK = ["café", "東京", "\U0001f4e1", "a" * 65, "b" * 200, "ap\x01", "ap\x7f",
              "ap\x00", "\x00ap", "a\x00b", "device\x00", "\x1b[0m", "#ap", "person", "device"]
_SEPARATORS = [" ", " ", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\u00a0", "\u2028", "\u3000",
               "\u2009", "\x85"]


def _number(rng: random.Random, convert, junk_rate: float) -> str:
    if rng.random() < junk_rate:
        junk = rng.choice(_NUMBER_JUNK)
        return junk % rng.uniform(0, 1e6) if "%" in junk else junk
    low = 0.0 if convert in (positive, non_negative, non_negative_or_nan, float) else -1e6
    if convert is non_negative_or_nan and rng.random() < 0.1:
        return "nan"
    value = rng.choice([rng.uniform(low, 1e6), rng.uniform(low, 100), 1700000000 + rng.random()])
    return f"{value:.{rng.randint(0, 7)}f}"


def _field(rng: random.Random, convert, column: int, layout_name: str, junk_rate: float) -> str:
    if convert is str:
        if layout_name == "trace" and column == 1:
            return rng.choice(["device", "person", "device", "person", "robot", "device\x00"])
        if rng.random() < junk_rate:
            return rng.choice(_TEXT_JUNK)
        return "".join(rng.choice("abcdefghij0123456789_-.:") for _ in range(rng.randint(1, 9)))
    if convert is ingest._mac_value:
        if rng.random() < junk_rate / 3:
            return rng.choice(["aa:bb:cc:dd:ee", "zz:00:00:00:00:01", "aa-bb-cc-dd-ee-ff",
                               "AA:BB:CC:DD:EE:Fé"])
        return ":".join(f"{rng.randrange(256):02{rng.choice('xX')}}" for _ in range(6))
    if convert in (int, non_negative_int):
        if rng.random() < junk_rate:
            return rng.choice(_INT_JUNK)
        return str(rng.randint(-32767 if convert is int else 0, 32767 if convert is int else 10**6))
    return _number(rng, convert, junk_rate)


def make_file(rng: random.Random, name: str) -> str:
    """A file of the layout ``name``: rows of its layouts among comments, blank lines and
    rows of other field counts, with some fields, separators and bytes swapped for junk."""
    layouts, junk_rate = LAYOUTS[name][0], rng.choice([0.0, 0.02, 0.05, 0.15])
    if name == "eval":
        layouts = (rng.choice(layouts),)
    lines = []
    for _ in range(rng.choice([0, 1, 2, 3, 5, 8, 13])):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(["", "  ", "\t", "# a comment", "# café €",
                                     "  # x", "#\ud800", " "]))
            continue
        layout = rng.choice(layouts)
        fields = [_field(rng, convert, j, name, junk_rate) for j, convert in enumerate(layout)]
        if roll < 0.1 + junk_rate / 5:  # a field count of no layout
            fields = fields[: rng.randint(1, len(fields))] + ["1"] * rng.randint(0, 2)
        if rng.random() < junk_rate / 5:  # a lone surrogate in a field
            k = rng.randrange(len(fields))
            fields[k] = fields[k] + "\ud800"
        lead = rng.choice(["", "", "", " ", "\t", "\u00a0"])
        line = lead + "".join(f + rng.choice(_SEPARATORS) for f in fields[:-1]) + fields[-1]
        lines.append(line + rng.choice(["", "", "", " ", "\r", "\u3000"]))
    return "\n".join(lines) + rng.choice(["\n", "\n", "", "\r\n"])


def _outcome(read, data):
    """The reader's result (floats as bits; each column's dtype kind and width) or its
    error's type and message."""
    try:
        count, columns = read(data)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return count.tolist(), [
        (c.dtype.kind, c.dtype.itemsize,
         c.view(np.uint64).tolist() if c.dtype == np.float64 else c.tolist()) for c in columns]


def outcomes(name: str, data) -> tuple:
    """The oracle's outcome on ``data`` and the reader's."""
    layouts, checks, first_row = LAYOUTS[name]
    if first_row:
        expected = _outcome(lambda d: oracles.read_first_row_format(d, *layouts), data)
    else:
        expected = _outcome(lambda d: oracles.read_rows(d, *layouts, checks=checks), data)
    return expected, _outcome(lambda d: ingest.read_table(d, *layouts, checks=checks), data)


def run(files: int, seed: int) -> tuple[str | None, int]:
    """The first mismatch among ``files`` fuzzed files (None when there is none), and how
    many of their reads were refused."""
    rng = random.Random(seed)
    names = sorted(LAYOUTS)
    refused = 0
    for i in range(files):
        name = names[i % len(names)]
        text = make_file(rng, name)
        data = text.encode("utf-8", "surrogatepass")
        if rng.random() < 0.05:  # bytes that are not UTF-8
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.choice([b"\xff", b"\xc3", b"\xe2\x80", b"\x80"]) + data[at:]
        chunk, scan = (rng.randint(1, 4), rng.randint(1, 64)) if rng.random() < 0.3 else (
            ingest._CHUNK, ingest._SCAN)
        with mock.patch.object(ingest, "_CHUNK", chunk), mock.patch.object(ingest, "_SCAN", scan):
            for form in (text, data):
                expected, got = outcomes(name, form)
                if got != expected:
                    return f"file {i} ({name}): {form!r}\nexpected {expected}\ngot {got}", refused
                refused += isinstance(expected[0], str)
    return None, refused


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    mismatch, refused = run(args.files, args.seed)
    print(mismatch or f"{args.files} files, each read as str and as bytes: every outcome "
                      f"equal; {refused} of the {2 * args.files} reads were refused")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
