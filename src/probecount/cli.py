"""Command-line pipeline: fit, count, simulate, calibrate, people, eval, truth."""

from __future__ import annotations

import argparse
import contextlib
import functools
import struct
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import calibration, counting, intervals, metrics, simulate
from .bursts import DEFAULT_BURST_GAP, aggregate
from .ingest import (
    CAPTURE_MAGICS,
    Events,
    format_events,
    naming,
    parse_capture,
    parse_events,
    read_file,
    read_table,
    round6,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INSUFFICIENT_DATA = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (argparse formats help at each
    ``add_argument``); parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="probecount",
        description="Learning-free Wi-Fi device and people counting from probe requests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a probing-interval model from a capture")
    fit.add_argument("input", help="capture file or event text file")
    _add_ingest_flags(fit)
    fit.add_argument("--cutoff", type=float, default=intervals.DEFAULT_INTERVAL_CUTOFF,
                     help="discard intervals above this many seconds")
    fit.add_argument("--bin-width", type=float, default=intervals.DEFAULT_BIN_WIDTH)
    fit.add_argument("--area-id", default="default")
    fit.add_argument("--out", help="model file (stdout when omitted)")
    fit.set_defaults(func=_cmd_fit)

    count = sub.add_parser("count", help="sliding-window device counting")
    count.add_argument("input")
    _add_ingest_flags(count)
    count.add_argument("--model", help="interval model file (required unless --baseline)")
    _add_window_flags(count)
    count.add_argument("--baseline", choices=["mac"],
                       help="emit the unique-MAC counting baseline instead")
    count.add_argument("--out", help="window series file (stdout when omitted)")
    count.set_defaults(func=_cmd_count)

    sim = sub.add_parser("simulate", help="generate a synthetic trace with ground truth")
    sim.add_argument("--config", required=True, help="flat key-value simulator config")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--events", required=True, help="output event text file")
    sim.add_argument("--truth", required=True, help="output ground-truth sidecar file")
    sim.set_defaults(func=_cmd_simulate)

    cal = sub.add_parser("calibrate", help="estimate the device-to-person ratio")
    cal.add_argument("device_series", help="window series from the calibration region")
    cal.add_argument("people_series", help="reference people counts (start value per line)")
    cal.add_argument("--people-nrmse", type=float, default=calibration.PEOPLE_NRMSE,
                     help="NRMSE of the reference people counter")
    cal.add_argument("--out", help="ratio file (stdout when omitted)")
    cal.set_defaults(func=_cmd_calibrate)

    people = sub.add_parser("people", help="convert device counts to people counts")
    people.add_argument("device_series")
    people.add_argument("--ratio", required=True, help="calibration ratio file")
    people.add_argument("--out", help="people series file (stdout when omitted)")
    people.set_defaults(func=_cmd_people)

    ev = sub.add_parser("eval", help="compare an estimate series against a reference")
    ev.add_argument("estimates")
    ev.add_argument("reference")
    ev.set_defaults(func=_cmd_eval)

    truth = sub.add_parser("truth", help="window-averaged ground truth from a sidecar file")
    truth.add_argument("--truth", required=True, dest="truth_file")
    truth.add_argument("--kind", choices=["device", "person"], default="device")
    _add_window_flags(truth)
    truth.add_argument("--out", help="reference series file (stdout when omitted)")
    truth.set_defaults(func=_cmd_truth)

    return parser


def _add_ingest_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--gap", type=float, default=DEFAULT_BURST_GAP,
                     help="burst aggregation gap in seconds")


def _add_window_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--window", type=float, default=counting.DEFAULT_WINDOW_SIZE,
                     help="window size in seconds")
    cmd.add_argument("--step", type=float, default=counting.DEFAULT_STEP,
                     help="sliding step in seconds")
    cmd.add_argument("--start", type=float,
                     help="first window start (default: the multiple of --step at or "
                          "before the first observation)")
    cmd.add_argument("--end", type=float,
                     help="windows end at or before this time, even past the data "
                          "(default: the last observation, plus one window for count)")


def _check_window_flags(args: argparse.Namespace) -> None:
    """Series files write times to the microsecond: a shorter window would be written
    as 0, and a shorter step or a start between two microseconds could write one start
    twice."""
    for flag, value in (("--window", args.window), ("--step", args.step)):
        if not 1e-6 <= value < np.inf:
            raise ValueError(f"{flag} must be finite and at least 1e-06 s, got {value!r}")
    for flag, value in (("--start", args.start), ("--end", args.end)):
        if value is not None and not -np.inf < value < np.inf:
            raise ValueError(f"{flag} must be finite, got {value!r}")
    if args.start is not None and round(args.start, 6) != args.start:
        raise ValueError(f"--start must be a whole number of microseconds, got {args.start!r}")


def _check_gap(args: argparse.Namespace) -> None:
    """An infinite gap would make each MAC one burst, and a gap of no length is no burst."""
    if not 0 < args.gap < np.inf:
        raise ValueError(f"--gap must be finite and positive, got {args.gap!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError and InsufficientSamplesError included
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, intervals.InsufficientSamplesError):
            return EXIT_INSUFFICIENT_DATA
        return EXIT_INPUT_ERROR


def _read_input(args: argparse.Namespace) -> Events:
    """The input file's events: a capture when its magic is a capture magic, else
    event text."""
    def parse(data: bytes) -> Events:
        if len(data) >= 4 and struct.unpack_from("<I", data, 0)[0] in CAPTURE_MAGICS:
            return parse_capture(data)
        return parse_events(data)

    return read_file(args.input, parse)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_fit(args: argparse.Namespace) -> int:
    _check_gap(args)
    events = _read_input(args)
    bursts = aggregate(events, gap=args.gap)
    samples = intervals.extract_intervals(bursts, cutoff=args.cutoff)
    model = intervals.fit(
        samples, area_id=args.area_id, cutoff=args.cutoff, bin_width=args.bin_width
    )
    _write_output(intervals.format_model(model), args.out)
    if args.out is not None:
        print(
            f"tau_mean={model.tau_mean:.6f} tau_std={model.tau_std:.6f} "
            f"sample_count={model.sample_count}"
        )
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    _check_window_flags(args)
    _check_gap(args)
    events = _read_input(args)
    grid = dict(start=args.start, end=args.end)
    if args.baseline == "mac":
        with naming(args.input):
            series = counting.mac_count_series(events, args.window, args.step, **grid)
        _write_output(counting.format_mac_series(series, args.window), args.out)
        return EXIT_OK
    if not args.model:
        raise ValueError("--model is required unless --baseline is given")
    model = read_file(args.model, intervals.parse_model)
    bursts = aggregate(events, gap=args.gap)
    with naming(args.input):
        estimates = counting.sliding_windows(bursts, args.window, args.step, model, **grid)
    with naming(args.model):
        for name in ("n_hat", "var_lower_bound", "nrmse"):
            if np.isinf(estimates[name]).any():
                raise ValueError(f"{name} overflows: tau_mean {model.tau_mean!r} and tau_std "
                                 f"{model.tau_std!r} are out of range for these windows")
    _write_output(counting.format_series(estimates), args.out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = read_file(args.config, simulate.parse_config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    events, trace = simulate.simulate(config)
    Path(args.events).write_text(format_events(events, config.ap_id, config.rssi),
                                 encoding="utf-8")
    Path(args.truth).write_text(simulate.format_trace(trace), encoding="utf-8")
    kind = trace.entities.kind
    print(f"events={len(events)} devices={np.count_nonzero(kind == 'device')} "
          f"persons={np.count_nonzero(kind == 'person')}")
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    with _joined((args.device_series, counting.parse_series),
                 (args.people_series, calibration.parse_reference_series)) as joined:
        ratio = calibration.estimate_ratio(*joined, nrmse_people_ref=0.0)
    # the flag's own refusal (CalibrationRatio's) is about no file
    ratio = replace(ratio, nrmse_people_ref=args.people_nrmse)
    _write_output(calibration.format_ratio(ratio), args.out)
    return EXIT_OK


def _cmd_people(args: argparse.Namespace) -> int:
    device_series = read_file(args.device_series, counting.parse_series)
    ratio = read_file(args.ratio, calibration.parse_ratio)
    with naming(args.ratio):
        people = calibration.people_count(device_series, ratio)
    _write_output(calibration.format_people_series(people), args.out)
    return EXIT_OK


# The series formats eval reads, by field count: each column's converter and
# the column eval compares (start value; start w unique_macs; start w m_hat
# nrmse; start w B R n_hat var nrmse).
_SERIES_FORMATS = {
    2: (calibration.REFERENCE_COLUMNS, 1),
    3: (counting.MAC_SERIES_COLUMNS, 2),
    4: (calibration.PEOPLE_COLUMNS, 2),
    7: (counting.SERIES_COLUMNS, 4),
}


def _parse_value_series(data: bytes | str) -> np.recarray:
    """(window start, value) records of a series file, in the format of its first row."""
    # not every format is a prefix of the longest, so the first row's field count picks one
    columns = read_table(data, *(layout for layout, _ in _SERIES_FORMATS.values()))[1]
    return np.rec.fromarrays([columns[0], columns[_SERIES_FORMATS[len(columns)][1]]],
                             dtype=calibration.REFERENCE_DTYPE)


@contextlib.contextmanager
def _joined(*files: tuple[str, Callable]) -> Iterator[tuple[np.recarray, np.recarray]]:
    """The two series of ``files`` (path, parser) cut to the windows whose starts they
    share to the microsecond, in the first one's row order; a refusal raised while they are
    used names both files, and a repeated start its file and first repeat in row order."""
    series = [read_file(path, parse) for path, parse in files]
    keys = [round6(rows.start) for rows in series]
    for key, (path, _) in zip(keys, files):
        order = np.argsort(key, kind="stable")
        repeats = order[1:][key[order[1:]] == key[order[:-1]]]
        if repeats.size:
            raise ValueError(f"{path}: window start {key[repeats.min()]:.6f} repeats")
    with naming(*(path for path, _ in files)):
        _, i, j = np.intersect1d(*keys, assume_unique=True, return_indices=True)
        if not i.size:
            raise ValueError("no overlapping window starts between the two series")
        order = np.argsort(i)
        yield series[0][i[order]], series[1][j[order]]


def _cmd_eval(args: argparse.Namespace) -> int:
    with _joined((args.estimates, _parse_value_series),
                 (args.reference, _parse_value_series)) as (estimates, reference):
        y, r = estimates.value, reference.value
        print(f"rmse {metrics.rmse(y, r):.6f}\nmape {metrics.mape(y, r):.6f}\n"
              f"nrmse {metrics.nrmse(y, r):.6f}")
    return EXIT_OK


def _cmd_truth(args: argparse.Namespace) -> int:
    _check_window_flags(args)
    trace = read_file(args.truth_file, simulate.parse_trace)
    entities = trace.entities[trace.entities.kind == args.kind]
    extent = (entities.enter.min(), entities.leave.max()) if entities.size else (None, None)
    with naming(args.truth_file):
        starts = counting.series_grid(args.window, args.step, *extent, args.start, args.end)
    truth = simulate.ground_truth_series(replace(trace, entities=entities), starts, args.window)
    values = truth.n_bar if args.kind == "device" else truth.m_bar
    series = np.rec.fromarrays([starts, values], dtype=calibration.REFERENCE_DTYPE)
    _write_output(calibration.format_reference_series(series), args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
