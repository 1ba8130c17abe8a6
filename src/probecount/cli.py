"""Command-line pipeline: fit, count, simulate, calibrate, people, eval, truth."""

from __future__ import annotations

import argparse
import struct
import sys
from dataclasses import replace
from pathlib import Path

from . import calibration, counting, intervals, metrics, simulate
from .bursts import DEFAULT_BURST_GAP, aggregate
from .ingest import (
    PCAP_MAGIC,
    PCAP_MAGIC_SWAPPED,
    ParseError,
    finite,
    format_events,
    parse_capture,
    parse_events,
    read_rows,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INSUFFICIENT_DATA = 2


def build_parser() -> argparse.ArgumentParser:
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
    cal.add_argument("--people-nrmse", type=float, default=0.08,
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
    cmd.add_argument("--format", choices=["capture", "events"],
                     help="input format (default: sniff the file magic)")
    cmd.add_argument("--ap-id", help="capture-point id for capture input (default: file stem)")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except intervals.InsufficientSamplesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _read_input(args: argparse.Namespace) -> list:
    path = Path(args.input)
    data = path.read_bytes()
    fmt = args.format or _sniff_format(data)
    if fmt == "capture":
        return parse_capture(data, ap_id=args.ap_id or path.stem)
    return parse_events(data.decode("utf-8"))


def _sniff_format(data: bytes) -> str:
    if len(data) >= 4:
        magic = struct.unpack_from("<I", data, 0)[0]
        if magic in (PCAP_MAGIC, PCAP_MAGIC_SWAPPED):
            return "capture"
    return "events"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_fit(args: argparse.Namespace) -> int:
    events = _read_input(args)
    bursts = aggregate(events, gap=args.gap)
    samples = intervals.extract_intervals(bursts, cutoff=args.cutoff)
    model = intervals.fit(
        samples, area_id=args.area_id, cutoff=args.cutoff, bin_width=args.bin_width
    )
    text = intervals.format_model(model)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(
            f"tau_mean={model.tau_mean:.6f} tau_std={model.tau_std:.6f} "
            f"sample_count={model.sample_count}"
        )
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    events = _read_input(args)
    grid = dict(start=args.start, end=args.end)
    if args.baseline == "mac":
        series = counting.mac_count_series(events, args.window, args.step, **grid)
        text = "# start w unique_macs\n" + "".join(
            f"{w.start:.6f} {w.size:.6f} {n}\n" for w, n in series
        )
        _write_output(text, args.out)
        return EXIT_OK
    if not args.model:
        raise ParseError("--model is required unless --baseline is given")
    model = intervals.parse_model(Path(args.model).read_text(encoding="utf-8"))
    bursts = aggregate(events, gap=args.gap)
    estimates = counting.sliding_windows(bursts, args.window, args.step, model, **grid)
    _write_output(counting.format_series(estimates), args.out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = simulate.parse_config(Path(args.config).read_text(encoding="utf-8"))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    events, trace = simulate.simulate(config)
    Path(args.events).write_text(format_events(events), encoding="utf-8")
    Path(args.truth).write_text(simulate.format_trace(trace), encoding="utf-8")
    print(
        f"events={len(events)} devices={len(trace.devices())} persons={len(trace.persons())}"
    )
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    device_series = counting.parse_series(Path(args.device_series).read_text(encoding="utf-8"))
    people_series = calibration.parse_reference_series(
        Path(args.people_series).read_text(encoding="utf-8")
    )
    ratio = calibration.estimate_ratio(
        device_series, people_series, nrmse_people_ref=args.people_nrmse
    )
    _write_output(calibration.format_ratio(ratio), args.out)
    return EXIT_OK


def _cmd_people(args: argparse.Namespace) -> int:
    device_series = counting.parse_series(Path(args.device_series).read_text(encoding="utf-8"))
    ratio = calibration.parse_ratio(Path(args.ratio).read_text(encoding="utf-8"))
    people = [calibration.people_count(e, ratio) for e in device_series]
    _write_output(calibration.format_people_series(people), args.out)
    return EXIT_OK


# Value column of each series layout, by field count: start value;
# start w value; start w m_hat nrmse; start w B R n_hat var nrmse.
_VALUE_COLUMN = {2: 1, 3: 2, 4: 2, 7: 4}


def _read_value_series(path: str) -> list[tuple[float, float]]:
    """Read (window start, value) pairs from any of the series formats."""
    layouts = [
        [finite if i in (0, col) else str for i in range(n)] for n, col in _VALUE_COLUMN.items()
    ]
    try:
        return read_rows(
            Path(path).read_text(encoding="utf-8"),
            lambda *row: (row[0], row[_VALUE_COLUMN[len(row)]]),
            *layouts,
        )
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _cmd_eval(args: argparse.Namespace) -> int:
    estimates = _read_value_series(args.estimates)
    reference = dict(
        (round(start, 6), value) for start, value in _read_value_series(args.reference)
    )
    pairs = [
        (value, reference[round(start, 6)])
        for start, value in estimates
        if round(start, 6) in reference
    ]
    if not pairs:
        raise ValueError("no overlapping window starts between the two series")
    pair = metrics.SeriesPair.of([p[0] for p in pairs], [p[1] for p in pairs])
    lines = (
        f"rmse {metrics.rmse(pair):.6f}",
        f"mape {metrics.mape(pair):.6f}",
        f"nrmse {metrics.nrmse(pair):.6f}",
    )
    print("\n".join(lines))
    return EXIT_OK


def _cmd_truth(args: argparse.Namespace) -> int:
    trace = simulate.parse_trace(Path(args.truth_file).read_text(encoding="utf-8"))
    entities = trace.devices() if args.kind == "device" else trace.persons()
    if not entities:
        raise ValueError(f"trace contains no {args.kind} entities")
    start = args.start
    if start is None:
        start = counting.grid_start(min(e.enter for e in entities), args.step)
    end = args.end if args.end is not None else max(e.leave for e in entities)
    windows = counting.window_grid(start, end, args.window, args.step)
    if not windows:
        raise ValueError("no complete window fits before --end")
    series = simulate.ground_truth_series(trace, windows)
    values = [n for n, _ in series] if args.kind == "device" else [m for _, m in series]
    text = calibration.format_reference_series(
        [(w.start, v) for w, v in zip(windows, values)]
    )
    _write_output(text, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
