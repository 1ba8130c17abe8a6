import errno
import hashlib
import math
import os
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from probecount.cli import build_parser, main
from probecount.intervals import parse_model

from capture_files import pcap, probe_request
from event_columns import event_rows

EVENTS_TEXT = """\
0.000000 aa:bb:cc:dd:ee:01 ap0
100.000000 aa:bb:cc:dd:ee:01 ap0
200.000000 aa:bb:cc:dd:ee:01 ap0
"""

GOLDEN_RECORDS = [
    (0.0, probe_request("aa:bb:cc:dd:ee:01")),
    (100.0, probe_request("aa:bb:cc:dd:ee:01")),
    (200.0, probe_request("aa:bb:cc:dd:ee:01")),
]


def test_parser_defaults():
    args = build_parser().parse_args(["count", "in.txt", "--model", "m.txt"])
    assert args.window == 180.0
    assert args.step == 180.0
    assert args.gap == 4.0
    args = build_parser().parse_args(["fit", "in.txt"])
    assert args.cutoff == 600.0
    assert args.gap == 4.0


@pytest.mark.parametrize("flag", [["--format", "events"], ["--ap-id", "lobby"]])
def test_parser_has_no_flags_that_change_no_output(flag):
    # the file magic alone picks the parser, and no command reads the ap column
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fit", "in.txt", *flag])


def test_parser_rejects_unknown_baseline():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["count", "in.txt", "--baseline", "magic"])


def test_one_parser_serves_every_call(tmp_path, capsys):
    assert build_parser() is build_parser()
    fresh = build_parser.__wrapped__()  # built anew, as each call did before
    assert build_parser().format_help() == fresh.format_help()
    truth = tmp_path / "t.truth"
    truth.write_text("p0 person - 0.0 600.0\nd0 device p0 0.0 600.0\n")
    grid = ["--window", "600", "--step", "600", "--end", "600"]
    assert main(["truth", "--truth", str(truth), "--kind", "person", *grid]) == 0
    assert main(["count", str(truth), "--baseline", "mac"]) == 1  # not event text
    capsys.readouterr()
    bad = ["truth", "--truth", str(truth), "--kind", "robot"]
    errors = []
    for parse in (fresh.parse_args, build_parser().parse_args, main):
        with pytest.raises(SystemExit) as exit_:
            parse(bad)
        assert exit_.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == errors[2]
    assert "invalid choice: 'robot'" in errors[0]
    # the failed call left no choice behind: the default kind again
    assert main(["truth", "--truth", str(truth), *grid]) == 0
    assert capsys.readouterr().out == "0.000000 1.000000\n"


def test_fit_golden_capture(tmp_path, capsys):
    # instants 0, 100, 200 -> two 100 s intervals -> tau_mean 100, tau_std 0
    cap = tmp_path / "golden.pcap"
    cap.write_bytes(pcap(GOLDEN_RECORDS))
    model_path = tmp_path / "model.txt"
    rc = main(["fit", str(cap), "--out", str(model_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tau_mean=100.000000" in out
    assert "sample_count=2" in out
    model = parse_model(model_path.read_text())
    assert model.tau_mean == 100.0
    assert model.tau_std == 0.0


def test_fit_text_equals_capture(tmp_path):
    cap = tmp_path / "golden.pcap"
    cap.write_bytes(pcap(GOLDEN_RECORDS))
    txt = tmp_path / "golden.txt"
    txt.write_text(EVENTS_TEXT)
    out_cap = tmp_path / "model_cap.txt"
    out_txt = tmp_path / "model_txt.txt"
    assert main(["fit", str(cap), "--out", str(out_cap)]) == 0
    assert main(["fit", str(txt), "--out", str(out_txt)]) == 0
    assert out_cap.read_text() == out_txt.read_text()


def test_count_and_fit_read_a_capture_whose_stem_holds_a_space(tmp_path):
    # a capture's file name is never read: "hall 7.pcap" reads as any other capture
    cap, txt = tmp_path / "hall 7.pcap", tmp_path / "golden.txt"
    cap.write_bytes(pcap(GOLDEN_RECORDS))
    txt.write_text(EVENTS_TEXT)
    model = tmp_path / "known.model"
    model.write_text(KNOWN_MODEL)
    for name, source in (("cap", cap), ("txt", txt)):
        assert main(["fit", str(source), "--out", str(tmp_path / f"{name}.model")]) == 0
        assert main(["count", str(source), "--model", str(model),
                     "--out", str(tmp_path / f"{name}.counts")]) == 0
        assert main(["count", str(source), "--baseline", "mac",
                     "--out", str(tmp_path / f"{name}.macs")]) == 0
    for suffix in ("model", "counts", "macs"):
        assert (tmp_path / f"cap.{suffix}").read_text() == (tmp_path / f"txt.{suffix}").read_text()


def test_fit_empty_input_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    rc = main(["fit", str(empty)])
    assert rc == 2
    assert "insufficient" in capsys.readouterr().err


def test_fit_missing_file_exits_1(tmp_path, capsys):
    rc = main(["fit", str(tmp_path / "nope.txt")])
    assert rc == 1


def test_fit_malformed_line_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 zz:xx:cc:dd:ee:01 ap0\n")
    rc = main(["fit", str(bad)])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


NO_OBSERVATIONS = "no observations to place the window grid on: pin --start and --end"


def _oserror(code, path):
    return f"error: [Errno {code}] {os.strerror(code)}: '{path}'\n"


# Inputs that are read rather than mapped, or not at all: each keeps the output and exit
# code it had when every input was read into bytes.
@pytest.mark.parametrize("argv,code,out,err", [
    (["fit", "{empty}"], 2, "", "error: insufficient interval samples (need at least 2)\n"),
    (["count", "{empty}", "--baseline", "mac"], 1, "", f"error: {{empty}}: {NO_OBSERVATIONS}\n"),
    (["count", "{empty}", "--model", "{empty}"], 1, "",
     "error: {empty}: interval model file missing keys: area_id, tau_mean, tau_std, "
     "sample_count, bin_width, histogram\n"),
    (["count", "{dir}", "--baseline", "mac"], 1, "", _oserror(errno.EISDIR, "{dir}")),
    (["fit", "{missing}"], 1, "", _oserror(errno.ENOENT, "{missing}")),
    (["count", "{events}", "--model", "{dir}"], 1, "", _oserror(errno.EISDIR, "{dir}")),
])
def test_inputs_that_are_not_mapped_keep_their_outputs(tmp_path, capsys, argv, code, out, err):
    paths = {"empty": tmp_path / "empty.events", "dir": tmp_path / "dir",
             "missing": tmp_path / "missing.events", "events": tmp_path / "some.events"}
    paths["empty"].write_bytes(b"")
    paths["dir"].mkdir()
    paths["events"].write_text(EVENTS_TEXT)
    assert main([a.format(**paths) for a in argv]) == code
    assert capsys.readouterr() == (out.format(**paths), err.format(**paths))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
@pytest.mark.parametrize("argv,data", [
    (["count", "{input}", "--baseline", "mac"], EVENTS_TEXT.encode()),
    (["fit", "{input}"], EVENTS_TEXT.encode()),
    (["fit", "{input}"], pcap(GOLDEN_RECORDS)),
    (["count", "{events}", "--model", "{input}"],
     b"area_id a\ntau_mean 60.0\ntau_std 60.0\nsample_count 2\nbin_width 600.0\nhistogram 2\n"),
])
def test_a_pipe_gives_the_output_of_a_regular_file(tmp_path, capsys, argv, data):
    # a named pipe stands for a process substitution such as <(cat tiny.events)
    regular, fifo, events = tmp_path / "regular", tmp_path / "input.fifo", tmp_path / "a.events"
    regular.write_bytes(data)
    events.write_text(EVENTS_TEXT)
    assert main([a.format(input=regular, events=events) for a in argv]) == 0
    expected = capsys.readouterr()
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    assert main([a.format(input=fifo, events=events) for a in argv]) == 0
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert capsys.readouterr() == expected


def test_count_single_burst_window_of_tau(tmp_path, capsys):
    model = tmp_path / "model.txt"
    main(["fit", str(_write_events(tmp_path)), "--out", str(model)])
    capsys.readouterr()  # drop the fit summary
    single = tmp_path / "single.txt"
    single.write_text("10.000000 aa:bb:cc:dd:ee:09 ap0\n")
    rc = main(["count", str(single), "--model", str(model), "--window", "100", "--step", "100"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(lines) == 1
    fields = lines[0].split()
    assert fields[2] == "1"  # one burst
    assert float(fields[4]) == pytest.approx(1.0)  # n_hat = tau_mean / window


def test_count_end_flag_bounds_window_grid(tmp_path, capsys):
    model = tmp_path / "model.txt"
    main(["fit", str(_write_events(tmp_path)), "--out", str(model)])
    capsys.readouterr()
    events = tmp_path / "spread.txt"
    events.write_text(
        "".join(f"{t}.000000 aa:bb:cc:dd:ee:09 ap0\n" for t in range(0, 1000, 50))
    )
    rc = main(["count", str(events), "--model", str(model),
               "--window", "200", "--step", "200", "--start", "0", "--end", "600"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert [float(l.split()[0]) for l in lines] == [0.0, 200.0, 400.0]


_OUT_OF_RANGE = "are out of range for these windows"


@pytest.mark.parametrize("tau_mean, tau_std, message", [
    ("60.0", "1e200", f"var_lower_bound overflows: tau_mean 60.0 and tau_std 1e+200 {_OUT_OF_RANGE}"),
    ("1e308", "60.0", f"n_hat overflows: tau_mean 1e+308 and tau_std 60.0 {_OUT_OF_RANGE}"),
    ("5e-324", "60.0", f"nrmse overflows: tau_mean 5e-324 and tau_std 60.0 {_OUT_OF_RANGE}"),
], ids=["tau_std squared", "n_hat", "nrmse"])
def test_count_refuses_a_model_whose_series_overflows_naming_the_model_file(
        tmp_path, capsys, tau_mean, tau_std, message):
    # the series would hold inf, which people and eval refuse to read
    events, model = tmp_path / "ev.txt", tmp_path / "m.model"
    events.write_text(EVENTS_TEXT)
    model.write_text(KNOWN_MODEL.replace("tau_mean 60.0", f"tau_mean {tau_mean}")
                     .replace("tau_std 60.0", f"tau_std {tau_std}"))
    out = tmp_path / "counts.txt"
    for target in ([], ["--out", str(out)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning
            assert main(["count", str(events), "--model", str(model), "--start", "0",
                         "--end", "180", *target]) == 1
        assert capsys.readouterr() == ("", f"error: {model}: {message}\n")
    assert not out.exists()


def test_count_requires_model(tmp_path, capsys):
    single = tmp_path / "single.txt"
    single.write_text("10.0 aa:bb:cc:dd:ee:09 ap0\n")
    assert main(["count", str(single)]) == 1
    assert "--model" in capsys.readouterr().err


def test_count_missing_model_file_exits_1(tmp_path):
    single = tmp_path / "single.txt"
    single.write_text("10.0 aa:bb:cc:dd:ee:09 ap0\n")
    assert main(["count", str(single), "--model", str(tmp_path / "no.model")]) == 1


def _write_events(tmp_path):
    path = tmp_path / "calib.txt"
    path.write_text(EVENTS_TEXT)
    return path


def test_simulate_writes_deterministic_outputs(tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_text("duration 1200\nseed 5\n")
    ev1, tr1 = tmp_path / "a.events", tmp_path / "a.truth"
    ev2, tr2 = tmp_path / "b.events", tmp_path / "b.truth"
    assert main(["simulate", "--config", str(config), "--events", str(ev1), "--truth", str(tr1)]) == 0
    assert main(["simulate", "--config", str(config), "--events", str(ev2), "--truth", str(tr2)]) == 0
    assert ev1.read_bytes() == ev2.read_bytes()
    assert tr1.read_bytes() == tr2.read_bytes()


def test_simulate_seed_override_changes_output(tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_text("duration 1200\nseed 5\n")
    ev1, ev2 = tmp_path / "a.events", tmp_path / "b.events"
    main(["simulate", "--config", str(config), "--events", str(ev1), "--truth", str(tmp_path / "a.t")])
    main(["simulate", "--config", str(config), "--seed", "6", "--events", str(ev2), "--truth", str(tmp_path / "b.t")])
    assert ev1.read_text() != ev2.read_text()


def test_eval_identical_series_all_zero(tmp_path, capsys):
    series = tmp_path / "series.txt"
    series.write_text("0.000000 10.0\n180.000000 12.0\n")
    rc = main(["eval", str(series), str(series)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rmse 0.000000" in out
    assert "mape 0.000000" in out
    assert "nrmse 0.000000" in out


def test_people_with_identity_ratio_is_passthrough(tmp_path, capsys):
    device = tmp_path / "device.txt"
    device.write_text(
        "# start w B R n_hat var_lower_bound nrmse\n"
        "0.000000 180.000000 30 0.166667 10.000000 1.000000 0.182574\n"
    )
    ratio = tmp_path / "ratio.txt"
    ratio.write_text(
        "alpha 1.0\nnrmse_people_ref 0.0\nnrmse_device_cal 0.0\nsource_window_span 180.0\n"
    )
    rc = main(["people", str(device), "--ratio", str(ratio)])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[0].split()[2] == "10.000000"


def test_calibrate_then_people_round_trip(tmp_path, capsys):
    device = tmp_path / "device.txt"
    device.write_text(
        "# start w B R n_hat var_lower_bound nrmse\n"
        "0.000000 180.000000 30 0.166667 11.400000 1.000000 0.100000\n"
        "180.000000 180.000000 30 0.166667 11.400000 1.000000 0.100000\n"
    )
    people = tmp_path / "people.txt"
    people.write_text("0.000000 10.0\n180.000000 10.0\n")
    ratio_path = tmp_path / "ratio.txt"
    rc = main(["calibrate", str(device), str(people), "--out", str(ratio_path)])
    assert rc == 0
    assert "alpha 1.14" in ratio_path.read_text()

    rc = main(["people", str(device), "--ratio", str(ratio_path)])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert float(lines[0].split()[2]) == pytest.approx(10.0)


def test_full_pipeline_smoke(tmp_path, capsys):
    config = tmp_path / "sim.cfg"
    config.write_text(
        "arrival_rate 0.1\n"
        "dwell_dist exp:mean=240\n"
        "interval_dist exp:mean=60\n"
        "rotation_prob 1.0\n"
        "duration 7200\n"
        "seed 33\n"
    )
    events = tmp_path / "trace.events"
    truth = tmp_path / "trace.truth"
    assert main(["simulate", "--config", str(config), "--events", str(events), "--truth", str(truth)]) == 0

    model = tmp_path / "model.txt"
    # fitting from a rotating trace is hopeless; build the model from a
    # non-rotating run of the same probing process
    config0 = tmp_path / "sim0.cfg"
    config0.write_text(
        "arrival_rate 0.0\nfixed_persons 20\ninterval_dist exp:mean=60\n"
        "rotation_prob 0.0\nduration 7200\nseed 44\n"
    )
    events0 = tmp_path / "calib.events"
    assert main(["simulate", "--config", str(config0), "--events", str(events0), "--truth", str(tmp_path / "calib.truth")]) == 0
    assert main(["fit", str(events0), "--out", str(model)]) == 0

    counts = tmp_path / "counts.txt"
    assert main([
        "count", str(events), "--model", str(model),
        "--window", "600", "--step", "600", "--start", "1200", "--out", str(counts),
    ]) == 0

    reference = tmp_path / "reference.txt"
    assert main([
        "truth", "--truth", str(truth), "--kind", "device",
        "--window", "600", "--step", "600", "--start", "1200",
        "--end", "7200", "--out", str(reference),
    ]) == 0

    assert main(["eval", str(counts), str(reference)]) == 0
    out = capsys.readouterr().out
    nrmse_line = [l for l in out.splitlines() if l.startswith("nrmse")][-1]
    assert float(nrmse_line.split()[1]) < 0.4


def test_count_mac_baseline_exceeds_rate_model_under_rotation(tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_text(
        "arrival_rate 0.0\nfixed_persons 10\ninterval_dist exp:mean=60\n"
        "rotation_prob 1.0\nduration 3600\nseed 55\n"
    )
    events = tmp_path / "trace.events"
    main(["simulate", "--config", str(config), "--events", str(events), "--truth", str(tmp_path / "t")])
    model = tmp_path / "model.txt"
    model.write_text(
        "area_id sim\ntau_mean 60.0\ntau_std 60.0\nsample_count 1000\n"
        "bin_width 600.0\nhistogram 1000\n"
    )
    counts = tmp_path / "counts.txt"
    baseline = tmp_path / "baseline.txt"
    main(["count", str(events), "--model", str(model), "--window", "300", "--step", "300",
          "--start", "300", "--out", str(counts)])
    main(["count", str(events), "--baseline", "mac", "--window", "300", "--step", "300",
          "--start", "300", "--out", str(baseline)])
    rate_values = [float(l.split()[4]) for l in counts.read_text().splitlines() if not l.startswith("#")]
    mac_values = [float(l.split()[2]) for l in baseline.read_text().splitlines() if not l.startswith("#")]
    assert sum(mac_values) > 2.0 * sum(rate_values)


def test_cli_pipeline_matches_in_process_composition(tmp_path):
    from probecount.bursts import aggregate
    from probecount.counting import format_series, sliding_windows
    from probecount.ingest import parse_events
    from probecount.simulate import parse_config, simulate

    config = tmp_path / "sim.cfg"
    config.write_text("duration 3600\nseed 61\nrotation_prob 1.0\n")
    events_path = tmp_path / "trace.events"
    counts_path = tmp_path / "counts.txt"
    model = tmp_path / "model.txt"
    model.write_text(
        "area_id sim\ntau_mean 60.0\ntau_std 60.0\nsample_count 1000\n"
        "bin_width 600.0\nhistogram 1000\n"
    )
    assert main(["simulate", "--config", str(config), "--events", str(events_path),
                 "--truth", str(tmp_path / "t")]) == 0
    assert main(["count", str(events_path), "--model", str(model),
                 "--window", "300", "--step", "300", "--out", str(counts_path)]) == 0

    events, _ = simulate(parse_config(config.read_text()))
    in_process = sliding_windows(
        aggregate(parse_events(events_path.read_text())), 300.0, 300.0,
        parse_model(model.read_text()),
    )
    assert counts_path.read_text() == format_series(in_process)
    # and the file-parsed events equal the in-process events exactly
    assert event_rows(parse_events(events_path.read_text())) == event_rows(events)


def test_truth_person_series(tmp_path, capsys):
    truth = tmp_path / "t.truth"
    truth.write_text("p0 person - 0.0 600.0\nd0 device p0 0.0 600.0\nd1 device p0 0.0 300.0\n")
    rc = main(["truth", "--truth", str(truth), "--kind", "person", "--window", "600",
               "--step", "600", "--end", "600"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.000000 1.000000"
    rc = main(["truth", "--truth", str(truth), "--kind", "device", "--window", "600",
               "--step", "600", "--end", "600"])
    assert capsys.readouterr().out.strip() == "0.000000 1.500000"


KNOWN_MODEL = (
    "area_id sim\ntau_mean 60.0\ntau_std 60.0\nsample_count 1000\n"
    "bin_width 600.0\nhistogram 1000\n"
)


def _simulate(tmp_path, config_text):
    config = tmp_path / "sim.cfg"
    config.write_text(config_text)
    events, truth = tmp_path / "sim.events", tmp_path / "sim.truth"
    assert main(["simulate", "--config", str(config), "--events", str(events),
                 "--truth", str(truth)]) == 0
    model = tmp_path / "known.model"
    model.write_text(KNOWN_MODEL)
    return events, truth, model


def _starts(path):
    return [l.split()[0] for l in path.read_text().splitlines() if not l.startswith("#")]


def test_default_grids_join_in_eval(tmp_path, capsys):
    # count anchors at the first probing instant's lattice point, truth at the
    # first entry's: with default flags both sit on the k*step lattice
    events, truth, model = _simulate(tmp_path, "duration 3600\nseed 8\n")
    counts, reference = tmp_path / "counts.txt", tmp_path / "reference.txt"
    assert main(["count", str(events), "--model", str(model), "--out", str(counts)]) == 0
    assert main(["truth", "--truth", str(truth), "--out", str(reference)]) == 0
    assert _starts(counts)[0] == _starts(reference)[0] == "0.000000"
    assert main(["eval", str(counts), str(reference)]) == 0
    assert "nrmse" in capsys.readouterr().out


def test_default_grids_join_in_calibrate(tmp_path, capsys):
    # count keeps the trailing window holding the last probing instant, truth
    # stops at the last departure: calibrate joins the shared starts, as eval does
    events, truth, model = _simulate(tmp_path, "duration 3600\nseed 8\n")
    counts, people = tmp_path / "counts.txt", tmp_path / "people_ref.txt"
    assert main(["count", str(events), "--model", str(model), "--out", str(counts)]) == 0
    assert main(["truth", "--truth", str(truth), "--kind", "person", "--out", str(people)]) == 0
    assert len(_starts(counts)) > len(_starts(people))
    assert main(["calibrate", str(counts), str(people)]) == 0
    out = capsys.readouterr().out
    shared = len(set(_starts(counts)) & set(_starts(people)))
    assert f"source_window_span {shared * 180.0!r}" in out


def test_calibrate_without_shared_window_starts_exits_1(tmp_path, capsys):
    device = tmp_path / "device.txt"
    device.write_text("0.000000 180.000000 30 0.166667 11.400000 1.000000 0.100000\n")
    people = tmp_path / "people.txt"
    people.write_text("180.000000 10.0\n")
    assert main(["calibrate", str(device), str(people)]) == 1
    assert "no overlapping window starts" in capsys.readouterr().err


def test_count_rejects_timestamps_past_32_bit_seconds(tmp_path, capsys):
    events = tmp_path / "far.events"
    events.write_text("1e308 aa:bb:cc:dd:ee:01 ap1\n")
    assert main(["count", str(events), "--baseline", "mac"]) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("end,windows", [
    ("3600", 20),
    ("3599.999999999", 20),  # 1e-9 s short of the last window's end, which still fits
    ("179.999999", 0),
])
def test_pinned_grid_runs_past_the_data_for_every_series(tmp_path, capsys, end, windows):
    events, truth, model = _simulate(
        tmp_path, "fixed_persons 10\narrival_rate 0\nduration 1800\nseed 9\n"
    )
    grid = ["--start", "0", "--end", end]
    counts, macs = tmp_path / "counts.txt", tmp_path / "macs.txt"
    people = tmp_path / "people_ref.txt"
    commands = [
        (["count", str(events), "--model", str(model)], events, counts),
        (["count", str(events), "--baseline", "mac"], events, macs),
        (["truth", "--truth", str(truth), "--kind", "person"], truth, people),
    ]
    for argv, read, out in commands:
        assert main([*argv, *grid, "--out", str(out)]) == (0 if windows else 1)
        if not windows:
            # one refusal from every series, naming the file it read
            assert capsys.readouterr().err == (
                f"error: {read}: no complete window fits before --end\n")
            assert not out.exists()
    if windows:
        expected = [f"{i * 180.0:.6f}" for i in range(windows)]
        assert _starts(counts) == _starts(macs) == _starts(people) == expected
        assert main(["calibrate", str(counts), str(people)]) == 0
        assert "alpha" in capsys.readouterr().out


def test_truth_rejects_unbounded_end(tmp_path, capsys):
    truth = tmp_path / "t.truth"
    truth.write_text("p0 person - 0.0 600.0\nd0 device p0 0.0 600.0\n")
    assert main(["truth", "--truth", str(truth), "--end", "inf"]) == 1
    assert "finite" in capsys.readouterr().err


def test_eval_error_names_file_and_line(tmp_path, capsys):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("0.000000 10.0\n")
    bad.write_text("0.000000 10.0\n180.000000 1 2 3 4\n")
    assert main(["eval", str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.txt: line 2" in err


def test_count_rejects_a_grid_above_the_window_limit(tmp_path, capsys):
    events = tmp_path / "one.events"
    events.write_text("1.0 aa:bb:cc:dd:ee:01 ap1\n")
    assert main(["count", str(events), "--baseline", "mac", "--step", "1",
                 "--start", "0", "--end", "2000000"]) == 1
    assert "window grid of 1999821 windows exceeds the limit" in capsys.readouterr().err


def test_fit_reads_nanosecond_capture(tmp_path, capsys):
    for swapped in (False, True):
        cap = tmp_path / "golden.pcap"
        cap.write_bytes(pcap(GOLDEN_RECORDS, swapped=swapped, nanosecond=True))
        assert main(["fit", str(cap)]) == 0
        assert "tau_mean 100.0\n" in capsys.readouterr().out


def test_pcapng_input_exits_1_naming_the_format(tmp_path, capsys):
    cap = tmp_path / "trace.pcapng"
    cap.write_bytes(struct.pack("<III", 0x0A0D0D0A, 28, 0x1A2B3C4D) + bytes(16))
    assert main(["fit", str(cap)]) == 1
    err = capsys.readouterr().err
    assert "pcapng" in err and "utf-8" not in err


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("interval_dist const:value=-1", "interval_dist: const value must be positive"),
        ("interval_dist exp:mean=0", "interval_dist: exp mean must be positive"),
        ("interval_dist const:value=0", "interval_dist: const value must be positive"),
        ("interval_dist uniform:low=-10,high=10", "interval_dist: uniform needs 0 <= low"),
        ("interval_dist exp:mean=60,foo=3", "interval_dist: exp has no parameter 'foo'"),
        ("interval_dist exp:mean=60,mean=5", "interval_dist: exp parameter 'mean' given twice"),
        ("interval_dist uniform:low=5", "interval_dist: distribution spec 'uniform:low=5' "
                                        "missing parameter high"),
        ("interval_dist exp:mean=inf", "interval_dist: non-finite number 'inf'"),
        ("dwell_dist exp:mean=-300", "dwell_dist: exp mean must be positive"),
        ("devices_per_person_dist poisson:mean=-1",
         "devices_per_person_dist: poisson mean must be non-negative"),
        ("devices_per_person_dist const:value=-2",
         "devices_per_person_dist: const value must be a whole number >= 0"),
    ],
)
def test_simulate_rejects_bad_distribution_specs(tmp_path, capsys, line, fragment):
    config = tmp_path / "sim.cfg"
    config.write_text(f"duration 600\n{line}\n")
    events = tmp_path / "sim.events"
    assert main(["simulate", "--config", str(config), "--events", str(events),
                 "--truth", str(tmp_path / "sim.truth")]) == 1
    assert f"error: {config}: line 2: {fragment}" in capsys.readouterr().err
    assert not events.exists()


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("ap_id lobby east", "ap_id must be one token without whitespace, got 'lobby east'"),
        ("rssi 40000", "rssi must lie in [-32767, 32767], got 40000"),
    ],
)
def test_simulate_rejects_bad_ap_id_and_rssi(tmp_path, capsys, line, fragment):
    config = tmp_path / "sim.cfg"
    config.write_text(f"duration 600\n{line}\n")
    events = tmp_path / "sim.events"
    assert main(["simulate", "--config", str(config), "--events", str(events),
                 "--truth", str(tmp_path / "sim.truth")]) == 1
    assert fragment in capsys.readouterr().err
    assert not events.exists()


@pytest.mark.parametrize(
    "text,expected",
    [
        ("devices_per_person_dist const:value=1e30\n", "2.88e+33"),
        ("fixed_persons 100000000000000000000\narrival_rate 0\n", "1.82e+22"),
    ],
)
def test_simulate_rejects_configs_above_the_record_limit(tmp_path, capsys, text, expected):
    config = tmp_path / "sim.cfg"
    config.write_text(text)
    events = tmp_path / "sim.events"
    assert main(["simulate", "--config", str(config), "--events", str(events),
                 "--truth", str(tmp_path / "sim.truth")]) == 1
    err = capsys.readouterr().err
    assert f"error: {config}: config expects about {expected} frames, persons and devices" in err
    assert not events.exists()


def test_eval_rejects_a_negative_reference(tmp_path, capsys):
    estimates, reference = tmp_path / "est.txt", tmp_path / "ref.txt"
    estimates.write_text("0.000000 1.0\n180.000000 1.0\n")
    reference.write_text("0.000000 -2.0\n180.000000 5.0\n")
    assert main(["eval", str(estimates), str(reference)]) == 1
    assert "references are counts and must be non-negative" in capsys.readouterr().err


def test_calibrate_rejects_a_negative_people_count(tmp_path, capsys):
    device = tmp_path / "device.txt"
    device.write_text(
        "0.000000 180.000000 30 0.166667 11.400000 1.000000 0.100000\n"
        "180.000000 180.000000 30 0.166667 11.400000 1.000000 0.100000\n"
    )
    people = tmp_path / "people.txt"
    people.write_text("0.000000 -2.0\n180.000000 5.0\n")
    assert main(["calibrate", str(device), str(people)]) == 1
    assert "people counts must be non-negative" in capsys.readouterr().err


GOLDEN_CONFIG = (
    "arrival_rate 0.05\nfixed_persons 3\ndevices_per_person_dist poisson:mean=1.3\n"
    "rotation_prob 0.5\nduration 1800\nseed 7\n"
)
GOLDEN_MODEL = (
    "area_id sim\ntau_mean 60.0\ntau_std 55.0\nsample_count 1000\nbin_width 600.0\n"
    "histogram 1000\n"
)
# sha256 of every file the chain writes, and the output, for each grid: the
# bytes the per-window objects wrote before the series became record arrays.
# The pinned grid runs past the data, into empty windows.
GOLDEN_DIGESTS = {
    "default": {
        "counts": "0beaf2dbbfa704e0dc973b97b29ba3cabcdd9b8a6b87a49118a043d0d7749ae3",
        "dev": "48bdc9ed4b8dea8113f16cae8040b458b8595222e316e27cd413a04bc8b68dd4",
        "stdout": (
            "events=1291 devices=126 persons=93\n"
            "rmse 2.924787\n"
            "mape 0.094494\n"
            "nrmse 0.161943\n"
            "rmse 24.213262\n"
            "mape 1.365861\n"
            "nrmse 1.340670\n"
            "rmse 2.606307\n"
            "mape 0.186303\n"
            "nrmse 0.186735\n"
        ),
        "macs": "bde9a22f27b079fb79bb2222399343836314b8127e55a0f3431d87f6b85a9477",
        "people": "c9c16f197b8e30460e9fb162225585e3c4e50543c12b0b2bfa19b9c2dacfde3f",
        "person": "b6d800711ef4852ece432d6a4530fae3e26b12ba8a420bc3b6709f79f757e144",
        "ratio": "ef500087fd61caf67d84296084a31e5664eb92c0f78326fff1be2aa1f7c8311f",
        "sim.events": "0ca3228ae12e649c4cb17290b85fff6bd5f4dd8fd0339a978097de0dc0785959",
        "sim.truth": "1b72c5d2e825f773a7d16e09fcad7dbaf2c917897532dc30c8f62d3af4bd6816",
    },
    "pinned": {
        "counts": "8a8f27b987694a44670839e0e1d5518e6d47fc6e8880ca4ad34947d44fdf6252",
        "dev": "75724bb7243e1ff4fda83ea6265f9fa9d49e7f6d773f83ab64f6b8b82b9fa64d",
        "stdout": (
            "events=1291 devices=126 persons=93\n"
            "rmse 1.464871\n"
            "mape 0.102310\n"
            "nrmse 0.222604\n"
            "rmse 28.765699\n"
            "mape 2.627072\n"
            "nrmse 4.371275\n"
            "rmse 1.417917\n"
            "mape 0.420286\n"
            "nrmse 0.250121\n"
        ),
        "macs": "84d4fe2fdcc5d3416a9a28fc3d2b6e7decd08b874b0ff988a43c1a57f618432c",
        "people": "26d803084346070e8e48c7a8de15705275c1de9cbb6a7a689cca7ac897fda2f3",
        "person": "f932252da52d1b05e714b831ddd52f9ae9baa139bb1a4aeb8481dcb38ab2afea",
        "ratio": "50064c7541df0a7cea9782f4041804bee8760520223e50f964304fc0696d7cdd",
        "sim.events": "0ca3228ae12e649c4cb17290b85fff6bd5f4dd8fd0339a978097de0dc0785959",
        "sim.truth": "1b72c5d2e825f773a7d16e09fcad7dbaf2c917897532dc30c8f62d3af4bd6816",
    },
}


def _golden_chain(d, grid):
    """Run simulate -> count (model and baseline) -> truth -> calibrate -> people
    -> eval in ``d``; returns the sha256 of each file written."""
    (d / "sim.cfg").write_text(GOLDEN_CONFIG)
    (d / "known.model").write_text(GOLDEN_MODEL)
    f = {name: str(d / name) for name in ("sim.cfg", "known.model", "sim.events", "sim.truth",
                                          "counts", "macs", "dev", "person", "ratio", "people")}
    steps = [
        ["simulate", "--config", f["sim.cfg"], "--events", f["sim.events"],
         "--truth", f["sim.truth"]],
        ["count", f["sim.events"], "--model", f["known.model"], *grid, "--out", f["counts"]],
        ["count", f["sim.events"], "--baseline", "mac", *grid, "--out", f["macs"]],
        ["truth", "--truth", f["sim.truth"], *grid, "--out", f["dev"]],
        ["truth", "--truth", f["sim.truth"], "--kind", "person", *grid, "--out", f["person"]],
        ["calibrate", f["counts"], f["person"], "--out", f["ratio"]],
        ["people", f["counts"], "--ratio", f["ratio"], "--out", f["people"]],
        ["eval", f["counts"], f["dev"]],
        ["eval", f["macs"], f["dev"]],
        ["eval", f["people"], f["person"]],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    outputs = ("sim.events", "sim.truth", "counts", "macs", "dev", "person", "ratio", "people")
    return {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in outputs}


@pytest.mark.parametrize(
    "name,grid",
    [("default", []), ("pinned", ["--window", "300", "--step", "60", "--start", "0",
                                  "--end", "6000"])],
)
def test_cli_chain_outputs_match_golden_digests(tmp_path, capsys, name, grid):
    capsys.readouterr()
    digests = _golden_chain(tmp_path, grid)
    digests["stdout"] = capsys.readouterr().out
    assert digests == GOLDEN_DIGESTS[name]


# ---------------------------------------------------------------- input-file edges

COUNT_ROW = "0.000000 180.000000 30 0.166667 11.400000 1.000000 0.100000\n"
RATIO_TEXT = "alpha 1.0\nnrmse_people_ref 0.08\nnrmse_device_cal 0.1\nsource_window_span 180.0\n"
TRUTH_TEXT = "p0 person - 0.0 600.0\nd0 device p0 0.0 600.0\n"


def _files(tmp_path, **texts):
    """Write each ``name=text`` under tmp_path; the paths as strings, by name."""
    paths = {}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    return paths


@pytest.mark.parametrize(
    "row",
    [
        "0.0 -5 abc x 3.0 y z",  # count series: a bad w and non-numbers
        "0.0 180.0 3 0.1 10.0 1.0 -0.1",  # count series: negative nrmse
        "0.0 180.0 -2",  # MAC baseline: negative count
        "0.0 0 2",  # MAC baseline: zero window
        "0.0 180.0 2.5",  # MAC baseline: a count that is not whole
        "0.0 180.0 -1.0 0.1",  # people series: negative m_hat
        "0.0 180.0 1.0 inf",  # people series: infinite nrmse
        "0.0 nan",  # reference: non-finite value
    ],
)
def test_eval_reads_every_column_with_its_format_converters(tmp_path, capsys, row):
    f = _files(tmp_path, est=row + "\n", ref="0.0 3.0\n")
    assert main(["eval", f["est"], f["ref"]]) == 1
    assert f"error: {f['est']}: line 1: " in capsys.readouterr().err


def test_eval_refuses_squared_errors_that_overflow_naming_both_files(tmp_path, capsys):
    f = _files(tmp_path, est=COUNT_ROW.replace("11.400000", "1e200"), ref="0.0 3.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy overflow warning
        assert main(["eval", f["est"], f["ref"]]) == 1
    assert capsys.readouterr() == (
        "", f"error: {f['est']}, {f['ref']}: the sum of squared errors overflows\n")


def test_eval_refuses_percentage_errors_that_overflow_naming_both_files(tmp_path, capsys):
    # rmse (1e150) is finite; mape and nrmse divide it by a reference of 1e-160
    f = _files(tmp_path, est=COUNT_ROW.replace("11.400000", "1e150"), ref="0.0 1e-160\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", f["est"], f["ref"]]) == 1
    assert capsys.readouterr() == (
        "", f"error: {f['est']}, {f['ref']}: the sum of percentage errors overflows\n")


def test_eval_reads_the_baseline_and_people_formats(tmp_path, capsys):
    f = _files(tmp_path, macs="# start w unique_macs\n0.0 180.0 4\n180.0 180.0 0\n",
               people="# start w m_hat nrmse\n0.0 180.0 2.0 0.1\n180.0 180.0 0.0 nan\n",
               ref="0.0 4.0\n180.0 1.0\n")
    assert main(["eval", f["macs"], f["ref"]]) == 0
    assert capsys.readouterr().out.startswith("rmse 0.707107\n")
    assert main(["eval", f["people"], f["ref"]]) == 0
    assert capsys.readouterr().out.startswith("rmse 1.581139\n")


def test_eval_first_row_fixes_the_layout(tmp_path, capsys):
    f = _files(tmp_path, est="# counts\n" + COUNT_ROW + "180.0 2.0\n", ref="0.0 3.0\n")
    assert main(["eval", f["est"], f["ref"]]) == 1
    assert f"error: {f['est']}: line 3: expected 7 fields, got 2" in capsys.readouterr().err
    f = _files(tmp_path, est="0.0 1 2 3 4\n", ref="0.0 3.0\n")
    assert main(["eval", f["est"], f["ref"]]) == 1
    assert "line 1: expected 2 or 3 or 4 or 7 fields, got 5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "calibrate"])
def test_a_repeated_window_start_exits_1_naming_it(tmp_path, capsys, command):
    f = _files(tmp_path, est=COUNT_ROW, ref="0.0 3.0\n0.000000 100.0\n")
    assert main([command, f["est"], f["ref"]]) == 1
    assert f"error: {f['ref']}: window start 0.000000 repeats" in capsys.readouterr().err
    f = _files(tmp_path, est=COUNT_ROW + COUNT_ROW, ref="0.0 3.0\n")
    assert main([command, f["est"], f["ref"]]) == 1
    assert f"error: {f['est']}: window start 0.000000 repeats" in capsys.readouterr().err


def _count_rows(starts, n_hats=None):
    """Count series rows of 180 s windows at ``starts``."""
    n_hats = n_hats or [11.4] * len(starts)
    return "".join(f"{start} 180.0 30 0.166667 {n_hat} 1.0 0.1\n"
                   for start, n_hat in zip(starts, n_hats))


@pytest.mark.parametrize("command", ["eval", "calibrate"])
def test_a_repeated_window_start_is_named_by_its_first_repeat_in_row_order(
        tmp_path, capsys, command):
    # 360 repeats first in row order; 180, the smallest repeated start, repeats after it
    repeated = [360.0, 180.0, 360.0, 180.0]
    f = _files(tmp_path, est=_count_rows([0.0]), ref="".join(f"{s} 3.0\n" for s in repeated))
    assert main([command, f["est"], f["ref"]]) == 1
    assert capsys.readouterr().err == f"error: {f['ref']}: window start 360.000000 repeats\n"
    f = _files(tmp_path, est=_count_rows(repeated), ref="0.0 3.0\n")
    assert main([command, f["est"], f["ref"]]) == 1
    assert capsys.readouterr().err == f"error: {f['est']}: window start 360.000000 repeats\n"


def _joined_outputs(tmp_path, capsys, command, est_starts, ref_starts):
    """The output of ``command`` on a three-window count series and a reference, at the
    given starts; every row's values differ, so a row left out of the join shows."""
    f = _files(tmp_path, est=_count_rows(est_starts, [11.4, 5.0, 7.5]),
               ref="".join(f"{s} {v}\n" for s, v in zip(ref_starts, [10.0, 6.0, 7.0])))
    assert main([command, f["est"], f["ref"]]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", ["eval", "calibrate"])
@pytest.mark.parametrize("est_starts,ref_starts", [
    # starts 0.3 us apart are the same start to the microsecond
    (["0.0", "180.0", "360.0"], ["0.0000003", "180.0000003", "359.9999997"]),
    (["-0.0", "180.0", "360.0"], ["0.0", "180.0", "360.0"]),
    (["0.0", "180.0", "360.0"], ["-0.0", "180.0", "360.0"]),
])
def test_starts_equal_to_the_microsecond_join_every_row(tmp_path, capsys, command, est_starts,
                                                        ref_starts):
    same = ["0.0", "180.0", "360.0"]
    expected = _joined_outputs(tmp_path, capsys, command, same, same)
    assert _joined_outputs(tmp_path, capsys, command, est_starts, ref_starts) == expected


def test_joined_rows_keep_the_device_series_row_order(tmp_path, capsys):
    # alpha is a ratio of left-to-right sums, whose last bits follow the row order
    n_hats = [0.2, 0.3, 0.1]
    f = _files(tmp_path, est=_count_rows([360.0, 0.0, 180.0], n_hats),
               ref="0.0 1.0\n180.0 1.0\n360.0 1.0\n")
    assert main(["calibrate", f["est"], f["ref"]]) == 0
    assert capsys.readouterr().out.startswith(f"alpha {sum(n_hats) / 3.0!r}\n")


def test_a_negative_start_grid_joins_in_eval_and_calibrate(tmp_path, capsys):
    events, truth, model = _simulate(tmp_path, "duration 3600\nseed 8\n")
    grid = ["--start", "-540", "--end", "3600"]
    counts = tmp_path / "counts.txt"
    assert main(["count", str(events), "--model", str(model), "--out", str(counts), *grid]) == 0
    for kind in ("device", "person"):
        out = tmp_path / f"{kind}.txt"
        assert main(["truth", "--truth", str(truth), "--kind", kind, "--out", str(out),
                     *grid]) == 0
    assert _starts(counts) == _starts(tmp_path / "device.txt")
    assert _starts(counts)[:4] == ["-540.000000", "-360.000000", "-180.000000", "0.000000"]
    assert main(["calibrate", str(counts), str(tmp_path / "person.txt")]) == 0
    assert f"source_window_span {4140.0!r}" in capsys.readouterr().out  # every window
    assert main(["eval", str(counts), str(tmp_path / "device.txt")]) == 0
    n_hat = [float(l.split()[4]) for l in counts.read_text().splitlines()[1:]]
    n_bar = [float(l.split()[1]) for l in (tmp_path / "device.txt").read_text().splitlines()]
    rmse = math.sqrt(sum((y - r) ** 2 for y, r in zip(n_hat, n_bar)) / len(n_bar))
    assert capsys.readouterr().out.startswith(f"rmse {rmse:.6f}\n")


@pytest.mark.parametrize(
    "args,fragment",
    [
        (["count", "{events}", "--model", "{model}", "--gap", "nan"],
         "--gap must be finite and positive, got nan"),
        (["fit", "{events}", "--bin-width", "nan"], "cutoff and bin_width must be positive"),
        (["fit", "{events}", "--cutoff", "nan"], "cutoff must be positive"),
        (["calibrate", "{series}", "{ref}", "--people-nrmse", "nan"],
         "NRMSE components must be non-negative"),
    ],
)
def test_nan_parameters_exit_1(tmp_path, capsys, args, fragment):
    f = _files(tmp_path, events=EVENTS_TEXT, series=COUNT_ROW, ref="0.0 3.0\n",
               model="area_id a\ntau_mean 60.0\ntau_std 60.0\nsample_count 1\n"
                     "bin_width 600.0\nhistogram 1\n")
    assert main([arg.format(**f) for arg in args]) == 1
    assert f"error: {fragment}" in capsys.readouterr().err


@pytest.mark.parametrize("gap", ["inf", "-inf", "0", "-1", "nan"])
@pytest.mark.parametrize("command", [["fit"], ["count", "--model", "{model}"],
                                     ["count", "--baseline", "mac"]])
def test_a_gap_that_is_not_finite_and_positive_exits_1(tmp_path, capsys, command, gap):
    # an infinite gap made each MAC one burst: count exited 0 and fit 2
    f = _files(tmp_path, events=EVENTS_TEXT,
               model="area_id a\ntau_mean 60.0\ntau_std 60.0\nsample_count 1\n"
                     "bin_width 600.0\nhistogram 1\n")
    argv = [command[0], f["events"], *(arg.format(**f) for arg in command[1:]), f"--gap={gap}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: --gap must be finite and positive, got {float(gap)!r}\n")


@pytest.mark.parametrize(
    "counts,fragment",
    [
        ("sample_count -5\nbin_width 600.0\nhistogram -5\n", "line 4: sample_count: count -5"),
        ("sample_count 10\nbin_width 300.0\nhistogram 20 -10\n", "line 6: histogram: count -10"),
    ],
)
def test_count_rejects_negative_model_counts(tmp_path, capsys, counts, fragment):
    f = _files(tmp_path, events=EVENTS_TEXT,
               model="area_id a\ntau_mean 60.0\ntau_std 60.0\n" + counts)
    assert main(["count", f["events"], "--model", f["model"]]) == 1
    assert f"error: {f['model']}: {fragment}" in capsys.readouterr().err


@pytest.mark.parametrize("column", [3, 4, 5, 6])
def test_people_rejects_negative_series_values(tmp_path, capsys, column):
    fields = COUNT_ROW.split()
    fields[column] = "-1.000000"
    f = _files(tmp_path, series=COUNT_ROW + "180.0 " + " ".join(fields[1:]) + "\n",
               ratio=RATIO_TEXT)
    assert main(["people", f["series"], "--ratio", f["ratio"]]) == 1
    assert f"error: {f['series']}: line 2: negative number '-1.000000'" in (
        capsys.readouterr().err)


@pytest.mark.parametrize(
    "args,bad",
    [
        (["fit", "{bad}"], "1.0 aa:bb:cc:dd:ee:01\n"),
        (["count", "{bad}", "--baseline", "mac"], "1.0 aa:bb:cc:dd:ee:01 ap0 loud\n"),
        (["count", "{events}", "--model", "{bad}"], "tau_mean 60.0\n"),
        (["count", "{events}", "--model", "{bad}"],  # unfitted: refused by IntervalModel
         "area_id a\ntau_mean 0.0\ntau_std 0.0\nsample_count 0\nbin_width 600.0\nhistogram 0\n"),
        (["simulate", "--config", "{bad}", "--events", "{out}", "--truth", "{out}"],
         "duration -1\n"),
        (["simulate", "--config", "{bad}", "--events", "{out}", "--truth", "{out}"],
         "seed -1\n"),
        (["calibrate", "{bad}", "{ref}"], "0.0 180.0\n"),
        (["calibrate", "{series}", "{bad}"], "0.0 x\n"),
        (["people", "{bad}", "--ratio", "{ratio}"], "0.0 180.0 3\n"),
        (["people", "{series}", "--ratio", "{bad}"], "alpha 0\n"),
        (["eval", "{series}", "{bad}"], "0.0\n"),
        (["truth", "--truth", "{bad}"], "p0 person\n"),
    ],
)
def test_every_input_file_error_names_the_file(tmp_path, capsys, args, bad):
    f = _files(tmp_path, bad=bad, events=EVENTS_TEXT, series=COUNT_ROW, ref="0.0 3.0\n",
               ratio=RATIO_TEXT, truth=TRUTH_TEXT)
    f["out"] = str(tmp_path / "out")
    assert main([arg.format(**f) for arg in args]) == 1
    assert capsys.readouterr().err.startswith(f"error: {f['bad']}: ")


@pytest.mark.parametrize("n_hat,reference", [("10.000000", "5e-324"), ("5e-324", "2.0")])
def test_calibrate_refuses_a_ratio_that_overflows_or_underflows(tmp_path, capsys, n_hat,
                                                                reference):
    fields = COUNT_ROW.split()
    fields[4] = n_hat
    f = _files(tmp_path, series=" ".join(fields) + "\n", ref=f"0.0 {reference}\n")
    ratio = tmp_path / "ratio.txt"
    assert main(["calibrate", f["series"], f["ref"], "--out", str(ratio)]) == 1
    assert capsys.readouterr().err == (
        f"error: {f['series']}, {f['ref']}: the ratio of the device total {float(n_hat)!r} "
        f"to the people total {float(reference)!r} is not a positive finite number\n"
    )
    assert not ratio.exists()


@pytest.mark.parametrize(
    "n_hat,reference,message",
    [
        ("11.400000", "0.0", "people series sums to zero"),
        ("0.000000", "3.0", "device series sums to zero; cannot calibrate"),
        ("11.400000", "-2.0", "people counts must be non-negative"),
    ],
)
def test_calibrate_errors_name_both_series(tmp_path, capsys, n_hat, reference, message):
    fields = COUNT_ROW.split()
    fields[4] = n_hat
    f = _files(tmp_path, series=" ".join(fields) + "\n", ref=f"0.0 {reference}\n")
    assert main(["calibrate", f["series"], f["ref"]]) == 1
    assert capsys.readouterr().err == f"error: {f['series']}, {f['ref']}: {message}\n"


def test_people_refuses_an_overflowing_count_naming_the_ratio_file(tmp_path, capsys):
    f = _files(tmp_path, series=COUNT_ROW, ratio=RATIO_TEXT.replace("alpha 1.0", "alpha 1e-310"))
    out = tmp_path / "people.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy overflow warning
        assert main(["people", f["series"], "--ratio", f["ratio"], "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {f['ratio']}: n_hat / alpha overflows: alpha 1e-310 is too small\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("grid,code,out,err", [
    ([], 1, "", f"error: {{truth}}: {NO_OBSERVATIONS}\n"),
    (["--start", "0", "--end", "360"], 0, "0.000000 0.000000\n180.000000 0.000000\n", ""),
])
def test_truth_without_entities_of_the_kind_names_the_file(tmp_path, capsys, grid, code, out,
                                                           err):
    f = _files(tmp_path, truth="d0 device p0 0.0 600.0\n")
    assert main(["truth", "--truth", f["truth"], "--kind", "person", *grid]) == code
    assert capsys.readouterr() == (out, err.format(**f))


@pytest.mark.parametrize("command,read", [
    (["count", "{empty}", "--model", "{model}"], "empty"),
    (["count", "{empty}", "--baseline", "mac"], "empty"),
    (["truth", "--truth", "{truth}", "--kind", "person"], "truth"),
])
def test_every_series_refuses_a_default_edge_without_observations_alike(tmp_path, capsys,
                                                                       command, read):
    f = _files(tmp_path, empty="", model=KNOWN_MODEL, truth="d0 device p0 0.0 600.0\n")
    argv = [arg.format(**f) for arg in command]
    out = tmp_path / "series.txt"
    for grid in ([], ["--start", "0"], ["--end", "360"]):
        assert main([*argv, *grid, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {f[read]}: {NO_OBSERVATIONS}\n"
        assert not out.exists()
    # pinned, the same grid holds two empty windows
    assert main([*argv, "--start", "0", "--end", "360", "--out", str(out)]) == 0
    assert _starts(out) == ["0.000000", "180.000000"]


@pytest.mark.parametrize("bin_width,count", [("1e-300", "about 6e+302"),
                                             ("0.00048828125", "1228800")])
def test_fit_rejects_a_histogram_above_the_bin_limit(tmp_path, capsys, bin_width, count):
    f = _files(tmp_path, events=EVENTS_TEXT)
    assert main(["fit", f["events"], "--bin-width", bin_width]) == 1
    assert capsys.readouterr().err == (
        f"error: histogram of {count} bins exceeds the limit of 1000000\n"
    )


@pytest.mark.parametrize("flag", ["--bin-width", "--cutoff"])
def test_fit_refuses_an_infinite_cutoff_or_bin_width(tmp_path, capsys, flag):
    f = _files(tmp_path, events=EVENTS_TEXT)
    assert main(["fit", f["events"], flag, "inf"]) == 1
    assert capsys.readouterr().err == "error: cutoff and bin_width must be finite\n"


def test_simulate_from_a_fitted_histogram(tmp_path, capsys):
    model = str(tmp_path / "fitted.model")
    f = _files(tmp_path, rotating="duration 900\nseed 1\nrotation_prob 0.3\n",
               hist=f"duration 900\nseed 2\ninterval_dist hist:{model}\n")
    events = str(tmp_path / "events")

    def simulate(config):
        return main(["simulate", "--config", config, "--events", events,
                     "--truth", str(tmp_path / "truth")])

    assert simulate(f["rotating"]) == 0
    assert main(["fit", events, "--out", model]) == 0
    assert simulate(f["hist"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("events=")
    assert main(["count", events, "--model", model]) == 0
    # an error in the model file names both files
    (tmp_path / "fitted.model").write_text("area_id a\n")
    capsys.readouterr()
    assert simulate(f["hist"]) == 1
    assert capsys.readouterr().err == (
        f"error: {f['hist']}: line 3: interval_dist: {model}: interval model file "
        "missing keys: tau_mean, tau_std, sample_count, bin_width, histogram\n"
    )


@pytest.mark.parametrize("breaker", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                     "\u2029"])
def test_error_line_numbers_count_newlines_only(tmp_path, capsys, breaker):
    f = _files(tmp_path, events=f"1.0 aa:bb:cc:dd:ee:ff ap1{breaker}\n2.0 zz:bb:cc:dd:ee:ff ap1\n")
    assert main(["count", f["events"], "--baseline", "mac"]) == 1
    assert capsys.readouterr().err == (
        f"error: {f['events']}: line 2: malformed MAC address 'zz:bb:cc:dd:ee:ff'\n"
    )


def test_a_lone_carriage_return_does_not_end_a_line(tmp_path, capsys):
    line = "1.0 aa:bb:cc:dd:ee:ff ap1"
    f = _files(tmp_path, crlf=f"{line}\r\n{line}\r\n", cr=f"{line}\r{line}\r")
    assert main(["count", f["crlf"], "--baseline", "mac"]) == 0
    capsys.readouterr()
    assert main(["count", f["cr"], "--baseline", "mac"]) == 1
    assert capsys.readouterr().err == f"error: {f['cr']}: line 1: expected 3 or 4 fields, got 6\n"


SERIES_ROW = "0.000000 180.000000 3 0.016667 1.000000 0.333333 0.577350\n"


@pytest.mark.parametrize(
    "command,valid",
    [
        (["count", "{bad}", "--baseline", "mac"], EVENTS_TEXT),
        (["truth", "--truth", "{bad}"], "d0 device p0 0.0 360.0\np0 person - 0.0 360.0\n"),
        (["people", "{bad}", "--ratio", "{ok}"], SERIES_ROW),
        (["eval", "{ok}", "{bad}"], "0.000000 1.000000\n"),
        (["calibrate", "{bad}", "{ok}"], SERIES_ROW),
    ],
)
def test_a_file_that_is_not_utf8_keeps_the_decoders_message(tmp_path, capsys, command, valid):
    # the readers take the file's bytes; one that is not UTF-8 still fails as decoding does
    data = valid.encode()[:-3] + b"\xff" + valid.encode()[-3:]
    bad, ok = tmp_path / "bad.txt", tmp_path / "ok.txt"
    bad.write_bytes(data)
    ok.write_text("alpha 2.0\nnrmse_people_ref 0.08\nnrmse_device_cal 0.1\n"
                  "source_window_span 180.0\n" if command[0] == "people" else "0.000000 1.000000\n")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        expected = f"error: {bad}: {exc}"
    argv = [a.format(bad=bad, ok=ok) for a in command]
    assert main(argv) == 1
    assert capsys.readouterr().err.strip() == expected


# Runs every command on tiny files in one fresh interpreter, then both IID
# diagnostics, and reports the scipy modules loaded by then.
_IMPORT_GUARD = """
import contextlib, io, sys
src, d = sys.argv[1:]
sys.path.insert(0, src)
import probecount
from probecount import cli, intervals
with open(f"{d}/sim.cfg", "w") as f:
    f.write("arrival_rate 0.0\\nfixed_persons 10\\ninterval_dist exp:mean=60\\n"
            "rotation_prob 0.3\\nduration 1800\\nseed 7\\n")
commands = [
    f"simulate --config {d}/sim.cfg --events {d}/ev --truth {d}/tr",
    f"truth --truth {d}/tr --kind device --out {d}/dev_ref",
    f"truth --truth {d}/tr --kind person --out {d}/person_ref",
    f"fit {d}/ev --out {d}/model",
    f"count {d}/ev --model {d}/model --out {d}/counts",
    f"count {d}/ev --baseline mac --out {d}/macs",
    f"calibrate {d}/counts {d}/person_ref --out {d}/ratio",
    f"people {d}/counts --ratio {d}/ratio --out {d}/people",
    f"eval {d}/counts {d}/dev_ref",
]
for command in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(command.split()) == 0, command
intervals.ljung_box([1.0, 3.0, 2.0, 5.0, 4.0], 2)
intervals.ks_two_sample([1.0, 3.0, 2.0], [5.0, 4.0])
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_no_command_imports_scipy(tmp_path):
    # the IID diagnostics' p-values are closed forms: nothing in the package needs scipy
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(src), str(tmp_path)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]"]
    assert parse_model((tmp_path / "model").read_text()).sample_count > 0  # fit had intervals


def test_calibrate_sums_left_to_right(tmp_path, capsys):
    # the compensated sum of Python 3.12 would make the device total 1e16 + 2, and alpha
    # 3333333333333334.0
    f = _files(tmp_path, est=_count_rows([0.0, 180.0, 360.0], [1e16, 1.0, 1.0]),
               ref="0.0 1.0\n180.0 1.0\n360.0 1.0\n")
    assert main(["calibrate", f["est"], f["ref"]]) == 0
    assert capsys.readouterr().out == (
        "alpha 3333333333333333.5\nnrmse_people_ref 0.08\nnrmse_device_cal 0.10000000000000002\n"
        "source_window_span 540.0\n")


@pytest.mark.parametrize(
    "command,ref,message",
    [
        ("eval", "0.0 -2.0\n", "references are counts and must be non-negative"),
        ("eval", "0.0 0.0\n", "all reference values are zero"),
        ("eval", "180.0 3.0\n", "no overlapping window starts between the two series"),
        ("calibrate", "180.0 3.0\n", "no overlapping window starts between the two series"),
    ],
)
def test_refusals_after_reading_name_both_files(tmp_path, capsys, command, ref, message):
    f = _files(tmp_path, est=COUNT_ROW, ref=ref)
    assert main([command, f["est"], f["ref"]]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {f['est']}, {f['ref']}: {message}\n")


@pytest.mark.parametrize("value,message", [
    ("inf", "nrmse_people_ref must be finite, got inf"),
    ("-0.1", "NRMSE components must be non-negative"),
    ("1e200", "the root-sum-square of the NRMSE terms overflows"),
])
def test_calibrate_refuses_a_people_nrmse_that_people_would_reject(tmp_path, capsys, value,
                                                                   message):
    # a flag: the refusal names no file, and no ratio file is written
    f = _files(tmp_path, series=COUNT_ROW, ref="0.0 3.0\n")
    ratio = tmp_path / "ratio.txt"
    assert main(["calibrate", f["series"], f["ref"], "--people-nrmse", value,
                 "--out", str(ratio)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not ratio.exists()


@pytest.mark.parametrize("starts,nrmse,message", [
    (("-1e308", "1e308"), "0.1", "source_window_span must be finite, got inf"),
    (("0.0", "180.0"), "1e308", "nrmse_device_cal must be finite, got inf"),
])
def test_calibrate_refuses_a_ratio_field_that_overflows(tmp_path, capsys, starts, nrmse,
                                                        message):
    f = _files(tmp_path, series="".join(f"{s} 180.0 30 0.166667 1.0 1.0 {nrmse}\n"
                                        for s in starts),
               ref="".join(f"{s} 3.0\n" for s in starts))
    assert main(["calibrate", f["series"], f["ref"]]) == 1
    assert capsys.readouterr().err == f"error: {f['series']}, {f['ref']}: {message}\n"


@pytest.mark.parametrize("line,big", [("nrmse_people_ref 0.08", "nrmse_people_ref 1e200"),
                                      ("nrmse_device_cal 0.1", "nrmse_device_cal 1e155")])
def test_people_refuses_nrmse_terms_that_overflow_naming_the_ratio_file(tmp_path, capsys, line,
                                                                         big):
    f = _files(tmp_path, series=COUNT_ROW, ratio=RATIO_TEXT.replace(line, big))
    out = tmp_path / "people.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy overflow warning
        assert main(["people", f["series"], "--ratio", f["ratio"], "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {f['ratio']}: the root-sum-square of the NRMSE terms overflows\n")
    assert not out.exists()


@pytest.mark.parametrize("area_id", ["", "two words", "line\nbreak", " padded"])
def test_fit_refuses_an_area_id_that_is_not_one_token(tmp_path, capsys, area_id):
    f = _files(tmp_path, events=EVENTS_TEXT)
    model = tmp_path / "fitted.model"
    assert main(["fit", f["events"], "--area-id", area_id, "--out", str(model)]) == 1
    assert capsys.readouterr().err == (
        f"error: area_id must be one token without whitespace, got {area_id!r}\n")
    assert not model.exists()


@pytest.mark.parametrize("command", [
    ["count", "{events}", "--model", "{model}"],
    ["count", "{events}", "--baseline", "mac"],
    ["truth", "--truth", "{truth}"],
])
@pytest.mark.parametrize("flags,message", [
    # w would be written as 0.000000
    (["--window", "1e-7"], "--window must be finite and at least 1e-06 s, got 1e-07"),
    # the start 0.000000 would be written twice
    (["--window", "10", "--step", "4e-7", "--start", "0", "--end", "10.000001"],
     "--step must be finite and at least 1e-06 s, got 4e-07"),
    # size**2 would underflow: a warning and a nan variance bound
    (["--window", "1e-300", "--step", "1"],
     "--window must be finite and at least 1e-06 s, got 1e-300"),
    (["--step", "inf"], "--step must be finite and at least 1e-06 s, got inf"),
    (["--window", "nan"], "--window must be finite and at least 1e-06 s, got nan"),
    # starts 100.0000005 + i*1e-6 would be written 100.000006 twice, and more
    (["--window", "1e-6", "--step", "1e-6", "--start", "100.0000005", "--end", "100.02"],
     "--start must be a whole number of microseconds, got 100.0000005"),
    # a grid with no finite edge: named at the flag, not at the window grid
    (["--start", "nan"], "--start must be finite, got nan"),
    (["--start", "inf"], "--start must be finite, got inf"),
    (["--start=-inf", "--end", "100"], "--start must be finite, got -inf"),
    (["--end", "nan"], "--end must be finite, got nan"),
    (["--end", "inf"], "--end must be finite, got inf"),
    (["--start", "0", "--end=-inf"], "--end must be finite, got -inf"),
    # from 2**33 s on, float seconds no longer keep microseconds apart: the starts
    # 1e10 + i*1e-6 would be written with repeats, and a start of 1e300 would be taken
    # for a grid above the window limit; the first and the last start are checked
    (["--window", "1e-6", "--step", "1e-6", "--start", "10000000000", "--end",
      "10000000000.00001"], "{input}: window start 10000000000.0 lies 2**33 s or more from 0, "
                            "where float seconds no longer keep microseconds apart"),
    (["--window", "1", "--step", "1", "--start", "1e300", "--end", "1e300"],
     "{input}: window start 1e+300 lies 2**33 s or more from 0, where float seconds no "
     "longer keep microseconds apart"),
    (["--window", "1", "--step", "1", "--start", "8589934590", "--end", "8589934594"],
     "{input}: window start 8589934593.0 lies 2**33 s or more from 0, where float seconds "
     "no longer keep microseconds apart"),
])
def test_a_window_or_step_no_series_file_can_hold_exits_1_naming_the_flag(
        tmp_path, capsys, command, flags, message):
    f = _files(tmp_path, events=EVENTS_TEXT, model=KNOWN_MODEL, truth=TRUTH_TEXT)
    out = tmp_path / "series.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([arg.format(**f) for arg in command] + flags + ["--out", str(out)]) == 1
    read = f["truth"] if command[0] == "truth" else f["events"]
    assert capsys.readouterr().err == f"error: {message.format(input=read)}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["count", "{missing}", "--baseline", "mac"],
    ["truth", "--truth", "{missing}"],
])
@pytest.mark.parametrize("flag", ["--start", "--end"])
def test_a_non_finite_grid_edge_is_refused_before_any_input_is_read(
        tmp_path, capsys, command, flag):
    missing = tmp_path / "missing"
    assert main([arg.format(missing=missing) for arg in command] + [flag, "nan"]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be finite, got nan\n"


def test_a_microsecond_window_and_step_series_is_read_back(tmp_path, capsys):
    f = _files(tmp_path, events=EVENTS_TEXT, model=KNOWN_MODEL, ratio=RATIO_TEXT,
               truth=TRUTH_TEXT)
    grid = ["--window", "1e-6", "--step", "1e-6", "--start", "99.99999", "--end", "100.00001"]
    counts, device = tmp_path / "counts.txt", tmp_path / "device.txt"
    assert main(["count", f["events"], "--model", f["model"], *grid, "--out", str(counts)]) == 0
    assert main(["truth", "--truth", f["truth"], *grid, "--out", str(device)]) == 0
    starts = _starts(counts)
    assert len(set(starts)) == len(starts) == 20 and starts == _starts(device)
    assert {line.split()[1] for line in counts.read_text().splitlines()[1:]} == {"0.000001"}
    assert main(["people", str(counts), "--ratio", f["ratio"]]) == 0
    people = capsys.readouterr().out.splitlines()[1:]
    assert len(people) == 20 and "100.000000 0.000001 60000000.000000 1.008167" in people
    assert main(["eval", str(counts), str(device)]) == 0
    # one window of n_hat = 60 / 1e-6 against 20 windows of one device
    assert capsys.readouterr().out == (
        "rmse 13416407.641392\nmape 3000000.900000\nnrmse 13416407.641392\n")


def test_simulate_refuses_a_negative_seed_flag(tmp_path, capsys):
    f = _files(tmp_path, config="duration 10\n")
    events = tmp_path / "sim.events"
    assert main(["simulate", "--config", f["config"], "--seed", "-1", "--events", str(events),
                 "--truth", str(tmp_path / "sim.truth")]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not events.exists()


@pytest.mark.parametrize("kind", ["device", "person"])
def test_truth_integrates_only_the_kind_it_writes(tmp_path, capsys, monkeypatch, kind):
    from probecount import simulate

    seen = []
    integrate = simulate.ground_truth_series

    def recording(trace, starts, w):
        seen.extend(trace.entities.kind.tolist())
        return integrate(trace, starts, w)

    monkeypatch.setattr(simulate, "ground_truth_series", recording)
    f = _files(tmp_path, truth=TRUTH_TEXT + "d1 device p0 0.0 300.0\n")
    assert main(["truth", "--truth", f["truth"], "--kind", kind, "--window", "600",
                 "--step", "600", "--end", "600"]) == 0
    assert set(seen) == {kind}
    assert capsys.readouterr().out == {"device": "0.000000 1.500000\n",
                                       "person": "0.000000 1.000000\n"}[kind]
