import pytest

from probecount.cli import build_parser, main
from probecount.intervals import parse_model

from capture_files import pcap, probe_request

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


def test_parser_rejects_unknown_baseline():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["count", "in.txt", "--baseline", "magic"])


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
    assert parse_events(events_path.read_text()) == events


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


def test_pinned_grid_runs_past_the_data_for_every_series(tmp_path, capsys):
    events, truth, model = _simulate(
        tmp_path, "fixed_persons 10\narrival_rate 0\nduration 1800\nseed 9\n"
    )
    grid = ["--start", "0", "--end", "3600"]
    counts, macs = tmp_path / "counts.txt", tmp_path / "macs.txt"
    people = tmp_path / "people_ref.txt"
    assert main(["count", str(events), "--model", str(model), *grid, "--out", str(counts)]) == 0
    assert main(["count", str(events), "--baseline", "mac", *grid, "--out", str(macs)]) == 0
    assert main(["truth", "--truth", str(truth), "--kind", "person", *grid,
                 "--out", str(people)]) == 0
    expected = [f"{i * 180.0:.6f}" for i in range(20)]
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
