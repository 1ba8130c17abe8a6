import dataclasses
import hashlib
import importlib
import math
import re
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from event_columns import event_rows
from probecount.ingest import Events, format_events, is_randomized, parse_events, round6
from probecount.intervals import fit, format_model
from probecount.simulate import (
    Constant,
    ConstantCount,
    Exponential,
    GroundTruthTrace,
    HistogramInterval,
    LogNormal,
    PoissonCount,
    SimConfig,
    UniformInterval,
    _renewals,
    equilibrium_residual,
    MAX_EXPECTED_RECORDS,
    TRACE_FIELDS,
    format_trace,
    ground_truth_series,
    parse_config,
    parse_count_distribution,
    parse_distribution,
    parse_trace,
    probing_instants,
    simulate,
)

from monte_carlo import two_burst_dwell_trials


# ---------------------------------------------------------------- distributions


def test_parse_distribution_specs():
    assert parse_distribution("exp:mean=60") == Exponential(60.0)
    assert parse_distribution("lognormal:mu=3.5,sigma=1.0") == LogNormal(3.5, 1.0)
    assert parse_distribution("const:value=42") == Constant(42.0)
    assert parse_distribution("uniform:low=30,high=90") == UniformInterval(30.0, 90.0)
    assert parse_count_distribution("poisson:mean=1.14") == PoissonCount(1.14)
    assert parse_count_distribution("const:value=2") == ConstantCount(2)


def test_hist_spec_reads_a_fitted_model(tmp_path):
    model = fit([30.0, 90.0, 45.5, 12.0], bin_width=20.0)
    path = tmp_path / "fitted.model"
    path.write_text(format_model(model))
    assert parse_distribution(f"hist:{path}") == HistogramInterval(20.0, model.histogram)
    assert parse_config(f"interval_dist hist:{path}\n").interval_dist.mean() == pytest.approx(
        (10.0 + 30.0 + 50.0 + 90.0) / 4  # the midpoints of the four samples' bins
    )


def test_a_histogram_is_its_width_and_counts():
    # the probabilities it computes once are no part of its value
    hist = HistogramInterval(10.0, (0, 5, 20))
    assert repr(hist) == "HistogramInterval(bin_width=10.0, counts=(0, 5, 20))"
    assert hist == HistogramInterval(10.0, (0, 5, 20)) != HistogramInterval(10.0, (0, 5, 21))
    assert hash(hist) == hash(HistogramInterval(10.0, (0, 5, 20)))
    with mock.patch.object(np, "cumsum", side_effect=AssertionError("recomputed")):
        rng = np.random.default_rng(1)
        assert hist.sample(rng, 3).shape == hist.sample_length_biased(rng, 3).shape == (3,)


def test_hist_spec_errors_name_the_model_file(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("area_id a\ntau_mean 60.0\n")
    message = (f"line 1: interval_dist: {path}: interval model file missing keys: "
               "tau_std, sample_count, bin_width, histogram")
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(f"interval_dist hist:{path}\n")


@pytest.mark.parametrize("bad", ["exp", "exp:m=60", "wavelet:mean=60", "exp:mean"])
def test_parse_distribution_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_distribution(bad)


@pytest.mark.parametrize(
    "dist,fragment",
    [
        (lambda: Exponential(0.0), "exp mean must be positive"),
        (lambda: Exponential(math.inf), "exp mean must be positive and finite"),
        (lambda: Constant(-1.0), "const value must be positive"),
        (lambda: UniformInterval(-10.0, 10.0), "uniform needs 0 <= low <= high"),
        (lambda: UniformInterval(0.0, 0.0), "uniform mean must be positive"),
        (lambda: LogNormal(3.0, -1.0), "lognormal sigma must be non-negative"),
        (lambda: LogNormal(1000.0, 1.0), "lognormal mean must be positive and finite"),
        (lambda: LogNormal(-1000.0, 1.0), "lognormal mean must be positive"),
        (lambda: HistogramInterval(10.0, (0, 0)), "no mass"),
        (lambda: PoissonCount(-1.0), "poisson mean must be non-negative"),
        (lambda: ConstantCount(-2), "const value must be a whole number >= 0"),
        (lambda: ConstantCount(1.5), "const value must be a whole number >= 0"),
    ],
)
def test_distributions_check_their_range(dist, fragment):
    with pytest.raises(ValueError, match=fragment):
        dist()


def test_count_distributions_allow_zero():
    assert parse_count_distribution("const:value=0") == ConstantCount(0)
    assert parse_count_distribution("poisson:mean=0") == PoissonCount(0.0)
    assert isinstance(parse_count_distribution("const:value=2").value, int)


@pytest.mark.parametrize(
    "dist",
    [
        Exponential(60.0),
        LogNormal(3.59434, 1.0),
        UniformInterval(30.0, 90.0),
        HistogramInterval(10.0, (0, 5, 20, 40, 20, 5)),
    ],
)
def test_distribution_moments_match_samples(dist):
    rng = np.random.default_rng(17)
    x = dist.sample(rng, 200_000)
    assert np.mean(x) == pytest.approx(dist.mean(), rel=0.02)
    assert np.std(x) == pytest.approx(dist.std(), rel=0.03)


def test_length_biased_sampling_mean():
    # E[length-biased X] = E[X^2] / E[X]
    rng = np.random.default_rng(18)
    dist = LogNormal(3.59434, 1.0)
    lb = dist.sample_length_biased(rng, 200_000)
    expected = (dist.mean() ** 2 + dist.std() ** 2) / dist.mean()
    assert np.mean(lb) == pytest.approx(expected, rel=0.03)


def test_equilibrium_residual_mean():
    # E[residual] = E[X^2] / (2 E[X]); for lognormal sigma=1 this is
    # mean * e / 2, noticeably above mean / 2.
    rng = np.random.default_rng(19)
    dist = LogNormal(math.log(60.0) - 0.5, 1.0)
    res = equilibrium_residual(dist, rng, 200_000)
    expected = (dist.mean() ** 2 + dist.std() ** 2) / (2 * dist.mean())
    assert np.mean(res) == pytest.approx(expected, rel=0.03)


def test_equilibrium_residual_exponential_is_exponential():
    rng = np.random.default_rng(20)
    res = equilibrium_residual(Exponential(60.0), rng, 200_000)
    assert np.mean(res) == pytest.approx(60.0, rel=0.02)
    assert np.std(res) == pytest.approx(60.0, rel=0.02)


# ---------------------------------------------------------------- renewal core


def test_probing_instants_renewal_consistency():
    # interval mean/std recovered from generated instants within 1%
    rng = np.random.default_rng(23)
    instants = probing_instants(Exponential(60.0), 0.0, 60.0 * 100_000, rng, "equilibrium")
    taus = np.diff(instants)
    assert taus.size > 90_000
    assert abs(np.mean(taus) - 60.0) / 60.0 < 0.01
    assert abs(np.std(taus, ddof=1) - 60.0) / 60.0 < 0.01


def test_probing_instants_elementary_renewal_rate():
    # single always-present device: E[count]/horizon -> 1/mean
    horizon = 1e4 * 60.0
    counts = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        counts.append(probing_instants(Exponential(60.0), 0.0, horizon, rng, "ordinary").size)
    rate = np.mean(counts) / horizon
    assert abs(rate - 1 / 60.0) / (1 / 60.0) < 0.01


def test_probing_instants_empty_ranges():
    rng = np.random.default_rng(1)
    assert probing_instants(Exponential(60.0), 10.0, 10.0, rng).size == 0
    assert probing_instants(Exponential(60.0), 10.0, 5.0, rng).size == 0


def test_probing_instants_stay_inside_range():
    rng = np.random.default_rng(2)
    instants = probing_instants(Exponential(5.0), 100.0, 400.0, rng)
    assert np.all(instants >= 100.0)
    assert np.all(instants < 400.0)
    assert np.all(np.diff(instants) > 0)


# ---------------------------------------------------------------- ground truth


def rows_of(*spans):
    """Trace rows (entity_id, kind, owner, enter, leave) of (kind, enter, leave) spans."""
    return [(f"{kind[0]}{i}", kind, "-" if kind == "person" else "p0", enter, leave)
            for i, (kind, enter, leave) in enumerate(spans)]


def trace_from_rows(rows):
    columns = list(zip(*rows)) or [()] * 5
    return GroundTruthTrace(np.rec.fromarrays(
        [np.array(c, dtype=t) for c, t in zip(columns, (str, str, str, float, float))],
        names=TRACE_FIELDS))


def trace_of(*spans):
    return trace_from_rows(rows_of(*spans))


def of_kind(trace, kind):
    """The trace's records of one kind."""
    return trace.entities[trace.entities.kind == kind]


def window_truth(trace, start, size):
    """(n_bar, m_bar) of the one window [start, start + size)."""
    [(n_bar, m_bar)] = ground_truth_series(trace, np.array([start]), size)
    return n_bar, m_bar


def test_ground_truth_two_full_one_half():
    trace = trace_of(
        ("device", 0.0, 600.0),
        ("device", 0.0, 600.0),
        ("device", 300.0, 600.0),
    )
    n_bar, m_bar = window_truth(trace, 0.0, 600.0)
    assert n_bar == pytest.approx(2.5, abs=1e-12)
    assert m_bar == 0.0


def test_ground_truth_empty_trace():
    assert window_truth(trace_from_rows([]), 0.0, 100.0) == (0.0, 0.0)


def test_ground_truth_matches_riemann_sum():
    rng = np.random.default_rng(29)
    spans = [("device", float(a), float(a + d)) for a, d in
             zip(rng.uniform(0, 500, 40), rng.uniform(1, 400, 40))]
    trace = trace_of(*spans)
    n_bar, _ = window_truth(trace, 100.0, 300.0)

    # brute-force discretization of N(t) at 1 ms resolution
    ts = np.arange(100.0, 400.0, 1e-3) + 0.5e-3
    n_t = np.zeros_like(ts)
    for _, enter, leave in spans:
        n_t += (ts >= enter) & (ts < leave)
    assert abs(n_bar - float(np.mean(n_t))) < 1e-3


def test_ground_truth_additivity():
    a = trace_of(("device", 0.0, 50.0), ("device", 20.0, 80.0))
    b = trace_of(("device", 10.0, 90.0))
    merged = trace_from_rows(a.entities.tolist() + b.entities.tolist())
    assert window_truth(merged, 0.0, 100.0)[0] == pytest.approx(
        window_truth(a, 0.0, 100.0)[0] + window_truth(b, 0.0, 100.0)[0]
    )


def test_ground_truth_window_partition():
    rng = np.random.default_rng(31)
    spans = [("device", float(a), float(a + d)) for a, d in
             zip(rng.uniform(0, 900, 25), rng.uniform(1, 300, 25))]
    trace = trace_of(*spans)
    whole_avg = window_truth(trace, 0.0, 1200.0)[0]
    part_avgs = ground_truth_series(trace, np.arange(4) * 300.0, 300.0).n_bar.tolist()
    assert whole_avg == pytest.approx(sum(part_avgs) / 4.0)


def assert_matches_oracle(rows, starts, w):
    """ground_truth_series against the per-window overlap oracle, to the oracle's own
    rounding: a few units in the last place of the largest time, per entity."""
    truth = ground_truth_series(trace_from_rows(rows), starts, w)
    expected = oracles.ground_truth_series(rows, [oracles.Window(s, w) for s in starts.tolist()])
    times = [abs(x) for row in rows for x in row[3:]] + [abs(s) + w for s in starts]
    tolerance = 4 * (len(rows) + 1) * np.finfo(float).eps * max(times + [w]) / w
    assert len(truth) == len(expected)
    for ours, theirs in zip(truth.tolist(), expected):
        assert ours == pytest.approx(theirs, rel=0, abs=tolerance)


# times on and off the microsecond grid (1.0000001 is off it, as a hand-written
# sidecar may hold), and window edges
_TIMES = st.one_of(
    st.integers(-(10**10), 10**10).map(lambda k: k / 1e6),
    st.floats(-1e4, 1e4),
    st.sampled_from([1.0000001, 0.0, 1.0, 180.0, -180.0, 1.7e9]),
)


@st.composite
def _spans(draw):
    """Traces of up to 25 entities, and window grids from before the first to after the
    last, some starting or ending at an entity's times."""
    spans = []
    for _ in range(draw(st.integers(1, 25))):
        enter = draw(_TIMES)
        leave = draw(st.one_of(_TIMES, st.floats(1e-6, 2e3).map(lambda d: enter + d)))
        if enter < leave:
            spans.append((draw(st.sampled_from(["device", "person"])), enter, leave))
    edges = [t for _, enter, leave in spans for t in (enter, leave)] or [0.0]
    w = draw(st.sampled_from([0.3, 1.0, 10.0, 180.0, 900.0]))
    start = draw(st.one_of(_TIMES, st.sampled_from(edges),
                           st.sampled_from(edges).map(lambda t: t - w)))
    step = draw(st.sampled_from([0.7, 1.0, w, 60.0, 180.0]))
    return spans, start + np.arange(draw(st.integers(0, 40))) * step, w


@settings(max_examples=300, deadline=None)
@given(_spans())
def test_ground_truth_series_matches_per_window_oracle(case):
    spans, starts, w = case
    assert_matches_oracle(rows_of(*spans), starts, w)


def test_ground_truth_of_one_entity_around_its_edges():
    rows = rows_of(("device", 100.0, 200.0))
    # before, touching the enter, straddling it, inside, straddling and touching the leave, after
    starts = np.array([-500.0, 50.0, 75.0, 100.0, 150.0, 190.0, 200.0, 1e4])
    assert ground_truth_series(trace_from_rows(rows), starts, 50.0).n_bar.tolist() == [
        0.0, 0.0, 0.5, 1.0, 1.0, 0.2, 0.0, 0.0]
    assert_matches_oracle(rows, starts, 50.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["device", "person"]), st.integers(-(10**12), 10**12),
                       st.integers(1, 10**10)), min_size=1, max_size=20),
    st.lists(st.integers(-(10**12), 10**12), max_size=10),
    st.integers(1, 10**10),
)
def test_ground_truth_on_the_microsecond_grid_is_the_rounded_exact_ratio(spans, starts, w):
    # times in whole microseconds: each average is the exact ratio, rounded once
    rows = rows_of(*((kind, enter / 1e6, (enter + dwell) / 1e6) for kind, enter, dwell in spans))
    truth = ground_truth_series(trace_from_rows(rows), np.array(starts) / 1e6, w / 1e6)
    for s, averages in zip(starts, truth.tolist()):
        for kind, value in zip(("device", "person"), averages):
            total = sum(max(0, min(enter + dwell, s + w) - max(enter, s))
                        for k, enter, dwell in spans if k == kind)
            assert value == float(Fraction(total, w))


def test_ground_truth_prefix_sums_do_not_overflow():
    # 4000 entities over 1.8e16 microseconds: sums and window totals past 2**63 in int64;
    # times past 2**53 / 1e6 seconds have no exact microseconds
    rng = np.random.default_rng(5)
    enter = rng.uniform(-9e9, 9e9, 4000)
    rows = rows_of(*(("device", a, a + d) for a, d in zip(enter, rng.uniform(1e9, 9e9, 4000))))
    assert_matches_oracle(rows, np.linspace(-9e9, 9e9, 50), 8e9)
    rows = rows_of(("device", 1e15, 2e15), ("person", -1e300, -1e299), ("person", -5.0, 1e12))
    starts = np.array([-1e300, -10.0, 1e15 - 1e5, 1e15])
    # -1e300 + 1e6 rounds to -1e300, but the window still lies in the person's span
    assert ground_truth_series(trace_from_rows(rows), starts, 1e6).tolist() == [
        (0.0, 1.0), (0.0, 0.999995), (0.9, 0.0), (1.0, 0.0)]


def test_ground_truth_of_a_million_windows():
    _, trace = simulate(SimConfig(duration=1800.0, seed=3))
    starts = -5.0 + np.arange(1_000_000) * 0.002  # 1.0 s windows from before the first entity
    tracemalloc.start()
    truth = ground_truth_series(trace, starts, 1.0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the output's 16 bytes a window, and temporaries for a block of windows at a time
    assert peak < 1_000_000 * 16 + 20_000_000
    rows = trace.entities.tolist()
    sample = np.arange(0, starts.size, 9973)
    assert_matches_oracle(rows, starts[sample], 1.0)
    assert truth[sample].tolist() == ground_truth_series(trace, starts[sample], 1.0).tolist()


# ---------------------------------------------------------------- simulate()


def test_simulate_deterministic():
    cfg = SimConfig(duration=1200.0, seed=99)
    first = simulate(cfg)
    second = simulate(cfg)
    assert event_rows(first[0]) == event_rows(second[0])
    assert first[1].entities.tolist() == second[1].entities.tolist()


def test_simulate_seed_changes_output():
    a, _ = simulate(SimConfig(duration=1200.0, seed=1))
    b, _ = simulate(SimConfig(duration=1200.0, seed=2))
    assert event_rows(a) != event_rows(b)


def test_simulate_zero_duration_empty():
    events, trace = simulate(SimConfig(duration=0.0, seed=5))
    assert len(events) == 0
    assert trace.entities.tolist() == []


def test_simulate_devices_share_owner_dwell():
    cfg = SimConfig(duration=2000.0, seed=7, devices_per_person_dist=PoissonCount(2.0))
    _, trace = simulate(cfg)
    persons = {e.entity_id: e for e in of_kind(trace, "person")}
    assert of_kind(trace, "device").size
    for device in of_kind(trace, "device"):
        owner = persons[device.owner]
        assert (device.enter, device.leave) == (owner.enter, owner.leave)


def test_simulate_rotation_zero_uses_one_physical_mac_per_device():
    cfg = SimConfig(
        arrival_rate=0.0, fixed_persons=5, rotation_prob=0.0, duration=1500.0, seed=9
    )
    events, trace = simulate(cfg)
    assert len(set(events.mac.tolist())) <= len(of_kind(trace, "device"))
    assert not is_randomized(events.mac).any()


def test_simulate_rotation_one_uses_fresh_virtual_macs():
    cfg = SimConfig(
        arrival_rate=0.0, fixed_persons=3, rotation_prob=1.0, duration=1500.0, seed=9,
        frames_per_burst=(1, 1),
    )
    events, _ = simulate(cfg)
    assert len(events) > 10
    assert is_randomized(events.mac).all()
    # single-frame bursts with per-burst rotation: every event a distinct MAC
    assert len(set(events.mac.tolist())) == len(events)


def test_simulate_fixed_persons_span_whole_run():
    cfg = SimConfig(arrival_rate=0.0, fixed_persons=4, duration=800.0, seed=3)
    _, trace = simulate(cfg)
    assert len(of_kind(trace, "person")) == 4
    assert all(p.enter == 0.0 and p.leave == 800.0 for p in of_kind(trace, "person"))


def test_simulate_events_sorted_and_timestamps_rounded():
    events, _ = simulate(SimConfig(duration=1500.0, seed=12))
    ts = events.t.tolist()
    assert ts == sorted(ts)
    assert all(round(t, 6) == t for t in ts)


def test_simulate_event_text_round_trip():
    cfg = SimConfig(duration=1500.0, seed=14)
    events, _ = simulate(cfg)
    text = format_events(events, cfg.ap_id, cfg.rssi)
    assert event_rows(parse_events(text)) == event_rows(events)


@pytest.mark.parametrize("config", [
    "duration 1200\nseed 4\nrotation_prob 0.3\narrival_rate 0.02\nfixed_persons 3\n"
    "devices_per_person_dist poisson:mean=1.5\nframes_per_burst 1..3\n",
    "duration 0\nseed 4\n",
])
def test_the_benchmark_set_up_reads_the_simulators_columns(monkeypatch, config):
    # bench/inputs.py writes every workload's input files from simulate_arrays, which
    # reads the events' row view and the trace's entity rows: they must give the columns
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    inputs = importlib.import_module("inputs")
    t, mac, truth = inputs.simulate_arrays(config)
    events, trace = simulate(parse_config(config))
    assert t.dtype == np.float64 and mac.dtype == np.uint64
    assert t.tobytes() == events.t.tobytes() and mac.tobytes() == events.mac.tobytes()
    assert sorted(truth) == ["device_enter", "device_leave", "person_enter", "person_leave"]
    for kind in ("device", "person"):
        entities = of_kind(trace, kind)
        assert truth[f"{kind}_enter"].tobytes() == entities.enter.tobytes()
        assert truth[f"{kind}_leave"].tobytes() == entities.leave.tobytes()
    if len(events):
        assert 0 < is_randomized(mac).mean() < 1 and of_kind(trace, "person").size > 3


def test_simulate_total_dwell_tracks_burst_count():
    # long-run self-consistency: total dwell ~ bursts * mean interval.  One run's count is
    # Poisson with mean 10000, a spread of 1%, so the bound of 2% is tested on ten runs
    total_dwell = burst_count = 0
    for seed in range(16, 26):
        cfg = SimConfig(
            arrival_rate=0.0,
            fixed_persons=50,
            interval_dist=Exponential(60.0),
            frames_per_burst=(1, 1),
            duration=12_000.0,
            seed=seed,
        )
        events, trace = simulate(cfg)
        total_dwell += sum(e.leave - e.enter for e in of_kind(trace, "device"))
        burst_count += len(events)  # one frame per burst
    assert abs(total_dwell - burst_count * 60.0) / total_dwell <= 0.02


def test_simulate_heterogeneous_interval_scales():
    sigma = 0.4
    cfg = SimConfig(
        arrival_rate=0.0,
        fixed_persons=400,
        interval_dist=Exponential(60.0),
        interval_scale_sigma=sigma,
        frames_per_burst=(1, 1),
        rotation_prob=0.0,
        duration=6000.0,
        seed=22,
    )
    events, trace = simulate(cfg)
    # per-device interval means really do spread out
    per_device = {}
    for t, mac in zip(events.t.tolist(), events.mac.tolist()):
        per_device.setdefault(mac, []).append(t)
    means = [np.mean(np.diff(ts)) for ts in per_device.values() if len(ts) > 20]
    assert max(means) / min(means) > 1.5
    # device scales have unit mean, so the aggregate burst rate per
    # device-second carries the harmonic factor E[1/s] = exp(sigma^2)
    total_dwell = sum(e.leave - e.enter for e in of_kind(trace, "device"))
    expected_rate = math.exp(sigma**2) / 60.0
    assert len(events) / total_dwell == pytest.approx(expected_rate, rel=0.05)


def test_two_burst_dwell_expectation():
    mean = two_burst_dwell_trials(50.0, 70.0, 90.0, trials=100_000, seed=4)
    expected = (50.0 + 2 * 70.0 + 90.0) / 2
    assert abs(mean - expected) / expected < 0.02


# ---------------------------------------------------------------- config & trace io


def test_parse_config_full():
    text = """
# simulator settings
arrival_rate 0.1
dwell_dist exp:mean=240
interval_dist lognormal:mu=3.6,sigma=0.8
burst_duration 1.5
frames_per_burst 2..4
devices_per_person_dist poisson:mean=1.14
rotation_prob 0.75
phase_mode ordinary
duration 7200
seed 77
fixed_persons 3
interval_scale_sigma 0.2
ap_id apX
rssi -55
"""
    cfg = parse_config(text)
    assert cfg.arrival_rate == 0.1
    assert cfg.dwell_dist == Exponential(240.0)
    assert cfg.interval_dist == LogNormal(3.6, 0.8)
    assert cfg.burst_duration == 1.5
    assert cfg.frames_per_burst == (2, 4)
    assert cfg.devices_per_person_dist == PoissonCount(1.14)
    assert cfg.rotation_prob == 0.75
    assert cfg.phase_mode == "ordinary"
    assert cfg.duration == 7200.0
    assert cfg.seed == 77
    assert cfg.fixed_persons == 3
    assert cfg.interval_scale_sigma == 0.2
    assert cfg.ap_id == "apX"
    assert cfg.rssi == -55


def test_parse_config_defaults_and_unknown_key():
    cfg = parse_config("seed 5\n")
    assert cfg.seed == 5
    assert cfg.phase_mode == "equilibrium"
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("warp_factor 9\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("seed 5\nseed 6\n", "line 2: duplicate config key 'seed'"),
        ("# header\nduration soon\n", "line 2: duration"),
        ("arrival_rate nan\n", "line 1: arrival_rate: non-finite"),
        ("seed\n", "line 1: expected 'key value'"),
        ("seed -1\n", "seed must be non-negative, got -1"),
    ],
)
def test_parse_config_rejects_bad_lines(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_config(text)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p0 person - 0.0 600.0\nd0 device p0 0.0\n", "line 2: expected 5 fields, got 4"),
        ("p0 person - 0.0 inf\n", "line 1: non-finite"),
        ("p0 person - 600.0 0.0\n", "line 1: entity must leave"),
    ],
)
def test_parse_trace_errors_name_the_line(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_trace(text)


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("rssi", -32768, r"rssi must lie in \[-32767, 32767\]"),
        ("rssi", 32768, "rssi must lie in"),
        ("ap_id", "lobby east", "ap_id must be one token"),
        ("ap_id", "", "ap_id must be one token"),
        ("ap_id", "lobby\t", "ap_id must be one token"),
    ],
)
def test_config_checks_rssi_and_ap_id(field, value, fragment):
    with pytest.raises(ValueError, match=fragment):
        SimConfig(**{field: value})


def test_config_accepts_rssi_extremes():
    for rssi in (-32767, 32767):
        events, _ = simulate(SimConfig(duration=300.0, seed=1, rssi=rssi, ap_id="a-1"))
        lines = format_events(events, "a-1", rssi).splitlines()
        assert lines and all(line.endswith(f" a-1 {rssi}") for line in lines)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(rotation_prob=1.5)
    with pytest.raises(ValueError):
        SimConfig(phase_mode="sideways")
    with pytest.raises(ValueError):
        SimConfig(frames_per_burst=(0, 2))
    with pytest.raises(ValueError):
        SimConfig(duration=-1.0)


@pytest.mark.parametrize(
    "config,expected",
    [
        (dict(devices_per_person_dist=ConstantCount(1e30)), "2.88e+33"),
        (dict(fixed_persons=10**20, arrival_rate=0.0), "1.82e+22"),
        (dict(fixed_persons=10**400, arrival_rate=0.0), "inf"),
        (dict(arrival_rate=1e12, dwell_dist=Exponential(1e-9), duration=3600.0), "7.2e+15"),
        (dict(interval_scale_sigma=30.0), "inf"),
    ],
)
def test_config_rejects_more_than_the_expected_records_limit(config, expected):
    message = f"about {expected} frames, persons and devices, more than the limit"
    with pytest.raises(ValueError, match=re.escape(message)):
        SimConfig(**config)


def test_config_expected_records_from_the_means():
    cfg = SimConfig(arrival_rate=0.1, dwell_dist=Exponential(300.0), duration=3600.0,
                    fixed_persons=2, devices_per_person_dist=PoissonCount(1.5),
                    interval_dist=Exponential(60.0), frames_per_burst=(1, 3))
    persons = 2 + 0.1 * 3600.0
    frames = (2 * 3600.0 + 0.1 * 3600.0 * 300.0) * 1.5 / 60.0 * 3
    assert cfg.expected_records() == pytest.approx(persons * 2.5 + frames)
    # persons count even when they carry no device
    with pytest.raises(ValueError, match="more than the limit"):
        SimConfig(fixed_persons=MAX_EXPECTED_RECORDS + 1, arrival_rate=0.0,
                  devices_per_person_dist=ConstantCount(0))


def test_trace_round_trip():
    _, trace = simulate(SimConfig(duration=1500.0, seed=31))
    assert parse_trace(format_trace(trace)).entities.tolist() == trace.entities.tolist()


@pytest.mark.parametrize("source", ["simulate", "parse_trace", "a record array"])
def test_iterating_entities_gives_their_rows_as_python_values(source):
    _, trace = simulate(SimConfig(arrival_rate=0.02, devices_per_person_dist=PoissonCount(1.5),
                                  duration=1500.0, seed=31))
    if source == "parse_trace":
        trace = parse_trace(format_trace(trace))
    elif source == "a record array":
        trace = trace_from_rows(trace.entities.tolist())
    entities = trace.entities
    rows = list(entities)
    assert rows == entities.tolist() and len(rows) == len(entities) > 2
    assert {e.kind for e in rows} == {"device", "person"}
    for row in rows:
        assert [type(v) for v in row] == [str, str, str, float, float]
        assert tuple(getattr(row, name) for name in TRACE_FIELDS) == row
    devices = entities[entities.kind == "device"]
    assert [e for e in rows if e.kind == "device"] == list(devices) == devices.tolist()
    for column in (entities.kind, devices.enter, devices["leave"], entities[1:].owner):
        assert type(column) is np.ndarray
    assert devices.enter.tolist() == [e.enter for e in rows if e.kind == "device"]
    assert isinstance(entities[0], np.record) and entities[0].kind == rows[0].kind
    assert list(trace_from_rows([]).entities) == []


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p0 person - 0.0 10.0\nd0 robot p0 0.0 10.0\n", "line 2: unknown entity kind 'robot'"),
        ("p0 person - 10.0 10.0\n", "line 1: entity must leave strictly after entering"),
        ("p0 person - 0.0 nan\n", "line 1: non-finite number 'nan'"),
        ("p0 person 0.0 10.0\n", "line 1: expected 5 fields, got 4"),
    ],
)
def test_parse_trace_rejects_bad_rows(text, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        parse_trace(text)


# ---------------------------------------------------------------- byte identity


def test_simulate_returns_columns():
    events, _ = simulate(SimConfig(duration=600.0, seed=3, ap_id="lobby", rssi=-42))
    assert isinstance(events, Events) and len(events)
    assert [field.name for field in dataclasses.fields(events)] == ["t", "mac"]


_HIST = HistogramInterval(4.0, (0, 3, 9, 5, 1, 2))


@settings(max_examples=60, deadline=None)
@given(
    frames=st.tuples(st.integers(1, 6), st.integers(0, 4)),
    burst_duration=st.floats(0.001, 10.0),
    # with the edges of the coin random() < p: 5e-324 rotates only on a draw of 0, and
    # 1 - 2**-53 rotates on every draw but the largest
    rotation_prob=st.one_of(st.sampled_from([0.0, 5e-324, 1e-9, 1 - 2**-53, 1.0]),
                            st.floats(0.0, 1.0)),
    interval_scale_sigma=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    phase_mode=st.sampled_from(["equilibrium", "ordinary"]),
    population=st.one_of(
        st.tuples(st.integers(0, 6), st.just(0.0)),
        st.tuples(st.just(0), st.floats(0.001, 0.05)),
    ),
    interval_dist=st.sampled_from(
        [Exponential(20.0), LogNormal(2.5, 0.8), UniformInterval(2.0, 30.0), Constant(7.5),
         _HIST]
    ),
    devices=st.sampled_from([ConstantCount(1), PoissonCount(1.5)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulate_matches_frame_by_frame_simulator(
    frames, burst_duration, rotation_prob, interval_scale_sigma, phase_mode, population,
    interval_dist, devices, seed,
):
    fixed_persons, arrival_rate = population
    cfg = SimConfig(
        arrival_rate=arrival_rate,
        fixed_persons=fixed_persons,
        interval_dist=interval_dist,
        burst_duration=burst_duration,
        frames_per_burst=(frames[0], frames[0] + frames[1]),
        devices_per_person_dist=devices,
        rotation_prob=rotation_prob,
        phase_mode=phase_mode,
        duration=600.0,
        seed=seed,
        interval_scale_sigma=interval_scale_sigma,
    )
    events, trace = simulate(cfg)
    expected_events, expected_trace = oracles.simulate(cfg)
    assert event_rows(events) == expected_events
    assert (format_events(events, cfg.ap_id, cfg.rssi)
            == oracles.format_events(expected_events, cfg.ap_id, cfg.rssi))
    assert trace.entities.tolist() == expected_trace


def test_rotation_changes_only_the_macs():
    # the bursts' instants, frame counts and coins are drawn before any fresh MAC, so the
    # rotation probability leaves the times and the trace as they are
    runs = {}
    for p in (0.0, 0.3, 1.0):
        config = SimConfig(arrival_rate=0.02, fixed_persons=3, rotation_prob=p,
                           devices_per_person_dist=PoissonCount(1.5), frames_per_burst=(1, 3),
                           interval_scale_sigma=0.3, duration=1800.0, seed=11)
        runs[p] = simulate(config)
    (events, trace), *others = runs.values()
    assert len(events) > 100
    for other_events, other_trace in others:
        assert other_events.t.tolist() == events.t.tolist()
        assert other_trace.entities.tolist() == trace.entities.tolist()
    persistent = set(events.mac.tolist())
    assert len(persistent) <= len(trace.entities[trace.entities.kind == "device"])
    assert not is_randomized(events.mac).any()
    assert is_randomized(runs[1.0][0].mac).all()
    assert persistent.isdisjoint(runs[1.0][0].mac.tolist())
    rotating = runs[0.3][0].mac
    local = is_randomized(rotating)
    assert 0 < local.mean() < 1
    assert set(rotating[~local].tolist()) <= persistent  # the bursts that kept their MAC


@settings(max_examples=50, deadline=None)
@given(
    dist=st.sampled_from([Exponential(5.0), LogNormal(1.0, 1.2), UniformInterval(0.0, 3.0),
                          Constant(4.0), HistogramInterval(2.0, (0, 3, 9, 5, 1, 2))]),
    start=st.floats(0.0, 100.0),
    span=st.floats(0.0, 2000.0),
    scale=st.floats(0.1, 3.0),
    phase_mode=st.sampled_from(["equilibrium", "ordinary"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_renewal_loop_keeps_the_draws(dist, start, span, scale, phase_mode, seed):
    args = (dist, start, start + span)
    ours = probing_instants(*args, np.random.default_rng(seed), phase_mode, scale)
    theirs = oracles.probing_instants(*args, np.random.default_rng(seed), phase_mode, scale)
    assert ours.tolist() == theirs.tolist()
    rate = 1.0 / (1.0 + scale)
    mean, rng = 1.0 / rate, np.random.default_rng(seed)
    pieces = [()]
    count = _renewals(0.0, span, mean, lambda n: rng.exponential(mean, n), 16, pieces)
    ours = np.concatenate(pieces)
    assert count == ours.size
    theirs = oracles._poisson_arrivals(np.random.default_rng(seed), rate, span)
    assert ours.tolist() == theirs.tolist()


# Event and truth files of each config: (config, event count, sha256 of the
# event text followed by the truth text), as the frame-by-frame simulator in
# oracles.py wrote them.
GOLDEN_SIMULATIONS = [
    (
        "duration 1800\nseed 1\n",
        866,
        "ceebb511c59bbe5cdeba6a37b59eee27cae33d28e842fd49ef22352364f71054",
    ),
    (
        "arrival_rate 0.0\nfixed_persons 6\ninterval_dist lognormal:mu=3.5,sigma=0.8\n"
        "frames_per_burst 2..5\nburst_duration 0.7\nrotation_prob 0.3\n"
        "interval_scale_sigma 0.4\nphase_mode ordinary\nduration 1200\nseed 4\n"
        "ap_id lobby\nrssi -42\n",
        566,
        "e7796cea96b4fc79d3e2467984d5ff508008ac5cf5ac60d2d48358cfd7f0a03a",
    ),
    (
        "arrival_rate 0.2\ndwell_dist uniform:low=60,high=240\n"
        "interval_dist uniform:low=5,high=40\ndevices_per_person_dist poisson:mean=1.5\n"
        "rotation_prob 0.0\nframes_per_burst 3\nburst_duration 2.5\nduration 600\nseed 9\n",
        3945,
        "0ed2876f915470c41cff6b1baef0572b6150ffcfa280c3a59810bf60cb24e1b7",
    ),
    (
        # every device probes at the same instants: ties broken by MAC
        "arrival_rate 0\nfixed_persons 5\ninterval_dist const:value=10\nphase_mode ordinary\n"
        "frames_per_burst 1..3\nburst_duration 1\nrotation_prob 0.5\nduration 300\nseed 2\n",
        300,
        "fe295d8dd4e97c026dd69e2d4ff92df7da37859b9f6cf77c62ecdf574b378e8b",
    ),
    (
        # full rotation with a frame-count draw
        "rotation_prob 1.0\nframes_per_burst 2..7\ninterval_scale_sigma 0.3\nduration 1800\n"
        "seed 5\n",
        2182,
        "ec30a3d2cbfe144f8b86e0c20a706cdd48626b37bac5dadd1ac3c16c08c20202",
    ),
    (
        # fitted histograms (GOLDEN_MODEL) for intervals, length-biased first waits and dwells
        "arrival_rate 0.1\nfixed_persons 2\ndwell_dist hist:golden.model\n"
        "interval_dist hist:golden.model\nframes_per_burst 1..3\nrotation_prob 0.3\n"
        "duration 3600\nseed 6\n",
        1060,
        "831eb37365a29cca5982c1729b6f1c4861faa17fa88e4ec0843df1f2612559d4",
    ),
    (
        # the benchmark's simulate_validate config, shorter: a Poisson device count per
        # person and an exponential first wait at equilibrium, every burst rotating
        "arrival_rate 0.2\ndwell_dist uniform:low=150,high=450\ninterval_dist exp:mean=60\n"
        "devices_per_person_dist poisson:mean=1.14\nrotation_prob 1.0\nframes_per_burst 1..3\n"
        "duration 1200\nseed 8\n",
        3391,
        "c7d23f6a62c8f88f339acf9d73c2886dc18a71711422750bff338f3ca5af1787",
    ),
]
GOLDEN_MODEL = ("area_id golden\ntau_mean 48.0\ntau_std 30.0\nsample_count 60\nbin_width 10.0\n"
                "histogram 0 4 9 12 10 8 6 4 3 2 1 1\n")


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    """A working directory holding the model file the golden configs name."""
    (tmp_path / "golden.model").write_text(GOLDEN_MODEL)
    monkeypatch.chdir(tmp_path)


@pytest.mark.usefixtures("golden_dir")
@pytest.mark.parametrize("config,count,digest", GOLDEN_SIMULATIONS)
def test_simulated_files_keep_their_bytes(config, count, digest):
    cfg = parse_config(config)
    events, trace = simulate(cfg)
    assert len(events) == count
    text = format_events(events, cfg.ap_id, cfg.rssi) + format_trace(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.usefixtures("golden_dir")
@pytest.mark.parametrize("config,count,digest", GOLDEN_SIMULATIONS)
def test_the_frame_by_frame_simulator_writes_the_golden_files(config, count, digest):
    cfg = parse_config(config)
    events, entities = oracles.simulate(cfg)
    assert len(events) == count
    text = oracles.format_events(events, cfg.ap_id, cfg.rssi) + "".join(
        f"{entity} {kind} {owner} {enter:.6f} {leave:.6f}\n"
        for entity, kind, owner, enter, leave in entities)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.usefixtures("golden_dir")
@pytest.mark.parametrize("config,count,digest", GOLDEN_SIMULATIONS)
def test_each_golden_config_rotates_only_its_macs(config, count, digest):
    # the MACs are the last draws, so any rotation probability keeps the events' times and
    # the trace; the bursts that keep their MAC carry the device's rotation-0 MAC
    parsed = parse_config(config)
    runs = {}
    for p in (0.0, parsed.rotation_prob, 1.0):
        runs[p] = simulate(dataclasses.replace(parsed, rotation_prob=p))
    events, trace = runs[0.0]
    for other_events, other_trace in runs.values():
        assert other_events.t.tolist() == events.t.tolist()
        assert other_trace.entities.tolist() == trace.entities.tolist()
    assert not is_randomized(events.mac).any()
    assert is_randomized(runs[1.0][0].mac).all()
    macs = runs[parsed.rotation_prob][0].mac
    kept = ~is_randomized(macs)
    assert set(macs[kept].tolist()) <= set(events.mac.tolist())


# the coin is random() < p: 5e-324 rotates only on a draw of 0, 1e-9 about once in a
# billion bursts, and 1 - 2**-53 on every draw but the largest
@pytest.mark.parametrize("rotation_prob", [0.0, 5e-324, 1e-9, 1 - 2**-53, 1.0])
def test_the_rotation_coin_at_its_edges(rotation_prob):
    config = SimConfig(arrival_rate=0.05, fixed_persons=4, rotation_prob=rotation_prob,
                       devices_per_person_dist=PoissonCount(1.5), frames_per_burst=(1, 4),
                       duration=900.0, seed=23)
    events, trace = simulate(config)
    expected_events, expected_trace = oracles.simulate(config)
    assert event_rows(events) == expected_events
    assert trace.entities.tolist() == expected_trace
    assert len(events) > 100
    assert is_randomized(events.mac).all() == (rotation_prob > 0.5)
    assert is_randomized(events.mac).any() == (rotation_prob > 0.5)


def test_simulated_timestamps_round_like_python():
    # 10.0000005 lies just above the midpoint: round() gives 10.000001, while
    # np.round(x, 6) rounds the product 10000000.5 half to even, to 10.0.
    cfg = SimConfig(
        arrival_rate=0.0, fixed_persons=1, interval_dist=Constant(10.0000005),
        phase_mode="ordinary", frames_per_burst=(1, 1), duration=15.0, seed=0,
    )
    events, _ = simulate(cfg)
    assert events.t.tolist() == [10.000001]


def _near_half_microseconds(k, ulps):
    """The float ``ulps`` steps from (k + 0.5) / 1e6, a half-microsecond tie."""
    x = (k + 0.5) / 1e6
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(-(2.0**32), 2.0**32),
    st.floats(allow_nan=False, allow_infinity=False),  # up to the largest finite float
    st.sampled_from([0.0, -0.0, -1e-7, sys.float_info.max, -sys.float_info.max]),
    st.builds(_near_half_microseconds, st.integers(-(2**32) * 10**6, 2**32 * 10**6 - 1),
              st.integers(-3, 3)),
    st.integers(-(2**38), 2**38 - 1).map(lambda j: (2 * j + 1) / 128),  # exact ties: odd / 2**7
), min_size=1, max_size=20))
def test_rounding_to_the_microsecond_matches_python_round(xs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy overflow warning
        rounded = round6(np.array(xs)).tolist()
    # repr tells -0.0 from 0.0: the sign is kept
    assert list(map(repr, rounded)) == [repr(round(x, 6)) for x in xs]
