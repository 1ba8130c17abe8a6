import math

import numpy as np
import pytest

from probecount.counting import Window
from probecount.ingest import format_events, is_randomized, parse_events
from probecount.simulate import (
    Constant,
    ConstantCount,
    Entity,
    Exponential,
    GroundTruthTrace,
    HistogramInterval,
    LogNormal,
    PoissonCount,
    SimConfig,
    UniformInterval,
    equilibrium_residual,
    format_trace,
    ground_truth_window,
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


@pytest.mark.parametrize("bad", ["exp", "exp:m=60", "wavelet:mean=60", "exp:mean"])
def test_parse_distribution_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_distribution(bad)


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


def trace_of(*spans):
    entities = []
    for i, (kind, enter, leave) in enumerate(spans):
        owner = "-" if kind == "person" else "p0"
        entities.append(Entity(f"{kind[0]}{i}", kind, owner, enter, leave))
    return GroundTruthTrace(tuple(entities))


def test_ground_truth_two_full_one_half():
    trace = trace_of(
        ("device", 0.0, 600.0),
        ("device", 0.0, 600.0),
        ("device", 300.0, 600.0),
    )
    n_bar, m_bar = ground_truth_window(trace, Window(0.0, 600.0))
    assert n_bar == pytest.approx(2.5, abs=1e-12)
    assert m_bar == 0.0


def test_ground_truth_empty_trace():
    assert ground_truth_window(GroundTruthTrace(()), Window(0.0, 100.0)) == (0.0, 0.0)


def test_ground_truth_matches_riemann_sum():
    rng = np.random.default_rng(29)
    spans = [("device", float(a), float(a + d)) for a, d in
             zip(rng.uniform(0, 500, 40), rng.uniform(1, 400, 40))]
    trace = trace_of(*spans)
    window = Window(100.0, 300.0)
    n_bar, _ = ground_truth_window(trace, window)

    # brute-force discretization of N(t) at 1 ms resolution
    ts = np.arange(window.start, window.end, 1e-3) + 0.5e-3
    n_t = np.zeros_like(ts)
    for _, enter, leave in spans:
        n_t += (ts >= enter) & (ts < leave)
    assert abs(n_bar - float(np.mean(n_t))) < 1e-3


def test_ground_truth_additivity():
    a = trace_of(("device", 0.0, 50.0), ("device", 20.0, 80.0))
    b = trace_of(("device", 10.0, 90.0))
    merged = GroundTruthTrace(a.entities + b.entities)
    window = Window(0.0, 100.0)
    assert ground_truth_window(merged, window)[0] == pytest.approx(
        ground_truth_window(a, window)[0] + ground_truth_window(b, window)[0]
    )


def test_ground_truth_window_partition():
    rng = np.random.default_rng(31)
    spans = [("device", float(a), float(a + d)) for a, d in
             zip(rng.uniform(0, 900, 25), rng.uniform(1, 300, 25))]
    trace = trace_of(*spans)
    whole = Window(0.0, 1200.0)
    parts = [Window(i * 300.0, 300.0) for i in range(4)]
    whole_avg = ground_truth_window(trace, whole)[0]
    part_avgs = [ground_truth_window(trace, w)[0] for w in parts]
    assert whole_avg == pytest.approx(sum(part_avgs) / 4.0)


# ---------------------------------------------------------------- simulate()


def test_simulate_deterministic():
    cfg = SimConfig(duration=1200.0, seed=99)
    first = simulate(cfg)
    second = simulate(cfg)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_simulate_seed_changes_output():
    a, _ = simulate(SimConfig(duration=1200.0, seed=1))
    b, _ = simulate(SimConfig(duration=1200.0, seed=2))
    assert a != b


def test_simulate_zero_duration_empty():
    events, trace = simulate(SimConfig(duration=0.0, seed=5))
    assert events == []
    assert trace.entities == ()


def test_simulate_devices_share_owner_dwell():
    cfg = SimConfig(duration=2000.0, seed=7, devices_per_person_dist=PoissonCount(2.0))
    _, trace = simulate(cfg)
    persons = {e.entity_id: e for e in trace.persons()}
    assert trace.devices()
    for device in trace.devices():
        owner = persons[device.owner]
        assert (device.enter, device.leave) == (owner.enter, owner.leave)


def test_simulate_rotation_zero_uses_one_physical_mac_per_device():
    cfg = SimConfig(
        arrival_rate=0.0, fixed_persons=5, rotation_prob=0.0, duration=1500.0, seed=9
    )
    events, trace = simulate(cfg)
    macs = {e.mac for e in events}
    assert len(macs) <= len(trace.devices())
    assert all(not is_randomized(m) for m in macs)


def test_simulate_rotation_one_uses_fresh_virtual_macs():
    cfg = SimConfig(
        arrival_rate=0.0, fixed_persons=3, rotation_prob=1.0, duration=1500.0, seed=9,
        frames_per_burst=(1, 1),
    )
    events, _ = simulate(cfg)
    assert len(events) > 10
    assert all(is_randomized(e.mac) for e in events)
    # single-frame bursts with per-burst rotation: every event a distinct MAC
    assert len({e.mac for e in events}) == len(events)


def test_simulate_fixed_persons_span_whole_run():
    cfg = SimConfig(arrival_rate=0.0, fixed_persons=4, duration=800.0, seed=3)
    _, trace = simulate(cfg)
    assert len(trace.persons()) == 4
    assert all(p.enter == 0.0 and p.leave == 800.0 for p in trace.persons())


def test_simulate_events_sorted_and_timestamps_rounded():
    events, _ = simulate(SimConfig(duration=1500.0, seed=12))
    ts = [e.timestamp for e in events]
    assert ts == sorted(ts)
    assert all(round(t, 6) == t for t in ts)


def test_simulate_event_text_round_trip():
    events, _ = simulate(SimConfig(duration=1500.0, seed=14))
    assert parse_events(format_events(events)) == events


def test_simulate_total_dwell_tracks_burst_count():
    # long-run self-consistency: total dwell ~ bursts * mean interval
    cfg = SimConfig(
        arrival_rate=0.0,
        fixed_persons=50,
        interval_dist=Exponential(60.0),
        frames_per_burst=(1, 1),
        duration=12_000.0,
        seed=16,
    )
    events, trace = simulate(cfg)
    total_dwell = sum(e.leave - e.enter for e in trace.devices())
    burst_count = len(events)  # one frame per burst
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
    for e in events:
        per_device.setdefault(e.mac, []).append(e.timestamp)
    means = [np.mean(np.diff(ts)) for ts in per_device.values() if len(ts) > 20]
    assert max(means) / min(means) > 1.5
    # device scales have unit mean, so the aggregate burst rate per
    # device-second carries the harmonic factor E[1/s] = exp(sigma^2)
    total_dwell = sum(e.leave - e.enter for e in trace.devices())
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


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(rotation_prob=1.5)
    with pytest.raises(ValueError):
        SimConfig(phase_mode="sideways")
    with pytest.raises(ValueError):
        SimConfig(frames_per_burst=(0, 2))
    with pytest.raises(ValueError):
        SimConfig(duration=-1.0)


def test_trace_round_trip():
    _, trace = simulate(SimConfig(duration=1500.0, seed=31))
    assert parse_trace(format_trace(trace)) == trace
