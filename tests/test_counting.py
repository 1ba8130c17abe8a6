import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probecount.bursts import Burst, aggregate
from probecount.counting import (
    Window,
    format_series,
    grid_start,
    mac_count_series,
    parse_series,
    sliding_windows,
    window_grid,
)
from probecount.ingest import MacAddress, PrfEvent
from probecount.intervals import IntervalModel

MAC = MacAddress.parse("02:00:00:00:00:01")


def burst(t):
    return Burst(MAC, t, t, 1, frozenset({"ap0"}))


def model(tau_mean=60.0, tau_std=60.0):
    return IntervalModel.from_moments("test", tau_mean, tau_std)


def one_window(bursts, window, m):
    """The estimate of one pinned window."""
    [est] = sliding_windows(
        bursts, window.size, window.size, m, start=window.start, end=window.end
    )
    return est


def one_mac_window(events, window):
    """Distinct MACs of one pinned window."""
    [(_, n)] = mac_count_series(events, window.size, window.size, start=window.start, end=window.end)
    return n


def test_count_window_direct_evaluation():
    bursts = [burst(i * 6.0) for i in range(100)]
    est = one_window(bursts, Window(0.0, 600.0), model(60.0, 60.0))
    assert est.burst_count == 100
    assert est.n_hat == pytest.approx(10.0)
    assert est.rate == pytest.approx(100 / 600.0)
    assert est.var_lower_bound == pytest.approx(100 * 3600.0 / 360000.0)  # = 1.0
    assert est.nrmse_estimate == pytest.approx(0.1)


def test_count_window_empty():
    est = one_window([], Window(0.0, 600.0), model())
    assert est.burst_count == 0
    assert est.n_hat == 0.0
    assert est.var_lower_bound == 0.0
    assert est.nrmse_estimate is None


def test_count_window_half_open_membership():
    bursts = [burst(0.0), burst(599.999999), burst(600.0)]
    est = one_window(bursts, Window(0.0, 600.0), model())
    assert est.burst_count == 2


def test_count_window_unfitted_model():
    empty = IntervalModel("x", 60.0, 60.0, 0, histogram=model().histogram)
    with pytest.raises(ValueError, match="unfitted interval model"):
        one_window([], Window(0.0, 600.0), empty)


def test_sliding_windows_partition():
    bursts = [burst(float(t)) for t in range(0, 1000)]
    estimates = sliding_windows(bursts, 200.0, 200.0, model())
    assert len(estimates) == 5
    assert [e.window.start for e in estimates] == [0.0, 200.0, 400.0, 600.0, 800.0]
    assert sum(e.burst_count for e in estimates) == 1000


@given(
    st.lists(st.integers(0, 20000).map(lambda q: q / 4.0), min_size=1, max_size=60),
    st.integers(10, 500),
)
def test_sliding_step_equals_window_conserves_bursts(times, size):
    bursts = [burst(t) for t in sorted(times)]
    estimates = sliding_windows(bursts, float(size), float(size), model())
    assert sum(e.burst_count for e in estimates) == len(bursts)


@given(
    st.lists(st.floats(0, 2000, allow_nan=False, width=32), min_size=1, max_size=50),
    st.floats(20.0, 300.0),
    st.floats(5.0, 100.0),
)
def test_sliding_windows_match_brute_force_membership(times, size, step):
    bursts = [burst(t) for t in sorted(times)]
    estimates = sliding_windows(bursts, size, step, model())
    for e in estimates:
        expected = sum(1 for b in bursts if e.window.contains(b.probing_instant))
        assert e.burst_count == expected


def test_overlapping_windows_interior_multiplicity():
    # step < w: interior bursts appear in ceil(w/step) or floor(w/step) windows
    bursts = [burst(float(t)) for t in range(0, 1000, 7)]
    size, step = 100.0, 30.0
    estimates = sliding_windows(bursts, size, step, model())
    lo, hi = math.floor(size / step), math.ceil(size / step)
    for b in bursts:
        if b.probing_instant < size or b.probing_instant > 1000 - size:
            continue  # edge windows may truncate membership
        count = sum(1 for e in estimates if e.window.contains(b.probing_instant))
        assert count in (lo, hi)


def test_window_grid_keeps_windows_ending_by_end():
    grid = window_grid(0.0, 1000.0, 300.0, 200.0)
    assert [w.start for w in grid] == [0.0, 200.0, 400.0, 600.0]
    assert all(w.size == 300.0 for w in grid)
    # a window ending within 1e-9 of end still fits
    assert len(window_grid(0.0, 0.3 - 1e-10, 0.1, 0.1)) == 3
    assert window_grid(500.0, 100.0, 10.0, 10.0) == []


@pytest.mark.parametrize(
    "start,end,size,step,fragment",
    [
        (0.0, 100.0, 0.0, 10.0, "positive"),
        (0.0, 100.0, 10.0, 0.0, "positive"),
        (0.0, 100.0, 10.0, -5.0, "positive"),
        (0.0, math.inf, 10.0, 10.0, "finite"),
        (math.nan, 100.0, 10.0, 10.0, "finite"),
    ],
)
def test_window_grid_rejects_bad_bounds(start, end, size, step, fragment):
    with pytest.raises(ValueError, match=fragment):
        window_grid(start, end, size, step)


def test_grid_start_on_step_lattice():
    assert grid_start(58.05, 180.0) == 0.0
    assert grid_start(180.0, 180.0) == 180.0
    assert grid_start(1234.5, 10.0) == 1230.0
    # 90142.79999999999 / 0.3 rounds up to a whole number of steps
    first = 90142.79999999999
    assert grid_start(first, 0.3) <= first
    estimates = sliding_windows([burst(first)], 0.3, 0.3, model())
    assert sum(e.burst_count for e in estimates) == 1
    with pytest.raises(ValueError, match="positive"):
        grid_start(10.0, 0.0)


def test_default_grids_start_on_step_lattice():
    bursts = [burst(t) for t in [58.05, 200.0, 401.0]]
    estimates = sliding_windows(bursts, 180.0, 180.0, model())
    assert [e.window.start for e in estimates] == [0.0, 180.0, 360.0]
    events = [ev(b.probing_instant, "02:00:00:00:00:01") for b in bursts]
    assert [w.start for w, _ in mac_count_series(events, 180.0, 180.0)] == [0.0, 180.0, 360.0]


def test_end_runs_grid_past_the_data():
    bursts = [burst(float(t)) for t in range(0, 500, 10)]
    estimates = sliding_windows(bursts, 180.0, 180.0, model(), start=0.0, end=1800.0)
    assert [e.window.start for e in estimates] == [i * 180.0 for i in range(10)]
    assert [e.burst_count for e in estimates[3:]] == [0] * 7
    events = [ev(b.probing_instant, "02:00:00:00:00:01") for b in bursts]
    series = mac_count_series(events, 180.0, 180.0, start=0.0, end=1800.0)
    assert [w for w, _ in series] == [e.window for e in estimates]
    assert [n for _, n in series] == [1, 1, 1] + [0] * 7


def test_sliding_windows_rejects_unsorted():
    with pytest.raises(ValueError, match="sorted"):
        sliding_windows([burst(10.0), burst(0.0)], 100.0, 100.0, model())


def test_sliding_windows_empty():
    assert sliding_windows([], 100.0, 100.0, model()) == []


def test_time_scale_invariance():
    c = 8.0  # power of two keeps the arithmetic exact
    bursts = [burst(t) for t in [5.0, 17.0, 130.0]]
    scaled = [burst(t.probing_instant * c) for t in bursts]
    a = one_window(bursts, Window(0.0, 180.0), model(60.0, 60.0))
    b = one_window(scaled, Window(0.0, 180.0 * c), model(60.0 * c, 60.0 * c))
    assert a.burst_count == b.burst_count
    assert a.n_hat == b.n_hat


def test_linearity_in_bursts():
    bursts = [burst(t) for t in [1.0, 2.0, 50.0]]
    single = one_window(bursts, Window(0.0, 180.0), model())
    doubled = one_window(
        sorted(bursts + bursts, key=lambda b: b.probing_instant),
        Window(0.0, 180.0),
        model(),
    )
    assert doubled.burst_count == 2 * single.burst_count
    assert doubled.n_hat == 2 * single.n_hat


def test_monotonicity():
    window = Window(0.0, 180.0)
    bursts = [burst(t) for t in [1.0, 2.0]]
    more = sorted(bursts + [burst(90.0)], key=lambda b: b.probing_instant)
    assert one_window(more, window, model()).n_hat >= one_window(bursts, window, model()).n_hat


# ---------------------------------------------------------------- MAC baseline


def ev(t, mac_text, ap="ap0"):
    return PrfEvent(t, MacAddress.parse(mac_text), ap)


def test_mac_baseline_counts_distinct_macs():
    events = [
        ev(1.0, "02:00:00:00:00:01"),
        ev(2.0, "02:00:00:00:00:01"),
        ev(3.0, "02:00:00:00:00:02"),
    ]
    assert one_mac_window(events, Window(0.0, 10.0)) == 2


def test_mac_baseline_empty_window():
    assert one_mac_window([], Window(0.0, 10.0)) == 0


def test_mac_baseline_overcounts_under_rotation():
    # Same simulated scene at increasing rotation probability: the baseline's
    # overcount ratio grows while the rate model stays put.
    from probecount.simulate import SimConfig, Exponential, ConstantCount, simulate, ground_truth_window

    ratios = []
    for rotation in (0.0, 0.5, 1.0):
        cfg = SimConfig(
            arrival_rate=0.0,
            fixed_persons=20,
            interval_dist=Exponential(60.0),
            devices_per_person_dist=ConstantCount(1),
            rotation_prob=rotation,
            duration=3000.0,
            seed=13,
        )
        events, trace = simulate(cfg)
        window = Window(300.0, 2400.0)
        n_bar, _ = ground_truth_window(trace, window)
        baseline = one_mac_window(events, window)
        rate_est = one_window(aggregate(events), window, model(60.0, 60.0))
        ratios.append(baseline / n_bar)
        assert baseline / n_bar > rate_est.n_hat / n_bar or rotation == 0.0
    assert ratios[0] < ratios[1] < ratios[2]


@given(
    st.lists(
        st.tuples(st.integers(0, 8000).map(lambda q: q / 4.0), st.integers(1, 5)),
        min_size=1,
        max_size=60,
    ),
    st.integers(10, 500),
    st.integers(5, 200),
)
def test_mac_count_series_matches_brute_force(frames, size, step):
    events = [ev(t, f"02:00:00:00:00:{m:02x}") for t, m in sorted(frames)]
    for window, n in mac_count_series(events, float(size), float(step)):
        assert n == len({e.mac for e in events if window.contains(e.timestamp)})


def test_mac_count_series_rejects_unsorted():
    events = [ev(10.0, "02:00:00:00:00:01"), ev(0.0, "02:00:00:00:00:01")]
    with pytest.raises(ValueError, match="sorted"):
        mac_count_series(events, 100.0, 100.0)


def test_mac_count_series_grid_matches_sliding_windows():
    events = [ev(float(t), "02:00:00:00:00:01") for t in range(0, 100, 10)]
    series = mac_count_series(events, 50.0, 50.0)
    assert [w.start for w, _ in series] == [0.0, 50.0]
    assert [n for _, n in series] == [1, 1]


# ---------------------------------------------------------------- series files


def test_series_round_trip():
    bursts = [burst(t) for t in [1.0, 2.0, 300.0]]
    estimates = sliding_windows(bursts, 180.0, 180.0, model())
    estimates.append(one_window([], Window(900.0, 180.0), model()))  # nan nrmse
    text = format_series(estimates)
    parsed = parse_series(text)
    assert len(parsed) == len(estimates)
    for a, b in zip(parsed, estimates):
        assert a.window == b.window
        assert a.burst_count == b.burst_count
        assert a.n_hat == pytest.approx(b.n_hat, abs=1e-6)
        assert (a.nrmse_estimate is None) == (b.nrmse_estimate is None)


def test_parse_series_rejects_wrong_field_count():
    with pytest.raises(ValueError, match="line 1"):
        parse_series("1.0 2.0 3\n")


@pytest.mark.parametrize(
    "line",
    [
        "0.0 180.0 x 0.1 10.0 1.0 0.1",  # burst count not an integer
        "inf 180.0 3 0.1 10.0 1.0 0.1",
        "0.0 180.0 3 0.1 nan 1.0 0.1",
        "0.0 180.0 3 0.1 10.0 1.0 inf",
        "0.0 -180.0 3 0.1 10.0 1.0 0.1",  # window size must be positive
    ],
)
def test_parse_series_errors_name_the_line(line):
    with pytest.raises(ValueError, match="line 2"):
        parse_series("# start w B R n_hat var_lower_bound nrmse\n" + line + "\n")
