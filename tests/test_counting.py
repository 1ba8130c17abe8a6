import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from probecount.bursts import Bursts, aggregate
from probecount.counting import (
    MAC_SERIES_DTYPE,
    MAX_WINDOWS,
    format_mac_series,
    format_series,
    grid_start,
    mac_count_series,
    parse_series,
    sliding_windows,
    window_grid,
)
from event_columns import Event, events_of, mac
from probecount.intervals import IntervalModel

MAC = mac("02:00:00:00:00:01")


def at(*times):
    """One-frame bursts of MAC at sorted ``times``."""
    t = np.array(times, dtype=np.float64)
    return Bursts(t, np.full(t.size, MAC, dtype=np.uint64))


def model(tau_mean=60.0, tau_std=60.0):
    return IntervalModel.from_moments("test", tau_mean, tau_std)


def one_window(bursts, window, m):
    """The estimate of one pinned (start, size) window."""
    start, size = window
    [est] = sliding_windows(bursts, size, size, m, start=start, end=start + size)
    return est


def one_mac_window(events, window):
    """Distinct MACs of one pinned (start, size) window."""
    start, size = window
    [(_, n)] = mac_count_series(events, size, size, start=start, end=start + size)
    return n


def contains(start, size, t):
    return start <= t < start + size


def oracle_starts(start, end, size, step):
    return [w.start for w in oracles.window_grid(start, end, size, step)]


def test_count_window_direct_evaluation():
    bursts = at(*(i * 6.0 for i in range(100)))
    est = one_window(bursts, (0.0, 600.0), model(60.0, 60.0))
    assert est.burst_count == 100
    assert est.n_hat == pytest.approx(10.0)
    assert est.rate == pytest.approx(100 / 600.0)
    assert est.var_lower_bound == pytest.approx(100 * 3600.0 / 360000.0)  # = 1.0
    assert est.nrmse == pytest.approx(0.1)


def test_count_window_empty():
    est = one_window(at(), (0.0, 600.0), model())
    assert est.burst_count == 0
    assert est.n_hat == 0.0
    assert est.var_lower_bound == 0.0
    assert math.isnan(est.nrmse)


def test_count_window_half_open_membership():
    bursts = at(0.0, 599.999999, 600.0)
    est = one_window(bursts, (0.0, 600.0), model())
    assert est.burst_count == 2


def test_format_mac_series_writes_start_w_and_count():
    series = np.rec.fromarrays([[0.0, 60.0], [3, 0]], dtype=MAC_SERIES_DTYPE)
    assert format_mac_series(series, 180.0) == (
        "# start w unique_macs\n0.000000 180.000000 3\n60.000000 180.000000 0\n"
    )


def test_sliding_windows_partition():
    bursts = at(*(float(t) for t in range(0, 1000)))
    estimates = sliding_windows(bursts, 200.0, 200.0, model())
    assert len(estimates) == 5
    assert estimates.start.tolist() == [0.0, 200.0, 400.0, 600.0, 800.0]
    assert estimates.burst_count.sum() == 1000


@given(
    st.lists(st.integers(0, 20000).map(lambda q: q / 4.0), min_size=1, max_size=60),
    st.integers(10, 500),
)
def test_sliding_step_equals_window_conserves_bursts(times, size):
    bursts = at(*sorted(times))
    estimates = sliding_windows(bursts, float(size), float(size), model())
    assert estimates.burst_count.sum() == len(bursts)


@given(
    st.lists(st.floats(0, 2000, allow_nan=False, width=32), min_size=1, max_size=50),
    st.floats(20.0, 300.0),
    st.floats(5.0, 100.0),
)
def test_sliding_windows_match_brute_force_membership(times, size, step):
    bursts = at(*sorted(times))
    estimates = sliding_windows(bursts, size, step, model())
    for e in estimates:
        expected = sum(1 for t in bursts.instant.tolist() if contains(e.start, e.w, t))
        assert e.burst_count == expected


def test_overlapping_windows_interior_multiplicity():
    # step < w: interior bursts appear in ceil(w/step) or floor(w/step) windows
    bursts = at(*(float(t) for t in range(0, 1000, 7)))
    size, step = 100.0, 30.0
    estimates = sliding_windows(bursts, size, step, model())
    lo, hi = math.floor(size / step), math.ceil(size / step)
    for t in bursts.instant.tolist():
        if t < size or t > 1000 - size:
            continue  # edge windows may truncate membership
        count = sum(1 for e in estimates if contains(e.start, e.w, t))
        assert count in (lo, hi)


def test_window_grid_keeps_windows_ending_by_end():
    grid = window_grid(0.0, 1000.0, 300.0, 200.0)
    assert grid.tolist() == [0.0, 200.0, 400.0, 600.0]
    # a window ending within 1e-9 of end still fits
    assert len(window_grid(0.0, 0.3 - 1e-10, 0.1, 0.1)) == 3
    assert window_grid(500.0, 100.0, 10.0, 10.0).tolist() == []


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



@given(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(0, 2000, allow_nan=False),
    st.sampled_from([0.1, 0.3, 1.0, 10.0, 180.0, 300.0]),
    st.sampled_from([0.1, 0.3, 1.0, 10.0, 60.0, 180.0]),
)
def test_window_grid_matches_loop(start, steps, size, step):
    end = start + steps * step
    assert window_grid(start, end, size, step).tolist() == oracle_starts(start, end, size, step)


@given(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(0, 300),
    st.sampled_from([0.1, 0.2, 0.7, 1.1, 1 / 3, 10.0]),
    st.integers(1, 3),
    st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9]),
)
def test_window_grid_matches_loop_at_exact_fits(start, k, step, steps_per_window, offset):
    # end lands within rounding of the end of window k, where the window count
    # computed from (end - size - start) / step can be one off
    size = steps_per_window * step
    end = start + k * step + size + offset
    assert window_grid(start, end, size, step).tolist() == oracle_starts(start, end, size, step)


@pytest.mark.parametrize(
    "start,end,size,step",
    [
        (90342.6, 90614.999999999, 180.0, 1.1),
        (12.3, 26.099999999, 0.6000000000000001, 0.2),
        (51028.1, 51040.06666666567, 0.3, 1 / 3),
    ],
)
def test_window_grid_count_settles_on_the_rule(start, end, size, step):
    assert window_grid(start, end, size, step).tolist() == oracle_starts(start, end, size, step)


@pytest.mark.parametrize(
    "end,step,count",
    [
        (2_000_000.0, 1.0, "1999821"),
        (MAX_WINDOWS + 180.0, 1.0, f"{MAX_WINDOWS + 1}"),
        (1e300, 1.0, f"more than {MAX_WINDOWS}"),
    ],
)
def test_window_grid_rejects_more_than_the_limit(end, step, count):
    message = re.escape(f"window grid of {count} windows exceeds the limit of {MAX_WINDOWS}")
    with pytest.raises(ValueError, match=message):
        window_grid(0.0, end, 180.0, step)


def test_window_grid_limit_is_inclusive():
    assert len(window_grid(0.0, MAX_WINDOWS - 1 + 180.0, 180.0, 1.0)) == MAX_WINDOWS

def test_grid_start_on_step_lattice():
    assert grid_start(58.05, 180.0) == 0.0
    assert grid_start(180.0, 180.0) == 180.0
    assert grid_start(1234.5, 10.0) == 1230.0
    # 90142.79999999999 / 0.3 rounds up to a whole number of steps
    first = 90142.79999999999
    assert grid_start(first, 0.3) <= first
    estimates = sliding_windows(at(first), 0.3, 0.3, model())
    assert estimates.burst_count.sum() == 1
    with pytest.raises(ValueError, match="positive"):
        grid_start(10.0, 0.0)


def test_default_grids_start_on_step_lattice():
    bursts = at(58.05, 200.0, 401.0)
    estimates = sliding_windows(bursts, 180.0, 180.0, model())
    assert estimates.start.tolist() == [0.0, 180.0, 360.0]
    events = events_of(ev(t, "02:00:00:00:00:01") for t in bursts.instant.tolist())
    assert mac_count_series(events, 180.0, 180.0).start.tolist() == [0.0, 180.0, 360.0]


def test_end_runs_grid_past_the_data():
    bursts = at(*(float(t) for t in range(0, 500, 10)))
    estimates = sliding_windows(bursts, 180.0, 180.0, model(), start=0.0, end=1800.0)
    assert estimates.start.tolist() == [i * 180.0 for i in range(10)]
    assert estimates.burst_count[3:].tolist() == [0] * 7
    events = events_of(ev(t, "02:00:00:00:00:01") for t in bursts.instant.tolist())
    series = mac_count_series(events, 180.0, 180.0, start=0.0, end=1800.0)
    assert series.start.tolist() == estimates.start.tolist()
    assert series.macs.tolist() == [1, 1, 1] + [0] * 7


def test_sliding_windows_rejects_unsorted():
    with pytest.raises(ValueError, match="sorted"):
        sliding_windows(at(10.0, 0.0), 100.0, 100.0, model())


def test_sliding_windows_empty():
    assert len(sliding_windows(at(), 100.0, 100.0, model())) == 0


def test_time_scale_invariance():
    c = 8.0  # power of two keeps the arithmetic exact
    bursts = at(5.0, 17.0, 130.0)
    scaled = at(*(t * c for t in bursts.instant.tolist()))
    a = one_window(bursts, (0.0, 180.0), model(60.0, 60.0))
    b = one_window(scaled, (0.0, 180.0 * c), model(60.0 * c, 60.0 * c))
    assert a.burst_count == b.burst_count
    assert a.n_hat == b.n_hat


def test_linearity_in_bursts():
    times = [1.0, 2.0, 50.0]
    single = one_window(at(*times), (0.0, 180.0), model())
    doubled = one_window(at(*sorted(times + times)), (0.0, 180.0), model())
    assert doubled.burst_count == 2 * single.burst_count
    assert doubled.n_hat == 2 * single.n_hat


def test_monotonicity():
    window = (0.0, 180.0)
    bursts = at(1.0, 2.0)
    more = at(1.0, 2.0, 90.0)
    assert one_window(more, window, model()).n_hat >= one_window(bursts, window, model()).n_hat


# ---------------------------------------------------------------- MAC baseline


def ev(t, mac_text, ap="ap0"):
    return Event(t, mac(mac_text), ap)


def test_mac_baseline_counts_distinct_macs():
    events = events_of([
        ev(1.0, "02:00:00:00:00:01"),
        ev(2.0, "02:00:00:00:00:01"),
        ev(3.0, "02:00:00:00:00:02"),
    ])
    assert one_mac_window(events, (0.0, 10.0)) == 2


def test_mac_baseline_empty_window():
    assert one_mac_window(events_of([]), (0.0, 10.0)) == 0


def test_mac_baseline_overcounts_under_rotation():
    # Same simulated scene at increasing rotation probability: the baseline's
    # overcount ratio grows while the rate model stays put.
    from probecount.simulate import (
        ConstantCount, Exponential, SimConfig, ground_truth_series, simulate,
    )

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
        window = (300.0, 2400.0)
        [(n_bar, _)] = ground_truth_series(trace, np.array([300.0]), 2400.0)
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
    for start, n in mac_count_series(events_of(events), float(size), float(step)):
        assert n == len({e.mac for e in events if contains(start, size, e.t)})


def test_mac_count_series_rejects_unsorted():
    events = [ev(10.0, "02:00:00:00:00:01"), ev(0.0, "02:00:00:00:00:01")]
    with pytest.raises(ValueError, match="sorted"):
        mac_count_series(events_of(events), 100.0, 100.0)


def test_mac_count_series_grid_matches_sliding_windows():
    events = events_of(ev(float(t), "02:00:00:00:00:01") for t in range(0, 100, 10))
    series = mac_count_series(events, 50.0, 50.0)
    assert series.start.tolist() == [0.0, 50.0]
    assert series.macs.tolist() == [1, 1]


# ---------------------------------------------------------------- series files


def test_series_round_trip():
    bursts = at(1.0, 2.0, 300.0)
    estimates = sliding_windows(bursts, 180.0, 180.0, model())
    empty = sliding_windows(at(), 180.0, 180.0, model(), start=900.0, end=1080.0)  # nan nrmse
    estimates = np.concatenate([estimates, empty]).view(np.recarray)
    text = format_series(estimates)
    parsed = parse_series(text)
    assert len(parsed) == len(estimates)
    for a, b in zip(parsed, estimates):
        assert (a.start, a.w) == (b.start, b.w)
        assert a.burst_count == b.burst_count
        assert a.n_hat == pytest.approx(b.n_hat, abs=1e-6)
        assert math.isnan(a.nrmse) == math.isnan(b.nrmse)


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
        "0.0 180.0 -3 0.1 10.0 1.0 0.1",  # burst count cannot be negative
        "0.0 180.0 3 -0.1 10.0 1.0 0.1",  # nor the rate, n_hat, bound or nrmse
        "0.0 180.0 3 0.1 -10.0 1.0 0.1",
        "0.0 180.0 3 0.1 10.0 -1.0 0.1",
        "0.0 180.0 3 0.1 10.0 1.0 -0.1",
    ],
)
def test_parse_series_errors_name_the_line(line):
    with pytest.raises(ValueError, match="line 2"):
        parse_series("# start w B R n_hat var_lower_bound nrmse\n" + line + "\n")


def test_parse_series_reads_an_empty_window_with_nan_nrmse():
    [row] = parse_series("0.0 180.0 0 0.0 0.0 0.0 nan\n")
    assert row.burst_count == 0 and math.isnan(row.nrmse)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(0, 3000, allow_nan=False), max_size=60),
    st.sampled_from([0.3, 10.0, 60.0, 180.0, 900.0]),
    st.sampled_from([0.7, 10.0, 60.0, 180.0]),
    st.floats(0.5, 600.0),
    st.floats(0.0, 600.0),
    st.booleans(),
)
def test_format_series_matches_per_window_oracle(times, size, step, tau_mean, tau_std, pinned):
    # a pinned grid runs past the data, so empty windows (nan nrmse) occur
    times = sorted(times)
    grid = dict(start=0.0, end=3500.0) if pinned or not times else {}
    m = model(tau_mean, tau_std)
    ours = sliding_windows(at(*times), size, step, m, **grid)
    theirs = oracles.sliding_windows(times, size, step, m, **grid)
    assert format_series(ours) == oracles.format_series(theirs)
    # the values themselves are the same floats
    assert [(*row[:6], None if math.isnan(row[6]) else row[6]) for row in ours.tolist()] == [
        (e.window.start, e.window.size, e.burst_count, e.rate, e.n_hat, e.var_lower_bound,
         e.nrmse_estimate) for e in theirs
    ]
