import pytest

from probecount.bursts import aggregate
from probecount.calibration import (
    estimate_ratio,
    format_ratio,
    parse_ratio,
    parse_reference_series,
    people_count,
)
from probecount.counting import Window, WindowEstimate, sliding_windows
from probecount.intervals import IntervalModel
from probecount.simulate import (
    Exponential,
    PoissonCount,
    SimConfig,
    ground_truth_series,
    simulate,
)


def estimate(start, n_hat, burst_count=100, size=180.0, nrmse=0.05):
    return WindowEstimate(
        Window(start, size), burst_count, burst_count / size, n_hat, 1.0, nrmse
    )


def test_identity_ratio():
    ratio = estimate_ratio(
        [estimate(0.0, 10.0), estimate(180.0, 10.0)],
        [(0.0, 10.0), (180.0, 10.0)],
    )
    assert ratio.alpha == pytest.approx(1.0)


def test_campus_magnitude_ratio():
    ratio = estimate_ratio([estimate(0.0, 11.4)], [(0.0, 10.0)])
    assert ratio.alpha == pytest.approx(1.14)


def test_ratio_is_sum_weighted():
    # ratio of sums, not mean of per-window ratios
    ratio = estimate_ratio(
        [estimate(0.0, 30.0), estimate(180.0, 2.0)],
        [(0.0, 10.0), (180.0, 6.0)],
    )
    assert ratio.alpha == pytest.approx(32.0 / 16.0)


def test_ratio_scale_invariance():
    a = estimate_ratio(
        [estimate(0.0, 8.0), estimate(180.0, 12.0)], [(0.0, 5.0), (180.0, 9.0)]
    )
    b = estimate_ratio(
        [estimate(0.0, 24.0), estimate(180.0, 36.0)], [(0.0, 15.0), (180.0, 27.0)]
    )
    assert a.alpha == pytest.approx(b.alpha)


def test_misaligned_windows_raise():
    with pytest.raises(ValueError, match="misaligned"):
        estimate_ratio([estimate(0.0, 10.0)], [(60.0, 10.0)])
    with pytest.raises(ValueError, match="align"):
        estimate_ratio([estimate(0.0, 10.0)], [(0.0, 10.0), (180.0, 10.0)])


def test_zero_people_raises():
    with pytest.raises(ValueError, match="zero"):
        estimate_ratio([estimate(0.0, 10.0)], [(0.0, 0.0)])


def test_ratio_stores_window_span_and_device_nrmse():
    ratio = estimate_ratio(
        [estimate(0.0, 10.0, nrmse=0.04), estimate(180.0, 10.0, nrmse=0.06)],
        [(0.0, 10.0), (180.0, 10.0)],
        nrmse_people_ref=0.08,
    )
    assert ratio.source_window_span == pytest.approx(360.0)
    assert ratio.nrmse_device_cal == pytest.approx(0.05)
    assert ratio.nrmse_people_ref == 0.08


def test_people_count_division():
    ratio = estimate_ratio([estimate(0.0, 11.4)], [(0.0, 10.0)])
    out = people_count(estimate(0.0, 11.4), ratio)
    assert out.m_hat == pytest.approx(10.0)


def test_people_count_error_propagation():
    ratio = estimate_ratio(
        [estimate(0.0, 10.0, nrmse=0.06)], [(0.0, 10.0)], nrmse_people_ref=0.08
    )
    out = people_count(estimate(0.0, 10.0, nrmse=0.0), ratio)
    # 3-4-5 right triangle scaled: sqrt(0.08^2 + 0.06^2) = 0.1
    assert out.nrmse_estimate == pytest.approx(0.1)


def test_people_count_empty_window_marker():
    ratio = estimate_ratio([estimate(0.0, 10.0)], [(0.0, 10.0)])
    empty = WindowEstimate(Window(0.0, 180.0), 0, 0.0, 0.0, 0.0, None)
    out = people_count(empty, ratio)
    assert out.m_hat == 0.0
    assert out.nrmse_estimate is None


def test_propagated_nrmse_dominates_components():
    ratio = estimate_ratio(
        [estimate(0.0, 10.0, nrmse=0.03)], [(0.0, 10.0)], nrmse_people_ref=0.07
    )
    out = people_count(estimate(0.0, 10.0, nrmse=0.05), ratio)
    assert out.nrmse_estimate >= 0.07
    assert out.nrmse_estimate >= 0.05
    assert out.nrmse_estimate >= ratio.nrmse_device_cal


def test_calibration_region_sum_consistency():
    device_series = [estimate(0.0, 8.3), estimate(180.0, 12.9), estimate(360.0, 3.4)]
    people_series = [(0.0, 7.0), (180.0, 11.0), (360.0, 4.0)]
    ratio = estimate_ratio(device_series, people_series)
    estimated = [people_count(e, ratio).m_hat for e in device_series]
    assert sum(estimated) == pytest.approx(sum(v for _, v in people_series), rel=1e-9)


def test_ratio_file_round_trip():
    ratio = estimate_ratio([estimate(0.0, 11.4)], [(0.0, 10.0)], nrmse_people_ref=0.08)
    assert parse_ratio(format_ratio(ratio)) == ratio


def test_parse_reference_series():
    series = parse_reference_series("# header\n0.000000 10.5\n180.000000 12.0\n")
    assert series == [(0.0, 10.5), (180.0, 12.0)]
    with pytest.raises(ValueError, match="line 1"):
        parse_reference_series("1.0 2.0 3.0\n")


RATIO_TEXT = "alpha 1.14\nnrmse_people_ref 0.08\nnrmse_device_cal 0.1\nsource_window_span 180.0\n"


@pytest.mark.parametrize(
    "text,fragment",
    [
        (RATIO_TEXT.replace("0.08", "nan"), "line 2: nrmse_people_ref: non-finite"),
        (RATIO_TEXT.replace("1.14", "inf"), "line 1: alpha: non-finite"),
        (RATIO_TEXT + "beta 2.0\n", "line 5: unknown ratio key 'beta'"),
        (RATIO_TEXT + "alpha 2.0\n", "line 5: duplicate ratio key 'alpha'"),
        (RATIO_TEXT.replace("alpha 1.14\n", ""), "ratio file missing keys: alpha"),
    ],
)
def test_parse_ratio_rejects_bad_files(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_ratio(text)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0.0 10.0\n180.0 inf\n", "line 2: non-finite"),
        ("0.0 10.0\nnan 1.0\n", "line 2: non-finite"),
        ("0.0 a\n", "line 1: could not convert"),
    ],
)
def test_parse_reference_series_rejects_bad_values(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_reference_series(text)


def test_simulated_poisson_device_load_recovers_alpha():
    # Persons carrying Poisson(1.5) devices; a two-hour calibration region
    # must recover alpha within 5 percent.
    cfg = SimConfig(
        arrival_rate=1 / 3.0,
        dwell_dist=Exponential(150.0),
        interval_dist=Exponential(60.0),
        devices_per_person_dist=PoissonCount(1.5),
        rotation_prob=1.0,
        duration=1500.0 + 7200.0,
        seed=21,
    )
    events, trace = simulate(cfg)
    model = IntervalModel.from_moments("sim", 60.0, 60.0)
    bursts = aggregate(events)
    device_series = sliding_windows(bursts, 180.0, 180.0, model, start=1500.0)
    device_series = [e for e in device_series if e.window.end <= cfg.duration]
    truths = ground_truth_series(trace, [e.window for e in device_series])
    people_series = [
        (e.window.start, m) for e, (_, m) in zip(device_series, truths)
    ]
    ratio = estimate_ratio(device_series, people_series, nrmse_people_ref=0.0)
    assert 1.425 <= ratio.alpha <= 1.575
