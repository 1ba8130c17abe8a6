import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from probecount.bursts import aggregate
from probecount.calibration import (
    REFERENCE_DTYPE,
    CalibrationRatio,
    estimate_ratio,
    format_people_series,
    format_ratio,
    parse_ratio,
    parse_reference_series,
    people_count,
)
from probecount.counting import SERIES_DTYPE, sliding_windows
from probecount.intervals import IntervalModel
from probecount.simulate import (
    Exponential,
    PoissonCount,
    SimConfig,
    ground_truth_series,
    simulate,
)


def estimate(start, n_hat, burst_count=100, size=180.0, nrmse=0.05):
    """One window's row of a device series."""
    return (start, size, burst_count, burst_count / size, n_hat, 1.0, nrmse)


def device(*rows):
    return np.array(list(rows), dtype=SERIES_DTYPE).view(np.recarray)


def refs(*pairs):
    return np.array(list(pairs), dtype=REFERENCE_DTYPE).view(np.recarray)


def test_identity_ratio():
    ratio = estimate_ratio(
        device(estimate(0.0, 10.0), estimate(180.0, 10.0)),
        refs((0.0, 10.0), (180.0, 10.0)),
    )
    assert ratio.alpha == pytest.approx(1.0)


def test_campus_magnitude_ratio():
    ratio = estimate_ratio(device(estimate(0.0, 11.4)), refs((0.0, 10.0)))
    assert ratio.alpha == pytest.approx(1.14)


def test_ratio_is_sum_weighted():
    # ratio of sums, not mean of per-window ratios
    ratio = estimate_ratio(
        device(estimate(0.0, 30.0), estimate(180.0, 2.0)),
        refs((0.0, 10.0), (180.0, 6.0)),
    )
    assert ratio.alpha == pytest.approx(32.0 / 16.0)


def test_ratio_scale_invariance():
    a = estimate_ratio(
        device(estimate(0.0, 8.0), estimate(180.0, 12.0)), refs((0.0, 5.0), (180.0, 9.0))
    )
    b = estimate_ratio(
        device(estimate(0.0, 24.0), estimate(180.0, 36.0)), refs((0.0, 15.0), (180.0, 27.0))
    )
    assert a.alpha == pytest.approx(b.alpha)


def test_misaligned_windows_raise():
    with pytest.raises(ValueError, match="misaligned"):
        estimate_ratio(device(estimate(0.0, 10.0)), refs((60.0, 10.0)))
    with pytest.raises(ValueError, match="align"):
        estimate_ratio(device(estimate(0.0, 10.0)), refs((0.0, 10.0), (180.0, 10.0)))


def test_windows_align_by_their_microsecond():
    # the rule the CLI joins series by: round6 of each start, not starts within 1e-6
    with pytest.raises(ValueError,
                       match="^misaligned windows: device window at 4e-07, people at 6e-07$"):
        estimate_ratio(device(estimate(4e-7, 10.0)), refs((6e-7, 5.0)))
    ratio = estimate_ratio(device(estimate(0.0, 10.0), estimate(180.0, 10.0)),
                           refs((0.0000003, 5.0), (180.0000003, 5.0)))
    assert ratio.alpha == 2.0


def test_zero_people_raises():
    with pytest.raises(ValueError, match="zero"):
        estimate_ratio(device(estimate(0.0, 10.0)), refs((0.0, 0.0)))


def test_negative_people_count_raises():
    # the sum is positive, but a reference is a count of people
    with pytest.raises(ValueError, match="non-negative"):
        estimate_ratio(device(estimate(0.0, 10.0), estimate(180.0, 10.0)),
                       refs((0.0, -2.0), (180.0, 5.0)))


@pytest.mark.parametrize("nrmse", [-0.1, math.nan])
def test_ratio_rejects_negative_or_nan_nrmse_terms(nrmse):
    with pytest.raises(ValueError, match="NRMSE components must be non-negative"):
        CalibrationRatio(1.0, nrmse, 0.1, 180.0)
    with pytest.raises(ValueError, match="NRMSE components must be non-negative"):
        CalibrationRatio(1.0, 0.08, nrmse, 180.0)
    with pytest.raises(ValueError, match="NRMSE components must be non-negative"):
        estimate_ratio(device(estimate(0.0, 10.0)), refs((0.0, 5.0)), nrmse_people_ref=nrmse)


def test_ratio_stores_window_span_and_device_nrmse():
    ratio = estimate_ratio(
        device(estimate(0.0, 10.0, nrmse=0.04), estimate(180.0, 10.0, nrmse=0.06)),
        refs((0.0, 10.0), (180.0, 10.0)),
        nrmse_people_ref=0.08,
    )
    assert ratio.source_window_span == pytest.approx(360.0)
    assert ratio.nrmse_device_cal == pytest.approx(0.05)
    assert ratio.nrmse_people_ref == 0.08


def test_people_count_division():
    ratio = estimate_ratio(device(estimate(0.0, 11.4)), refs((0.0, 10.0)))
    [out] = people_count(device(estimate(0.0, 11.4)), ratio)
    assert out.m_hat == pytest.approx(10.0)


def test_people_count_error_propagation():
    ratio = estimate_ratio(
        device(estimate(0.0, 10.0, nrmse=0.06)), refs((0.0, 10.0)), nrmse_people_ref=0.08
    )
    [out] = people_count(device(estimate(0.0, 10.0, nrmse=0.0)), ratio)
    # 3-4-5 right triangle scaled: sqrt(0.08^2 + 0.06^2) = 0.1
    assert out.nrmse == pytest.approx(0.1)


def test_people_count_empty_window_marker():
    ratio = estimate_ratio(device(estimate(0.0, 10.0)), refs((0.0, 10.0)))
    empty = (0.0, 180.0, 0, 0.0, 0.0, 0.0, math.nan)
    [out] = people_count(device(empty), ratio)
    assert out.m_hat == 0.0
    assert math.isnan(out.nrmse)


def test_propagated_nrmse_dominates_components():
    ratio = estimate_ratio(
        device(estimate(0.0, 10.0, nrmse=0.03)), refs((0.0, 10.0)), nrmse_people_ref=0.07
    )
    [out] = people_count(device(estimate(0.0, 10.0, nrmse=0.05)), ratio)
    assert out.nrmse >= 0.07
    assert out.nrmse >= 0.05
    assert out.nrmse >= ratio.nrmse_device_cal


def test_calibration_region_sum_consistency():
    device_series = device(estimate(0.0, 8.3), estimate(180.0, 12.9), estimate(360.0, 3.4))
    people_series = refs((0.0, 7.0), (180.0, 11.0), (360.0, 4.0))
    ratio = estimate_ratio(device_series, people_series)
    estimated = people_count(device_series, ratio).m_hat
    assert sum(estimated) == pytest.approx(sum(people_series.value), rel=1e-9)


def test_ratio_file_round_trip():
    ratio = estimate_ratio(device(estimate(0.0, 11.4)), refs((0.0, 10.0)), nrmse_people_ref=0.08)
    assert parse_ratio(format_ratio(ratio)) == ratio


def test_parse_reference_series():
    series = parse_reference_series("# header\n0.000000 10.5\n180.000000 12.0\n")
    assert series.tolist() == [(0.0, 10.5), (180.0, 12.0)]
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
    device_series = device_series[device_series.start + device_series.w <= cfg.duration]
    truths = ground_truth_series(trace, device_series.start, 180.0)
    people_series = np.rec.fromarrays([device_series.start, truths.m_bar],
                                      dtype=REFERENCE_DTYPE)
    ratio = estimate_ratio(device_series, people_series, nrmse_people_ref=0.0)
    assert 1.425 <= ratio.alpha <= 1.575


def _oracle_estimates(series):
    """The per-window objects the series' rows were before they became columns."""
    return [
        oracles.WindowEstimate(oracles.Window(start, w), b, rate, n_hat, var,
                               None if math.isnan(nrmse) else nrmse)
        for start, w, b, rate, n_hat, var, nrmse in series.tolist()
    ]


windows = st.lists(
    st.tuples(
        st.integers(0, 40),  # B; 0 is an empty window
        st.floats(0.0, 100.0),  # n_hat, whatever B is
        st.one_of(st.just(math.nan), st.floats(0.0, 2.0)),  # nan also where B > 0
        st.floats(0.0, 50.0),  # reference people count
    ),
    min_size=1,
    max_size=30,
)


def _check_against_oracle(rows, w, nrmse_people_ref):
    """Ratio and people series of (B, n_hat, nrmse, reference) rows on a grid of
    size-``w`` windows, as the text the per-window code wrote."""
    starts = [i * w for i in range(len(rows))]
    series = device(*[(start, w, b, b / w, n_hat, 1.0, nrmse)
                      for start, (b, n_hat, nrmse, _) in zip(starts, rows)])
    people = refs(*[(start, row[3]) for start, row in zip(starts, rows)])
    expected = _oracle_estimates(series)
    people_total = oracles.left_sum(people.value.tolist())
    device_total = oracles.left_sum(series.n_hat.tolist())
    if people_total <= 0 or device_total <= 0:
        with pytest.raises(ValueError, match="zero"):
            estimate_ratio(series, people, nrmse_people_ref=nrmse_people_ref)
        return
    if not 0 < device_total / people_total < math.inf:
        # a subnormal total: the ratio underflows or overflows, and is refused
        with pytest.raises(ValueError, match="is not a positive finite number"):
            estimate_ratio(series, people, nrmse_people_ref=nrmse_people_ref)
        return
    ratio = estimate_ratio(series, people, nrmse_people_ref=nrmse_people_ref)
    oracle_ratio = oracles.estimate_ratio(
        expected, list(zip(starts, people.value.tolist())), nrmse_people_ref
    )
    assert format_ratio(ratio) == format_ratio(CalibrationRatio(*oracle_ratio))
    assert format_people_series(people_count(series, ratio)) == oracles.format_people_series(
        [oracles.people_count(e, ratio) for e in expected]
    )


@settings(max_examples=200, deadline=None)
@given(windows, st.sampled_from([0.5, 10.0, 180.0, 900.0]), st.floats(0.0, 0.5))
def test_ratio_and_people_series_match_per_window_oracle(rows, w, nrmse_people_ref):
    _check_against_oracle(rows, w, nrmse_people_ref)


@pytest.mark.parametrize("n_hat,reference", [(10.0, 5e-324), (5e-324, 2.0)])
def test_ratio_that_overflows_or_underflows_is_refused(n_hat, reference):
    _check_against_oracle([(30, n_hat, 0.1, reference)], 180.0, 0.08)
    message = f"device total {n_hat!r} to the people total {reference!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        estimate_ratio(device(estimate(0.0, n_hat)), refs((0.0, reference)))


def test_ratio_must_be_positive_and_finite():
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            CalibrationRatio(alpha, 0.08, 0.1, 180.0)


@pytest.mark.parametrize("field", ["nrmse_people_ref", "nrmse_device_cal", "source_window_span"])
def test_ratio_fields_must_be_finite(field):
    values = dict(alpha=1.14, nrmse_people_ref=0.08, nrmse_device_cal=0.1,
                  source_window_span=180.0)
    with pytest.raises(ValueError, match=f"{field} must be finite, got inf"):
        CalibrationRatio(**{**values, field: math.inf})


def test_people_count_refuses_nrmse_terms_that_overflow():
    series = device(estimate(0.0, 10.0, nrmse=1e200))
    with pytest.raises(ValueError, match="root-sum-square of the NRMSE terms overflows"):
        people_count(series, CalibrationRatio(1.0, 0.08, 0.1, 180.0))


@pytest.mark.parametrize("fits,overflows", [((1e154, 0.0), (1e200, 0.0)),
                                             ((0.0, 1e154), (0.0, 1e155)),
                                             ((1e154, 5e153), (1e154, 1e154))])
def test_a_ratio_refuses_nrmse_terms_whose_squares_overflow(fits, overflows):
    # people_count could use no such ratio
    CalibrationRatio(1.0, *fits, 180.0)
    with pytest.raises(ValueError, match="root-sum-square of the NRMSE terms overflows"):
        CalibrationRatio(1.0, *overflows, 180.0)


@pytest.mark.parametrize("seed", range(20))
def test_ratio_of_long_series_matches_per_window_oracle(seed):
    # 40 windows of arbitrary values: the ratio file prints repr, whose last
    # digits follow the order of the sums
    rng = np.random.default_rng(seed)
    b = rng.integers(0, 40, 40)
    nrmse = np.where(rng.random(40) < 0.2, np.nan, rng.random(40))
    rows = list(zip(b.tolist(), (rng.random(40) * 100).tolist(), nrmse.tolist(),
                    (rng.random(40) * 50).tolist()))
    _check_against_oracle(rows, 180.0, 0.08)
