import math
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probecount.metrics import mape, nrmse, rmse


def test_rmse_examples():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([3.0], [0.0]) == 3.0
    assert rmse([1.0, 3.0], [0.0, 0.0]) == pytest.approx(math.sqrt(5))


def test_mape_examples():
    assert mape([10.0], [10.0]) == 0.0
    assert mape([11.0], [10.0]) == pytest.approx(0.1)
    assert mape([11.0, 9.0], [10.0, 10.0]) == pytest.approx(0.1)


def test_nrmse_examples():
    assert nrmse([10.0, 10.0], [10.0, 10.0]) == 0.0
    assert nrmse([11.0, 9.0], [10.0, 10.0]) == pytest.approx(0.1)
    assert nrmse([12.0, 10.0], [10.0, 10.0]) == pytest.approx(
        math.sqrt(2) * 0.1
    )


def test_mape_filters_zero_references():
    # the zero-reference window is dropped, not divided by
    assert mape([11.0, 5.0], [10.0, 0.0]) == pytest.approx(0.1)


def test_mape_all_zero_references_raises():
    with pytest.raises(ValueError, match="zero"):
        mape([1.0, 2.0], [0.0, 0.0])


def test_nrmse_zero_mean_raises():
    with pytest.raises(ValueError, match="mean"):
        nrmse([1.0], [0.0])


def test_series_pair_validation():
    for metric in (rmse, mape, nrmse):
        with pytest.raises(ValueError, match="non-empty and of equal length"):
            metric([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="non-empty and of equal length"):
            metric([], [])
        with pytest.raises(ValueError, match="references must be finite"):
            metric([1.0], [float("inf")])


def test_rmse_and_nrmse_refuse_squared_errors_that_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy overflow warning
        for metric in (rmse, nrmse):
            with pytest.raises(ValueError, match="^the sum of squared errors overflows$"):
                metric([1e200, 1.0], [1.0, 1.0])
        assert rmse([1e154, 0.0], [0.0, 0.0]) == pytest.approx(1e154 / math.sqrt(2))


def test_metrics_refuse_results_that_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rmse([1e150], [1e-160]) == 1e150
        with pytest.raises(ValueError, match="^the sum of percentage errors overflows$"):
            mape([1e150], [1e-160])
        with pytest.raises(ValueError, match="^nrmse overflows$"):
            nrmse([1e150], [1e-160])
        with pytest.raises(ValueError, match="^the sum of references overflows$"):
            nrmse([1e308, 1e308], [1e308, 1e308])


def test_metrics_refuse_estimates_that_are_not_finite():
    for metric in (rmse, mape, nrmse):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="^estimates must be finite$"):
                metric([1.0, value], [1.0, 1.0])


series = st.lists(st.floats(0.1, 1e4), min_size=1, max_size=30)


@given(series, series)
def test_rmse_non_negative_zero_iff_identical(a, b):
    n = min(len(a), len(b))
    value = rmse(a[:n], b[:n])
    assert value >= 0.0
    if a[:n] == b[:n]:
        assert value == 0.0
    else:
        assert value > 0.0


@given(series, st.floats(0.01, 100.0))
def test_nrmse_scale_invariant(values, c):
    refs = [v + 1.0 for v in values]
    base = nrmse(values, refs)
    scaled = nrmse([c * v for v in values], [c * r for r in refs])
    assert scaled == pytest.approx(base, rel=1e-9)
