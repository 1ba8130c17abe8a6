"""Learning-free Wi-Fi device and people counting from probe-request streams."""

from .bursts import Burst, aggregate
from .calibration import CalibrationRatio, PeopleEstimate, estimate_ratio, people_count
from .counting import Window, WindowEstimate, sliding_windows
from .ingest import (
    MacAddress,
    ParseError,
    PrfEvent,
    format_events,
    is_randomized,
    parse_capture,
    parse_events,
)
from .intervals import (
    Histogram,
    InsufficientSamplesError,
    IntervalModel,
    IntervalSample,
    extract_intervals,
    ks_two_sample,
    ljung_box,
)
from .metrics import SeriesPair, mape, nrmse, rmse
from .simulate import GroundTruthTrace, SimConfig, ground_truth_window

__all__ = [
    "Burst",
    "CalibrationRatio",
    "GroundTruthTrace",
    "Histogram",
    "InsufficientSamplesError",
    "IntervalModel",
    "IntervalSample",
    "MacAddress",
    "ParseError",
    "PeopleEstimate",
    "PrfEvent",
    "SeriesPair",
    "SimConfig",
    "Window",
    "WindowEstimate",
    "aggregate",
    "estimate_ratio",
    "extract_intervals",
    "format_events",
    "ground_truth_window",
    "is_randomized",
    "ks_two_sample",
    "ljung_box",
    "mape",
    "nrmse",
    "parse_capture",
    "parse_events",
    "people_count",
    "rmse",
    "sliding_windows",
]
