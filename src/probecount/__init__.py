"""Learning-free Wi-Fi device and people counting from probe-request streams."""

from .bursts import Bursts, aggregate
from .calibration import CalibrationRatio, estimate_ratio, people_count
from .counting import sliding_windows
from .ingest import (
    Events,
    ParseError,
    format_events,
    is_randomized,
    parse_capture,
    parse_events,
)
from .intervals import (
    InsufficientSamplesError,
    IntervalModel,
    extract_intervals,
    ks_two_sample,
    ljung_box,
)
from .metrics import mape, nrmse, rmse
from .simulate import GroundTruthTrace, SimConfig, ground_truth_series

__all__ = [
    "Bursts",
    "CalibrationRatio",
    "Events",
    "GroundTruthTrace",
    "InsufficientSamplesError",
    "IntervalModel",
    "ParseError",
    "SimConfig",
    "aggregate",
    "estimate_ratio",
    "extract_intervals",
    "format_events",
    "ground_truth_series",
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
