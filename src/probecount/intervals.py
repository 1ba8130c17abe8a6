"""Probing-interval statistics per counting area, with IID diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import special, stats

from .bursts import Burst
from .ingest import finite, read_keys

DEFAULT_INTERVAL_CUTOFF = 600.0
DEFAULT_BIN_WIDTH = 10.0

_MODEL_KEYS = {
    "area_id": str,
    "tau_mean": finite,
    "tau_std": finite,
    "sample_count": int,
    "bin_width": finite,
    "histogram": lambda text: tuple(int(c) for c in text.split()),
}


class InsufficientSamplesError(ValueError):
    """Raised when there is not enough data to fit an interval model."""


@dataclass(frozen=True)
class IntervalSample:
    """One probing interval, attributed to the MAC or device that produced it."""

    tau: float
    key: str

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError(f"interval must be positive, got {self.tau!r}")


@dataclass(frozen=True)
class Histogram:
    """Fixed-width histogram of interval durations starting at zero."""

    bin_width: float
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class IntervalModel:
    """Mean, spread, and histogram of probing intervals for one area."""

    area_id: str
    tau_mean: float
    tau_std: float
    sample_count: int
    histogram: Histogram

    def __post_init__(self) -> None:
        if self.sample_count > 0 and not self.tau_mean > 0:
            raise ValueError("tau_mean must be positive for a fitted model")
        if self.tau_std < 0:
            raise ValueError("tau_std must be non-negative")

    @classmethod
    def from_moments(
        cls,
        area_id: str,
        tau_mean: float,
        tau_std: float,
        sample_count: int = 1_000_000,
        cutoff: float = DEFAULT_INTERVAL_CUTOFF,
    ) -> "IntervalModel":
        """Build a model directly from known moments (e.g. a simulated area).

        The histogram degenerates to a single bin so that its mass still
        accounts for every sample.
        """
        return cls(area_id, tau_mean, tau_std, sample_count, Histogram(cutoff, (sample_count,)))


def extract_intervals(
    bursts: Sequence[Burst], cutoff: float = DEFAULT_INTERVAL_CUTOFF
) -> list[IntervalSample]:
    """Pairwise differences of consecutive probing instants per MAC.

    Gaps above ``cutoff`` are discarded: such a gap more plausibly reflects a
    departure/return or a MAC rotation than a probing interval.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    prev_instant = None
    last_seen: dict[str, float] = {}
    samples: list[IntervalSample] = []
    for burst in bursts:
        if prev_instant is not None and burst.probing_instant < prev_instant:
            raise ValueError("bursts not sorted by probing instant")
        prev_instant = burst.probing_instant
        key = str(burst.mac)
        if key in last_seen:
            tau = burst.probing_instant - last_seen[key]
            if 0 < tau <= cutoff:
                samples.append(IntervalSample(tau, key))
        last_seen[key] = burst.probing_instant
    return samples


def intervals_from_instants(
    instants_by_key: Mapping[str, Sequence[float]], cutoff: float = DEFAULT_INTERVAL_CUTOFF
) -> list[IntervalSample]:
    """Interval samples from per-entity probing instants.

    Ground-truth mode for simulator traces: keys are true device identifiers,
    so MAC rotation does not truncate the pairing.
    """
    samples = []
    for key, instants in instants_by_key.items():
        for a, b in zip(instants, instants[1:]):
            tau = b - a
            if 0 < tau <= cutoff:
                samples.append(IntervalSample(tau, key))
    return samples


def _taus(samples: Iterable[IntervalSample | float]) -> np.ndarray:
    return np.array(
        [s.tau if isinstance(s, IntervalSample) else float(s) for s in samples], dtype=float
    )


def fit(
    samples: Sequence[IntervalSample | float],
    *,
    area_id: str = "default",
    cutoff: float = DEFAULT_INTERVAL_CUTOFF,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> IntervalModel:
    """Fit an interval model: arithmetic mean, sample std (n-1), histogram."""
    taus = _taus(samples)
    if taus.size < 2:
        raise InsufficientSamplesError("insufficient interval samples (need at least 2)")
    if bin_width <= 0 or cutoff <= 0:
        raise ValueError("cutoff and bin_width must be positive")
    if np.any(taus <= 0) or np.any(taus > cutoff):
        raise ValueError("interval samples must lie in (0, cutoff]")
    n_bins = math.ceil(cutoff / bin_width)
    counts, _ = np.histogram(taus, bins=n_bins, range=(0.0, n_bins * bin_width))
    return IntervalModel(
        area_id=area_id,
        tau_mean=float(np.mean(taus)),
        tau_std=float(np.std(taus, ddof=1)),
        sample_count=int(taus.size),
        histogram=Histogram(bin_width, tuple(int(c) for c in counts)),
    )


def ljung_box(samples: Sequence[IntervalSample | float], num_lags: int) -> tuple[float, float]:
    """Ljung-Box independence test.

    Q = n(n+2) * sum_k rho_k^2 / (n-k) for k = 1..num_lags, with rho_k the
    lag-k sample autocorrelation; the p-value comes from the chi-squared
    distribution with num_lags degrees of freedom.
    """
    x = _taus(samples)
    n = x.size
    if not 1 <= num_lags < n:
        raise ValueError("need sample_count > num_lags >= 1")
    centered = x - x.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        raise ValueError("degenerate samples: zero variance")
    q = 0.0
    for k in range(1, num_lags + 1):
        rho = float(centered[:-k] @ centered[k:]) / denom
        q += rho * rho / (n - k)
    q *= n * (n + 2)
    p_value = float(stats.chi2.sf(q, num_lags))
    return q, p_value


def ks_two_sample(
    a: Sequence[IntervalSample | float], b: Sequence[IntervalSample | float]
) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p-value.

    D is the supremum distance between the empirical CDFs; the p-value is the
    Kolmogorov distribution's tail at sqrt(n_a*n_b/(n_a+n_b)) * D.
    """
    xa = np.sort(_taus(a))
    xb = np.sort(_taus(b))
    if xa.size == 0 or xb.size == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, pooled, side="right") / xa.size
    cdf_b = np.searchsorted(xb, pooled, side="right") / xb.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = xa.size * xb.size / (xa.size + xb.size)
    p_value = float(special.kolmogorov(math.sqrt(n_eff) * d))
    return d, min(max(p_value, 0.0), 1.0)


def format_model(model: IntervalModel) -> str:
    lines = [
        f"area_id {model.area_id}",
        f"tau_mean {model.tau_mean!r}",
        f"tau_std {model.tau_std!r}",
        f"sample_count {model.sample_count}",
        f"bin_width {model.histogram.bin_width!r}",
        "histogram " + " ".join(str(c) for c in model.histogram.counts),
    ]
    return "".join(line + "\n" for line in lines)


def parse_model(text: str) -> IntervalModel:
    values = read_keys(text, "interval model", _MODEL_KEYS)
    if not values["bin_width"] > 0:
        raise ValueError("interval model bin_width must be positive")
    histogram = Histogram(values["bin_width"], values["histogram"])
    if histogram.total != values["sample_count"]:
        raise ValueError(
            f"interval model histogram holds {histogram.total} samples, "
            f"sample_count is {values['sample_count']}"
        )
    return IntervalModel(
        values["area_id"], values["tau_mean"], values["tau_std"], values["sample_count"], histogram
    )
