"""Probing-interval statistics per counting area, with IID diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bursts import Bursts, by_key
from .ingest import finite, non_negative_int, read_keys

DEFAULT_INTERVAL_CUTOFF = 600.0
DEFAULT_BIN_WIDTH = 10.0
# The most bins a fitted histogram may hold.
MAX_BINS = 1_000_000

_MODEL_KEYS = {
    "area_id": str,
    "tau_mean": finite,
    "tau_std": finite,
    "sample_count": non_negative_int,
    "bin_width": finite,
    "histogram": lambda text: tuple(map(non_negative_int, text.split())),
}


class InsufficientSamplesError(ValueError):
    """Raised when there is not enough data to fit an interval model."""


@dataclass(frozen=True)
class IntervalModel:
    """Mean, spread, and histogram of probing intervals for one area, one field
    per model file key; ``histogram`` counts samples in bins of ``bin_width`` from 0."""

    area_id: str
    tau_mean: float
    tau_std: float
    sample_count: int
    bin_width: float
    histogram: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.area_id.split() != [self.area_id]:
            raise ValueError(f"area_id must be one token without whitespace, got {self.area_id!r}")
        if not self.bin_width > 0:
            raise ValueError("interval model bin_width must be positive")
        if (total := sum(self.histogram)) != self.sample_count:
            raise ValueError(f"interval model histogram holds {total} samples, "
                             f"sample_count is {self.sample_count}")
        if self.sample_count == 0:
            raise ValueError("unfitted interval model")
        if not self.tau_mean > 0:
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
        return cls(area_id, tau_mean, tau_std, sample_count, cutoff, (sample_count,))


def extract_intervals(bursts: Bursts, cutoff: float = DEFAULT_INTERVAL_CUTOFF) -> np.ndarray:
    """Pairwise differences of consecutive probing instants per MAC, in burst order.

    Each interval sits at the position of its later burst.  Gaps above
    ``cutoff`` are discarded: such a gap more plausibly reflects a
    departure/return or a MAC rotation than a probing interval.
    """
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    instant, mac = bursts.instant, bursts.mac
    # grouped by MAC in burst order (hence by instant); each group's first gets 0
    by_mac, starts = by_key(mac)
    tau = np.empty(instant.shape)
    tau[by_mac] = np.where(starts, 0.0, np.diff(instant[by_mac], prepend=0.0))
    return tau[(tau > 0) & (tau <= cutoff)]


def fit(
    samples: Sequence[float],
    *,
    area_id: str = "default",
    cutoff: float = DEFAULT_INTERVAL_CUTOFF,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> IntervalModel:
    """Fit an interval model: arithmetic mean, sample std (n-1), histogram."""
    taus = np.asarray(samples, dtype=float)
    if taus.size < 2:
        raise InsufficientSamplesError("insufficient interval samples (need at least 2)")
    if not bin_width > 0 or not cutoff > 0:
        raise ValueError("cutoff and bin_width must be positive")
    if math.isinf(cutoff) or math.isinf(bin_width):
        raise ValueError("cutoff and bin_width must be finite")
    if np.any(taus <= 0) or np.any(taus > cutoff):
        raise ValueError("interval samples must lie in (0, cutoff]")
    bins = cutoff / bin_width
    if bins > MAX_BINS:
        count = math.ceil(bins) if bins < 2**53 else f"about {bins:.3g}"
        raise ValueError(f"histogram of {count} bins exceeds the limit of {MAX_BINS}")
    n_bins = math.ceil(bins)
    counts, _ = np.histogram(taus, bins=n_bins, range=(0.0, n_bins * bin_width))
    return IntervalModel(
        area_id=area_id,
        tau_mean=float(np.mean(taus)),
        tau_std=float(np.std(taus, ddof=1)),
        sample_count=int(taus.size),
        bin_width=bin_width,
        histogram=tuple(counts.tolist()),
    )


def ljung_box(samples: Sequence[float], num_lags: int) -> tuple[float, float]:
    """Ljung-Box independence test.

    Q = n(n+2) * sum_k rho_k^2 / (n-k) for k = 1..num_lags, with rho_k the
    lag-k sample autocorrelation; the p-value is the chi-squared tail with
    num_lags degrees of freedom.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if not 1 <= num_lags < n:
        raise ValueError("need sample_count > num_lags >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    centered = x - x.mean()
    denom = float(centered @ centered)
    if not 0.0 < denom < math.inf:
        raise ValueError("degenerate samples: zero or overflowing variance")
    q = 0.0
    for k in range(1, num_lags + 1):
        rho = float(centered[:-k] @ centered[k:]) / denom
        q += rho * rho / (n - k)
    q *= n * (n + 2)
    return q, _chi2_sf(q, num_lags)


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p-value.

    D is the supremum distance between the empirical CDFs; the p-value is the
    Kolmogorov distribution's tail at sqrt(n_a*n_b/(n_a+n_b)) * D.
    """
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([xa, xb])
    if xa.size == 0 or xb.size == 0 or not np.all(np.isfinite(pooled)):
        raise ValueError("both samples must be non-empty and finite")
    cdf_a = np.searchsorted(xa, pooled, side="right") / xa.size
    cdf_b = np.searchsorted(xb, pooled, side="right") / xb.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = xa.size * xb.size / (xa.size + xb.size)
    return d, _kolmogorov_sf(math.sqrt(n_eff) * d)


def _chi2_sf(q: float, k: int) -> float:
    """The chi-squared tail Q(k/2, h = q/2) for integer k, from erfc(sqrt(h)) or e^-h by
    Q(a+1, h) = Q(a, h) + e^(a log(h) - h - lgamma(a+1)), no term underflowing alone."""
    h = q / 2
    if h <= 0:
        return 1.0
    a, p = (0.5, math.erfc(math.sqrt(h))) if k % 2 else (1.0, math.exp(-h))
    return min(p + sum(math.exp((a + i) * math.log(h) - h - math.lgamma(a + i + 1))
                       for i in range((k - 1) // 2)), 1.0)


def _kolmogorov_sf(y: float) -> float:
    """Kolmogorov's tail, five terms of 2 sum (-1)^(k-1) e^(-2k^2y^2) for y >= 1, else of its
    dual 1 - sqrt(2pi)/y sum e^(-(2k-1)^2 pi^2/(8y^2)) (Marsaglia et al., J. Stat. Softw. 2003)."""
    if y >= 1:
        return 2 * sum((-1) ** (k - 1) * math.exp(-2 * k * k * y * y) for k in range(1, 6))
    terms = (math.exp(-((2 * k - 1) * math.pi / y) ** 2 / 8) for k in range(1, 6))
    return 1 - math.sqrt(2 * math.pi) / y * sum(terms) if y > 0 else 1.0


def format_model(model: IntervalModel) -> str:
    lines = [
        f"area_id {model.area_id}",
        f"tau_mean {model.tau_mean!r}",
        f"tau_std {model.tau_std!r}",
        f"sample_count {model.sample_count}",
        f"bin_width {model.bin_width!r}",
        "histogram " + " ".join(map(str, model.histogram)),
    ]
    return "".join(line + "\n" for line in lines)


def parse_model(text: str) -> IntervalModel:
    return IntervalModel(**read_keys(text, "interval model", _MODEL_KEYS))
