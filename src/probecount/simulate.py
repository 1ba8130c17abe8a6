"""Renewal-process trace simulator with exact window-averaged ground truth.

Persons arrive as a Poisson process and dwell for a random time; each carries
a random number of devices sharing the person's stay.  Devices probe via a
renewal process with IID intervals and may fabricate a fresh random MAC per
burst.  The generated ground-truth trace yields exact window-averaged device
and people counts by interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .counting import Window
from .ingest import MacAddress, PrfEvent, finite, read_keys, read_rows
from .intervals import parse_model


# --------------------------------------------------------------------------
# interval / dwell distributions


@dataclass(frozen=True)
class Exponential:
    mean_value: float

    def mean(self) -> float:
        return self.mean_value

    def std(self) -> float:
        return self.mean_value

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(self.mean_value, size)

    def sample_length_biased(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(2.0, self.mean_value, size)


@dataclass(frozen=True)
class LogNormal:
    mu: float
    sigma: float

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2)

    def std(self) -> float:
        return self.mean() * math.sqrt(math.expm1(self.sigma**2))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size)

    def sample_length_biased(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # Size-biasing a lognormal keeps sigma and shifts mu by sigma^2.
        return rng.lognormal(self.mu + self.sigma**2, self.sigma, size)


@dataclass(frozen=True)
class Constant:
    value: float

    def mean(self) -> float:
        return self.value

    def std(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def sample_length_biased(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)


@dataclass(frozen=True)
class UniformInterval:
    low: float
    high: float

    def mean(self) -> float:
        return (self.low + self.high) / 2

    def std(self) -> float:
        return (self.high - self.low) / math.sqrt(12.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size)

    def sample_length_biased(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # Inverse CDF of the density proportional to x on [low, high].
        u = rng.random(size)
        return np.sqrt(self.low**2 + u * (self.high**2 - self.low**2))


@dataclass(frozen=True)
class HistogramInterval:
    """Piecewise-uniform distribution backed by fitted histogram counts."""

    bin_width: float
    counts: tuple[int, ...]

    def _probs(self) -> np.ndarray:
        counts = np.asarray(self.counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise ValueError("histogram has no mass")
        return counts / total

    def _mids(self) -> np.ndarray:
        return (np.arange(len(self.counts)) + 0.5) * self.bin_width

    def mean(self) -> float:
        return float(self._probs() @ self._mids())

    def std(self) -> float:
        p, mids = self._probs(), self._mids()
        second = float(p @ (mids**2 + self.bin_width**2 / 12.0))
        return math.sqrt(max(second - self.mean() ** 2, 0.0))

    def _sample_bins(self, rng: np.random.Generator, size: int, probs: np.ndarray) -> np.ndarray:
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(size), side="right")
        return (idx + rng.random(size)) * self.bin_width

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._sample_bins(rng, size, self._probs())

    def sample_length_biased(self, rng: np.random.Generator, size: int) -> np.ndarray:
        weights = self._probs() * self._mids()
        return self._sample_bins(rng, size, weights / weights.sum())


Distribution = Exponential | LogNormal | Constant | UniformInterval | HistogramInterval


def equilibrium_residual(dist: Distribution, rng: np.random.Generator, size: int) -> np.ndarray:
    """Waiting time to the first renewal seen by a phase-independent observer.

    The residual density is (1 - F(x)) / mean.  For an exponential interval
    the residual is again exponential; in general it is a Uniform(0, 1)
    fraction of a length-biased interval.
    """
    if isinstance(dist, Exponential):
        return dist.sample(rng, size)
    return rng.random(size) * dist.sample_length_biased(rng, size)


# --------------------------------------------------------------------------
# device / person count distributions


@dataclass(frozen=True)
class PoissonCount:
    mean_value: float

    def mean(self) -> float:
        return self.mean_value

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.poisson(self.mean_value, size)


@dataclass(frozen=True)
class ConstantCount:
    value: int

    def mean(self) -> float:
        return float(self.value)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value, dtype=int)


CountDistribution = PoissonCount | ConstantCount


def _parse_kwargs(body: str) -> dict[str, str]:
    out = {}
    for part in body.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {part!r}")
        out[key.strip()] = value.strip()
    return out


def parse_distribution(spec: str) -> Distribution:
    """Parse `exp:mean=60`, `lognormal:mu=..,sigma=..`, `const:value=..`,
    `uniform:low=..,high=..`, or `hist:<model file path>`."""
    name, sep, body = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed distribution spec {spec!r}")
    if name == "hist":
        with open(body, "r", encoding="utf-8") as fh:
            model = parse_model(fh.read())
        return HistogramInterval(model.histogram.bin_width, model.histogram.counts)
    kwargs = _parse_kwargs(body)
    try:
        if name == "exp":
            return Exponential(float(kwargs["mean"]))
        if name == "lognormal":
            return LogNormal(float(kwargs["mu"]), float(kwargs["sigma"]))
        if name == "const":
            return Constant(float(kwargs["value"]))
        if name == "uniform":
            return UniformInterval(float(kwargs["low"]), float(kwargs["high"]))
    except KeyError as exc:
        raise ValueError(f"distribution spec {spec!r} missing parameter {exc}") from None
    raise ValueError(f"unknown distribution {name!r}")


def parse_count_distribution(spec: str) -> CountDistribution:
    """Parse `poisson:mean=1.14` or `const:value=1`."""
    name, sep, body = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed count distribution spec {spec!r}")
    kwargs = _parse_kwargs(body)
    try:
        if name == "poisson":
            return PoissonCount(float(kwargs["mean"]))
        if name == "const":
            return ConstantCount(int(kwargs["value"]))
    except KeyError as exc:
        raise ValueError(f"count distribution spec {spec!r} missing parameter {exc}") from None
    raise ValueError(f"unknown count distribution {name!r}")


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SimConfig:
    arrival_rate: float = 0.05  # persons per second; 0 disables arrivals
    dwell_dist: Distribution = Exponential(300.0)
    interval_dist: Distribution = Exponential(60.0)
    burst_duration: float = 2.0
    frames_per_burst: tuple[int, int] = (1, 3)
    devices_per_person_dist: CountDistribution = ConstantCount(1)
    rotation_prob: float = 1.0
    phase_mode: str = "equilibrium"
    duration: float = 3600.0
    seed: int = 0
    fixed_persons: int = 0  # persons present for the whole run
    interval_scale_sigma: float = 0.0  # per-device lognormal spread of interval scale
    ap_id: str = "sim0"
    rssi: int = -60

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.burst_duration <= 0:
            raise ValueError("burst_duration must be positive")
        lo, hi = self.frames_per_burst
        if not 1 <= lo <= hi:
            raise ValueError("frames_per_burst range must satisfy 1 <= lo <= hi")
        if not 0.0 <= self.rotation_prob <= 1.0:
            raise ValueError("rotation_prob must lie in [0, 1]")
        if self.phase_mode not in ("equilibrium", "ordinary"):
            raise ValueError(f"unknown phase_mode {self.phase_mode!r}")
        if self.fixed_persons < 0:
            raise ValueError("fixed_persons must be non-negative")
        if self.interval_scale_sigma < 0:
            raise ValueError("interval_scale_sigma must be non-negative")


def parse_config(text: str) -> SimConfig:
    """Parse a flat key-value config; keys mirror SimConfig fields."""
    return SimConfig(**read_keys(text, "config", _CONFIG_KEYS, required=False))


def _parse_frame_range(raw: str) -> tuple[int, int]:
    lo, sep, hi = raw.partition("..")
    if sep:
        return int(lo), int(hi)
    value = int(raw)
    return value, value


_CONFIG_KEYS = {
    "arrival_rate": finite,
    "dwell_dist": parse_distribution,
    "interval_dist": parse_distribution,
    "burst_duration": finite,
    "frames_per_burst": _parse_frame_range,
    "devices_per_person_dist": parse_count_distribution,
    "rotation_prob": finite,
    "phase_mode": str,
    "duration": finite,
    "seed": int,
    "fixed_persons": int,
    "interval_scale_sigma": finite,
    "ap_id": str,
    "rssi": int,
}


# --------------------------------------------------------------------------
# ground truth


@dataclass(frozen=True)
class Entity:
    entity_id: str
    kind: str  # "device" | "person"
    owner: str  # person id for devices, "-" for persons
    enter: float
    leave: float

    def __post_init__(self) -> None:
        if self.kind not in ("device", "person"):
            raise ValueError(f"unknown entity kind {self.kind!r}")
        if not self.enter < self.leave:
            raise ValueError("entity must leave strictly after entering")


@dataclass(frozen=True)
class GroundTruthTrace:
    entities: tuple[Entity, ...]

    def devices(self) -> tuple[Entity, ...]:
        return tuple(e for e in self.entities if e.kind == "device")

    def persons(self) -> tuple[Entity, ...]:
        return tuple(e for e in self.entities if e.kind == "person")


def _overlap_total(enter: np.ndarray, leave: np.ndarray, window: Window) -> float:
    if enter.size == 0:
        return 0.0
    overlap = np.minimum(leave, window.end) - np.maximum(enter, window.start)
    return float(np.clip(overlap, 0.0, None).sum())


def ground_truth_series(
    trace: GroundTruthTrace, windows: Sequence[Window]
) -> list[tuple[float, float]]:
    """Exact (device, person) window averages for each window."""
    devices = trace.devices()
    persons = trace.persons()
    dx = np.array([e.enter for e in devices])
    dy = np.array([e.leave for e in devices])
    px = np.array([e.enter for e in persons])
    py = np.array([e.leave for e in persons])
    out = []
    for window in windows:
        n_bar = _overlap_total(dx, dy, window) / window.size
        m_bar = _overlap_total(px, py, window) / window.size
        out.append((n_bar, m_bar))
    return out


def ground_truth_window(trace: GroundTruthTrace, window: Window) -> tuple[float, float]:
    """Exact window-averaged device and people counts, by interval overlap."""
    return ground_truth_series(trace, [window])[0]


def format_trace(trace: GroundTruthTrace) -> str:
    return "".join(
        f"{e.entity_id} {e.kind} {e.owner} {e.enter:.6f} {e.leave:.6f}\n" for e in trace.entities
    )


def parse_trace(text: str) -> GroundTruthTrace:
    entities = read_rows(text, Entity, (str, str, str, finite, finite))
    return GroundTruthTrace(tuple(entities))


# --------------------------------------------------------------------------
# generation


def probing_instants(
    dist: Distribution,
    start: float,
    end: float,
    rng: np.random.Generator,
    phase_mode: str = "equilibrium",
    scale: float = 1.0,
) -> np.ndarray:
    """Renewal probing instants within [start, end).

    Equilibrium mode starts with a residual wait (phase-independent entry);
    ordinary mode starts with a full interval draw.
    """
    if end <= start:
        return np.empty(0)
    if phase_mode == "equilibrium":
        wait = float(equilibrium_residual(dist, rng, 1)[0]) * scale
    elif phase_mode == "ordinary":
        wait = float(dist.sample(rng, 1)[0]) * scale
    else:
        raise ValueError(f"unknown phase_mode {phase_mode!r}")
    first = start + wait
    if first >= end:
        return np.empty(0)
    chunks = [np.array([first])]
    mean_step = dist.mean() * scale
    while True:
        last = float(chunks[-1][-1])
        need = max(8, int((end - last) / mean_step * 1.25) + 8)
        steps = dist.sample(rng, need) * scale
        ts = last + np.cumsum(steps)
        inside = ts[ts < end]
        chunks.append(inside)
        if inside.size < ts.size:
            break
    return np.concatenate(chunks)


def _poisson_arrivals(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    mean = 1.0 / rate
    chunks = []
    t = 0.0
    while True:
        need = max(16, int((horizon - t) / mean * 1.25) + 16)
        ts = t + np.cumsum(rng.exponential(mean, need))
        inside = ts[ts < horizon]
        chunks.append(inside)
        if inside.size < ts.size:
            break
        t = float(ts[-1])
    return np.concatenate(chunks)


def _physical_mac(rng: np.random.Generator) -> MacAddress:
    octets = rng.integers(0, 256, 6)
    octets[0] &= 0xFC  # globally administered unicast
    return MacAddress(tuple(int(o) for o in octets))  # type: ignore[arg-type]


def _random_virtual_mac(rng: np.random.Generator) -> MacAddress:
    octets = rng.integers(0, 256, 6)
    octets[0] = (octets[0] & 0xFC) | 0x02  # locally administered unicast
    return MacAddress(tuple(int(o) for o in octets))  # type: ignore[arg-type]


def _device_events(
    config: SimConfig, rng: np.random.Generator, enter: float, leave: float
) -> list[PrfEvent]:
    scale = 1.0
    if config.interval_scale_sigma > 0:
        s = config.interval_scale_sigma
        scale = float(rng.lognormal(-0.5 * s * s, s))  # unit mean across devices
    persistent = _physical_mac(rng)
    instants = probing_instants(
        config.interval_dist, enter, leave, rng, config.phase_mode, scale
    )
    lo, hi = config.frames_per_burst
    events = []
    for instant in instants.tolist():
        n_frames = int(rng.integers(lo, hi + 1))
        if config.rotation_prob > 0 and rng.random() < config.rotation_prob:
            mac = _random_virtual_mac(rng)
        else:
            mac = persistent
        if n_frames == 1:
            offsets = [0.0]
        else:
            offsets = np.linspace(0.0, config.burst_duration, n_frames).tolist()
        for off in offsets:
            events.append(PrfEvent(round(instant + off, 6), mac, config.ap_id, config.rssi))
    return events


def simulate(config: SimConfig) -> tuple[list[PrfEvent], GroundTruthTrace]:
    """Generate a probe-request event stream and its ground-truth trace.

    Persons arriving before ``duration`` dwell to completion, so events may
    extend past the arrival horizon.  Fully deterministic given the config.
    """
    rng = np.random.default_rng(config.seed)
    spans: list[tuple[float, float]] = []
    for _ in range(config.fixed_persons):
        spans.append((0.0, round(config.duration, 6)))
    if config.arrival_rate > 0 and config.duration > 0:
        arrivals = _poisson_arrivals(rng, config.arrival_rate, config.duration)
        dwells = config.dwell_dist.sample(rng, arrivals.size)
        for arrive, dwell in zip(arrivals.tolist(), dwells.tolist()):
            spans.append((round(arrive, 6), round(arrive + dwell, 6)))

    entities: list[Entity] = []
    events: list[PrfEvent] = []
    device_index = 0
    for person_index, (enter, leave) in enumerate(spans):
        if not leave > enter:
            continue
        person_id = f"p{person_index}"
        entities.append(Entity(person_id, "person", "-", enter, leave))
        n_devices = int(config.devices_per_person_dist.sample(rng, 1)[0])
        for _ in range(n_devices):
            entities.append(Entity(f"d{device_index}", "device", person_id, enter, leave))
            device_index += 1
            events.extend(_device_events(config, rng, enter, leave))
    events.sort(key=lambda e: (e.timestamp, str(e.mac)))
    return events, GroundTruthTrace(tuple(entities))
