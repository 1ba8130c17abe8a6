"""Renewal-process trace simulator with exact window-averaged ground truth.

Persons arrive as a Poisson process and dwell for a random time; each carries
a random number of devices sharing the person's stay.  Devices probe via a
renewal process with IID intervals and may fabricate a fresh random MAC per
burst.  The generated ground-truth trace yields exact window-averaged device
and people counts by interval arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ingest import (
    RSSI_NONE, Events, finite, format_events, format_rows, read_columns, read_file, read_keys,
    read_rows, round6,
)
from .intervals import parse_model


# --------------------------------------------------------------------------
# interval / dwell distributions


def _check_positive(what: str, value: float) -> None:
    """Interval and dwell distributions need a positive, finite mean."""
    if not 0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Exponential:
    mean_value: float

    def __post_init__(self) -> None:
        _check_positive("exp mean", self.mean_value)

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

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < math.inf:
            raise ValueError(
                f"lognormal sigma must be non-negative and finite, got {self.sigma!r}"
            )
        try:
            mean = self.mean()
        except OverflowError:
            mean = math.inf
        _check_positive("lognormal mean", mean)

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

    def __post_init__(self) -> None:
        _check_positive("const value", self.value)

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

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high < math.inf:
            raise ValueError(
                f"uniform needs 0 <= low <= high, got low={self.low!r}, high={self.high!r}"
            )
        _check_positive("uniform mean", self.mean())

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

    def __post_init__(self) -> None:
        _check_positive("histogram mean", self.mean())

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

    def __post_init__(self) -> None:
        if not 0 <= self.mean_value < math.inf:
            raise ValueError(
                f"poisson mean must be non-negative and finite, got {self.mean_value!r}"
            )

    def mean(self) -> float:
        return self.mean_value

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.poisson(self.mean_value, size)


@dataclass(frozen=True)
class ConstantCount:
    value: int

    def __post_init__(self) -> None:
        if not (self.value >= 0 and float(self.value).is_integer()):
            raise ValueError(f"const value must be a whole number >= 0, got {self.value!r}")
        object.__setattr__(self, "value", int(self.value))

    def mean(self) -> float:
        return float(self.value)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value, dtype=int)


CountDistribution = PoissonCount | ConstantCount


# Spec name -> (distribution, its parameter names in constructor order).
_INTERVAL_SPECS = {
    "exp": (Exponential, ("mean",)),
    "lognormal": (LogNormal, ("mu", "sigma")),
    "const": (Constant, ("value",)),
    "uniform": (UniformInterval, ("low", "high")),
}
_COUNT_SPECS = {
    "poisson": (PoissonCount, ("mean",)),
    "const": (ConstantCount, ("value",)),
}


def _parse_spec(spec: str, what: str, table: dict[str, tuple[type, tuple[str, ...]]]):
    """The distribution of a ``name:key=value,...`` spec; every parameter is
    required once, and must be a finite number."""
    name, sep, body = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed {what} spec {spec!r}")
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}")
    cls, names = table[name]
    values: dict[str, float] = {}
    for part in body.split(","):
        key, sep, value = (field.strip() for field in part.partition("="))
        if not sep:
            raise ValueError(f"expected key=value, got {part!r}")
        if key not in names:
            raise ValueError(f"{name} has no parameter {key!r}")
        if key in values:
            raise ValueError(f"{name} parameter {key!r} given twice")
        values[key] = finite(value)
    missing = [key for key in names if key not in values]
    if missing:
        raise ValueError(f"{what} spec {spec!r} missing parameter {', '.join(missing)}")
    return cls(*(values[key] for key in names))


def parse_distribution(spec: str) -> Distribution:
    """Parse `exp:mean=60`, `lognormal:mu=..,sigma=..`, `const:value=..`,
    `uniform:low=..,high=..`, or `hist:<model file path>`."""
    if spec.startswith("hist:"):
        model = read_file(spec[len("hist:"):], parse_model)
        return HistogramInterval(model.bin_width, model.histogram)
    return _parse_spec(spec, "distribution", _INTERVAL_SPECS)


def parse_count_distribution(spec: str) -> CountDistribution:
    """Parse `poisson:mean=1.14` or `const:value=1`."""
    return _parse_spec(spec, "count distribution", _COUNT_SPECS)


# --------------------------------------------------------------------------
# configuration

# The most frames, persons and devices a config may expect to generate.  The
# simulator and the event writer peak at about 700 bytes per event, so the
# limit holds a run to about 7 GB.
MAX_EXPECTED_RECORDS = 10_000_000


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
        if not RSSI_NONE < self.rssi < 2**15:
            raise ValueError(f"rssi must lie in [{RSSI_NONE + 1}, {2**15 - 1}], got {self.rssi!r}")
        if self.ap_id.split() != [self.ap_id]:
            raise ValueError(f"ap_id must be one token without whitespace, got {self.ap_id!r}")
        expected = self.expected_records()
        if not expected <= MAX_EXPECTED_RECORDS:
            raise ValueError(
                f"config expects about {expected:.3g} frames, persons and devices, "
                f"more than the limit of {MAX_EXPECTED_RECORDS}"
            )

    def expected_records(self) -> float:
        """Expected frames plus persons and devices, from the config's means.

        A device present for time T sends about T / tau_mean bursts, and
        exp(sigma**2) times that with a per-device interval scale of lognormal
        spread sigma (the mean of 1/scale); the count takes the most frames a
        burst can hold.
        """
        try:
            persons = self.fixed_persons + self.arrival_rate * self.duration
            presence = (self.fixed_persons * self.duration
                        + self.arrival_rate * self.duration * self.dwell_dist.mean())
            devices = self.devices_per_person_dist.mean()
            rate = math.exp(self.interval_scale_sigma**2) / self.interval_dist.mean()
            frames = presence * devices * rate * self.frames_per_burst[1]
            return persons * (1 + devices) + frames
        except OverflowError:
            return math.inf


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


# One row of the ground-truth trace file: an entity, its kind ("device" or
# "person"), its owner (a device's person, "-" for a person), enter and leave.
TRACE_DTYPE = np.dtype([
    ("entity_id", object), ("kind", object), ("owner", object),
    ("enter", np.float64), ("leave", np.float64),
])


@dataclass(frozen=True, eq=False)
class GroundTruthTrace:
    """The simulated entities, as ``TRACE_DTYPE`` records."""

    entities: np.recarray


def _trace(rows: list[tuple]) -> GroundTruthTrace:
    return GroundTruthTrace(np.array(rows, dtype=TRACE_DTYPE).view(np.recarray))


# One window of ground truth: the time-averaged device and person counts.
TRUTH_DTYPE = np.dtype([("n_bar", np.float64), ("m_bar", np.float64)])


def _overlap_total(enter: np.ndarray, leave: np.ndarray, start: float, end: float) -> float:
    if enter.size == 0:
        return 0.0
    overlap = np.minimum(leave, end) - np.maximum(enter, start)
    return float(np.clip(overlap, 0.0, None).sum())


def ground_truth_series(trace: GroundTruthTrace, starts: np.ndarray, w: float) -> np.recarray:
    """Exact device and person averages (``TRUTH_DTYPE``) over each window
    [start, start + w), by interval overlap."""
    e = trace.entities
    # masking copies each kind's times out of the strided record fields into
    # contiguous arrays, on which the per-window sums run faster
    spans = [(e.enter[mask], e.leave[mask]) for mask in (e.kind == "device", e.kind == "person")]
    rows = [
        tuple(_overlap_total(enter, leave, s, s + w) / w for enter, leave in spans)
        for s in starts.tolist()
    ]
    return np.array(rows, dtype=TRUTH_DTYPE).view(np.recarray)


def format_trace(trace: GroundTruthTrace) -> str:
    return format_rows("%s %s %s %.6f %.6f\n",
                       [trace.entities[name] for name in TRACE_DTYPE.names])


def _entity_row(entity_id: str, kind: str, owner: str, enter: float, leave: float) -> tuple:
    if kind not in ("device", "person"):
        raise ValueError(f"unknown entity kind {kind!r}")
    if not enter < leave:
        raise ValueError("entity must leave strictly after entering")
    return entity_id, kind, owner, enter, leave


_TRACE_LAYOUT = (str, str, str, finite, finite)


def parse_trace(data: bytes | str) -> GroundTruthTrace:
    decoded = read_columns(data, _TRACE_LAYOUT)
    if decoded is not None:
        ids, kind, owner, enter, leave = decoded[1]
        if np.all(((kind == b"device") | (kind == b"person")) & (enter < leave)):
            return GroundTruthTrace(np.rec.fromarrays(
                [ids.astype(str), kind.astype(str), owner.astype(str), enter, leave],
                dtype=TRACE_DTYPE))
    return _trace(read_rows(data, _entity_row, _TRACE_LAYOUT))


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
    later = _renewals(first, end, dist.mean() * scale, lambda n: dist.sample(rng, n) * scale, 8)
    return np.concatenate(([first], later))


def _renewals(
    t: float, horizon: float, mean: float, draw: Callable[[int], np.ndarray], pad: int
) -> np.ndarray:
    """Renewals after ``t`` and before ``horizon``, with intervals from ``draw(n)``,
    drawn in chunks of 1.25 times the expected count plus ``pad``."""
    chunks = []
    while True:
        need = max(pad, int((horizon - t) / mean * 1.25) + pad)
        ts = t + np.cumsum(draw(need))
        inside = ts[ts < horizon]
        chunks.append(inside)
        if inside.size < ts.size:
            break
        t = float(ts[-1])
    return np.concatenate(chunks)


def _draw_mac(rng: np.random.Generator, randomized: bool) -> int:
    """A unicast MAC from six random octets: locally administered when randomized,
    globally administered otherwise."""
    octets = rng.integers(0, 256, 6).tolist()
    octets[0] = (octets[0] & 0xFC) | (0x02 if randomized else 0x00)
    return int.from_bytes(bytes(octets), "big")


def _device_bursts(config: SimConfig, rng: np.random.Generator, enter: float, leave: float,
                   replay: _Replay | None = None) -> list[tuple[float, int, int]]:
    """One device's bursts: (probing instant, frame count, MAC); none with a
    ``replay``, which takes the instants and the words of the other draws."""
    scale = 1.0
    if config.interval_scale_sigma > 0:
        s = config.interval_scale_sigma
        scale = float(rng.lognormal(-0.5 * s * s, s))  # unit mean across devices
    persistent = _draw_mac(rng, randomized=False) if replay is None else replay.take(rng, 6)
    instants = probing_instants(config.interval_dist, enter, leave, rng, config.phase_mode, scale)
    if replay is not None:
        replay.instants.append(instants)
        replay.take(rng, instants.size * replay.u32_per_burst, instants.size * replay.rotate)
        return []
    lo, hi = config.frames_per_burst
    bursts = []
    for instant in instants.tolist():
        n_frames = int(rng.integers(lo, hi + 1))
        rotate = config.rotation_prob > 0 and rng.random() < config.rotation_prob
        bursts.append((instant, n_frames, _draw_mac(rng, True) if rotate else persistent))
    return bursts


class _Replay:
    """The raw PCG64 words behind ``_device_bursts``' draws at a rotation
    probability of 0 or 1, where every burst draws alike: a frame count
    (``integers(lo, hi + 1)``: Lemire's method on a 32-bit draw, none when
    lo == hi) and, at 1, a coin (``random()``: a word) and six octets (the top
    bytes of six 32-bit draws).  A 32-bit draw takes a word's low half and
    holds the high half for the next, and no other draw touches that half; so
    the run's 32-bit draws are the halves of the words that no coin took."""

    def __init__(self, config: SimConfig) -> None:
        (self.lo, self.hi), self.rotate = config.frames_per_burst, config.rotation_prob == 1.0
        self.u32_per_burst = (self.lo < self.hi) + 6 * self.rotate
        self.u32_drawn, self.words, self.instants = 0, [np.empty(0, np.uint64)], []

    def take(self, rng: np.random.Generator, u32: int, u64: int = 0) -> None:
        held = self.u32_drawn % 2  # the high half an odd count leaves
        self.words.append(rng.bit_generator.random_raw(u64 + (u32 + 1 - held) // 2))
        self.u32_drawn += u32

    def bursts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Each burst's instant, frame count and MAC; None when a frame count
        needed Lemire's redraw (below span / 2**32 a burst), which is not replayed."""
        counts = np.array([a.size for a in self.instants], dtype=np.int64)
        burst, device = np.arange(counts.sum()), np.repeat(np.arange(counts.size), counts)
        # ranks among the 32-bit draws: each device's MAC, then each burst's first
        mac_rank = 6 * np.arange(counts.size) + self.u32_per_burst * (np.cumsum(counts) - counts)
        burst_rank = 6 * (device + 1) + self.u32_per_burst * burst
        framed = self.lo < self.hi
        words = np.concatenate(self.words)
        if self.rotate:  # before a coin: a word per earlier coin and per pair of 32-bit draws
            words = np.delete(words, burst + (burst_rank + framed + 1) // 2)
        u32 = words.astype("<u8").view("<u4")  # each word's low half first
        frames = np.full(burst.size, self.lo, dtype=np.int64)
        if framed:
            span = self.hi - self.lo + 1
            m = u32[burst_rank].astype(np.uint64) * np.uint64(span)
            if np.any(m & 0xFFFFFFFF < 2**32 % span):
                return None
            frames += (m >> 32).astype(np.int64)
        # the MACs as _draw_mac makes them, of six 32-bit draws from each rank in first
        first = burst_rank + framed if self.rotate else mac_rank
        octets = (u32[first[:, None] + np.arange(6)] >> 24).astype(np.uint64)
        octets[:, 0] = octets[:, 0] & 0xFC | (0x02 if self.rotate else 0x00)
        mac = np.bitwise_or.reduce(octets << np.arange(40, -1, -8, dtype=np.uint64), axis=1)
        return np.concatenate([np.empty(0), *self.instants]), frames, (
            mac if self.rotate else mac[device])


def simulate(config: SimConfig) -> tuple[Events, GroundTruthTrace]:
    """Generate a probe-request event stream and its ground-truth trace.

    Persons arriving before ``duration`` dwell to completion, so events may
    extend past the arrival horizon.  Fully deterministic given the config.
    A rotation probability of 0 or 1 replays the bursts' draws (``_Replay``)
    unless this numpy's draws differ or a frame count needed a redraw.
    """
    lo, hi = config.frames_per_burst
    # integers() takes one 32-bit draw for a range below 2**32 - 1
    if config.rotation_prob in (0.0, 1.0) and hi - lo < 2**32 - 1 and _replay_agrees():
        return _simulate(config, replay=True) or _simulate(config, replay=False)
    return _simulate(config, replay=False)


@functools.cache
def _replay_agrees() -> bool:
    """Whether the replay gives this numpy's draws, on small runs at both
    rotation probabilities, with and without a frame-count draw."""
    configs = [SimConfig(arrival_rate=0.0, fixed_persons=3, frames_per_burst=frames,
                         rotation_prob=p, duration=900.0)
               for p, frames in ((0.0, (1, 3)), (1.0, (1, 3)), (1.0, (2, 2)))]
    return all((replayed := _simulate(c, replay=True)) is not None
               and format_events(replayed[0]) == format_events(_simulate(c, replay=False)[0])
               for c in configs)


def _simulate(config: SimConfig, replay: bool) -> tuple[Events, GroundTruthTrace] | None:
    rng, draws = np.random.default_rng(config.seed), _Replay(config) if replay else None
    spans = [(0.0, round(config.duration, 6))] * config.fixed_persons
    if config.arrival_rate > 0 and config.duration > 0:
        mean = 1.0 / config.arrival_rate
        arrivals = _renewals(0.0, config.duration, mean, lambda n: rng.exponential(mean, n), 16)
        dwells = config.dwell_dist.sample(rng, arrivals.size)
        spans += zip(round6(arrivals).tolist(), round6(arrivals + dwells).tolist())

    entities: list[tuple] = []
    bursts: list[tuple[float, int, int]] = []
    device_index = 0
    for person_index, (enter, leave) in enumerate(spans):
        if not leave > enter:
            continue
        person_id = f"p{person_index}"
        entities.append((person_id, "person", "-", enter, leave))
        n_devices = int(config.devices_per_person_dist.sample(rng, 1)[0])
        for _ in range(n_devices):
            entities.append((f"d{device_index}", "device", person_id, enter, leave))
            device_index += 1
            bursts += _device_bursts(config, rng, enter, leave, draws)

    if draws is None:
        instant = np.array([b[0] for b in bursts], dtype=np.float64)
        count = np.array([b[1] for b in bursts], dtype=np.int64)
        burst_mac = np.array([b[2] for b in bursts], dtype=np.uint64)
    elif (replayed := draws.bursts()) is None:
        return None
    else:
        instant, count, burst_mac = replayed
    # Frame k of a burst of n lies at np.linspace(0, burst_duration, n)[k]:
    # k * (burst_duration / (n - 1)), and burst_duration itself for the last.
    n = np.repeat(count, count)
    k = np.arange(n.size) - np.repeat(np.cumsum(count) - count, count)
    d = config.burst_duration
    offset = np.where((k == n - 1) & (n > 1), d, k * (d / np.maximum(n - 1, 1)))
    t = round6(np.repeat(instant, count) + offset)
    mac = np.repeat(burst_mac, count)
    order = np.lexsort((mac, t))
    events = Events(t[order], mac[order], np.zeros(t.size, dtype=np.int32),
                    np.full(t.size, config.rssi, dtype=np.int16), (config.ap_id,))
    return events, _trace(entities)
