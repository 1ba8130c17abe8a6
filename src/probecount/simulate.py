"""Renewal-process trace simulator with exact window-averaged ground truth.

Persons arrive as a Poisson process and dwell for a random time; each carries
a random number of devices sharing the person's stay.  Devices probe via a
renewal process with IID intervals and may fabricate a fresh random MAC per
burst.  The generated ground-truth trace yields exact window-averaged device
and people counts by interval arithmetic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bursts import by_time
from .ingest import (
    RSSI_MAX, Events, finite, format_rows, read_file, read_keys, read_table, round6, utf8_str,
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
    # the bin probabilities, the bins' midpoints, and the cumulative probabilities that
    # sample and sample_length_biased search: computed once, in __post_init__
    _probs: np.ndarray = field(init=False, repr=False, compare=False)
    _mids: np.ndarray = field(init=False, repr=False, compare=False)
    _cumulative: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise ValueError("histogram has no mass")
        probs, mids = counts / total, (np.arange(len(self.counts)) + 0.5) * self.bin_width
        object.__setattr__(self, "_probs", probs)
        object.__setattr__(self, "_mids", mids)
        _check_positive("histogram mean", self.mean())
        weights = probs * mids
        cum, biased = np.cumsum(probs), np.cumsum(weights / weights.sum())
        cum[-1] = biased[-1] = 1.0
        object.__setattr__(self, "_cumulative", (cum, biased))

    def mean(self) -> float:
        return float(self._probs @ self._mids)

    def std(self) -> float:
        second = float(self._probs @ (self._mids**2 + self.bin_width**2 / 12.0))
        return math.sqrt(max(second - self.mean() ** 2, 0.0))

    def _sample_bins(self, rng: np.random.Generator, size: int, cum: np.ndarray) -> np.ndarray:
        u = rng.random(2 * size)  # the bins' draws, then the offsets' in them: one call
        return (np.searchsorted(cum, u[:size], side="right") + u[size:]) * self.bin_width

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._sample_bins(rng, size, self._cumulative[0])

    def sample_length_biased(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._sample_bins(rng, size, self._cumulative[1])


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


@dataclass(frozen=True)
class ConstantCount:
    value: int

    def __post_init__(self) -> None:
        if not (self.value >= 0 and float(self.value).is_integer()):
            raise ValueError(f"const value must be a whole number >= 0, got {self.value!r}")
        object.__setattr__(self, "value", int(self.value))

    def mean(self) -> float:
        return float(self.value)


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
# simulator and the writers peak at 150-200 bytes per frame, person and device
# (measured in fresh processes, see README), so the limit holds a run to about 2 GB.
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if self.fixed_persons < 0:
            raise ValueError("fixed_persons must be non-negative")
        if self.interval_scale_sigma < 0:
            raise ValueError("interval_scale_sigma must be non-negative")
        if not -RSSI_MAX <= self.rssi <= RSSI_MAX:
            raise ValueError(f"rssi must lie in [{-RSSI_MAX}, {RSSI_MAX}], got {self.rssi!r}")
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


# The ground-truth trace file's columns: an entity, its kind ("device" or
# "person"), its owner (a device's person, "-" for a person), enter and leave.
TRACE_FIELDS = ("entity_id", "kind", "owner", "enter", "leave")
_Entity = namedtuple("_Entity", TRACE_FIELDS)


class _Entities(np.recarray):
    """A record array that iterates as ``_Entity`` tuples of its columns' ``tolist()``."""

    def __iter__(self):
        return map(_Entity, *(self[name].tolist() for name in TRACE_FIELDS))


@dataclass(frozen=True, eq=False)
class GroundTruthTrace:
    """The simulated entities, as records of ``TRACE_FIELDS`` (iterated as named tuples of
    ``str`` and ``float``): text fields numpy ``str`` (``U``), times float64."""

    entities: np.recarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities", self.entities.view(_Entities))


def _trace(*columns: np.ndarray) -> GroundTruthTrace:
    return GroundTruthTrace(np.rec.fromarrays(columns, names=TRACE_FIELDS))


# One window of ground truth: the time-averaged device and person counts.
TRUTH_DTYPE = np.dtype([("n_bar", np.float64), ("m_bar", np.float64)])


def _microseconds(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each time as whole microseconds (int64) and the rest in seconds, which is 0 on
    the microsecond grid; the whole part is 0 where |x| >= 2**53/1e6."""
    whole = np.rint(np.where(np.abs(x) < 2**53 / 1e6, x, 0.0) * 1e6)
    return whole.astype(np.int64), x - whole / 1e6


def _presence_integral(enter: np.ndarray, leave: np.ndarray):
    """The integral over (-inf, x] of the number of entities present, as a function of
    the times x (floats) and their ``_microseconds``: N(x) x - (sum of enters <= x -
    sum of leaves <= x), from prefix sums over the sorted times.  Microseconds are
    counted from the earliest enter, in int64 (object ints when n times the span could
    overflow), so the whole part is exact."""
    enter, leave = np.sort(enter), np.sort(leave)
    (enter_us, enter_rest), (leave_us, leave_rest) = _microseconds(enter), _microseconds(leave)
    base = enter_us[0] if enter.size else 0
    enter_us, leave_us = enter_us - base, leave_us - base
    span = max(np.abs(enter_us).max(initial=0), np.abs(leave_us).max(initial=0))
    whole = np.int64 if enter.size * int(span) < 2**61 else object

    def prefix_sums(part: np.ndarray, dtype) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(part, dtype=dtype)))

    enters_us, leaves_us = prefix_sums(enter_us, whole), prefix_sums(leave_us, whole)
    enters_rest, leaves_rest = prefix_sums(enter_rest, float), prefix_sums(leave_rest, float)

    def integral(x: np.ndarray, x_us: np.ndarray, x_rest: np.ndarray):
        i, j = enter.searchsorted(x, "right"), leave.searchsorted(x, "right")
        present = i - j
        return (present * (x_us - base).astype(whole, copy=False) - (enters_us[i] - leaves_us[j]),
                present * x_rest - (enters_rest[i] - leaves_rest[j]))

    return integral


# Windows whose ground truth is computed at once, so that temporaries stay small.
_WINDOWS = 1 << 16


def ground_truth_series(trace: GroundTruthTrace, starts: np.ndarray, w: float) -> np.recarray:
    """Exact device and person averages (``TRUTH_DTYPE``) over each window
    [start, start + w): the difference of the presence integral at the window's ends
    over w.  On the microsecond grid that is one rounding of the exact ratio."""
    e = trace.entities
    w_us, w_rest = _microseconds(np.float64(w))
    truth = np.empty(starts.size, dtype=TRUTH_DTYPE)
    for name, kind in (("n_bar", "device"), ("m_bar", "person")):
        mask = e.kind == kind
        integral = _presence_integral(e.enter[mask], e.leave[mask])
        for i in range(0, starts.size, _WINDOWS):
            start = starts[i : i + _WINDOWS]
            start_us, start_rest = _microseconds(start)
            end_us, end_rest = integral(start + w, start_us + w_us, start_rest + w_rest)
            begin_us, begin_rest = integral(start, start_us, start_rest)
            truth[name][i : i + _WINDOWS] = (((end_us - begin_us) + (end_rest - begin_rest) * 1e6)
                                             / (w_us + w_rest * 1e6))
    return truth.view(np.recarray)


def format_trace(trace: GroundTruthTrace) -> str:
    return format_rows("%s %s %s %.6f %.6f\n", [trace.entities[name] for name in TRACE_FIELDS])


_TRACE_LAYOUT = (str, str, str, finite, finite)
_TRACE_CHECKS = (
    (lambda _, kind, *__: (kind == b"device") | (kind == b"person"),
     lambda _, kind, *__: f"unknown entity kind {kind.decode()!r}"),
    (lambda *entity: entity[3] < entity[4], lambda *_: "entity must leave strictly after entering"),
)


def parse_trace(data: bytes | str) -> GroundTruthTrace:
    ids, kind, owner, enter, leave = read_table(data, _TRACE_LAYOUT, checks=_TRACE_CHECKS)[1]
    return _trace(utf8_str(ids), utf8_str(kind), utf8_str(owner), enter, leave)


# --------------------------------------------------------------------------
# generation


def probing_instants(dist: Distribution, start: float, end: float, rng: np.random.Generator,
                     phase_mode: str = "equilibrium", scale: float = 1.0) -> np.ndarray:
    """Renewal probing instants within [start, end): ``device_instants`` of one device."""
    one = [np.array([x], dtype=float) for x in (start, end, scale)]
    return device_instants(dist, *one, rng, phase_mode)[0]


def device_instants(dist: Distribution, start: np.ndarray, end: np.ndarray, scale: np.ndarray,
                    rng: np.random.Generator, phase_mode: str = "equilibrium"
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Every device's renewal probing instants within its [start, end), with intervals
    drawn from ``dist`` times its ``scale``: the devices' instants in turn, and their
    counts.

    One call draws every device's wait to its first instant: in equilibrium mode a
    residual wait (phase-independent entry), in ordinary mode a full interval.  Then
    ``_renewals`` draws the rest."""
    if phase_mode not in ("equilibrium", "ordinary"):
        raise ValueError(f"unknown phase_mode {phase_mode!r}")
    wait = (equilibrium_residual(dist, rng, start.size) if phase_mode == "equilibrium"
            else dist.sample(rng, start.size))
    return _renewals(start + wait * scale, end, dist.mean(), scale,
                     lambda n: dist.sample(rng, n), 8, keep_start=True)


def _renewals(t: np.ndarray, end: np.ndarray, mean: float, scale: np.ndarray,
              steps: Callable[[int], np.ndarray], pad: int, keep_start: bool = False
              ) -> tuple[np.ndarray, np.ndarray]:
    """Each row's renewals after its ``t`` (and ``t`` itself first, with ``keep_start``)
    and before its ``end``, the rows' in turn, and their counts; a row with t >= end has
    none.

    A row's intervals are ``steps(n)`` times its ``scale``, of mean ``mean`` times it.
    Each round draws, in one ``steps`` call, 1.25 times its expected count plus ``pad``
    for every row still open, in row order; a row stays open while all its draws fall
    before its end.  A row's instants are its draws summed left to right from 0, plus
    its ``t``: the rows of one length sum as the rows of one 2-D array, so each row
    gets the sums it would alone (one running sum over every row would carry the
    earlier rows' total, and round each sum to its digits)."""
    rows = np.flatnonzero(t < end)
    n, t, end, scale = t.size, t[rows], end[rows], scale[rows]
    found = [(rows, t)] if keep_start else [(rows[:0], t[:0])]
    while rows.size:
        with np.errstate(over="ignore", divide="ignore"):  # inf is refused below
            need = (end - t) / (mean * scale) * 1.25
        if not need.sum() < 2**62:  # nor a count that int64 would wrap
            raise ValueError(f"renewals would need {need.sum():.3g} interval draws in one round")
        need = need.astype(np.int64) + pad
        begin = np.cumsum(need) - need
        x = steps(int(need.sum()))
        x *= np.repeat(scale, need)
        by_length = np.argsort(need)
        for same in np.split(by_length, np.flatnonzero(np.diff(need[by_length])) + 1):
            at = begin[same, None] + np.arange(need[same[0]])
            x[at] = np.add.accumulate(x[at], axis=1)
        x += np.repeat(t, need)
        inside = x < np.repeat(end, need)
        kept = np.add.reduceat(inside, begin)
        found.append((np.repeat(rows, kept), x[inside]))
        full = kept == need
        rows, t, end, scale = rows[full], x[begin + need - 1][full], end[full], scale[full]
    row = np.concatenate([row for row, _ in found])
    instants = np.concatenate([instants for _, instants in found])
    return instants[np.argsort(row, kind="stable")], np.bincount(row, minlength=n)


def simulate(config: SimConfig) -> tuple[Events, GroundTruthTrace]:
    """Generate a probe-request event stream and its ground-truth trace.

    Persons arriving before ``duration`` dwell to completion, so events may
    extend past the arrival horizon.  Fully deterministic given the config: array
    calls draw every device's instants, and after them the bursts' frame counts,
    rotation coins and MACs (``_draw``), so ``rotation_prob`` changes only the MACs.
    """
    people, (instant, count, burst_mac) = _draw(config)
    # Frame k of a burst of n lies at np.linspace(0, burst_duration, n)[k]:
    # k * (burst_duration / (n - 1)), and burst_duration itself for the last.
    n = np.repeat(count, count)
    k = np.arange(n.size) - np.repeat(np.cumsum(count) - count, count)
    d = config.burst_duration
    offset = np.where((k == n - 1) & (n > 1), d, k * (d / np.maximum(n - 1, 1)))
    t = round6(np.repeat(instant, count) + offset)
    mac = np.repeat(burst_mac, count)
    order = by_time(t, mac, np.argsort(t))
    return Events(t[order], mac[order]), _entities(*people)


def _labels(prefix: str, numbers: np.ndarray) -> np.ndarray:
    """``prefix`` and the decimal digits of each of the ascending non-negative
    ``numbers``, as numpy ``str``: the digits of each decade's run at once."""
    width = len(str(int(numbers[-1]))) if numbers.size else 1
    codes = np.zeros((numbers.size, width + 1), dtype=np.uint32)
    codes[:, 0] = ord(prefix)
    runs = [0, *numbers.searchsorted(10 ** np.arange(1, width)).tolist(), numbers.size]
    for digits, (lo, hi) in enumerate(zip(runs, runs[1:]), start=1):
        value = numbers[lo:hi]
        for column in range(digits, 0, -1):
            value, codes[lo:hi, column] = np.divmod(value, 10)
        codes[lo:hi, 1 : digits + 1] += ord("0")
    return codes.view(f"U{width + 1}").ravel()


def _entities(person: np.ndarray, enter: np.ndarray, leave: np.ndarray,
              devices: np.ndarray) -> GroundTruthTrace:
    """The trace of the persons numbered ``person``, with their spans and device counts:
    each person's row, then its devices' rows."""
    rows = devices + 1
    is_person = np.zeros(rows.sum(), dtype=bool)
    is_person[np.cumsum(rows) - rows] = True
    labels = _labels("p", person), _labels("d", np.arange(is_person.size - person.size))
    ids = np.empty(is_person.size, dtype=np.result_type(*labels))
    ids[is_person], ids[~is_person] = labels
    owner = labels[0][np.repeat(np.arange(person.size), rows)]
    return _trace(ids, np.where(is_person, "person", "device"), np.where(is_person, "-", owner),
                  np.repeat(enter, rows), np.repeat(leave, rows))


# A MAC's bits: the 48 a draw gives, those of a unicast globally administered address
# (the group and local bits of the first octet clear), and the local bit
_MAC_SPAN, _UNICAST_GLOBAL, _LOCAL = 1 << 48, np.uint64(0xFCFF_FFFF_FFFF), np.uint64(1 << 41)


def _draw(config: SimConfig) -> tuple[tuple, tuple]:
    """The persons present (their numbers, spans and device counts), and each burst's
    instant, frame count and MAC in device order.

    Array calls draw every person's device count, every device's interval scale and
    its instants (``device_instants``).  Four more then draw every device's persistent
    MAC, every burst's frame count, every burst's rotation coin and a fresh MAC for
    each burst that rotates, so only the last call depends on ``rotation_prob``."""
    rng = np.random.default_rng(config.seed)
    enter, leave = np.zeros(config.fixed_persons), np.full(config.fixed_persons,
                                                           round(config.duration, 6))
    if config.arrival_rate > 0 and config.duration > 0:
        mean = 1.0 / config.arrival_rate
        arrivals = _renewals(np.zeros(1), np.array([config.duration]), mean, np.ones(1),
                             lambda n: rng.exponential(mean, n), 16)[0]
        dwells = config.dwell_dist.sample(rng, arrivals.size)
        enter = np.concatenate((enter, round6(arrivals)))
        leave = np.concatenate((leave, round6(arrivals + dwells)))
    person = np.flatnonzero(leave > enter)

    per_person, sigma = config.devices_per_person_dist, config.interval_scale_sigma
    devices = (rng.poisson(per_person.mean_value, person.size)
               if isinstance(per_person, PoissonCount)
               else np.full(person.size, per_person.value, dtype=np.int64))
    start, end = np.repeat(enter[person], devices), np.repeat(leave[person], devices)
    # each device's interval scale, of unit mean
    scale = (rng.lognormal(-0.5 * sigma * sigma, sigma, start.size) if sigma
             else np.ones(start.size))
    instants, counts = device_instants(config.interval_dist, start, end, scale, rng,
                                       config.phase_mode)

    lo, hi = config.frames_per_burst
    persistent = rng.integers(0, _MAC_SPAN, counts.size, dtype=np.uint64) & _UNICAST_GLOBAL
    frames = rng.integers(lo, hi + 1, counts.sum())
    rotated = rng.random(frames.size) < config.rotation_prob
    macs = np.repeat(persistent, counts)
    fresh = rng.integers(0, _MAC_SPAN, np.count_nonzero(rotated), dtype=np.uint64)
    macs[rotated] = fresh & _UNICAST_GLOBAL | _LOCAL
    return ((person, enter[person], leave[person], devices), (instants, frames, macs))
