"""Differential fuzz of simulate.simulate against the frame-by-frame oracles.simulate.

    PYTHONPATH=src python tests/fuzz_simulate.py --configs 2000 --seed 1

Each config is drawn at random: fixed persons, arrivals or both, every interval and
dwell distribution (fitted histograms with empty and heavy bins among them), constant
and Poisson device counts (zero included), per-device interval scales, both phase
modes, frame ranges and burst durations, rotation probabilities at the coin's edges,
ap ids and rssi values.  The event text and the ground-truth text that ``simulate``
gives must be the oracle's, byte for byte.  Exits 1 at the first mismatch.
"""

from __future__ import annotations

import argparse
import math
import random
import sys

import oracles
from probecount.ingest import format_events
from probecount.simulate import (
    Constant, ConstantCount, Exponential, HistogramInterval, LogNormal, PoissonCount,
    SimConfig, UniformInterval, format_trace, simulate,
)

# The most frames, persons and devices a config may expect, so that the oracle, a Python
# loop over the frames, keeps each config to milliseconds.
_EXPECTED = 10_000


def _interval(rng: random.Random, mean: float):
    """One of the five interval distributions, of mean about ``mean``."""
    kind = rng.choice(["exp", "lognormal", "const", "uniform", "hist"])
    if kind == "exp":
        return Exponential(mean)
    if kind == "lognormal":
        sigma = rng.choice([0.0, 0.3, 1.0, 2.0])
        return LogNormal(math.log(mean) - sigma * sigma / 2 + rng.uniform(-0.5, 0.5), sigma)
    if kind == "const":
        return Constant(mean)
    if kind == "uniform":
        return UniformInterval(rng.choice([0.0, mean / 2]), mean * rng.choice([1.0, 1.5, 2.0]))
    bins = rng.randint(1, 40)
    counts = [rng.choice([0, 0, 1, 3, 20]) for _ in range(bins)]
    counts[rng.randrange(bins)] += 1  # some mass
    return HistogramInterval(2 * mean / bins, tuple(counts))


def make_config(rng: random.Random) -> SimConfig:
    """A random config that expects at most ``_EXPECTED`` frames, persons and devices."""
    while True:
        lo = rng.randint(1, 4)
        config = SimConfig(
            arrival_rate=rng.choice([0.0, 0.01, 0.05, 0.2]),
            fixed_persons=rng.choice([0, 1, 3, 8]),
            dwell_dist=_interval(rng, rng.choice([30.0, 120.0, 400.0])),
            interval_dist=_interval(rng, rng.choice([2.0, 10.0, 45.0, 120.0])),
            burst_duration=rng.choice([0.001, 0.5, 2.0, 7.5]),
            frames_per_burst=(lo, lo + rng.choice([0, 0, 1, 3])),
            devices_per_person_dist=rng.choice(
                [ConstantCount(rng.randint(0, 3)), PoissonCount(rng.choice([0.5, 1.14, 3.0]))]),
            rotation_prob=rng.choice([0.0, 5e-324, 0.3, 1 - 2**-53, 1.0, rng.random()]),
            phase_mode=rng.choice(["equilibrium", "ordinary"]),
            duration=rng.choice([0.0, *[30.0, 300.0, 1200.0, rng.uniform(0, 1800)] * 4]),
            seed=rng.randrange(2**32),
            interval_scale_sigma=rng.choice([0.0, 0.0, 0.3, 1.0]),
            ap_id=rng.choice(["sim0", "lobby", "café"]),
            rssi=rng.randint(-100, 0),
        )
        if config.expected_records() <= _EXPECTED:
            return config


def run(configs: int, seed: int) -> tuple[str | None, int]:
    """The first mismatch among ``configs`` random configs (None when there is none), and
    the number of events they simulated."""
    rng = random.Random(seed)
    total = 0
    for i in range(configs):
        config = make_config(rng)
        events, trace = simulate(config)
        expected_events, entities = oracles.simulate(config)
        ours = format_events(events, config.ap_id, config.rssi) + format_trace(trace)
        theirs = oracles.format_events(expected_events, config.ap_id, config.rssi) + "".join(
            f"{entity} {kind} {owner} {enter:.6f} {leave:.6f}\n"
            for entity, kind, owner, enter, leave in entities)
        if ours != theirs:
            return f"config {i}: {config}\nsimulate and the oracle differ", total
        total += len(events)
    return None, total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    mismatch, events = run(args.configs, args.seed)
    print(mismatch or f"{args.configs} configs, {events} events: the event and ground-truth "
                      f"texts equal the oracle's byte for byte")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
