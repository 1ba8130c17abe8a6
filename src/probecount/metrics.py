"""Error metrics comparing estimate series against reference series."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class SeriesPair:
    estimates: tuple[float, ...]
    references: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.estimates) != len(self.references) or not self.estimates:
            raise ValueError("series must be non-empty and of equal length")
        if not all(math.isfinite(r) for r in self.references):
            raise ValueError("references must be finite")
        if any(r < 0 for r in self.references):
            raise ValueError("references are counts and must be non-negative")

    @classmethod
    def of(cls, estimates: Sequence[float], references: Sequence[float]) -> "SeriesPair":
        return cls(tuple(float(v) for v in estimates), tuple(float(v) for v in references))


def rmse(pair: SeriesPair) -> float:
    sq = sum((y - r) ** 2 for y, r in zip(pair.estimates, pair.references))
    return math.sqrt(sq / len(pair.estimates))


def mape(pair: SeriesPair) -> float:
    """Mean absolute percentage error; zero-reference windows are filtered."""
    terms = [
        abs(y - r) / r for y, r in zip(pair.estimates, pair.references) if r != 0.0
    ]
    if not terms:
        raise ValueError("all reference values are zero")
    return sum(terms) / len(terms)


def nrmse(pair: SeriesPair) -> float:
    mean_ref = sum(pair.references) / len(pair.references)
    if mean_ref <= 0:
        raise ValueError("reference mean must be positive")
    return rmse(pair) / mean_ref
