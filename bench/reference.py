"""Reference values for the benchmark's correctness checks, in numpy alone.

Nothing here calls probecount: the expected outputs come from the arrays the
benchmark generated (or from the files the CLI wrote, parsed here), so a
change to the package cannot change its own reference.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def window_starts(start: float, end: float, size: float, step: float) -> np.ndarray:
    """Starts of the complete windows start + i*step with start + i*step + size <= end."""
    starts = []
    i = 0
    while start + i * step + size <= end + 1e-9:
        starts.append(start + i * step)
        i += 1
    return np.array(starts, dtype=np.float64)


def bursts(t: np.ndarray, mac: np.ndarray, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Probing instants and MACs of the bursts: frames of one MAC at most ``gap`` apart.

    Returns the instants sorted by time and each burst's MAC.
    """
    order = np.lexsort((t, mac))
    ts, ms = t[order], mac[order]
    new = np.ones(ts.size, dtype=bool)
    new[1:] = (ms[1:] != ms[:-1]) | (np.diff(ts) > gap)
    instants, burst_mac = ts[new], ms[new]
    by_time = np.argsort(instants, kind="stable")
    return instants[by_time], burst_mac[by_time]


def intervals(instants: np.ndarray, burst_mac: np.ndarray, cutoff: float) -> np.ndarray:
    """Differences of consecutive probing instants per MAC, kept in (0, cutoff]."""
    order = np.lexsort((instants, burst_mac))
    ts, ms = instants[order], burst_mac[order]
    tau = np.diff(ts)
    tau = tau[ms[1:] == ms[:-1]]
    return tau[(tau > 0) & (tau <= cutoff)]


def counts_in_windows(sorted_t: np.ndarray, starts: np.ndarray, size: float) -> np.ndarray:
    """Number of times in [start, start + size) for each window."""
    lo = np.searchsorted(sorted_t, starts, side="left")
    hi = np.searchsorted(sorted_t, starts + size, side="left")
    return hi - lo


def unique_in_windows(t: np.ndarray, mac: np.ndarray, starts: np.ndarray,
                      size: float) -> np.ndarray:
    """Distinct MACs heard in [start, start + size) for each window."""
    order = np.argsort(t, kind="stable")
    ts, ms = t[order], mac[order]
    lo = np.searchsorted(ts, starts, side="left")
    hi = np.searchsorted(ts, starts + size, side="left")
    return np.array([np.unique(ms[a:b]).size for a, b in zip(lo, hi)], dtype=np.int64)


def window_average(enter: np.ndarray, leave: np.ndarray, starts: np.ndarray,
                   size: float) -> np.ndarray:
    """Exact number of entities present, averaged over each window."""
    out = np.empty(starts.size)
    for i, s in enumerate(starts):
        overlap = np.minimum(leave, s + size) - np.maximum(enter, s)
        out[i] = np.clip(overlap, 0.0, None).sum() / size
    return out


def rmse(est: np.ndarray, ref: np.ndarray) -> float:
    return math.sqrt(float(np.mean((est - ref) ** 2)))


def mape(est: np.ndarray, ref: np.ndarray) -> float:
    keep = ref != 0
    return float(np.mean(np.abs(est[keep] - ref[keep]) / ref[keep]))


def nrmse(est: np.ndarray, ref: np.ndarray) -> float:
    return rmse(est, ref) / float(np.mean(ref))


def mac_to_int(text: str) -> int:
    return int(text.replace(":", ""), 16)


def read_columns(path: Path, ncols: int) -> np.ndarray:
    """A whitespace-separated numeric file without ``#`` lines, as (rows, ncols)."""
    rows = [
        line.split()
        for line in path.read_text(encoding="ascii").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"{path.name}: expected {ncols} columns on every line")
    return np.array(rows, dtype=np.float64).reshape(-1, ncols)


def read_key_values(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="ascii").splitlines():
        key, _, value = line.strip().partition(" ")
        if key and not key.startswith("#"):
            out[key] = value.strip()
    return out


def read_events(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and MACs of an event-text file."""
    t, mac = [], []
    for line in path.read_text(encoding="ascii").splitlines():
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            t.append(float(fields[0]))
            mac.append(mac_to_int(fields[1]))
    return np.array(t, dtype=np.float64), np.array(mac, dtype=np.uint64)


def read_truth(path: Path) -> dict[str, np.ndarray]:
    """Enter and leave times per entity kind from a ground-truth sidecar.

    Raises ValueError when a device's owner is not a person with the same stay.
    """
    persons, devices = {}, []
    for line in path.read_text(encoding="ascii").splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        entity_id, kind, owner, enter, leave = fields
        span = (float(enter), float(leave))
        if not span[0] < span[1]:
            raise ValueError(f"{entity_id}: leaves before it enters")
        if kind == "person":
            persons[entity_id] = span
        else:
            devices.append((owner, span))
    for owner, span in devices:
        if persons.get(owner) != span:
            raise ValueError(f"device owner {owner} is not a person with the same stay")
    p = np.array(list(persons.values()), dtype=np.float64).reshape(-1, 2)
    d = np.array([s for _, s in devices], dtype=np.float64).reshape(-1, 2)
    return {"person_enter": p[:, 0], "person_leave": p[:, 1],
            "device_enter": d[:, 0], "device_leave": d[:, 1]}
