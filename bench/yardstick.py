"""A fixed reference task, timed next to each repetition to gauge the host's speed.

On a shared host the speed of a core drifts by 20-30% over tens of seconds to
minutes, and by up to 2x between its quiet and busy phases (a fixed loop shows
the same swings), so pipeline wall times of runs made minutes apart spread by
more than any useful bound.  The yardstick is a task that never changes, of
the same kinds as the pipeline's work, in two parts:

* a Python part: unpacking binary records into small objects, grouping them
  by key, sorting, splitting at gaps, writing and parsing text;
* an array part: numpy sorts and a unique over arrays larger than the caches.

A busy phase slows interpreted Python more than array work (about 2x against
1.5x), and the pipeline mixes both, so the yardstick's time is the geometric
mean of the two parts' times: on the three workloads it follows the pipeline's
slow-downs no less closely than either part alone, and about twice as closely
as the Python part.  run.py times it before and after every repetition and
every set-up, and ``relative`` divides each by the mean of the two timings
around it: a slow phase of the host slows both, a change to probecount moves
only the numerator.  ``pipeline_rel`` is that ratio for a repetition;
``setup_s`` is the ratio for a set-up times ``REFERENCE_S``, that is the set-up
time on a host whose yardstick takes ``REFERENCE_S``.

The task uses its own fixed data, independent of the workload and the seed,
and runs with the garbage collector off, so that its time does not depend on
how many objects probecount keeps alive.  Its arrays and their sorted copies
add a constant of about 17 MiB to ``peak_rss_mb`` on every workload, the same
on every commit.
"""

from __future__ import annotations

import gc
import math
import struct
import time
from dataclasses import dataclass

import numpy as np

RECORDS = 40_000
CHUNK = 5_000
GAP = 4.0
ARRAY_LEN = 500_000
# A nominal yardstick time, near the yardstick's time on a quiet core of a
# 2.1 GHz Xeon; set-up times are reported as on a host where it takes this long.
REFERENCE_S = 0.1
_FORMAT = struct.Struct("<dQb")


@dataclass(frozen=True)
class _Record:
    t: float
    key: int
    signal: int


def _data() -> tuple[bytes, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0x9A2D)
    rec = np.zeros(RECORDS, dtype=[("t", "<f8"), ("key", "<u8"), ("signal", "i1")])
    rec["t"] = np.sort(rng.uniform(0.0, 18_000.0, RECORDS))
    rec["key"] = rng.integers(0, 6_000, RECORDS)
    rec["signal"] = rng.integers(-90, -30, RECORDS)
    assert rec.itemsize == _FORMAT.size
    return rec.tobytes(), rng.random(ARRAY_LEN), rng.integers(0, 6_000, ARRAY_LEN)


_BUF, _VALUES, _KEYS = _data()


def python_task() -> int:
    """The Python part; returns a checksum so that none of it is skipped.

    The records are handled in chunks so that the task adds little to the
    process's peak memory, which ``peak_rss_mb`` reports for probecount.
    """
    checksum = 0
    step = CHUNK * _FORMAT.size
    for start in range(0, len(_BUF), step):
        records = [_Record(*_FORMAT.unpack_from(_BUF, i))
                   for i in range(start, min(start + step, len(_BUF)), _FORMAT.size)]
        groups: dict[int, list[_Record]] = {}
        for r in records:
            groups.setdefault(r.key, []).append(r)
        for group in groups.values():
            group.sort(key=lambda r: r.t)
            prev = None
            for r in group:
                if prev is None or r.t - prev > GAP:
                    checksum += 1
                prev = r.t
        text = "".join(f"{r.t:.6f} {r.key:012x} venue {r.signal}\n" for r in records)
        parsed = [(float(a), int(b, 16))
                  for a, b, _, _ in (ln.split() for ln in text.splitlines())]
        checksum += len(parsed)
    return checksum


def array_task() -> int:
    """The array part; returns a checksum so that none of it is skipped."""
    values = np.sort(_VALUES)
    order = np.lexsort((_VALUES, _KEYS))
    return int(values.argmax()) + int(order[0]) + len(np.unique(_KEYS))


def _timed(task) -> float:
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


def time_once() -> float:
    """Geometric mean of one timing of each part, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return math.sqrt(_timed(python_task) * _timed(array_task))
    finally:
        if enabled:
            gc.enable()


def relative(walls: list[float], yard: list[float]) -> list[float]:
    """Each wall time over the mean of the yardstick timings before and after it.

    ``yard`` holds one timing more than ``walls``: the one before the first.
    """
    return [w / ((a + b) / 2) for w, a, b in zip(walls, yard, yard[1:])]
