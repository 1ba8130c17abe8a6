"""Plain-Python reference implementations of the columnar core.

Each works one object at a time: a per-line column-file reader, a
per-record capture decoder and record walk, a per-event burst grouper, a
per-burst interval extractor, the window grid's lattice start and loop, the
per-window count, people and ground-truth series with their text writers, a
per-event text writer and a per-frame simulator.  The differential tests
compare the package's numpy code against them.  Last come the numpy
formulations that grouped by MAC with ``np.lexsort`` and stable argsorts, oracles
for the package's grouping at scale.
"""

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from event_columns import Event, mac_text
from probecount.ingest import ParseError, data_lines
from probecount.simulate import PoissonCount, equilibrium_residual


def read_rows(text, *layouts, checks=()):
    """``ingest.read_table``'s result read one line at a time (blank and ``#`` lines
    skipped), a row's field count picking its layout.  The checks run on the columns of
    the rows before the first line a converter refuses: the error names the first faulty
    line, and within a line a converter's fault before a check's."""
    widest = max(layouts, key=len)
    by_count = {len(layout): ([str.encode if c is str else c for c in layout],
                              tuple(b"" if c is str else 0 for c in widest[len(layout):]))
                for layout in layouts}
    values, fault = [[] for _ in range(len(widest) + 1)], None  # field counts, then columns
    for lineno, line in data_lines(text):
        fields = line.split()
        try:
            if len(fields) not in by_count:
                expected = " or ".join(str(n) for n in sorted(by_count))
                raise ValueError(f"expected {expected} fields, got {len(fields)}")
            layout, pad = by_count[len(fields)]
            row = (len(fields), *[c(f) for c, f in zip(layout, fields)], *pad)
        except ValueError as exc:
            fault = f"line {lineno}: {exc}"
            break
        for column, value in zip(values, row):
            column.append(value)
    # text as bytes objects while the checks run, so that they see a trailing NUL
    count = np.array(values.pop(0), dtype=np.int64)
    columns = [np.array(values.pop(0), dtype=object if c is str else None) for c in widest]
    failed = [(bad[0], k) for k, (holds, _) in enumerate(checks)
              if (bad := np.flatnonzero(np.logical_not(holds(*columns)))).size]
    if failed:
        i, k = min(failed)
        lineno = list(data_lines(text))[i][0]
        fault = f"line {lineno}: {checks[k][1](*[column[i : i + 1].item() for column in columns])}"
    if fault:
        raise ParseError(fault)
    return count, [column.astype(bytes) if c is str else column for c, column in
                   zip(widest, columns[: count.max(initial=0) or len(widest)])]


def read_first_row_format(text, *layouts):
    """``read_rows`` of a file of one of several formats (layouts), the first data row's
    field count picking the one every row has, as ``eval`` reads a series."""
    width = len(next(data_lines(text), (0, ""))[1].split())
    return read_rows(text, *([layout for layout in layouts if len(layout) == width]
                             or layouts))


_FORMATS = {
    0xA1B2C3D4: ("<", "microsecond", 10**6),
    0xD4C3B2A1: (">", "microsecond", 10**6),
    0xA1B23C4D: ("<", "nanosecond", 10**9),
    0x4D3CB2A1: (">", "nanosecond", 10**9),
}


def parse_capture(data):
    """Probe-request events of a classic capture, decoded record by record."""
    if len(data) < 24:
        raise ParseError("malformed capture header: shorter than 24 bytes")
    magic = struct.unpack_from("<I", data, 0)[0]
    if magic not in _FORMATS:
        raise ParseError(f"malformed capture header: unrecognized magic 0x{magic:08x}")
    bo, unit, per_second = _FORMATS[magic]
    linktype = struct.unpack_from(bo + "I", data, 20)[0]
    if linktype not in (105, 127):
        raise ParseError(f"unsupported link type {linktype}")

    record = struct.Struct(bo + "IIII")
    events = []
    late = None  # the first probe request whose nanosecond time rounds to 2**32 s
    offset = 24
    while offset < len(data):
        if offset + 16 > len(data):
            raise ParseError(f"truncated packet record header at byte offset {offset}")
        ts_sec, fraction, incl_len, _orig_len = record.unpack_from(data, offset)
        if fraction >= per_second:
            raise ParseError(f"{unit} field {fraction} out of range at byte offset {offset}")
        if offset + 16 + incl_len > len(data):
            raise ParseError(f"truncated packet record at byte offset {offset}")
        frame = data[offset + 16 : offset + 16 + incl_len]
        start, offset = offset, offset + 16 + incl_len
        mac = _probe_request(frame, linktype)
        if mac is None:
            continue
        if per_second == 10**6:
            timestamp = round(ts_sec + fraction / 1e6, 6)
        else:
            timestamp = (ts_sec * 10**6 + round(fraction / 1000)) / 10**6
        if timestamp >= 2**32:
            late = start if late is None else late
        else:
            events.append(Event(timestamp, mac))
    # named only once every record header has been checked
    if late is not None:
        raise ParseError(f"timestamp rounds to 2**32 s at byte offset {late}")
    events.sort(key=lambda e: e.t)
    return events


def record_offsets(data, bo, unit, per_second):
    """Byte offset of every packet record, each header checked as it is reached."""
    fraction_and_length = struct.Struct(bo + "4xII").unpack_from
    offsets = []
    offset, end = 24, len(data)
    while offset + 16 <= end:
        fraction, incl_len = fraction_and_length(data, offset)
        if fraction >= per_second:
            raise ParseError(f"{unit} field {fraction} out of range at byte offset {offset}")
        if offset + 16 + incl_len > end:
            raise ParseError(f"truncated packet record at byte offset {offset}")
        offsets.append(offset)
        offset += 16 + incl_len
    if offset < end:
        raise ParseError(f"truncated packet record header at byte offset {offset}")
    return offsets


def _probe_request(frame, linktype):
    """The source MAC of a probe request, the body after its radiotap header; else None."""
    if linktype == 127:
        if len(frame) < 8:
            return None
        rt_len = struct.unpack_from("<H", frame, 2)[0]
        if rt_len < 8 or rt_len > len(frame):
            return None
        frame = frame[rt_len:]
    if len(frame) < 16:
        return None
    if frame[0] != 0x40:
        return None
    return int.from_bytes(frame[10:16], "big")


def aggregate(events, gap):
    """Bursts of time-sorted events, grouped event by event, as
    (mac value, probing instant) in (instant, mac) order."""
    open_bursts = {}  # mac -> [start, last_timestamp]
    out = []
    for event in events:
        mac = event.mac
        cur = open_bursts.get(mac)
        if cur is not None and event.t - cur[1] <= gap:
            cur[1] = event.t
        else:
            if cur is not None:
                out.append((mac, cur[0]))
            open_bursts[mac] = [event.t, event.t]
    for mac, cur in open_bursts.items():
        out.append((mac, cur[0]))
    out.sort(key=lambda b: (b[1], b[0]))
    return out


def extract_intervals(bursts, cutoff):
    """Kept intervals between each MAC's consecutive bursts, burst by burst;
    ``bursts`` are (mac, probing instant) pairs in burst order."""
    last_seen = {}
    taus = []
    for mac, instant in bursts:
        last = last_seen.get(mac)
        if last is not None and 0 < instant - last <= cutoff:
            taus.append(instant - last)
        last_seen[mac] = instant
    return taus


@dataclass(frozen=True)
class Window:
    start: float
    size: float

    @property
    def end(self):
        return self.start + self.size


@dataclass(frozen=True)
class WindowEstimate:
    window: Window
    burst_count: int
    rate: float
    n_hat: float
    var_lower_bound: float
    nrmse_estimate: float | None


@dataclass(frozen=True)
class PeopleEstimate:
    window: Window
    m_hat: float
    nrmse_estimate: float | None


def grid_start(first, step):
    """The default grid start: the lattice point k*step, k the floor of first/step as
    floats divide, or the point a step before it when the division rounded up past
    ``first``."""
    start = (first / step // 1) * step
    if start > first:
        start -= step
    return start


def window_grid(start, end, size, step):
    """Windows of ``size`` at start + i*step that end by ``end``, one at a time."""
    windows = []
    i = 0
    while start + i * step + size <= end + 1e-9:
        windows.append(Window(start + i * step, size))
        i += 1
    return windows


def _estimate(window, burst_count, model):
    w = window.size
    rate = burst_count / w
    n_hat = burst_count * model.tau_mean / w
    var_lower_bound = burst_count * model.tau_std**2 / w**2
    if burst_count > 0:
        nrmse = model.tau_std / (model.tau_mean * math.sqrt(burst_count))
    else:
        nrmse = None
    return WindowEstimate(window, burst_count, rate, n_hat, var_lower_bound, nrmse)


def sliding_windows(instants, size, step, model, start=None, end=None):
    """Per-window estimates over sorted probing ``instants``, window by window."""
    if start is None:
        start = grid_start(instants[0], step)
    if end is None:
        end = instants[-1] + size
    return [
        _estimate(w, bisect_left(instants, w.end) - bisect_left(instants, w.start), model)
        for w in window_grid(start, end, size, step)
    ]


def format_series(estimates):
    lines = ["# start w B R n_hat var_lower_bound nrmse\n"]
    for e in estimates:
        nrmse = "nan" if e.nrmse_estimate is None else f"{e.nrmse_estimate:.6f}"
        lines.append(
            f"{e.window.start:.6f} {e.window.size:.6f} {e.burst_count} "
            f"{e.rate:.6f} {e.n_hat:.6f} {e.var_lower_bound:.6f} {nrmse}\n"
        )
    return "".join(lines)


def left_sum(values):
    """Floats added one at a time from 0.0, as Python's ``sum`` added them before 3.12
    (whose ``sum`` compensates)."""
    total = 0.0
    for value in values:
        total += value
    return total


def estimate_ratio(device_series, people_series, nrmse_people_ref=0.08):
    """(alpha, nrmse_people_ref, nrmse_device_cal, source_window_span) of
    ``WindowEstimate``s and (start, people) pairs on the same windows."""
    people_total = left_sum(v for _, v in people_series)
    device_total = left_sum(e.n_hat for e in device_series)
    per_window = [e.nrmse_estimate for e in device_series if e.nrmse_estimate is not None]
    nrmse_device_cal = left_sum(per_window) / len(per_window) if per_window else 0.0
    first, last = device_series[0].window, device_series[-1].window
    return (device_total / people_total, nrmse_people_ref, nrmse_device_cal,
            last.end - first.start)


def people_count(estimate, ratio):
    """People count of one window under ``ratio`` (a ``CalibrationRatio``)."""
    if estimate.burst_count == 0:
        return PeopleEstimate(estimate.window, 0.0, None)
    nrmse = math.sqrt(
        ratio.nrmse_people_ref**2
        + ratio.nrmse_device_cal**2
        + (estimate.nrmse_estimate or 0.0) ** 2
    )
    return PeopleEstimate(estimate.window, estimate.n_hat / ratio.alpha, nrmse)


def format_people_series(estimates):
    lines = ["# start w m_hat nrmse\n"]
    for e in estimates:
        nrmse = "nan" if e.nrmse_estimate is None else f"{e.nrmse_estimate:.6f}"
        lines.append(f"{e.window.start:.6f} {e.window.size:.6f} {e.m_hat:.6f} {nrmse}\n")
    return "".join(lines)


def _overlap_total(enter, leave, window):
    if enter.size == 0:
        return 0.0
    overlap = np.minimum(leave, window.end) - np.maximum(enter, window.start)
    return float(np.clip(overlap, 0.0, None).sum())


def ground_truth_series(entities, windows):
    """Exact (device, person) averages of each window, window by window, from
    (entity_id, kind, owner, enter, leave) rows."""
    devices = [e for e in entities if e[1] == "device"]
    persons = [e for e in entities if e[1] == "person"]
    dx = np.array([e[3] for e in devices])
    dy = np.array([e[4] for e in devices])
    px = np.array([e[3] for e in persons])
    py = np.array([e[4] for e in persons])
    return [
        (_overlap_total(dx, dy, w) / w.size, _overlap_total(px, py, w) / w.size)
        for w in windows
    ]


def format_events(events, ap, rssi=None):
    """The event text format, written event by event with ``%``, every line with ap name
    ``ap`` and ``rssi`` (no rssi field for None)."""
    fields = (ap,) if rssi is None else (ap, rssi)
    line = "%.6f %s" + " %s" * len(fields) + "\n"
    return "".join(line % (e.t, mac_text(e.mac), *fields) for e in events)


def probing_instants(dist, start, end, rng, phase_mode="equilibrium", scale=1.0):
    """Renewal probing instants within [start, end), drawn in chunks of 8 or more."""
    if end <= start:
        return np.empty(0)
    if phase_mode == "equilibrium":
        wait = float(equilibrium_residual(dist, rng, 1)[0]) * scale
    else:
        wait = float(dist.sample(rng, 1)[0]) * scale
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


def _poisson_arrivals(rng, rate, horizon):
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


def _draw_mac(rng, randomized):
    """Six random octets, the first made unicast and locally administered when
    randomized, globally administered otherwise."""
    octets = bytearray(int(rng.integers(0, 2**48, dtype=np.uint64)).to_bytes(6, "big"))
    octets[0] = (octets[0] & 0xFC) | (0x02 if randomized else 0x00)
    return int.from_bytes(octets, "big")


def device_instants(dist, start, end, scale, rng, phase_mode="equilibrium"):
    """Every device's renewal probing instants within its [start, end), a list for each
    device, summed one float at a time.  One draw gives every device's first wait, then
    rounds follow: in each, every device still open, in device order, takes 1.25 times
    its expected count plus 8 from one draw, and adds its scaled intervals to a running
    sum from 0; it stays open while all of them fall before its end."""
    if phase_mode == "equilibrium":
        waits = equilibrium_residual(dist, rng, len(start)).tolist()
    else:
        waits = dist.sample(rng, len(start)).tolist()
    instants, last = [[] for _ in start], {}
    for i, wait in enumerate(waits):
        first = start[i] + wait * scale[i]
        if first < end[i]:
            instants[i].append(first)
            last[i] = first
    while last:
        needs = {i: max(8, int((end[i] - t) / (dist.mean() * scale[i]) * 1.25) + 8)
                 for i, t in last.items()}
        draws = iter(dist.sample(rng, sum(needs.values())).tolist())
        still_open = {}
        for i, need in needs.items():
            total, kept = 0.0, 0
            for _ in range(need):
                total += next(draws) * scale[i]
                if total + last[i] < end[i]:
                    instants[i].append(total + last[i])
                    kept += 1
            if kept == need:
                still_open[i] = instants[i][-1]
        last = still_open
    return instants


def simulate(config):
    """Events and ground-truth rows (entity_id, kind, owner, enter, leave) of a
    simulator config, built frame by frame.  Each person draws its device count, then
    each device its interval scale, then every device its instants (``device_instants``);
    then, one by one, each device draws its persistent MAC, each burst its frame count,
    each burst its rotation coin, and each rotated burst a fresh MAC."""
    rng = np.random.default_rng(config.seed)
    spans = [(0.0, round(config.duration, 6))] * config.fixed_persons
    if config.arrival_rate > 0 and config.duration > 0:
        arrivals = _poisson_arrivals(rng, config.arrival_rate, config.duration)
        dwells = config.dwell_dist.sample(rng, arrivals.size)
        for arrive, dwell in zip(arrivals.tolist(), dwells.tolist()):
            spans.append((round(arrive, 6), round(arrive + dwell, 6)))
    present = [(f"p{i}", enter, leave) for i, (enter, leave) in enumerate(spans)
               if leave > enter]
    per_person = config.devices_per_person_dist
    n_devices = [int(rng.poisson(per_person.mean_value)) if isinstance(per_person, PoissonCount)
                 else per_person.value for _ in present]
    entities, starts, ends = [], [], []
    for (person_id, enter, leave), n in zip(present, n_devices):
        entities.append((person_id, "person", "-", enter, leave))
        for _ in range(n):
            entities.append((f"d{len(starts)}", "device", person_id, enter, leave))
            starts.append(enter)
            ends.append(leave)
    sigma = config.interval_scale_sigma
    scales = [float(rng.lognormal(-0.5 * sigma * sigma, sigma)) if sigma > 0 else 1.0
              for _ in starts]
    instants_of = device_instants(config.interval_dist, starts, ends, scales, rng,
                                  config.phase_mode)
    persistent = [_draw_mac(rng, randomized=False) for _ in instants_of]
    bursts = [(instant, mac) for instants, mac in zip(instants_of, persistent)
              for instant in instants]
    lo, hi = config.frames_per_burst
    n_frames = [int(rng.integers(lo, hi + 1)) for _ in bursts]
    rotated = [rng.random() < config.rotation_prob for _ in bursts]
    events = []
    for (instant, mac), n, rotate in zip(bursts, n_frames, rotated):
        if rotate:
            mac = _draw_mac(rng, randomized=True)
        offsets = [0.0] if n == 1 else np.linspace(0.0, config.burst_duration, n).tolist()
        for off in offsets:
            events.append(Event(round(instant + off, 6), mac))
    events.sort(key=lambda e: (e.t, e.mac))
    return events, entities


# ---------------------------------------------------------------- lexsort grouping


def aggregate_lexsort(events, gap):
    """Burst columns (instant, mac) of ``Events``, grouped by one lexsort by
    (mac, time) and put in (instant, mac) order by another."""
    order = np.lexsort((events.t, events.mac))
    t, mac = events.t[order], events.mac[order]
    starts = np.ones(t.shape, dtype=bool)
    starts[1:] = (mac[1:] != mac[:-1]) | ~(np.diff(t) <= gap)
    first = np.flatnonzero(starts)
    first = first[np.lexsort((mac[first], t[first]))]
    return t[first], mac[first]


def extract_intervals_stable(instant, mac, cutoff):
    """Kept intervals of bursts in instant order, grouped by a stable argsort of the
    MACs and put back in burst order by an argsort of the later bursts."""
    by_mac = np.argsort(mac, kind="stable")
    earlier, later = by_mac[:-1], by_mac[1:]
    tau = instant[later] - instant[earlier]
    keep = (mac[later] == mac[earlier]) & (tau > 0) & (tau <= cutoff)
    return tau[keep][np.argsort(later[keep])]


def distinct_counts_stable(mac, lo, hi):
    """Distinct values of ``mac[lo[w]:hi[w]]`` for each w, each event's previous
    event of its MAC found by a stable argsort."""
    index = np.arange(mac.size)
    by_mac = np.argsort(mac, kind="stable")
    repeat = mac[by_mac[1:]] == mac[by_mac[:-1]]
    prev = np.full(mac.size, -1)
    prev[by_mac[1:][repeat]] = by_mac[:-1][repeat]
    begin = np.maximum(np.searchsorted(lo, prev, side="right"),
                       np.searchsorted(hi, index, side="right"))
    stop = np.searchsorted(lo, index, side="right")
    run = begin < stop
    edges = np.bincount(begin[run], minlength=lo.size + 1)
    edges -= np.bincount(stop[run], minlength=lo.size + 1)
    return np.cumsum(edges)[: lo.size]
