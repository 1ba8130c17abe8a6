"""Span tracer for the benchmark's traced runs.

The tracer wraps, from outside the package, the library functions the CLI
calls in each probecount module (one module = one layer).  A wrapped call
records a span (rep, id, parent, layer, name, start, end) in memory and adds
work counts measured at the same boundary.  A layer's self time is the time
of its spans minus the time of their child spans; the CLI command spans are
the children of one ``bench.pipeline`` span per repetition, so the layers'
self times add up to the traced pipeline time.

Functions the layers call internally are not wrapped, so tracing costs a
fixed amount per CLI-level call rather than per event.  Nothing is wrapped
outside ``installed()``, so untraced repetitions run the package as is.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import pathlib
import struct
import time
from collections import Counter, defaultdict

LAYERS = ("ingest", "bursts", "intervals", "counting", "simulate", "calibration", "metrics",
          "cli")

# The library functions the CLI calls, by layer.
TRACED = {
    "ingest": ("parse_capture", "parse_events", "format_events"),
    "bursts": ("aggregate",),
    "intervals": ("extract_intervals", "fit", "format_model", "parse_model"),
    "counting": ("sliding_windows", "mac_count_series", "format_series", "parse_series"),
    "simulate": ("parse_config", "simulate", "format_trace", "parse_trace",
                 "ground_truth_series"),
    "calibration": ("parse_reference_series", "estimate_ratio", "format_ratio", "parse_ratio",
                    "people_count", "format_people_series", "format_reference_series"),
    "metrics": ("rmse", "mape", "nrmse"),
}

# Per-function self-time metrics: name -> (layer, functions).
FUNCTION_TIMES = {
    "ingest.parse_capture_s": ("ingest", ("parse_capture",)),
    "ingest.parse_events_s": ("ingest", ("parse_events",)),
    "ingest.format_events_s": ("ingest", ("format_events",)),
    "bursts.aggregate_s": ("bursts", ("aggregate",)),
    "intervals.extract_s": ("intervals", ("extract_intervals",)),
    "intervals.fit_s": ("intervals", ("fit",)),
    "counting.sliding_windows_s": ("counting", ("sliding_windows",)),
    "counting.format_series_s": ("counting", ("format_series",)),
    "counting.mac_count_series_s": ("counting", ("mac_count_series",)),
    "simulate.simulate_s": ("simulate", ("simulate",)),
    "simulate.format_trace_s": ("simulate", ("format_trace",)),
    "simulate.parse_trace_s": ("simulate", ("parse_trace",)),
    "simulate.ground_truth_series_s": ("simulate", ("ground_truth_series",)),
    "calibration.estimate_ratio_s": ("calibration", ("estimate_ratio",)),
    "calibration.people_count_s": ("calibration", ("people_count",)),
    "metrics.eval_s": ("metrics", ("rmse", "mape", "nrmse")),
}

COUNTS = (
    "ingest.frames_in", "ingest.frames_skipped", "ingest.events_out",
    "bursts.events_in", "bursts.bursts_out",
    "intervals.samples_kept",
    "counting.windows", "counting.empty_windows",
    "simulate.events_out", "simulate.devices", "simulate.persons", "simulate.truth_windows",
    "cli.bytes_read", "cli.bytes_written",
    *(f"{layer}.errors" for layer in LAYERS),
)

# Every per-layer metric a traced run reports: name -> (unit, better).  Work
# counts are facts of the workload's input and repeat exactly; "higher" marks
# work done, "lower" work wasted or failed.
PER_LAYER = {
    **{name: ("s", "lower") for name in FUNCTION_TIMES},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{name: ("count", "lower" if name.endswith(("errors", "skipped", "empty_windows", "bytes_read",
                                                  "bytes_written")) else "higher")
       for name in COUNTS},
    "ingest.probe_ratio": ("ratio", "higher"),
    "ingest.events_per_s": ("1/s", "higher"),
    "bursts.frames_per_burst": ("ratio", "higher"),
    "bursts.events_per_s": ("1/s", "higher"),
    "intervals.kept_ratio": ("ratio", "higher"),
    "trace.pipeline_s": ("s", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def capture_records(data: bytes) -> int:
    """Number of packet records in a classic capture file."""
    if len(data) < 24:
        return 0
    bo = ">" if data[:4] == b"\xa1\xb2\xc3\xd4" else "<"
    length = struct.Struct(bo + "I")
    n, offset = 0, 24
    while offset + 16 <= len(data):
        offset += 16 + length.unpack_from(data, offset + 8)[0]
        n += 1
    return n


def _hooks():
    """Work counters, by (layer, function): hook(tracer, args, result)."""

    def parse_capture(tr, args, result):
        tr.captures.append(args[0])  # records are counted after the repetition
        tr.counts["ingest.events_out"] += len(result)
        tr.counts["ingest.capture_events"] += len(result)

    def parse_events(tr, args, result):
        tr.counts["ingest.events_out"] += len(result)

    def aggregate(tr, args, result):
        tr.counts["bursts.events_in"] += len(args[0])
        tr.counts["bursts.bursts_out"] += len(result)

    def extract_intervals(tr, args, result):
        tr.counts["intervals.bursts_in"] += len(args[0])
        tr.counts["intervals.samples_kept"] += len(result)

    def sliding_windows(tr, args, result):
        tr.counts["counting.windows"] += len(result)
        tr.counts["counting.empty_windows"] += sum(1 for e in result if e.burst_count == 0)

    def mac_count_series(tr, args, result):
        tr.counts["counting.windows"] += len(result)
        tr.counts["counting.empty_windows"] += sum(1 for _, n in result if n == 0)

    def simulate(tr, args, result):
        events, trace = result
        kinds = Counter(e.kind for e in trace.entities)
        tr.counts["simulate.events_out"] += len(events)
        tr.counts["simulate.devices"] += kinds["device"]
        tr.counts["simulate.persons"] += kinds["person"]

    def ground_truth_series(tr, args, result):
        tr.counts["simulate.truth_windows"] += len(args[1])

    return {
        ("ingest", "parse_capture"): parse_capture,
        ("ingest", "parse_events"): parse_events,
        ("bursts", "aggregate"): aggregate,
        ("intervals", "extract_intervals"): extract_intervals,
        ("counting", "sliding_windows"): sliding_windows,
        ("counting", "mac_count_series"): mac_count_series,
        ("simulate", "simulate"): simulate,
        ("simulate", "ground_truth_series"): ground_truth_series,
    }


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, str, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.captures: list[bytes] = []
        self.rep = 0
        self._stack: list[int] = [0]
        self._next_id = 1

    # -- span recording --------------------------------------------------

    def begin(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id, time.perf_counter_ns()

    def end(self, token: tuple[int, int], layer: str, name: str) -> None:
        end = time.perf_counter_ns()
        span_id, start = token
        self._stack.pop()
        self.spans.append((self.rep, span_id, self._stack[-1], layer, name, start, end))

    def _wrap(self, layer: str, name: str, func, hook):
        def traced(*args, **kwargs):
            token = self.begin()
            try:
                result = func(*args, **kwargs)
            except Exception:
                self.end(token, layer, name)
                self.counts[f"{layer}.errors"] += 1
                raise
            self.end(token, layer, name)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions (and count CLI file I/O) inside the block."""
        cli = importlib.import_module("probecount.cli")
        hooks = _hooks()
        patches = []
        for layer, names in TRACED.items():
            module = importlib.import_module(f"probecount.{layer}")
            for name in names:
                func = getattr(module, name)
                wrapped = self._wrap(layer, name, func, hooks.get((layer, name)))
                patches.append((module, name, func, wrapped))
                # the CLI imports some functions by name
                if getattr(cli, name, None) is func:
                    patches.append((cli, name, func, wrapped))
        for name, counter in (("read_bytes", "cli.bytes_read"), ("read_text", "cli.bytes_read"),
                              ("write_text", "cli.bytes_written")):
            func = getattr(pathlib.Path, name)
            patches.append((pathlib.Path, name, func, self._count_io(func, counter)))
        for owner, name, _, wrapped in patches:
            setattr(owner, name, wrapped)
        try:
            yield self
        finally:
            for owner, name, func, _ in patches:
                setattr(owner, name, func)

    def _count_io(self, func, counter: str):
        def counted(path, *args, **kwargs):
            result = func(path, *args, **kwargs)
            self.counts[counter] += path.stat().st_size
            return result

        return counted

    # -- results ---------------------------------------------------------

    def start_rep(self, rep: int) -> None:
        self.rep = rep
        self.counts = Counter()

    def finish_rep(self) -> tuple[dict[str, float], Counter]:
        """Per-layer metrics and raw counts of the current repetition.

        Capture records are counted here, outside the repetition's spans.
        """
        for data in self.captures:
            self.counts["ingest.frames_in"] += capture_records(data)
        self.captures.clear()
        return self._rep_metrics(self.rep, self.counts), self.counts

    def _rep_metrics(self, rep: int, counts: Counter) -> dict[str, float]:
        spans = [s for s in self.spans if s[0] == rep]
        child_ns: defaultdict[int, int] = defaultdict(int)
        for _, _, parent, _, _, start, end in spans:
            child_ns[parent] += end - start
        self_by_fn: defaultdict[tuple[str, str], float] = defaultdict(float)
        pipeline_s = 0.0
        for _, span_id, _, layer, name, start, end in spans:
            self_by_fn[(layer, name)] += (end - start - child_ns[span_id]) / 1e9
            if layer == "bench":
                pipeline_s += (end - start) / 1e9

        out: dict[str, float] = {}
        for metric, (layer, names) in FUNCTION_TIMES.items():
            out[metric] = sum(self_by_fn[(layer, n)] for n in names)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for (ly, _), v in self_by_fn.items() if ly == layer)
        for name in COUNTS:
            out[name] = float(counts[name])
        out["ingest.frames_skipped"] = float(
            counts["ingest.frames_in"] - counts["ingest.capture_events"])
        out["ingest.probe_ratio"] = _ratio(counts["ingest.capture_events"],
                                           counts["ingest.frames_in"])
        out["ingest.events_per_s"] = _ratio(
            counts["ingest.events_out"],
            out["ingest.parse_capture_s"] + out["ingest.parse_events_s"])
        out["bursts.frames_per_burst"] = _ratio(counts["bursts.events_in"],
                                                counts["bursts.bursts_out"])
        out["bursts.events_per_s"] = _ratio(counts["bursts.events_in"], out["bursts.aggregate_s"])
        out["intervals.kept_ratio"] = _ratio(counts["intervals.samples_kept"],
                                             counts["intervals.bursts_in"])
        out["trace.pipeline_s"] = pipeline_s
        out["trace.accounted_frac"] = _ratio(sum(out[f"{ly}.self_s"] for ly in LAYERS),
                                             pipeline_s)
        return out

    def write(self, path: pathlib.Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("rep", "id", "parent", "layer", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
