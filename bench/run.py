"""Benchmark of the probecount CLI pipeline, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; probecount is imported from its ``src``.
One run:

1. sets up the workload's inputs from the seed ``SETUP_REPEATS`` times, each
   in a fresh process (``inputs.py``), and reports the median of the set-up
   times scaled to a reference host speed as ``setup_s`` (``yardstick.py``)
   and the median of the raw wall times as ``setup_wall_s``;
2. runs one repetition of the workload's CLI sequence through
   ``probecount.cli.main`` and checks every output against references computed
   with numpy from the generated data (``checks.py``);
3. repeats the sequence, one command after the other, until ``--seconds``
   have passed; every repetition must reproduce the first one's outputs byte
   for byte.  With ``--trace 1`` untraced and traced repetitions alternate,
   and the traced ones report per-layer metrics (``spans.py``).

The run prints every metric by name and unit, then, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The full record, with provenance, is appended to
``.bench_work/results.jsonl`` for ``compare.py``; a traced run also writes its
spans to ``.bench_work/spans/``.  A CLI call that exits non-zero or whose
output fails a check counts as a failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import yardstick
from spans import PER_LAYER, Tracer
from workloads import (CONTRACT_E2E, E2E_METRICS, FILES, ROOT, SETUP_REPEATS, WORK_DIR,
                       WORKLOADS, Command, Workload, import_probecount)

BENCH_DIR = Path(__file__).resolve().parent
RESULTS = WORK_DIR / "results.jsonl"
SETUP_TIMEOUT_S = 150
# per-command timings reported as end-to-end metrics, by command label
COMMAND_METRICS = {"fit": "cmd_fit_s", "count": "cmd_count_s", "baseline": "cmd_baseline_s",
                   "simulate": "cmd_simulate_s"}


class SetupError(RuntimeError):
    pass


@dataclass
class Rep:
    wall: float
    durations: dict[str, float]
    exit_codes: dict[str, int]
    stdout: dict[str, str]
    stderr: dict[str, str]


class Client:
    """One closed-loop client: issues each command after the previous returns."""

    def __init__(self, cli, commands: list[Command]) -> None:
        self.cli = cli
        self.commands = commands

    def run_rep(self, tracer=None) -> Rep:
        rep = Rep(0.0, {}, {}, {}, {})
        start = time.perf_counter()
        root = tracer.begin() if tracer else None
        for cmd in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                rep.exit_codes[cmd.label] = self._call(cmd, tracer)
                rep.durations[cmd.label] = time.perf_counter() - t0
            rep.stdout[cmd.label] = out.getvalue()
            rep.stderr[cmd.label] = err.getvalue()
        if tracer:
            tracer.end(root, "bench", "pipeline")
        rep.wall = time.perf_counter() - start
        return rep

    def _call(self, cmd: Command, tracer) -> int:
        token = tracer.begin() if tracer else None
        try:
            code = self.cli.main(list(cmd.argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a crash is one failed operation
            traceback.print_exc()
            code = -1
        if tracer:
            tracer.end(token, "cli", cmd.label)
            tracer.counts["cli.errors"] += code != 0
        return code

    def digests(self, rep: Rep) -> dict[str, str]:
        """A fingerprint of each command's output files and standard output."""
        out = {}
        for cmd in self.commands:
            h = hashlib.blake2b(rep.stdout[cmd.label].encode())
            for path in cmd.outputs:
                try:
                    h.update(Path(path).read_bytes())
                except OSError:
                    h.update(b"\0missing")
            out[cmd.label] = h.hexdigest()
        return out


class Tally:
    """Attempted and failed operations of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._reported = 0

    def add(self, rep: Rep, mismatches: dict[str, list[str]]) -> None:
        for label, code in rep.exit_codes.items():
            self.attempted += 1
            problems = list(mismatches.get(label, []))
            if code != 0:
                problems.insert(0, f"exit code {code}: {rep.stderr[label].strip()}")
            if problems:
                self.failed += 1
                self.report(label, problems)

    def report(self, label: str, problems: list[str]) -> None:
        if self._reported < 20:
            self._reported += 1
            print(f"FAILED {label}: " + "; ".join(problems[:4]), file=sys.stderr)


def set_up(wl: Workload, seed: int, work: Path,
           tiny: bool) -> tuple[list[float], list[float], dict]:
    """Generate the inputs SETUP_REPEATS times in fresh processes.

    Returns the set-up times, the yardstick timings around them and the
    inputs' metadata.
    """
    cmd = [sys.executable, str(BENCH_DIR / "inputs.py"), "--workload", wl.name,
           "--seed", str(seed), "--out", str(work)] + (["--tiny"] if tiny else [])
    yardstick.time_once()  # warm-up
    times, yard, fingerprints = [], [yardstick.time_once()], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              cwd=ROOT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
        h = hashlib.blake2b()
        for path in sorted(work.iterdir()):
            h.update(path.name.encode() + path.read_bytes())
        fingerprints.add(h.hexdigest())
        yard.append(yardstick.time_once())
    if len(fingerprints) != 1:
        raise SetupError("set-up wrote different inputs from the same seed")
    return times, yard, json.loads((work / FILES["meta"]).read_text(encoding="ascii"))


def median(values) -> float:
    return float(statistics.median(values))


def provenance(seed: int, sizes: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "probecount").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "sizes": sizes,
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Set up, check and measure one workload; returns the run's record."""
    cli = importlib.import_module("probecount.cli")
    work = WORK_DIR / f"{wl.name}-seed{seed}-pid{os.getpid()}"
    try:
        setup_times, setup_yard, meta = set_up(wl, seed, work, tiny)
        arrays_path = work / FILES["arrays"]
        arrays = dict(np.load(arrays_path)) if arrays_path.exists() else {}
        client = Client(cli, wl.commands(work, tiny))
        tally = Tally()

        first = client.run_rep()
        mismatches, info = checks.check_outputs(wl, work, arrays, meta, first.stdout, tiny)
        tally.add(first, mismatches)
        expected = client.digests(first)

        def measured(tracer=None) -> Rep:
            with tracer.installed() if tracer else contextlib.nullcontext():
                rep = client.run_rep(tracer)
            got = client.digests(rep)
            tally.add(rep, {label: ["output differs from the first repetition"]
                            for label in got if got[label] != expected[label]})
            return rep

        record = {"workload": wl.name, "seed": seed, "trace": int(trace), "seconds": seconds,
                  "tiny": tiny}
        deadline = time.perf_counter() + seconds
        if trace:
            metrics, samples = measure_traced(measured, deadline, info, tally, wl, seed)
        else:
            metrics, samples = measure_untraced(measured, deadline)
            samples["setup_s"] = [r * yardstick.REFERENCE_S
                                  for r in yardstick.relative(setup_times, setup_yard)]
            samples["setup_wall_s"] = setup_times
            metrics["setup_s"] = median(samples["setup_s"])
            metrics["setup_wall_s"] = median(setup_times)
            metrics["error_rate"] = tally.failed / tally.attempted
            nrmse = info["count_nrmse"]
            metrics["count_nrmse"] = None if math.isnan(nrmse) else nrmse
        record.update(
            correct=tally.failed == 0, attempted=tally.attempted, failed=tally.failed,
            metrics=metrics, samples=samples, provenance=provenance(seed, info["sizes"]))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_untraced(measured, deadline: float) -> tuple[dict, dict]:
    """Repetitions, each between two timings of the yardstick task."""
    yardstick.time_once()  # warm-up
    reps, yard = [], [yardstick.time_once()]
    while not reps or time.perf_counter() < deadline:
        reps.append(measured())
        yard.append(yardstick.time_once())
    samples = {"pipeline_s": [r.wall for r in reps],
               "pipeline_rel": yardstick.relative([r.wall for r in reps], yard),
               "yardstick_s": yard}
    for label, name in COMMAND_METRICS.items():
        if label in reps[0].durations:
            samples[name] = [r.durations[label] for r in reps]
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, samples


def measure_traced(measured, deadline: float, info: dict, tally: Tally, wl: Workload,
                   seed: int) -> tuple[dict, dict]:
    """Alternate untraced and traced repetitions; per-layer metrics from the traced."""
    tracer = Tracer()
    untraced, traced, rows = [], [], []
    i = 0
    while not (untraced and traced) or time.perf_counter() < deadline:
        if i % 2 == 0:
            untraced.append(measured().wall)
        else:
            tracer.start_rep(i)
            traced.append(measured(tracer).wall)
            row, counts = tracer.finish_rep()
            wrong = {k: (counts[k], v) for k, v in info["expected_counts"].items()
                     if counts[k] != v}
            if wrong:
                tally.failed += 1
                tally.report("trace", [f"{k}: counted {got}, reference {want}"
                                       for k, (got, want) in wrong.items()])
            rows.append(row)
        i += 1
    tracer.write(WORK_DIR / "spans" / f"{wl.name}-seed{seed}.jsonl")
    metrics = {name: median(row[name] for row in rows) for name in PER_LAYER
               if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = median(traced) / median(untraced) - 1
    return metrics, {"untraced_pipeline_s": untraced, "traced_pipeline_s": traced}


def print_record(record: dict) -> None:
    """Every metric by name and unit, then the contract's JSON line."""
    units = {name: spec[0] for name, spec in (E2E_METRICS | PER_LAYER).items()}
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    samples = record["samples"]
    for name, value in record["metrics"].items():
        n = len(samples.get(name) or samples.get("traced_pipeline_s") or [value])
        shown = "n/a" if value is None else f"{value:.6f}"
        print(f"{name:34s} {shown:>14s} {units[name]:6s} n={n}")
    names = PER_LAYER if record["trace"] else CONTRACT_E2E
    line = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": units[name]}
                    for name in names},
    }
    print(json.dumps(line))


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        sys.stdout.flush()
        status = status or subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness's smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_probecount()
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     args.tiny)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    WORK_DIR.mkdir(exist_ok=True)
    with open(RESULTS, "a", encoding="ascii") as fh:
        fh.write(json.dumps(record) + "\n")
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
