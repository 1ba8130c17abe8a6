"""Smoke test of the benchmark harness at a tiny input size.

    python3 bench/smoke.py

Runs every workload twice untraced and once traced with ``--tiny`` inputs, each
run in a fresh process, and checks that:

* every end-to-end metric of the workload and every per-layer metric is
  reported with its unit, and BENCHMARK.json lists the same names, units and
  bounds as the harness;
* every run is correct, with ``error_rate`` 0;
* ``count_nrmse`` of the second run equals the first run's exactly;
* the layers a workload exercises report self time, and the layers' self
  times account for the traced pipeline time.

It is a script rather than a pytest module so that the repository's test run
stays fast.  Exits 1 and lists the failures when a check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

from spans import LAYERS, PER_LAYER
from workloads import CONTRACT_E2E, E2E_METRICS, ROOT, WORKLOADS

RESULTS = ROOT / ".bench_work" / "results.jsonl"
SEED = 3

# The CLI commands each workload times on its own, besides the whole pipeline.
COMMAND_METRICS = {
    "capture_fit_count": ("cmd_fit_s", "cmd_count_s"),
    "events_mac_baseline": ("cmd_baseline_s", "cmd_count_s"),
    "simulate_validate": ("cmd_simulate_s", "cmd_count_s"),
}
# Layers that must report self time, by workload; together they cover all eight.
BUSY_LAYERS = {
    "capture_fit_count": ("ingest", "bursts", "intervals", "counting", "cli"),
    "events_mac_baseline": ("ingest", "bursts", "counting", "cli"),
    "simulate_validate": LAYERS,
}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    """One tiny run; returns its JSON line and its full record."""
    offset = RESULTS.stat().st_size if RESULTS.exists() else 0
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    with open(RESULTS, encoding="ascii") as fh:
        fh.seek(offset)
        record = json.loads(fh.readline())
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def check_benchmark_json(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    if e2e != {name: E2E_METRICS[name] for name in CONTRACT_E2E}:
        failures.append(f"BENCHMARK.json end_to_end {e2e} differs from the harness")
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if per_layer != PER_LAYER:
        failures.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_workload(name: str, failures: list[str]) -> None:
    def fail(message: str) -> None:
        failures.append(f"{name}: {message}")

    first, record = run(name, 0)
    _, again = run(name, 0)
    traced, _ = run(name, 1)
    for line, mode in ((first, "untraced"), (traced, "traced")):
        if not line["correct"] or line["failed"]:
            fail(f"{mode} run failed {line['failed']} of {line['attempted']} operations")

    expected = {*CONTRACT_E2E, "pipeline_s", "setup_wall_s", "yardstick_s", "error_rate",
                "count_nrmse", *COMMAND_METRICS[name]}
    missing = expected - record["metrics"].keys()
    if missing:
        fail(f"end-to-end metrics missing: {sorted(missing)}")
    for metric, entry in first["metrics"].items():
        if entry["unit"] != E2E_METRICS[metric][0]:
            fail(f"{metric} has unit {entry['unit']}")
    if record["metrics"].get("error_rate") != 0:
        fail(f"error_rate is {record['metrics'].get('error_rate')}")
    nrmse = (record["metrics"].get("count_nrmse"), again["metrics"].get("count_nrmse"))
    if nrmse[0] is None or nrmse[0] != nrmse[1]:
        fail(f"count_nrmse does not repeat exactly: {nrmse}")

    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    units = {k: v["unit"] for k, v in traced["metrics"].items()}
    if units != {k: unit for k, (unit, _) in PER_LAYER.items()}:
        fail(f"per-layer metrics or units differ: {sorted(set(units) ^ set(PER_LAYER))}")
    idle = [ly for ly in BUSY_LAYERS[name] if not layer.get(f"{ly}.self_s", 0) > 0]
    if idle:
        fail(f"no self time in layers {idle}")
    if not layer.get("trace.accounted_frac", 0) > 0.98:
        fail(f"layer self times cover {layer.get('trace.accounted_frac')} of the pipeline")


def main() -> int:
    failures: list[str] = []
    check_benchmark_json(failures)
    for name in WORKLOADS:
        check_workload(name, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
