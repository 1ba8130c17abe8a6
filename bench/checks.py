"""Correctness checks of one repetition's CLI outputs against numpy references.

``check_outputs`` compares every output of a workload's first repetition with
values computed by ``reference`` from the generated arrays (or, for
``simulate_validate``, from the files the CLI's ``simulate`` wrote).  Later
repetitions must reproduce those outputs byte for byte (see run.py).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference as ref
from workloads import (CUTOFF, FILES, GAP, KNOWN_TAU_MEAN, WINDOW, Workload)

# Series files print values with six decimals.
PRINT_TOL = 2e-6


class Checker:
    """Collects mismatches per command label."""

    def __init__(self) -> None:
        self.errors: dict[str, list[str]] = {}

    def fail(self, label: str, message: str) -> None:
        self.errors.setdefault(label, []).append(message)

    def equal(self, label: str, what: str, got, want) -> bool:
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape or not np.array_equal(got, want):
            self.fail(label, f"{what}: got {_head(got)}, want {_head(want)}")
            return False
        return True

    def close(self, label: str, what: str, got, want, *, abs_tol=PRINT_TOL,
              rel_tol=1e-9) -> bool:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.allclose(got, want, rtol=rel_tol, atol=abs_tol):
            self.fail(label, f"{what}: got {_head(got)}, want {_head(want)}")
            return False
        return True


def _head(a: np.ndarray) -> str:
    flat = a.ravel()
    text = np.array2string(flat[:6], precision=6)
    return f"{text}{'...' if flat.size > 6 else ''} (shape {a.shape})"


def _read(c: Checker, label: str, path: Path, ncols: int) -> np.ndarray | None:
    try:
        return ref.read_columns(path, ncols)
    except (OSError, ValueError) as exc:
        c.fail(label, f"cannot read {path.name}: {exc}")
        return None


def _check_series(c: Checker, label: str, series: np.ndarray, starts: np.ndarray,
                  instants: np.ndarray, tau_mean: float) -> None:
    """A count series: window grid, burst counts B and n_hat = B * tau_mean / w."""
    if not c.close(label, "window starts", series[:, 0], starts):
        return
    c.close(label, "window sizes", series[:, 1], np.full(starts.size, WINDOW))
    b = ref.counts_in_windows(instants, starts, WINDOW)
    c.equal(label, "burst counts B", series[:, 2].astype(np.int64), b)
    c.close(label, "n_hat", series[:, 4], b * tau_mean / WINDOW)


def check_outputs(wl: Workload, d: Path, arrays: dict, meta: dict, stdout: dict[str, str],
                  tiny: bool) -> tuple[dict[str, list[str]], dict]:
    """Check one repetition's outputs.

    Returns the mismatches per command label and facts about the run:
    ``count_nrmse``, the input sizes, and the work counts a traced
    repetition must reproduce.
    """
    c = Checker()
    g = wl.window_grid(tiny)
    f = {k: d / v for k, v in FILES.items()}
    info: dict = {"sizes": {k: meta[k] for k in ("frames", "bytes") if k in meta},
                  "expected_counts": {}, "count_nrmse": math.nan}
    starts = ref.window_starts(g.start, g.end, WINDOW, g.step)

    if wl.name == "simulate_validate":
        arrays = _check_simulate(c, f, stdout.get("simulate", ""))
        if arrays is None:
            return c.errors, info
        info["sizes"].update(frames=int(arrays["t"].size),
                             bytes=f["sim_events"].stat().st_size)
    t, mac = arrays["t"], arrays["mac"]
    instants, burst_mac = ref.bursts(t, mac, GAP)
    device_avg = ref.window_average(arrays["device_enter"], arrays["device_leave"], starts,
                                    WINDOW)
    info["sizes"].update(bursts=int(instants.size), windows=int(starts.size),
                         entities=int(arrays["device_enter"].size
                                      + arrays["person_enter"].size))
    expected = info["expected_counts"]
    series = _read(c, "count", f["series"], 7)

    if wl.name == "capture_fit_count":
        taus = ref.intervals(instants, burst_mac, CUTOFF)
        try:
            model = ref.read_key_values(f["fitted_model"])
            tau_mean = float(model["tau_mean"])
            c.equal("fit", "sample_count", int(model["sample_count"]), taus.size)
            c.close("fit", "tau_mean", tau_mean, taus.mean(), abs_tol=0.0)
            c.close("fit", "tau_std", float(model["tau_std"]), taus.std(ddof=1), abs_tol=0.0)
        except (OSError, KeyError, ValueError) as exc:
            c.fail("fit", f"bad model file: {exc!r}")
            tau_mean = math.nan
        if f"sample_count={taus.size}" not in stdout.get("fit", ""):
            c.fail("fit", f"summary line {stdout.get('fit', '')!r} lacks the sample count")
        expected.update({"ingest.frames_in": 2 * int(meta["frames"]),
                         "ingest.capture_events": 2 * int(t.size),
                         "bursts.bursts_out": 2 * int(instants.size),
                         "intervals.samples_kept": int(taus.size)})
    else:
        tau_mean = KNOWN_TAU_MEAN
    if wl.name == "events_mac_baseline":
        starts60 = ref.window_starts(g.start, g.end, WINDOW, 60.0)
        macs = _read(c, "baseline", f["macs"], 3)
        if macs is not None and c.close("baseline", "window starts", macs[:, 0], starts60):
            c.equal("baseline", "unique MACs", macs[:, 2].astype(np.int64),
                    ref.unique_in_windows(t, mac, starts60, WINDOW))
        expected.update({"ingest.events_out": 2 * int(t.size),
                         "bursts.bursts_out": int(instants.size)})

    if series is not None:
        _check_series(c, "count", series, starts, instants, tau_mean)
        if series.shape[0] == starts.size:
            info["count_nrmse"] = ref.nrmse(series[:, 4], device_avg)

    if wl.name == "simulate_validate":
        expected.update({"simulate.events_out": int(t.size),
                         "simulate.devices": int(arrays["device_enter"].size),
                         "simulate.persons": int(arrays["person_enter"].size),
                         "simulate.truth_windows": 2 * int(starts.size),
                         "ingest.events_out": int(t.size),
                         "bursts.bursts_out": int(instants.size)})
        if series is not None:
            _check_validation(c, f, arrays, starts, series, stdout.get("eval", ""))
    return c.errors, info


def _check_simulate(c: Checker, f: dict[str, Path], stdout: str) -> dict | None:
    """The simulator's outputs: readable, consistent, and as its summary line says."""
    try:
        t, mac = ref.read_events(f["sim_events"])
        arrays = ref.read_truth(f["sim_truth"])
    except (OSError, ValueError, IndexError) as exc:
        c.fail("simulate", f"unreadable output: {exc!r}")
        return None
    summary = dict(part.split("=") for part in stdout.split() if "=" in part)
    c.equal("simulate", "summary events", int(summary.get("events", -1)), t.size)
    c.equal("simulate", "summary devices", int(summary.get("devices", -1)),
            arrays["device_enter"].size)
    c.equal("simulate", "summary persons", int(summary.get("persons", -1)),
            arrays["person_enter"].size)
    if t.size and np.any(np.diff(t) < 0):
        c.fail("simulate", "events are not in time order")
    # a burst's last frame may follow the device's leave time by its duration
    if t.size and (t[0] < arrays["device_enter"].min()
                   or t[-1] > arrays["device_leave"].max() + 10.0):
        c.fail("simulate", "events outside every device's stay")
    arrays.update(t=t, mac=mac)
    return arrays


def _check_validation(c: Checker, f: dict[str, Path], arrays: dict, starts: np.ndarray,
                      series: np.ndarray, eval_stdout: str) -> None:
    """truth, calibrate, people and eval of simulate_validate."""
    refs = {}
    for kind in ("device", "person"):
        label = f"truth_{kind}"
        rows = _read(c, label, f[f"{kind}_ref"], 2)
        if rows is None or not c.close(label, "window starts", rows[:, 0], starts):
            return
        c.close(label, "window averages", rows[:, 1],
                ref.window_average(arrays[f"{kind}_enter"], arrays[f"{kind}_leave"], starts,
                                   WINDOW))
        refs[kind] = rows[:, 1]
    n_hat, b = series[:, 4], series[:, 2]

    alpha = n_hat.sum() / refs["person"].sum()
    try:
        ratio = ref.read_key_values(f["ratio"])
        c.close("calibrate", "alpha", float(ratio["alpha"]), alpha, abs_tol=0.0)
        c.close("calibrate", "nrmse_people_ref", float(ratio["nrmse_people_ref"]), 0.08)
        nrmse_cal = series[:, 6][~np.isnan(series[:, 6])]
        c.close("calibrate", "nrmse_device_cal", float(ratio["nrmse_device_cal"]),
                nrmse_cal.mean() if nrmse_cal.size else 0.0, abs_tol=0.0)
        alpha = float(ratio["alpha"])
    except (OSError, KeyError, ValueError) as exc:
        c.fail("calibrate", f"bad ratio file: {exc!r}")

    people = _read(c, "people", f["people"], 4)
    if people is not None and c.close("people", "window starts", people[:, 0], starts):
        c.close("people", "m_hat", people[:, 2], np.where(b > 0, n_hat / alpha, 0.0))

    got = dict(line.split() for line in eval_stdout.splitlines() if len(line.split()) == 2)
    want = {"rmse": ref.rmse(n_hat, refs["device"]), "mape": ref.mape(n_hat, refs["device"]),
            "nrmse": ref.nrmse(n_hat, refs["device"])}
    for key, value in want.items():
        try:
            c.close("eval", key, float(got[key]), value)
        except (KeyError, ValueError):
            c.fail("eval", f"no {key} in output {eval_stdout!r}")
