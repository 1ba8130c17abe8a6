"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The statistical criteria run against the built-in renewal simulator, which
provides exact window-averaged ground truth.  Expensive traces are generated
once per module and shared; each criterion's reported runtime includes the
share of trace generation it depends on.
"""

import math
import time

import numpy as np
import pytest

from probecount.bursts import aggregate
from probecount.calibration import estimate_ratio, people_count
from probecount.counting import Window, mac_count_series, sliding_windows
from probecount.ingest import format_events, parse_capture, parse_events
from probecount.intervals import IntervalModel, ks_two_sample, ljung_box
from probecount.metrics import SeriesPair, nrmse
from probecount.simulate import (
    ConstantCount,
    Entity,
    Exponential,
    GroundTruthTrace,
    LogNormal,
    PoissonCount,
    SimConfig,
    ground_truth_series,
    ground_truth_window,
    probing_instants,
    simulate,
)

from capture_files import beacon, pcap, probe_request, radiotap
from monte_carlo import two_burst_dwell_trials

TAU = 60.0
W = 900.0
N_WINDOWS = 200
WARMUP = 3600.0
LOGNORMAL_SIGMA = 0.5  # moderate interval spread; tail still reaches minutes


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _arrivals_run(interval_dist, seed):
    """Arrival-driven population in probing equilibrium, ~50 devices present."""
    started = time.perf_counter()
    cfg = SimConfig(
        arrival_rate=50 / 300.0,
        dwell_dist=Exponential(300.0),
        interval_dist=interval_dist,
        devices_per_person_dist=ConstantCount(1),
        rotation_prob=1.0,
        duration=WARMUP + N_WINDOWS * W,
        seed=seed,
    )
    events, trace = simulate(cfg)
    bursts = aggregate(events)
    model = IntervalModel.from_moments("sim", interval_dist.mean(), interval_dist.std())
    estimates = sliding_windows(bursts, W, W, model, start=WARMUP, end=cfg.duration)
    assert len(estimates) == N_WINDOWS
    truths = ground_truth_series(trace, [e.window for e in estimates])
    return {
        "estimates": estimates,
        "n_bar": np.array([n for n, _ in truths]),
        "sigma": interval_dist.std(),
        "build_seconds": time.perf_counter() - started,
    }


@pytest.fixture(scope="module")
def exp_arrivals():
    return _arrivals_run(Exponential(TAU), seed=42)


@pytest.fixture(scope="module")
def lognormal_arrivals():
    mu = math.log(TAU) - LOGNORMAL_SIGMA**2 / 2
    return _arrivals_run(LogNormal(mu, LOGNORMAL_SIGMA), seed=42)


@pytest.fixture(scope="module")
def fixed_population():
    """50 devices present for the whole run: every window sees N = 50."""
    started = time.perf_counter()
    cfg = SimConfig(
        arrival_rate=0.0,
        fixed_persons=50,
        interval_dist=Exponential(TAU),
        devices_per_person_dist=ConstantCount(1),
        rotation_prob=1.0,
        duration=WARMUP + N_WINDOWS * W,
        seed=42,
    )
    events, trace = simulate(cfg)
    return {
        "events": events,
        "bursts": aggregate(events),
        "trace": trace,
        "duration": cfg.duration,
        "model": IntervalModel.from_moments("sim", TAU, TAU),
        "build_seconds": time.perf_counter() - started,
    }


# ---------------------------------------------------------------------------


def test_criterion_1_window_average_anchor():
    started = time.perf_counter()
    trace = GroundTruthTrace(
        (
            Entity("dA", "device", "p0", 0.0, 600.0),
            Entity("dB", "device", "p0", 0.0, 600.0),
            Entity("dC", "device", "p0", 300.0, 600.0),
        )
    )
    n_bar, _ = ground_truth_window(trace, Window(0.0, 600.0))
    elapsed = time.perf_counter() - started
    ok = abs(n_bar - 2.5) < 1e-9 and elapsed < 1.0
    report(1, ok, f"two-full-plus-one-half trace averages {n_bar} ({elapsed:.3f}s)")


def test_criterion_2_unbiasedness(exp_arrivals, lognormal_arrivals):
    started = time.perf_counter()
    ratios = {}
    for label, run in (("exponential", exp_arrivals), ("lognormal", lognormal_arrivals)):
        n_hat = np.array([e.n_hat for e in run["estimates"]])
        ratios[label] = float(np.mean(n_hat / run["n_bar"]))
    elapsed = (
        time.perf_counter() - started
        + exp_arrivals["build_seconds"]
        + lognormal_arrivals["build_seconds"]
    )
    ok = all(0.97 <= r <= 1.03 for r in ratios.values()) and elapsed < 60.0
    report(
        2,
        ok,
        f"mean(n_hat/N) exp={ratios['exponential']:.4f} "
        f"lognormal={ratios['lognormal']:.4f} over {N_WINDOWS} windows ({elapsed:.1f}s)",
    )


def test_criterion_3_error_model_bound(exp_arrivals, lognormal_arrivals, fixed_population):
    started = time.perf_counter()
    mse_ratios = {}
    for label, run in (("exponential", exp_arrivals), ("lognormal", lognormal_arrivals)):
        n_hat = np.array([e.n_hat for e in run["estimates"]])
        b = np.array([e.burst_count for e in run["estimates"]])
        mse = float(np.mean((n_hat - run["n_bar"]) ** 2))
        bound = float(np.mean(b * run["sigma"] ** 2 / W**2))
        mse_ratios[label] = mse / bound

    # tightness: devices dwelling across whole windows, exponential intervals
    pop = fixed_population
    estimates = sliding_windows(
        pop["bursts"], W, W, pop["model"], start=WARMUP, end=pop["duration"]
    )
    var = float(np.var([e.n_hat for e in estimates], ddof=1))
    var_target = 50 * TAU / W
    var_ratio = var / var_target

    elapsed = (
        time.perf_counter() - started
        + exp_arrivals["build_seconds"]
        + lognormal_arrivals["build_seconds"]
        + pop["build_seconds"]
    )
    ok = (
        all(r >= 0.9 for r in mse_ratios.values())
        and 0.8 <= var_ratio <= 1.2
        and elapsed < 60.0
    )
    report(
        3,
        ok,
        f"MSE/bound exp={mse_ratios['exponential']:.3f} "
        f"lognormal={mse_ratios['lognormal']:.3f}; "
        f"Var/(N*tau/w)={var_ratio:.3f} ({elapsed:.1f}s)",
    )


def test_criterion_4_nrmse_trend(fixed_population):
    # analytic: doubling the window at a fixed burst rate divides the
    # predicted NRMSE by exactly sqrt(2)
    model = fixed_population["model"]
    [single] = sliding_windows(
        [_burst(i * 6.0) for i in range(100)], 600.0, 600.0, model, start=0.0, end=600.0
    )
    [double] = sliding_windows(
        [_burst(i * 6.0) for i in range(200)], 1200.0, 1200.0, model, start=0.0, end=1200.0
    )
    analytic_ratio = single.nrmse_estimate / double.nrmse_estimate
    analytic_ok = abs(analytic_ratio - math.sqrt(2)) < 1e-12

    pop = fixed_population
    empirical, predicted = [], []
    for w in (180.0, 360.0, 720.0, 1440.0):
        estimates = sliding_windows(
            pop["bursts"], w, w, model, start=WARMUP, end=pop["duration"]
        )
        truths = ground_truth_series(pop["trace"], [e.window for e in estimates])
        pair = SeriesPair.of([e.n_hat for e in estimates], [n for n, _ in truths])
        empirical.append(nrmse(pair))
        mean_b = float(np.mean([e.burst_count for e in estimates]))
        predicted.append(TAU / (TAU * math.sqrt(mean_b)))
    monotone = all(a > b for a, b in zip(empirical, empirical[1:]))
    within = all(p / 1.5 <= e <= 1.5 * p for e, p in zip(empirical, predicted))
    ok = analytic_ok and monotone and within
    pairs = " ".join(f"{e:.4f}/{p:.4f}" for e, p in zip(empirical, predicted))
    report(4, ok, f"sqrt2 ratio={analytic_ratio:.12f}; empirical/predicted by w: {pairs}")


def _burst(t):
    from probecount.bursts import Burst
    from probecount.ingest import MacAddress

    return Burst(MacAddress.parse("02:00:00:00:00:01"), t, t, 1, frozenset({"ap0"}))


def test_criterion_5_baseline_overcounting(fixed_population):
    w = 300.0  # five bursts per device-window at tau = 60
    pop = fixed_population
    end = WARMUP + 100 * w
    macs = mac_count_series(pop["events"], w, w, start=WARMUP, end=end)
    estimates = sliding_windows(pop["bursts"], w, w, pop["model"], start=WARMUP, end=end)
    truths = ground_truth_series(pop["trace"], [e.window for e in estimates])
    base, rate = [], []
    for (_, macs_heard), estimate, (n_bar, _) in zip(macs, estimates, truths):
        base.append(macs_heard / n_bar)
        rate.append(estimate.n_hat / n_bar)
    rotating_base = float(np.mean(base))
    rotating_rate = float(np.mean(rate))

    cfg = SimConfig(
        arrival_rate=0.0,
        fixed_persons=50,
        interval_dist=Exponential(TAU),
        devices_per_person_dist=ConstantCount(1),
        rotation_prob=0.0,
        duration=600.0 + 100 * w,
        seed=43,
    )
    events, trace = simulate(cfg)
    macs = mac_count_series(events, w, w, start=600.0, end=cfg.duration)
    truths = ground_truth_series(trace, [win for win, _ in macs])
    persistent_base = float(
        np.mean([heard / n for (_, heard), (n, _) in zip(macs, truths)])
    )
    ok = rotating_base > 2.0 and 0.95 <= rotating_rate <= 1.05 and persistent_base < 1.5
    report(
        5,
        ok,
        f"rotating: baseline/N={rotating_base:.2f}, rate/N={rotating_rate:.4f}; "
        f"persistent: baseline/N={persistent_base:.3f}",
    )


def test_criterion_6_calibration():
    started = time.perf_counter()
    w = 180.0
    warmup = 1500.0
    calib_span = 7200.0  # two-hour calibration region
    duration = warmup + calib_span + N_WINDOWS * w
    cfg = SimConfig(
        arrival_rate=1 / 3.0,
        dwell_dist=Exponential(150.0),
        interval_dist=Exponential(TAU),
        devices_per_person_dist=PoissonCount(1.14),
        rotation_prob=1.0,
        duration=duration,
        seed=42,
    )
    events, trace = simulate(cfg)
    bursts = aggregate(events)
    model = IntervalModel.from_moments("sim", TAU, TAU)
    calib = sliding_windows(bursts, w, w, model, start=warmup, end=warmup + calib_span)
    test = sliding_windows(bursts, w, w, model, start=warmup + calib_span, end=duration)

    calib_truths = ground_truth_series(trace, [e.window for e in calib])
    people_ref = [(e.window.start, m) for e, (_, m) in zip(calib, calib_truths)]
    ratio = estimate_ratio(calib, people_ref, nrmse_people_ref=0.0)

    people_estimates = [people_count(e, ratio) for e in test]
    test_truths = ground_truth_series(trace, [e.window for e in test])
    pair = SeriesPair.of(
        [p.m_hat for p in people_estimates], [m for _, m in test_truths]
    )
    empirical = nrmse(pair)
    propagated = float(
        np.mean([p.nrmse_estimate for p in people_estimates if p.nrmse_estimate is not None])
    )
    elapsed = time.perf_counter() - started
    alpha_ok = 1.14 * 0.95 <= ratio.alpha <= 1.14 * 1.05
    ok = alpha_ok and empirical <= 1.5 * propagated
    report(
        6,
        ok,
        f"alpha={ratio.alpha:.4f} (target 1.14 +/- 5%); people NRMSE {empirical:.4f} "
        f"vs propagated {propagated:.4f} over {len(test)} windows ({elapsed:.1f}s)",
    )


def test_criterion_7_elementary_renewal():
    horizon = 1e4 * TAU
    counts = [
        probing_instants(Exponential(TAU), 0.0, horizon, np.random.default_rng(s), "ordinary").size
        for s in range(50)
    ]
    rate = float(np.mean(counts)) / horizon
    err = abs(rate - 1 / TAU) / (1 / TAU)
    report(7, err < 0.01, f"E[bursts]/S = {rate:.6f} vs 1/tau = {1/TAU:.6f} ({err*100:.3f}% off)")


def test_criterion_8_two_burst_dwell_expectation():
    tau1, tau2, tau3 = 50.0, 70.0, 90.0
    mean = two_burst_dwell_trials(tau1, tau2, tau3, trials=100_000, seed=4)
    expected = (tau1 + 2 * tau2 + tau3) / 2
    err = abs(mean - expected) / expected
    report(8, err < 0.02, f"MC dwell {mean:.3f} vs (t1+2*t2+t3)/2 = {expected:.3f} ({err*100:.3f}% off)")


def test_criterion_9_parser_golden_files():
    records = [
        (1.0, probe_request("aa:bb:cc:dd:ee:01")),
        (1.5, beacon("aa:bb:cc:dd:ee:09")),
        (2.0, probe_request("aa:bb:cc:dd:ee:02")),
        (3.0, probe_request("aa:bb:cc:dd:ee:03")),
    ]
    expected = [
        (1.0, "aa:bb:cc:dd:ee:01"),
        (2.0, "aa:bb:cc:dd:ee:02"),
        (3.0, "aa:bb:cc:dd:ee:03"),
    ]
    native = parse_capture(pcap(records))
    swapped = parse_capture(pcap(records, swapped=True))
    rt_records = [(ts, radiotap(frame, rssi=-70)) for ts, frame in records]
    with_radiotap = parse_capture(pcap(rt_records, linktype=127))

    bare_ok = [(e.timestamp, str(e.mac)) for e in native] == expected
    swap_ok = swapped == native
    rt_ok = (
        [(e.timestamp, str(e.mac)) for e in with_radiotap] == expected
        and all(e.rssi == -70 for e in with_radiotap)
    )
    text = format_events(native)
    round_trip_ok = parse_events(text) == native and format_events(parse_events(text)) == text
    ok = bare_ok and swap_ok and rt_ok and round_trip_ok
    report(
        9,
        ok,
        f"bare={bare_ok} swapped={swap_ok} radiotap={rt_ok} round_trip={round_trip_ok}",
    )


def test_criterion_10_statistical_test_calibration():
    lb_accept = 0
    for s in range(100):
        rng = np.random.default_rng(1000 + s)
        _, p = ljung_box(rng.exponential(TAU, 5000).tolist(), 10)
        lb_accept += p > 0.05
    lb_reject = 0
    for s in range(100):
        rng = np.random.default_rng(2000 + s)
        x = np.empty(5000)
        x[0] = rng.normal()
        for i in range(1, 5000):
            x[i] = 0.9 * x[i - 1] + rng.normal()
        _, p = ljung_box((x - x.min() + 1.0).tolist(), 10)
        lb_reject += p < 0.05

    ks_accept = 0
    for s in range(100):
        rng = np.random.default_rng(3000 + s)
        _, p = ks_two_sample(
            rng.exponential(TAU, 5000).tolist(), rng.exponential(TAU, 5000).tolist()
        )
        ks_accept += p > 0.05
    ks_reject = 0
    for s in range(100):
        rng = np.random.default_rng(4000 + s)
        _, p = ks_two_sample(
            rng.exponential(60.0, 5000).tolist(), rng.exponential(120.0, 5000).tolist()
        )
        ks_reject += p < 0.05

    ok = lb_accept >= 90 and ks_accept >= 90 and lb_reject > 99 and ks_reject > 99
    report(
        10,
        ok,
        f"null acceptance LB={lb_accept}/100 KS={ks_accept}/100; "
        f"alternative rejection LB={lb_reject}/100 KS={ks_reject}/100",
    )
