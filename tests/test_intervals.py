import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from probecount.bursts import Burst
from probecount.ingest import MacAddress
from probecount.intervals import (
    InsufficientSamplesError,
    IntervalModel,
    extract_intervals,
    fit,
    format_model,
    intervals_from_instants,
    ks_two_sample,
    ljung_box,
    parse_model,
)

MAC_A = MacAddress.parse("02:00:00:00:00:01")
MAC_B = MacAddress.parse("02:00:00:00:00:02")


def burst(t, mac=MAC_A):
    return Burst(mac, t, t, 1, frozenset({"ap0"}))


# ---------------------------------------------------------------- extraction


def test_extract_pairwise_differences():
    samples = extract_intervals([burst(0.0), burst(60.0), burst(150.0)], cutoff=600.0)
    assert [s.tau for s in samples] == [60.0, 90.0]


def test_extract_applies_cutoff():
    samples = extract_intervals([burst(0.0), burst(60.0), burst(2000.0)], cutoff=600.0)
    assert [s.tau for s in samples] == [60.0]


def test_extract_keys_by_mac():
    bursts = sorted(
        [burst(0.0, MAC_A), burst(10.0, MAC_B), burst(60.0, MAC_A), burst(100.0, MAC_B)],
        key=lambda b: b.probing_instant,
    )
    samples = extract_intervals(bursts, cutoff=600.0)
    assert {(s.key, s.tau) for s in samples} == {(str(MAC_A), 60.0), (str(MAC_B), 90.0)}


def test_extract_sample_count_accounting():
    instants = [0.0, 50.0, 120.0, 1000.0, 1030.0]
    bursts = [burst(t) for t in instants]
    samples = extract_intervals(bursts, cutoff=600.0)
    discarded = 1  # the 120 -> 1000 gap
    assert len(samples) == (len(bursts) - 1) - discarded


def test_extract_unsorted_raises():
    with pytest.raises(ValueError, match="sorted"):
        extract_intervals([burst(10.0), burst(0.0)])


def test_extract_empty():
    assert extract_intervals([]) == []


def test_extract_ground_truth_mode_converges():
    # Intervals sampled per true device id: the mean must converge to the
    # configured distribution mean (law of large numbers).
    rng = np.random.default_rng(7)
    instants_by_device = {}
    per_device = 101
    for d in range(100):
        steps = rng.uniform(30.0, 90.0, per_device)
        instants_by_device[f"dev{d}"] = np.cumsum(steps).tolist()
    samples = intervals_from_instants(instants_by_device, cutoff=600.0)
    assert len(samples) == 100 * (per_device - 1)
    mean = sum(s.tau for s in samples) / len(samples)
    assert abs(mean - 60.0) / 60.0 < 0.02


def test_extract_from_simulated_trace_with_persistent_macs():
    # Full pipeline: simulated devices keep their MAC, intervals are bounded
    # away from the burst gap, so same-MAC extraction recovers the
    # distribution mean within 2% at ~1e4 samples.
    from probecount.bursts import aggregate
    from probecount.simulate import ConstantCount, SimConfig, UniformInterval, simulate

    cfg = SimConfig(
        arrival_rate=0.0,
        fixed_persons=100,
        interval_dist=UniformInterval(30.0, 90.0),
        devices_per_person_dist=ConstantCount(1),
        rotation_prob=0.0,
        duration=101 * 60.0,
        seed=27,
    )
    events, _ = simulate(cfg)
    samples = extract_intervals(aggregate(events), cutoff=600.0)
    assert len(samples) > 9000
    mean = sum(s.tau for s in samples) / len(samples)
    assert abs(mean - 60.0) / 60.0 < 0.02


# ---------------------------------------------------------------- fit


def test_fit_constant_samples():
    model = fit([60.0, 60.0, 60.0])
    assert model.tau_mean == 60.0
    assert model.tau_std == 0.0
    assert model.sample_count == 3


def test_fit_two_point():
    model = fit([30.0, 90.0])
    assert model.tau_mean == 60.0
    assert model.tau_std == pytest.approx(math.sqrt(1800.0), abs=1e-9)


def test_fit_requires_two_samples():
    with pytest.raises(InsufficientSamplesError, match="insufficient interval samples"):
        fit([60.0])
    with pytest.raises(InsufficientSamplesError):
        fit([])


def test_fit_rejects_samples_beyond_cutoff():
    with pytest.raises(ValueError):
        fit([10.0, 700.0], cutoff=600.0)


def test_fit_histogram_mass_conservation():
    rng = np.random.default_rng(3)
    taus = rng.uniform(1.0, 599.0, 1000)
    model = fit(taus.tolist())
    assert model.histogram.total == model.sample_count == 1000


def test_fit_exponential_draws():
    rng = np.random.default_rng(11)
    taus = np.minimum(rng.exponential(60.0, 100_000), 600.0)
    taus = taus[taus < 600.0]  # keep within cutoff; truncation loss is ~5e-5
    model = fit(taus.tolist())
    assert 59.0 <= model.tau_mean <= 61.0
    assert 0.97 <= model.tau_std / model.tau_mean <= 1.03


@given(st.integers(-3, 6))
def test_fit_scale_equivariant(power):
    c = 2.0**power  # powers of two keep the arithmetic exact
    base = [30.0, 45.0, 60.0, 75.0, 240.0]
    m1 = fit(base, cutoff=600.0, bin_width=10.0)
    m2 = fit([c * t for t in base], cutoff=c * 600.0, bin_width=c * 10.0)
    assert m2.tau_mean == c * m1.tau_mean
    assert m2.tau_std == c * m1.tau_std
    assert m2.histogram.counts == m1.histogram.counts


def test_model_round_trip():
    model = fit([30.0, 90.0, 45.5], area_id="atrium")
    again = parse_model(format_model(model))
    assert again == model


def test_parse_model_missing_key():
    with pytest.raises(ValueError, match="tau_std"):
        parse_model("area_id x\ntau_mean 60.0\n")


GOOD_MODEL = {
    "area_id": "x",
    "tau_mean": "60.0",
    "tau_std": "60.0",
    "sample_count": "3",
    "bin_width": "10.0",
    "histogram": "1 0 2",
}


def model_text(**changes):
    fields = {**GOOD_MODEL, **changes}
    return "".join(f"{k} {v}\n" for k, v in fields.items())


def test_model_text_helper_parses():
    assert parse_model(model_text()).histogram.counts == (1, 0, 2)


@pytest.mark.parametrize(
    "changes,fragment",
    [
        ({"tau_mean": "inf"}, "line 2: tau_mean: non-finite"),
        ({"tau_std": "nan"}, "line 3: tau_std: non-finite"),
        ({"sample_count": "many"}, "line 4: sample_count"),
        ({"bin_width": "0"}, "bin_width must be positive"),
        ({"bin_width": "-10.0"}, "bin_width must be positive"),
        ({"histogram": "1 0 1"}, "histogram holds 2 samples, sample_count is 3"),
    ],
)
def test_parse_model_rejects_bad_values(changes, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_model(model_text(**changes))


def test_parse_model_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ValueError, match="line 7: unknown interval model key 'tau_median'"):
        parse_model(model_text() + "tau_median 50.0\n")
    with pytest.raises(ValueError, match="line 7: duplicate interval model key 'tau_mean'"):
        parse_model(model_text() + "tau_mean 50.0\n")


def test_from_moments_keeps_invariants():
    model = IntervalModel.from_moments("sim", 60.0, 78.6, sample_count=1000)
    assert model.histogram.total == model.sample_count
    assert model.tau_mean == 60.0


# ---------------------------------------------------------------- Ljung-Box


def test_ljung_box_chi_squared_anchor():
    # 18.307 is the published 95% point of chi-squared with 10 dof, so a
    # statistic exactly there must give p close to 0.05.
    rng = np.random.default_rng(0)
    x = rng.exponential(60.0, 5000)
    q, _ = ljung_box(x.tolist(), 10)
    from scipy import stats

    assert stats.chi2.sf(18.307, 10) == pytest.approx(0.05, abs=5e-4)
    assert q >= 0.0


def test_ljung_box_iid_accepts():
    rng = np.random.default_rng(5)
    x = rng.exponential(60.0, 5000)
    _, p = ljung_box(x.tolist(), 10)
    assert p > 0.05


def test_ljung_box_rejects_autocorrelated_series():
    rng = np.random.default_rng(6)
    x = np.empty(5000)
    x[0] = rng.normal()
    for i in range(1, 5000):
        x[i] = 0.9 * x[i - 1] + rng.normal()
    _, p = ljung_box((x - x.min() + 1.0).tolist(), 10)
    assert p < 0.01


def test_ljung_box_degenerate_raises():
    with pytest.raises(ValueError, match="variance"):
        ljung_box([60.0] * 100, 10)


def test_ljung_box_lag_bounds():
    with pytest.raises(ValueError):
        ljung_box([1.0, 2.0, 3.0], 3)
    with pytest.raises(ValueError):
        ljung_box([1.0, 2.0, 3.0], 0)


# ---------------------------------------------------------------- KS


def test_ks_identical_samples():
    x = [1.0, 2.0, 3.0, 4.0]
    d, p = ks_two_sample(x, x)
    assert d == 0.0
    assert p == 1.0


def test_ks_separated_distributions():
    rng = np.random.default_rng(8)
    a = rng.exponential(60.0, 5000)
    b = rng.exponential(120.0, 5000)
    _, p = ks_two_sample(a.tolist(), b.tolist())
    assert p < 0.01


def test_ks_same_distribution_accepts():
    rng = np.random.default_rng(9)
    a = rng.exponential(60.0, 5000)
    b = rng.exponential(60.0, 5000)
    _, p = ks_two_sample(a.tolist(), b.tolist())
    assert p > 0.05


def test_ks_requires_non_empty():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_ks_statistic_matches_hand_computation():
    # CDFs: F_a steps at 1,2; F_b steps at 2,3 -> max gap 0.5 at x in [1,2)
    d, _ = ks_two_sample([1.0, 2.0], [2.0, 3.0])
    assert d == pytest.approx(0.5)
