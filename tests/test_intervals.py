import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from probecount.bursts import Bursts, aggregate
from event_columns import Event, events_of
from probecount.intervals import (
    MAX_BINS,
    InsufficientSamplesError,
    IntervalModel,
    _chi2_sf,
    _kolmogorov_sf,
    extract_intervals,
    fit,
    format_model,
    ks_two_sample,
    ljung_box,
    parse_model,
)

MAC_A = 0x02_00_00_00_00_01
MAC_B = 0x02_00_00_00_00_02


def bursts_of(rows):
    """One-frame bursts at the (time, MAC) ``rows``, in their order."""
    t = np.array([time for time, _ in rows], dtype=np.float64)
    mac = np.array([mac for _, mac in rows], dtype=np.uint64)
    return Bursts(t, mac)


def at(*times, mac=MAC_A):
    return bursts_of([(t, mac) for t in times])


# ---------------------------------------------------------------- extraction


def test_extract_pairwise_differences():
    samples = extract_intervals(at(0.0, 60.0, 150.0), cutoff=600.0)
    assert samples.tolist() == [60.0, 90.0]


def test_extract_applies_cutoff():
    samples = extract_intervals(at(0.0, 60.0, 2000.0), cutoff=600.0)
    assert samples.tolist() == [60.0]


def test_extract_keys_by_mac():
    bursts = bursts_of(sorted(
        [(0.0, MAC_A), (10.0, MAC_B), (60.0, MAC_A), (100.0, MAC_B)],
        key=lambda b: b[0],
    ))
    samples = extract_intervals(bursts, cutoff=600.0)
    # in burst order: MAC_A's 0 -> 60, then MAC_B's 10 -> 100
    assert samples.tolist() == [60.0, 90.0]


def test_extract_sample_count_accounting():
    instants = [0.0, 50.0, 120.0, 1000.0, 1030.0]
    bursts = at(*instants)
    samples = extract_intervals(bursts, cutoff=600.0)
    discarded = 1  # the 120 -> 1000 gap
    assert len(samples) == (len(bursts) - 1) - discarded


def test_extract_unsorted_raises():
    # the bursts refuse unsorted instants when they are built
    with pytest.raises(ValueError, match="bursts not sorted by probing instant"):
        extract_intervals(at(10.0, 0.0))


def test_extract_empty():
    assert extract_intervals(at()).tolist() == []


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
    mean = sum(samples) / len(samples)
    assert abs(mean - 60.0) / 60.0 < 0.02



MACS = [1, 2, 2**48 - 1]


@given(
    st.lists(st.tuples(st.floats(0, 5000, allow_nan=False), st.integers(0, 2)), max_size=50),
    st.sampled_from([1.0, 60.0, 600.0, 4000.0]),
)
def test_extract_matches_burst_by_burst_extractor(rows, cutoff):
    # hand-made bursts may repeat an instant for one MAC; the interval is then 0
    rows = [(t, MACS[m]) for t, m in sorted(rows, key=lambda r: r[0])]
    samples = extract_intervals(bursts_of(rows), cutoff=cutoff)
    assert samples.dtype == np.float64
    expected = oracles.extract_intervals([(mac, t) for t, mac in rows], cutoff)
    assert samples.tolist() == expected


@given(
    st.lists(st.tuples(st.integers(0, 20000).map(lambda q: q / 8.0), st.integers(0, 2)),
             max_size=80),
    st.sampled_from([30.0, 600.0]),
)
def test_extract_from_aggregate_matches_extractor(rows, cutoff):
    events = events_of(Event(t, MACS[m]) for t, m in sorted(rows, key=lambda r: r[0]))
    bursts = aggregate(events)
    expected = oracles.extract_intervals(zip(bursts.mac.tolist(), bursts.instant.tolist()), cutoff)
    assert extract_intervals(bursts, cutoff=cutoff).tolist() == expected


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


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_cutoff_and_bin_width_must_be_positive(value):
    with pytest.raises(ValueError, match="cutoff must be positive"):
        extract_intervals(at(0.0, 60.0), cutoff=value)
    with pytest.raises(ValueError, match="cutoff and bin_width must be positive"):
        fit([30.0, 90.0], bin_width=value)
    with pytest.raises(ValueError, match="cutoff and bin_width must be positive"):
        fit([30.0, 90.0], cutoff=value)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_fit_refuses_infinite_cutoff_and_bin_width(value):
    message = "cutoff and bin_width must be " + ("finite" if value > 0 else "positive")
    with pytest.raises(ValueError, match=message):
        fit([30.0, 90.0], bin_width=value)
    with pytest.raises(ValueError, match=message):
        fit([30.0, 90.0], cutoff=value)


def test_fit_histogram_mass_conservation():
    rng = np.random.default_rng(3)
    taus = rng.uniform(1.0, 599.0, 1000)
    model = fit(taus.tolist())
    assert sum(model.histogram) == model.sample_count == 1000


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
    assert m2.histogram == m1.histogram


def test_fit_bounds_the_histogram_before_allocating():
    width = 2.0**-10  # a power of two keeps cutoff / width exact
    model = fit([30.0, 90.0], cutoff=MAX_BINS * width, bin_width=width)
    assert len(model.histogram) == MAX_BINS
    with pytest.raises(ValueError, match=f"histogram of {MAX_BINS + 1} bins exceeds the "
                                         f"limit of {MAX_BINS}"):
        fit([30.0, 90.0], cutoff=(MAX_BINS + 1) * width, bin_width=width)
    with pytest.raises(ValueError, match=r"histogram of about 6e\+302 bins"):
        fit([30.0, 90.0], bin_width=1e-300)
    with pytest.raises(ValueError, match="histogram of about inf bins"):
        fit([30.0, 90.0], bin_width=5e-324)


@given(
    st.floats(1e-300, 1e300),
    st.floats(0.0, 1e300),
    st.floats(1e-300, 1e300),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=5).filter(any),
)
def test_model_round_trip(tau_mean, tau_std, bin_width, histogram):
    fitted = fit([30.0, 90.0, 45.5], area_id="atrium")
    built = IntervalModel("area", tau_mean, tau_std, sum(histogram), bin_width,
                          tuple(histogram))
    for model in (fitted, built):
        assert parse_model(format_model(model)) == model


@pytest.mark.parametrize("tau_mean,tau_std,bin_width,name,value", [
    (math.inf, 60.0, 10.0, "tau_mean", "inf"),
    (60.0, math.nan, 10.0, "tau_std", "nan"),
    (60.0, math.inf, 10.0, "tau_std", "inf"),
    (60.0, 60.0, math.inf, "bin_width", "inf"),
    (math.inf, math.nan, 10.0, "tau_mean", "inf"),
])
def test_an_interval_model_refuses_non_finite_fields(tau_mean, tau_std, bin_width, name, value):
    # format_model would write them, and parse_model refuse them
    with pytest.raises(ValueError) as raised:
        IntervalModel("a", tau_mean, tau_std, 1, bin_width, (1,))
    assert str(raised.value) == f"{name} must be finite, got {value}"


def test_an_interval_model_holds_at_least_one_sample():
    with pytest.raises(ValueError, match="unfitted interval model"):
        IntervalModel("x", 60.0, 60.0, 0, bin_width=600.0, histogram=(0,))
    with pytest.raises(ValueError, match="unfitted interval model"):
        IntervalModel.from_moments("x", 60.0, 60.0, sample_count=0)


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
    assert parse_model(model_text()).histogram == (1, 0, 2)


@pytest.mark.parametrize(
    "changes,fragment",
    [
        ({"tau_mean": "inf"}, "line 2: tau_mean: non-finite"),
        ({"tau_std": "nan"}, "line 3: tau_std: non-finite"),
        ({"sample_count": "many"}, "line 4: sample_count"),
        ({"bin_width": "0"}, "bin_width must be positive"),
        ({"bin_width": "-10.0"}, "bin_width must be positive"),
        ({"histogram": "1 0 1"}, "histogram holds 2 samples, sample_count is 3"),
        ({"sample_count": "-5", "histogram": "-5"}, "line 4: sample_count: count -5 outside"),
        ({"histogram": "20 -10 -7"}, "line 6: histogram: count -10 outside"),
        ({"area_id": "a b"}, "area_id must be one token without whitespace, got 'a b'"),
        ({"sample_count": "0", "histogram": "0"}, "unfitted interval model"),
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
    assert sum(model.histogram) == model.sample_count
    assert model.tau_mean == 60.0


# ---------------------------------------------------------------- Ljung-Box


def test_ljung_box_chi_squared_anchor():
    # 18.307 is the published 95% point of chi-squared with 10 dof, so a
    # statistic exactly there must give p close to 0.05.
    rng = np.random.default_rng(0)
    x = rng.exponential(60.0, 5000)
    q, p = ljung_box(x.tolist(), 10)
    from scipy import stats

    assert stats.chi2.sf(18.307, 10) == pytest.approx(0.05, abs=5e-4)
    assert q >= 0.0
    # the chi-squared tail for an even 2m dof in closed form: exp(-q/2) sum_{i<m} (q/2)^i / i!
    tail = math.exp(-q / 2) * sum((q / 2) ** i / math.factorial(i) for i in range(5))
    assert p == pytest.approx(tail, rel=1e-12)


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


@pytest.mark.parametrize("samples", [[60.0] * 100, [1e200, -1e200] * 50])
def test_ljung_box_degenerate_raises(samples):
    # no variance, or one that overflows: Q would be NaN
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="variance"):
        ljung_box(samples, 10)


def test_ljung_box_lag_bounds():
    with pytest.raises(ValueError):
        ljung_box([1.0, 2.0, 3.0], 3)
    with pytest.raises(ValueError):
        ljung_box([1.0, 2.0, 3.0], 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ljung_box_refuses_non_finite_samples(bad):
    with pytest.raises(ValueError, match="samples must be finite"):
        ljung_box([1.0, bad, 2.0, 3.0, 4.0], 2)


def _worst_relative_error(ours, reference):
    """The largest relative error of ``ours`` where ``reference`` is at least 1e-300."""
    ours, reference = np.asarray(ours), np.asarray(reference)
    kept = reference >= 1e-300
    return float(np.max(np.abs(ours[kept] - reference[kept]) / reference[kept]))


Q_GRID = np.concatenate([[0.0], np.geomspace(1e-8, 1000.0, 400)])


@pytest.mark.parametrize("k", range(1, 61))
def test_chi2_tail_matches_scipy_for_small_k(k):
    # odd k start from erfc, even k from exp; the grid reaches tails near 1e-219
    from scipy import stats

    ours = [_chi2_sf(q, k) for q in Q_GRID]
    assert _worst_relative_error(ours, stats.chi2.sf(Q_GRID, k)) <= 1e-12


@pytest.mark.parametrize("k", [100, 500, 1000, 4999])
def test_chi2_tail_matches_scipy_for_large_k(k):
    # e^-q/2 alone underflows above q = 1490, so each term is taken whole in logs
    from scipy import stats

    q = np.concatenate([Q_GRID, k + 12 * math.sqrt(2 * k) * np.linspace(-1.0, 1.0, 101)])
    assert _worst_relative_error([_chi2_sf(x, k) for x in q], stats.chi2.sf(q, k)) <= 1e-10


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ks_refuses_non_finite_samples(bad):
    with pytest.raises(ValueError, match="finite"):
        ks_two_sample([bad] * 3, [bad] * 3)
    with pytest.raises(ValueError, match="finite"):
        ks_two_sample([1.0, 2.0], [3.0, bad])


def test_kolmogorov_tail_matches_scipy():
    # y = 0, the theta-function dual below y = 1 and the alternating sum from 1
    from scipy import special

    y = np.linspace(0.0, 10.0, 100_001)
    assert _worst_relative_error([_kolmogorov_sf(x) for x in y], special.kolmogorov(y)) <= 1e-13


def test_ks_statistic_matches_hand_computation():
    # CDFs: F_a steps at 1,2; F_b steps at 2,3 -> max gap 0.5 at x in [1,2)
    d, _ = ks_two_sample([1.0, 2.0], [2.0, 3.0])
    assert d == pytest.approx(0.5)


def test_ks_p_value_is_the_kolmogorov_tail_at_the_scaled_statistic():
    # the samples are 15 apart in 100 steps: D = 0.15, x = sqrt(100 * 100 / 200) * D
    d, p = ks_two_sample(np.arange(100.0), np.arange(100.0) + 15)
    x = math.sqrt(50) * d
    assert 1 < x < 1.5
    tail = 2 * sum((-1) ** (k - 1) * math.exp(-2 * k * k * x * x) for k in range(1, 101))
    assert p == pytest.approx(tail, rel=1e-12)
