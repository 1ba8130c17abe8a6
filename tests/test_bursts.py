import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from probecount.bursts import Bursts, aggregate, by_key, by_time
from probecount.counting import mac_count_series
from event_columns import Event, events_of, mac
from probecount.ingest import Events
from probecount.intervals import extract_intervals

MACS = [mac(f"02:00:00:00:00:{i:02x}") for i in range(4)]


def ev(t, mac=MACS[0]):
    return Event(t, mac)


def test_single_burst_within_gap():
    bursts = aggregate(events_of([ev(0.0), ev(1.0), ev(2.0)]), gap=4.0)
    assert len(bursts) == 1
    assert bursts.instant.tolist() == [0.0]


def test_gap_exceeded_starts_new_burst():
    bursts = aggregate(events_of([ev(0.0), ev(10.0)]), gap=4.0)
    assert bursts.instant.tolist() == [0.0, 10.0]


def test_gap_boundary_is_inclusive():
    assert len(aggregate(events_of([ev(0.0), ev(4.0)]), gap=4.0)) == 1
    assert len(aggregate(events_of([ev(0.0), ev(4.0000001)]), gap=4.0)) == 2


def test_macs_grouped_independently():
    events = sorted(
        [ev(0.0, MACS[0]), ev(1.0, MACS[1]), ev(2.0, MACS[0]), ev(3.0, MACS[1])],
        key=lambda e: e.t,
    )
    bursts = aggregate(events_of(events), gap=4.0)
    assert len(bursts) == 2
    assert set(bursts.mac.tolist()) == {MACS[0], MACS[1]}


def test_frames_at_one_time_join_one_burst():
    bursts = aggregate(events_of([ev(0.0), ev(0.0), ev(1.0)]), gap=4.0)
    assert len(bursts) == 1


def test_unsorted_input_raises():
    with pytest.raises(ValueError, match="sorted"):
        aggregate(events_of([ev(5.0), ev(1.0)]), gap=4.0)


def test_bursts_refuse_unsorted_instants():
    assert Bursts(np.array([1.0, 1.0, 2.0]), np.array([3, 1, 2], dtype=np.uint64)).mac.size == 3
    with pytest.raises(ValueError, match="bursts not sorted by probing instant"):
        Bursts(np.array([1.0, 2.0, 1.5]), np.zeros(3, dtype=np.uint64))


def test_gap_must_be_positive():
    for gap in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="gap must be positive"):
            aggregate(events_of([ev(0.0)]), gap=gap)


def test_empty_input():
    assert len(aggregate(events_of([]), gap=4.0)) == 0


def brute_force_partition(events, gap):
    """Index partition by exhaustively checking every consecutive same-MAC pair."""
    by_mac = {}
    for i, e in enumerate(events):
        by_mac.setdefault(e.mac, []).append(i)
    groups = []
    for indices in by_mac.values():
        current = [indices[0]]
        for prev, cur in zip(indices, indices[1:]):
            if events[cur].t - events[prev].t <= gap:
                current.append(cur)
            else:
                groups.append(current)
                current = [cur]
        groups.append(current)
    return sorted(groups)


event_lists = st.lists(
    st.tuples(
        st.floats(0, 1000, allow_nan=False, width=32),
        st.integers(0, 3),
    ),
    max_size=40,
).map(lambda pairs: [ev(t, MACS[m]) for t, m in sorted(pairs, key=lambda p: p[0])])


@given(event_lists, st.floats(0.1, 50.0))
def test_matches_brute_force_grouper(events, gap):
    bursts = aggregate(events_of(events), gap=gap)
    expected = brute_force_partition(events, gap)

    # each group's first event is a burst: its MAC and probing instant
    firsts = [(events[group[0]].mac, events[group[0]].t) for group in expected]
    assert sorted(zip(bursts.mac.tolist(), bursts.instant.tolist())) == sorted(firsts)


@given(event_lists, st.floats(0.1, 50.0))
def test_output_sorted_and_deterministic(events, gap):
    bursts = aggregate(events_of(events), gap=gap)
    assert _columns(bursts) == _columns(aggregate(events_of(events), gap=gap))
    instants = bursts.instant.tolist()
    assert instants == sorted(instants)


def test_reaggregating_spaced_instants_is_identity():
    bursts = aggregate(events_of([ev(0.0), ev(1.0), ev(60.0), ev(61.0)]), gap=4.0)
    instant_events = [ev(t) for t in bursts.instant.tolist()]
    again = aggregate(events_of(instant_events), gap=4.0)
    assert again.instant.tolist() == bursts.instant.tolist()


# ---------------------------------------------------------------- columns vs oracle


def _columns(bursts):
    """Each burst as (mac, instant), in the bursts' order."""
    return list(zip(bursts.mac.tolist(), bursts.instant.tolist()))


def test_bursts_columns():
    events = [ev(0.0, MACS[1]), ev(0.5, MACS[0]), ev(1.0, MACS[1]), ev(9.0, MACS[1])]
    bursts = aggregate(events_of(events), gap=4.0)
    assert isinstance(bursts, Bursts) and len(bursts) == 3
    assert bursts.instant.tolist() == [0.0, 0.5, 9.0]
    assert bursts.mac.tolist() == [MACS[1], MACS[0], MACS[1]]


# frame times on a coarse lattice, so that ties and exact-gap pairs occur
timed_events = st.lists(
    st.tuples(st.integers(0, 400).map(lambda q: q / 4.0), st.integers(0, 3)),
    max_size=60,
).map(lambda rows: [ev(t, MACS[m]) for t, m in sorted(rows, key=lambda r: r[0])])


@given(timed_events, st.sampled_from([0.25, 1.0, 4.0, 7.5, 50.0]))
def test_aggregate_matches_event_by_event_grouper(events, gap):
    assert _columns(aggregate(events_of(events), gap=gap)) == oracles.aggregate(events, gap)


# ---------------------------------------------------------------- grouping at scale


def _lattice_events(seed, n=70_000, macs=5_000):
    """``n`` events, more than 2**16, of ``macs`` MACs (0 and 2**48 - 1 among them) at
    times on a 0.25 s lattice, so that instants tie across MACs and (t, mac) repeats."""
    rng = np.random.default_rng(seed)
    extremes = np.array([0, 2**48 - 1], dtype=np.uint64)
    pool = np.unique(np.r_[extremes, rng.integers(1, 2**48 - 1, macs, dtype=np.uint64)])
    mac = pool[np.r_[0, pool.size - 1, rng.integers(0, pool.size, n - 2)]]
    t = rng.integers(0, 40_000, n) * 0.25
    order = np.argsort(t, kind="stable")
    return Events(t[order], mac[order])


def _same(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("seed, gap", [(1, 4.0), (2, 0.25), (3, 60.0)])
def test_grouping_at_scale_matches_the_lexsort_oracles(seed, gap):
    events = _lattice_events(seed)
    assert len(np.unique(events.mac)) >= 5_000
    bursts = aggregate(events, gap=gap)
    want = oracles.aggregate_lexsort(events, gap)
    for got, expected in zip((bursts.instant, bursts.mac), want):
        _same(got, expected)
    assert np.any(bursts.instant[1:] == bursts.instant[:-1])  # ties across MACs
    for cutoff in (1.0, 600.0, np.inf):
        _same(extract_intervals(bursts, cutoff),
              oracles.extract_intervals_stable(bursts.instant, bursts.mac, cutoff))
    for size, step in ((180.0, 60.0), (30.0, 45.0)):
        series = mac_count_series(events, size, step)
        lo, hi = np.searchsorted(events.t, [series.start, series.start + size])
        _same(series.macs, oracles.distinct_counts_stable(events.mac, lo, hi))


def test_intervals_of_repeated_instant_mac_pairs_match_the_oracle():
    rng = np.random.default_rng(4)
    instant = np.sort(rng.integers(0, 3_000, 80_000) * 0.5)
    mac = rng.integers(0, 6_000, 80_000).astype(np.uint64)
    bursts = Bursts(instant, mac)
    _same(extract_intervals(bursts, 60.0), oracles.extract_intervals_stable(instant, mac, 60.0))


_KEYS = {
    "empty": [],
    "one row": [7],
    "all equal": [3] * 50,
    "all distinct": list(range(60, 0, -1)),
    "extremes": [2**48 - 1, 0, 2**48 - 1, 5, 0, 0, 2**48 - 1],
    "runs": [i % 7 for i in range(300)],
}


@pytest.mark.parametrize("name", sorted(_KEYS))
def test_by_key_is_the_stable_argsort(name):
    key = np.array(_KEYS[name], dtype=np.uint64)
    order, starts = by_key(key)
    _same(order, np.argsort(key, kind="stable"))
    assert starts.tolist() == [i == 0 or key[order[i]] != key[order[i - 1]]
                               for i in range(key.size)]


_ROWS = {
    "empty": ([], []),
    "one row": ([1.5], [4]),
    "all equal": ([2.0] * 40, [9] * 40),
    "all distinct": ([float(i) for i in range(50, 0, -1)], list(range(50))),
    "repeated pairs": ([1.0, 0.5, 1.0, 0.5, 1.0, 1.0, 0.5] * 20, [3, 2, 3, 1, 0, 3, 2] * 20),
    "extremes": ([0.0, 0.0, 0.0, 1.0, 1.0], [2**48 - 1, 0, 2**48 - 1, 0, 2**48 - 1]),
}


@pytest.mark.parametrize("name", sorted(_ROWS))
def test_by_time_is_the_lexsort(name):
    t, mac = np.array(_ROWS[name][0], dtype=float), np.array(_ROWS[name][1], dtype=np.uint64)
    want = np.lexsort((mac, t))
    for order in (np.argsort(t), np.argsort(-t, kind="stable")[::-1]):
        given_order = order.copy()
        _same(by_time(t, mac, order), want)
        _same(order, given_order)  # the caller's order is left as it was
