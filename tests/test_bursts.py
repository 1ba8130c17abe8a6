import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from probecount.bursts import Bursts, aggregate
from event_columns import events_of, mac
from probecount.ingest import MacAddress, PrfEvent

MACS = [mac(f"02:00:00:00:00:{i:02x}") for i in range(4)]


def ev(t, mac=MACS[0], ap="ap0"):
    return PrfEvent(t, mac, ap)


def test_single_burst_within_gap():
    bursts = aggregate(events_of([ev(0.0), ev(1.0), ev(2.0)]), gap=4.0)
    assert len(bursts) == 1
    assert bursts.instant.tolist() == [0.0]
    assert bursts.end.tolist() == [2.0]
    assert bursts.frame_count.tolist() == [3]


def test_gap_exceeded_starts_new_burst():
    bursts = aggregate(events_of([ev(0.0), ev(10.0)]), gap=4.0)
    assert bursts.instant.tolist() == [0.0, 10.0]
    assert bursts.frame_count.tolist() == [1, 1]


def test_gap_boundary_is_inclusive():
    assert len(aggregate(events_of([ev(0.0), ev(4.0)]), gap=4.0)) == 1
    assert len(aggregate(events_of([ev(0.0), ev(4.0000001)]), gap=4.0)) == 2


def test_macs_grouped_independently():
    events = sorted(
        [ev(0.0, MACS[0]), ev(1.0, MACS[1]), ev(2.0, MACS[0]), ev(3.0, MACS[1])],
        key=lambda e: e.timestamp,
    )
    bursts = aggregate(events_of(events), gap=4.0)
    assert len(bursts) == 2
    assert {str(MacAddress(m)) for m in bursts.mac.tolist()} == {str(MACS[0]), str(MACS[1])}
    assert bursts.frame_count.tolist() == [2, 2]


def test_frames_from_several_aps_join_one_burst():
    events = events_of([ev(0.0, ap="ap0"), ev(0.0, ap="ap1"), ev(1.0, ap="ap0")])
    bursts = aggregate(events, gap=4.0)
    assert len(bursts) == 1
    assert bursts.frame_count.tolist() == [3]  # duplicates are kept


def test_unsorted_input_raises():
    with pytest.raises(ValueError, match="sorted"):
        aggregate(events_of([ev(5.0), ev(1.0)]), gap=4.0)


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
        by_mac.setdefault(str(e.mac), []).append(i)
    groups = []
    for indices in by_mac.values():
        current = [indices[0]]
        for prev, cur in zip(indices, indices[1:]):
            if events[cur].timestamp - events[prev].timestamp <= gap:
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

    # reconstruct the aggregate's partition as index groups
    produced = []
    for mac, instant, end in zip(bursts.mac.tolist(), bursts.instant.tolist(),
                                 bursts.end.tolist()):
        members = [
            i
            for i, e in enumerate(events)
            if e.mac.value == mac and instant <= e.timestamp <= end
        ]
        produced.append(members)
    assert sorted(produced) == expected

    # partition property: every event lands in exactly one burst
    assert sum(bursts.frame_count.tolist()) == len(events)


@given(event_lists, st.floats(0.1, 50.0))
def test_output_sorted_and_deterministic(events, gap):
    bursts = aggregate(events_of(events), gap=gap)
    assert _columns(bursts) == _columns(aggregate(events_of(events), gap=gap))
    instants = bursts.instant.tolist()
    assert instants == sorted(instants)
    assert all(bursts.end - bursts.instant <= gap * bursts.frame_count)


def test_reaggregating_spaced_instants_is_identity():
    bursts = aggregate(events_of([ev(0.0), ev(1.0), ev(60.0), ev(61.0)]), gap=4.0)
    instant_events = [ev(t) for t in bursts.instant.tolist()]
    again = aggregate(events_of(instant_events), gap=4.0)
    assert again.instant.tolist() == bursts.instant.tolist()


# ---------------------------------------------------------------- columns vs oracle


def _columns(bursts):
    """Each burst as (mac, instant, end, frame count), in the bursts' order."""
    return list(zip(bursts.mac.tolist(), bursts.instant.tolist(), bursts.end.tolist(),
                    bursts.frame_count.tolist()))


def test_bursts_columns():
    events = [ev(0.0, MACS[1], "b"), ev(0.5, MACS[0]), ev(1.0, MACS[1], "a"), ev(9.0, MACS[1])]
    bursts = aggregate(events_of(events), gap=4.0)
    assert isinstance(bursts, Bursts) and len(bursts) == 3
    assert bursts.instant.tolist() == [0.0, 0.5, 9.0]
    assert bursts.end.tolist() == [1.0, 0.5, 9.0]
    assert bursts.frame_count.tolist() == [2, 1, 1]
    assert bursts.mac.tolist() == [MACS[1].value, MACS[0].value, MACS[1].value]


# frame times on a coarse lattice, so that ties and exact-gap pairs occur
timed_events = st.lists(
    st.tuples(st.integers(0, 400).map(lambda q: q / 4.0), st.integers(0, 3), st.integers(0, 2)),
    max_size=60,
).map(lambda rows: [ev(t, MACS[m], f"ap{a}") for t, m, a in sorted(rows, key=lambda r: r[0])])


@given(timed_events, st.sampled_from([0.25, 1.0, 4.0, 7.5, 50.0]))
def test_aggregate_matches_event_by_event_grouper(events, gap):
    assert _columns(aggregate(events_of(events), gap=gap)) == oracles.aggregate(events, gap)
