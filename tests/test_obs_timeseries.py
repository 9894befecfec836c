"""The windowed time-series store: ticking, windows, determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import Clock
from repro.exceptions import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesStore


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def metrics():
    return MetricsRegistry()


@pytest.fixture()
def store(metrics, clock):
    return TimeSeriesStore(metrics, clock, ("ops_total", "depth"),
                           interval=1.0, capacity=8)


class TestConstruction:
    def test_rejects_non_positive_interval(self, metrics, clock):
        with pytest.raises(ConfigurationError):
            TimeSeriesStore(metrics, clock, (), interval=0.0)

    def test_rejects_tiny_capacity(self, metrics, clock):
        with pytest.raises(ConfigurationError):
            TimeSeriesStore(metrics, clock, (), capacity=1)


class TestTicking:
    def test_maybe_tick_respects_interval(self, store, clock):
        assert store.maybe_tick() is True
        assert store.maybe_tick() is False  # same instant: not due yet
        clock.advance(0.5)
        assert store.maybe_tick() is False
        clock.advance(0.5)
        assert store.maybe_tick() is True
        assert store.ticks == 2

    def test_rings_are_bounded_by_capacity(self, metrics, clock):
        store = TimeSeriesStore(metrics, clock, ("ops_total",), interval=1.0,
                                capacity=4)
        counter = metrics.counter("ops_total")
        for _ in range(10):
            counter.inc()
            store.tick()
            clock.advance(1.0)
        [row] = store.export_rows()
        assert len(row["points"]) == 4  # oldest samples evicted

    def test_tick_times_are_sorted_and_deduplicated(self, store, metrics,
                                                    clock):
        metrics.counter("ops_total").inc()
        metrics.gauge("depth").set(1)
        store.tick()
        clock.advance(1.0)
        store.tick()
        times = store.tick_times()
        assert times == tuple(sorted(set(times)))
        assert len(times) == 2


class TestCounterWindows:
    def test_delta_is_increase_over_window(self, store, metrics, clock):
        counter = metrics.counter("ops_total")
        counter.inc(5)
        store.tick()
        clock.advance(10.0)
        counter.inc(3)
        store.tick()
        assert store.delta("ops_total", window=5.0) == pytest.approx(3.0)
        assert store.delta("ops_total", window=60.0) == pytest.approx(8.0)

    def test_delta_sums_matching_series(self, store, metrics, clock):
        metrics.counter("ops_total", topic="a").inc(2)
        metrics.counter("ops_total", topic="b").inc(4)
        store.tick()
        clock.advance(1.0)
        assert store.delta("ops_total", window=5.0) == pytest.approx(6.0)
        assert store.delta(
            "ops_total", window=5.0, wanted=(("topic", "a"),)
        ) == pytest.approx(2.0)


class TestGaugeWindows:
    def test_gauge_worst_includes_live_value(self, store, metrics, clock):
        gauge = metrics.gauge("depth")
        gauge.set(3)
        store.tick()
        clock.advance(0.5)
        gauge.set(9)  # spike between ticks
        assert store.gauge_worst("depth", window=5.0) == pytest.approx(9.0)

    def test_gauge_worst_none_without_series(self, store):
        assert store.gauge_worst("depth", window=5.0) is None


class TestSampleAnchoredWindows:
    """The historical reads incident bundles are reconstructed from."""

    def test_sample_delta_ignores_post_window_growth(self, store, metrics,
                                                     clock):
        counter = metrics.counter("ops_total")
        counter.inc(5)
        store.tick()           # t=0: 5
        clock.advance(1.0)
        counter.inc(3)
        store.tick()           # t=1: 8
        clock.advance(1.0)
        counter.inc(100)
        store.tick()           # t=2: 108
        assert store.delta(
            "ops_total", window=1.0, at=1.0
        ) == pytest.approx(3.0)

    def test_sample_reads_are_stable_over_time(self, store, metrics, clock):
        counter = metrics.counter("ops_total")
        gauge = metrics.gauge("depth")
        for value in (1, 2, 3):
            counter.inc(value)
            gauge.set(value)
            store.tick()
            clock.advance(1.0)
        before = (
            store.delta("ops_total", window=1.0, at=1.0),
            store.gauge_worst("depth", window=1.0, at=1.0),
        )
        counter.inc(50)
        gauge.set(50)
        clock.advance(10.0)
        store.tick()
        after = (
            store.delta("ops_total", window=1.0, at=1.0),
            store.gauge_worst("depth", window=1.0, at=1.0),
        )
        assert before == after  # history does not rewrite itself

    def test_sample_gauge_worst_is_window_max(self, store, metrics, clock):
        gauge = metrics.gauge("depth")
        for value in (2, 7, 1):
            gauge.set(value)
            store.tick()
            clock.advance(1.0)
        assert store.gauge_worst(
            "depth", window=2.0, at=2.0
        ) == pytest.approx(7.0)


WINDOWS = (0.5, 1.0, 2.5, 60.0)
LABELS = ({}, {"shard": "a"}, {"shard": "b"})

#: One step: touch a series of one kind, then let simulated time pass.
STEPS = st.lists(st.tuples(
    st.sampled_from(("counter", "gauge")),
    st.sampled_from(LABELS),
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    st.sampled_from((0.0, 0.25, 1.0, 3.0)),
), min_size=1, max_size=12)


def _apply(metrics, clock, steps):
    for kind, labels, value, advance in steps:
        if kind == "counter":
            metrics.counter("ops_total", **labels).inc(value)
        else:
            metrics.gauge("depth", **labels).set(value)
        clock.advance(advance)


def _reads(store, at=None):
    """Every window read of every kind — trailing, or anchored at ``at``."""
    rows = []
    for window in WINDOWS:
        for wanted in ((), (("shard", "a"),)):
            rows.append((store.delta("ops_total", window, wanted, at=at),
                         store.gauge_worst("depth", window, wanted, at=at)))
    return rows


class TestTrailingEqualsAnchored:
    """A window is two readings; only where it *ends* differs between the
    trailing and the ``at=``-anchored read."""

    @settings(max_examples=60, deadline=None)
    @given(rounds=st.lists(STEPS, min_size=1, max_size=5), after=STEPS)
    def test_reads_agree_at_a_tick_and_part_between_ticks(self, rounds,
                                                          after):
        clock, metrics = Clock(), MetricsRegistry()
        store = TimeSeriesStore(metrics, clock, ("ops_total", "depth"),
                                interval=1.0, capacity=4)
        for steps in rounds:
            _apply(metrics, clock, steps)
            store.tick()
            ticked_at = clock.now()
            assert _reads(store) == _reads(store, at=ticked_at)
        anchored = _reads(store, at=ticked_at)
        _apply(metrics, clock, after)
        seen = store.delta("ops_total", 60.0)
        metrics.counter("ops_total").inc(7)
        metrics.gauge("depth").set(1e6)
        # Between ticks the trailing read ends at the live value ...
        assert store.delta("ops_total", 60.0) == pytest.approx(seen + 7)
        assert store.gauge_worst("depth", 60.0) == 1e6
        # ... and history anchored at the last tick has not moved.
        assert _reads(store, at=ticked_at) == anchored


class TestExport:
    def test_export_rows_deterministic_and_filtered(self, metrics, clock):
        store = TimeSeriesStore(metrics, clock, ("b_total", "a_total"),
                                interval=1.0)
        metrics.counter("b_total").inc()
        metrics.counter("a_total").inc(2)
        metrics.counter("unread_total").inc()  # not handed: never sampled
        store.tick()
        rows = store.export_rows()
        assert [row["name"] for row in rows] == ["a_total", "b_total"]
        assert rows == store.export_rows()  # stable on re-read
        only = store.export_rows(names=("a_total",))
        assert [row["name"] for row in only] == ["a_total"]
        assert only[0]["points"] == [[0.0, 2.0]]  # [at, value]
