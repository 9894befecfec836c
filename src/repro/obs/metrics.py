"""Metric instruments: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` keys every series by ``(name, labels)`` where
``labels`` is the guard-sanitised tuple produced by
:class:`~repro.obs.guard.PrivacyGuard` — identifying label values never
reach a series key.  Histograms use fixed bucket boundaries, so p50/p95/p99
summaries are computed from bucket counts (upper-bound estimate) exactly
like a scrape-based system would, and two runs over the same workload
produce byte-identical snapshots.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.obs.guard import PrivacyGuard

#: Default latency buckets in (simulated) seconds, sub-ms to 10 s.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: The percentiles every histogram summary reports.
SUMMARY_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)

Labels = tuple[tuple[str, str], ...]


def matches(labels, wanted: Labels) -> bool:
    """Label filter: every ``wanted`` pair is among a series' ``labels`` (tuple or dict)."""
    table = dict(labels)
    return all(table.get(key) == value for key, value in wanted)


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time level (queue depth, active spans, ...)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Fixed-bucket distribution with count/sum/min/max sidecars."""

    boundaries: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    min: float = 0.0
    max: float = 0.0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.boundaries) + 1)  # + overflow

    def observe(self, value: float) -> None:
        index = bisect_left(self.boundaries, value)
        self.counts[index] += 1
        if self.count == 0:
            self.min = self.max = value
        elif value < self.min:
            self.min = value
        elif value > self.max:
            self.max = value
        self.count += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile from bucket counts.

        Degenerate series are exact, not estimated: an empty histogram
        reports 0.0 for every quantile and a single-observation one
        reports the lone value — no bucket arithmetic, no index errors.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        if self.count == 1:
            return self.max
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index == len(self.boundaries):
                    return self.max  # overflow bucket: cap at observed max
                return min(self.boundaries[index], self.max)
        return self.max

    def summary(self) -> dict[str, float]:
        """The p50/p95/p99 + count/sum/min/max summary row."""
        row = {
            "count": float(self.count), "sum": self.sum,
            "min": self.min, "max": self.max,
            "mean": self.sum / self.count if self.count else 0.0,
        }
        for q in SUMMARY_QUANTILES:
            row[f"p{int(q * 100)}"] = self.quantile(q)
        return row


class MetricsRegistry:
    """All metric series of one platform instance, guard-protected."""

    def __init__(self, guard: PrivacyGuard | None = None) -> None:
        self.guard = guard or PrivacyGuard()
        self._counters: dict[tuple[str, Labels], Counter] = {}
        self._gauges: dict[tuple[str, Labels], Gauge] = {}
        self._histograms: dict[tuple[str, Labels], Histogram] = {}
        self._memos: list[dict] = []
        #: ``(kind, name, guard.static_key(labels))`` -> series.
        self._bound = self.memo()

    # -- series access -----------------------------------------------------

    def memo(self) -> dict:
        """A dict emptied with the series memo: on :meth:`reset` and
        whenever the guard's classification changes.  Holders of bound
        series (a federation link's counters) keep them in one."""
        memo = self.guard.memo()
        self._memos.append(memo)
        return memo

    def _series(self, store: dict, kind: type, name: str,
                labels: dict[str, object], *args):
        """The ``kind`` series for ``(name, labels)``, created on demand.

        A static label set resolves through the memo without touching the
        guard; one with an identifying key is sanitised on every call.
        """
        items = self.guard.static_key(labels)
        if items is not None:
            series = self._bound.get((kind, name, items))
            if series is not None:
                return series
        key = (name, self.guard.sanitize(labels))
        series = store.get(key)
        if series is None:
            series = store[key] = kind(*args)
        if items is not None:
            self._bound[kind, name, items] = series
        return series

    def counter(self, name: str, **labels: object) -> Counter:
        return self._series(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._series(self._gauges, Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: object
    ) -> Histogram:
        return self._series(self._histograms, Histogram, name, labels,
                            buckets or DEFAULT_BUCKETS)

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Every series as a plain dict row, deterministically ordered.

        Labels are emitted in sorted key order (the guard already sorts
        on sanitise; ``sorted`` here makes the wire contract explicit),
        so merging snapshots from several federation nodes is byte-stable.
        """
        rows: list[dict] = []
        for kind, store in (("counter", self._counters), ("gauge", self._gauges)):
            for (name, labels), series in store.items():
                rows.append({"type": kind, "name": name,
                             "labels": dict(sorted(labels)), "value": series.value})
        for (name, labels), histogram in self._histograms.items():
            rows.append({"type": "histogram", "name": name,
                         "labels": dict(sorted(labels)), **histogram.summary()})
        rows.sort(key=lambda row: (row["name"], sorted(row["labels"].items()),
                                   row["type"]))
        return rows

    def histogram_summaries(self, name: str) -> list[tuple[dict[str, str], dict]]:
        """``(labels, summary)`` per series of histogram ``name``, sorted."""
        return [(labels, found.summary()) for labels, found in self.histogram_series(name)]

    # -- series iteration (the SLO engine's read surface) --------------------

    @staticmethod
    def _named(store: dict, name: str | None = None) -> list:
        """``((name, labels), series)`` of one kind in sorted key order (the
        guard sorts labels on sanitise) — every series, or metric ``name``'s."""
        return sorted((item for item in store.items() if name in (None, item[0][0])),
                      key=lambda item: item[0])

    def counter_series(self, name: str) -> list[tuple[dict[str, str], Counter]]:
        """``(labels, counter)`` per series of counter ``name``, sorted."""
        return [(dict(key[1]), found) for key, found in self._named(self._counters, name)]

    def gauge_series(self, name: str) -> list[tuple[dict[str, str], Gauge]]:
        """``(labels, gauge)`` per series of gauge ``name``, sorted."""
        return [(dict(key[1]), found) for key, found in self._named(self._gauges, name)]

    def histogram_series(self, name: str) -> list[tuple[dict[str, str], Histogram]]:
        """``(labels, histogram)`` per series of histogram ``name``, sorted."""
        return [(dict(key[1]), found) for key, found in self._named(self._histograms, name)]

    # -- full-registry iteration (the time-series store's read surface) ------

    def counter_entries(self) -> list[tuple[tuple[str, Labels], Counter]]:
        """Every counter series as ``((name, labels), counter)``, sorted."""
        return self._named(self._counters)

    def gauge_entries(self) -> list[tuple[tuple[str, Labels], Gauge]]:
        """Every gauge series as ``((name, labels), gauge)``, sorted."""
        return self._named(self._gauges)

    def histogram_entries(self) -> list[tuple[tuple[str, Labels], Histogram]]:
        """Every histogram series as ``((name, labels), histogram)``, sorted."""
        return self._named(self._histograms)

    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter series (0.0 if never touched)."""
        key = (name, self.guard.sanitize(labels))
        series = self._counters.get(key)
        return series.value if series else 0.0

    def reset(self) -> None:
        """Drop every series (scenario reruns, benchmark warm-up)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        for memo in self._memos:
            memo.clear()
