"""Metric instruments: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` keys every series by ``(name, labels)``, the
labels sanitised by :class:`~repro.obs.guard.PrivacyGuard` — identifying
values never reach a series key.  Histogram quantiles are upper-bound
estimates from fixed buckets, so snapshots are byte-identical run to run.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable

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
    """All metric series of one platform instance, guard-protected: pushed
    (``counter`` / ``gauge`` / ``histogram``) or read off stats their owner
    keeps anyway (:meth:`reader`), merged on every read."""

    def __init__(self, guard: PrivacyGuard | None = None) -> None:
        self.guard = guard or PrivacyGuard()
        #: Pushed series per kind: ``(name, labels)`` -> instrument.
        self._series: dict[type, dict[tuple[str, Labels], object]] = {
            Counter: {}, Gauge: {}, Histogram: {}}
        #: ``(kind, name, read)`` in registration order.
        self._readers: list[tuple[type, str, Callable[[], Iterable]]] = []
        #: Static label sets (:meth:`PrivacyGuard.static_key`) -> sanitised.
        self._labels = self.guard.memo()

    # -- series access -----------------------------------------------------

    def _cleared(self, labels: dict[str, object]) -> Labels:
        """``labels`` through the guard, once per static label set."""
        items = tuple(labels.items())
        cleared = self._labels.get(items)
        if cleared is None:
            cleared = self.guard.sanitize(labels)
            if self.guard.static_key(labels) is not None:
                self._labels[items] = cleared
        return cleared

    def _pushed(self, kind: type, name: str, labels: dict[str, object], *args):
        """The pushed ``kind`` series for ``(name, labels)``, created on demand."""
        store = self._series[kind]
        key = (name, self._cleared(labels))
        series = store.get(key)
        if series is None:
            series = store[key] = kind(*args)
        return series

    def counter(self, name: str, **labels: object) -> Counter:
        return self._pushed(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._pushed(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: object
    ) -> Histogram:
        return self._pushed(Histogram, name, labels, buckets or DEFAULT_BUCKETS)

    def reader(self, kind: str, name: str,
               read: Callable[[], Iterable[tuple[dict, float]]]) -> None:
        """Serve ``kind`` (``"counter"`` / ``"gauge"``) series ``name`` from ``read()``'s
        ``(labels, value)`` rows, labels guard-cleared on read; merged with a pushed
        series of one name and labels, counters add and gauges take the max."""
        self._readers.append(({"counter": Counter, "gauge": Gauge}[kind], name, read))

    def _entries(self, kind: type, names=None) -> list:
        """``((name, labels), series)`` of one kind (all, or those of ``names``), sorted."""
        merged = {key: series for key, series in self._series[kind].items()
                  if names is None or key[0] in names}
        for read_kind, read_name, read in self._readers:
            if read_kind is kind and (names is None or read_name in names):
                for labels, value in read():
                    key = (read_name, self._cleared(labels))
                    found, value = merged.get(key), float(value)
                    if found is not None:
                        value = (found.value + value if kind is Counter
                                 else max(found.value, value))
                    merged[key] = kind(value)
        return sorted(merged.items(), key=lambda item: item[0])

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Every series as a plain dict row, deterministically ordered.

        Labels are emitted in sorted key order (the guard already sorts
        on sanitise; ``sorted`` here makes the wire contract explicit),
        so merging snapshots from several federation nodes is byte-stable.
        """
        rows = [{"type": kind, "name": name, "labels": dict(sorted(labels)),
                 **({"value": series.value} if kind != "histogram" else series.summary())}
                for kind, entries in (("counter", self.counter_entries()),
                                      ("gauge", self.gauge_entries()),
                                      ("histogram", self.histogram_entries()))
                for (name, labels), series in entries]
        rows.sort(key=lambda row: (row["name"], sorted(row["labels"].items()),
                                   row["type"]))
        return rows

    def histogram_summaries(self, name: str) -> list[tuple[dict[str, str], dict]]:
        """``(labels, summary)`` per series of histogram ``name``, sorted."""
        return [(dict(key[1]), found.summary())
                for key, found in self._entries(Histogram, (name,))]

    # -- series iteration (the SLO engine's read surface) --------------------

    def counter_series(self, name: str) -> list[tuple[dict[str, str], Counter]]:
        """``(labels, counter)`` per series of counter ``name``, sorted."""
        return [(dict(key[1]), found) for key, found in self._entries(Counter, (name,))]

    def gauge_series(self, name: str) -> list[tuple[dict[str, str], Gauge]]:
        """``(labels, gauge)`` per series of gauge ``name``, sorted."""
        return [(dict(key[1]), found) for key, found in self._entries(Gauge, (name,))]

    # -- full-registry iteration (the time-series store's read surface) ------

    def counter_entries(self, names=None) -> list[tuple[tuple[str, Labels], Counter]]:
        """Every counter series (of ``names``, if given) as ``((name, labels),
        counter)``, sorted."""
        return self._entries(Counter, names)

    def gauge_entries(self, names=None) -> list[tuple[tuple[str, Labels], Gauge]]:
        """Every gauge series (of ``names``, if given) as ``((name, labels),
        gauge)``, sorted."""
        return self._entries(Gauge, names)

    def histogram_entries(self) -> list[tuple[tuple[str, Labels], Histogram]]:
        """Every histogram series as ``((name, labels), histogram)``, sorted."""
        return self._entries(Histogram)

    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter series (0.0 if never counted)."""
        series = dict(self._entries(Counter, (name,))).get(
            (name, self._cleared(labels)))
        return series.value if series else 0.0

    def reset(self) -> None:
        """Drop every pushed series (scenario reruns, benchmark warm-up);
        what a reader reads is its owner's to reset."""
        for store in self._series.values():
            store.clear()
