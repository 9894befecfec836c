"""Windowed time series over the metrics registry.

The SLO engine's lifetime ratios answer *"how has the platform done since
boot"* — useless five minutes into an incident, when the operator needs
*"how is it doing right now"*.  :class:`TimeSeriesStore` closes that gap:
on a fixed simulated-clock interval it snapshots the counters and gauges
of the metric names it was handed (the ones its readers read) into
bounded ring buffers, and exposes trailing-window reads over them —
:meth:`delta` for counters, :meth:`gauge_worst` for levels — and the
retained points (:meth:`export_rows`).

A window is **two readings per matching series** — where it ends, and
the newest retained sample at or before its edge (``_window``).  It ends
at the live registry value, or with ``at=`` at a retained sample, so the
answer no longer depends on when it is asked: what incident bundles
reconstruct history from.

Determinism: sample timestamps come from the simulated clock, rings are
plain deques, and every read iterates series in sorted-key order — two
same-seed runs produce byte-identical exports (:meth:`export_rows`), the
property the incident bundles' byte-identity tests rely on.

Privacy: the store only sees series keys the registry's
:class:`~repro.obs.guard.PrivacyGuard` already sanitised.
"""

from __future__ import annotations

from collections import deque

from repro.exceptions import ConfigurationError
from repro.obs.metrics import Labels, MetricsRegistry, matches

_EPSILON = 1e-12

#: Series key: metric name + guard-sanitised label tuple.
SeriesKey = tuple[str, Labels]


def _at_or_before(ring, edge: float):
    """The newest ``(at, reading)`` at or before ``edge`` (None: ring starts later)."""
    found = None
    for sample in ring:
        if sample[0] <= edge + _EPSILON:
            found = sample
        else:
            break
    return found


class TimeSeriesStore:
    """Interval snapshots of named registry series in bounded rings.

    ``names`` are the metric names sampled — every counter and gauge
    series of each; nothing else of the registry is read.  ``interval``
    is the simulated-clock sampling period; ``capacity`` bounds every
    series ring (and the ring of tick times), so memory is
    O(series × capacity) no matter how long the scenario runs.  Callers
    drive sampling — :meth:`maybe_tick` from their operation loop (cheap:
    one float compare when no tick is due), or :meth:`tick` to force a
    sample.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        clock,
        names,
        interval: float = 1.0,
        capacity: int = 256,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("time-series interval must be positive")
        if capacity < 2:
            raise ConfigurationError("time-series capacity must be at least 2")
        self.metrics = metrics
        self.clock = clock
        self.names = frozenset(names)
        self.interval = interval
        self.capacity = capacity
        self.ticks = 0
        self._last_tick: float | None = None
        self._times: deque = deque(maxlen=capacity)
        self._counters: dict[SeriesKey, deque] = {}
        self._gauges: dict[SeriesKey, deque] = {}

    # -- sampling ----------------------------------------------------------

    def maybe_tick(self) -> bool:
        """Take a sample if at least ``interval`` has elapsed since the last."""
        now = self.clock.now()
        if (
            self._last_tick is not None
            and now - self._last_tick < self.interval - _EPSILON
        ):
            return False
        self.tick()
        return True

    def tick(self) -> None:
        """Snapshot every series of the named metrics, stamped at now."""
        now = self.clock.now()
        for rings, live in ((self._counters, self.metrics.counter_entries),
                            (self._gauges, self.metrics.gauge_entries)):
            for key, series in live(self.names):
                ring = rings.get(key)
                if ring is None:
                    ring = rings[key] = deque(maxlen=self.capacity)
                ring.append((now, series.value))
        if not self._times or self._times[-1] != now:
            self._times.append(now)
        self.ticks += 1
        self._last_tick = now

    def tick_times(self) -> tuple[float, ...]:
        """The retained sample times, oldest first."""
        return tuple(self._times)

    # -- windows -----------------------------------------------------------

    def _window(self, rings: dict[SeriesKey, deque], live, name: str,
                window: float, wanted, at: float | None):
        """The readings a window over metric ``name`` is computed from.

        Yields the readings ``(end, base, held)`` per matching series in
        sorted key order.  ``end`` is where the window ends: the live
        registry value (``at`` None — no staleness), or the newest retained
        sample at or before ``at`` (samples only, so the answer is the same
        whenever it is asked; a series with none is skipped).  ``base`` is
        the newest retained sample at or before the window's edge — None
        for a series younger than the window, which is counted from zero,
        exactly the monotone-from-boot truth of counters.
        ``held`` iterates every reading inside the window, ``end``
        included: what a level, unlike an increase, is read from.
        """
        now = self.clock.now() if at is None else at
        if at is None:
            ends = [(key, (now, series.value)) for key, series in live((name,))]
        else:
            ends = [(key, _at_or_before(ring, at))
                    for key, ring in sorted(rings.items(),
                                            key=lambda item: item[0])
                    if key[0] == name]
        edge = now - window
        for key, end in ends:
            if end is None or not matches(key[1], wanted):
                continue
            ring = rings.get(key) or ()
            base = _at_or_before(ring, edge)
            yield end[1], None if base is None else base[1], (
                reading for taken, reading in (*ring, end)
                if edge - _EPSILON <= taken <= now + _EPSILON)

    def delta(
        self,
        name: str,
        window: float,
        wanted: tuple[tuple[str, str], ...] = (),
        at: float | None = None,
    ) -> float:
        """Counter increase over the trailing ``window``, summed over the
        matching series (``at``: over ``[at - window, at]``, samples only).
        """
        total = 0.0
        for end, base, _ in self._window(
                self._counters, self.metrics.counter_entries,
                name, window, wanted, at):
            total += end - (base if base is not None else 0.0)
        return total

    def gauge_worst(
        self,
        name: str,
        window: float,
        wanted: tuple[tuple[str, str], ...] = (),
        at: float | None = None,
    ) -> float | None:
        """Worst (highest) matching gauge level seen over the window.

        Every retained sample inside the window counts, and so does where
        it ends — the live value, so a spike between two ticks is seen
        (``at``: only samples in ``[at - window, at]``).  ``None`` when
        no matching series has a reading in the window.
        """
        worst: float | None = None
        for _, _, held in self._window(
                self._gauges, self.metrics.gauge_entries,
                name, window, wanted, at):
            for value in held:
                worst = value if worst is None else max(worst, value)
        return worst

    # -- export ------------------------------------------------------------

    def export_rows(self, names: tuple[str, ...] | None = None) -> list[dict]:
        """Every retained series as a deterministic plain-dict row.

        ``names`` filters to the given metric names (None: everything).
        Points are ``[at, value]`` pairs.
        """
        rows = [{"type": kind, "name": name,
                 "labels": dict(sorted(labels)),
                 "points": [[at, value] for at, value in ring]}
                for kind, table in (("counter", self._counters),
                                    ("gauge", self._gauges))
                for (name, labels), ring in table.items()
                if names is None or name in names]
        rows.sort(key=lambda row: (row["name"], sorted(row["labels"].items()),
                                   row["type"]))
        return rows
