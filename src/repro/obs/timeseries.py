"""Windowed time series over the metrics registry.

The SLO engine's lifetime ratios answer *"how has the platform done since
boot"* — useless five minutes into an incident, when the operator needs
*"how is it doing right now"*.  :class:`TimeSeriesStore` closes that gap:
on a fixed simulated-clock interval it snapshots **every** counter, gauge
and histogram of a :class:`~repro.obs.metrics.MetricsRegistry` into
bounded ring buffers, and exposes trailing-window reads over them —
:meth:`delta` and :meth:`rate` for counters, :meth:`gauge_worst` for
levels.  Histogram samples are retained and exported
(:meth:`export_rows`), not read back.

A window is **two readings per matching series** — where it ends, and
the newest retained sample at or before its edge (``_window``).  It ends
at the live registry value, or with ``at=`` (``sample_delta`` and
friends) at a retained sample, so the answer no longer depends on when
it is asked: what incident bundles reconstruct history from.

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
from repro.obs.metrics import Histogram, Labels, MetricsRegistry, matches

_EPSILON = 1e-12

#: Series key: metric name + guard-sanitised label tuple.
SeriesKey = tuple[str, Labels]


def _reading(series):
    """What a ring retains of a live series: a counter's or gauge's value,
    a histogram's ``(count, sum)`` (what its export carries)."""
    if isinstance(series, Histogram):
        return series.count, round(series.sum, 9)
    return series.value


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
    """Interval snapshots of a metrics registry in bounded rings.

    ``interval`` is the simulated-clock sampling period; ``capacity``
    bounds every series ring, so memory is O(series × capacity) no
    matter how long the scenario runs.  Callers drive sampling —
    :meth:`maybe_tick` from their operation loop (cheap: one float
    compare when no tick is due), or :meth:`tick` to force a sample.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        clock,
        interval: float = 1.0,
        capacity: int = 256,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("time-series interval must be positive")
        if capacity < 2:
            raise ConfigurationError("time-series capacity must be at least 2")
        self.metrics = metrics
        self.clock = clock
        self.interval = interval
        self.capacity = capacity
        self.ticks = 0
        self._last_tick: float | None = None
        self._counters: dict[SeriesKey, deque] = {}
        self._gauges: dict[SeriesKey, deque] = {}
        self._histograms: dict[SeriesKey, deque] = {}

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
        """Snapshot every registry series into its ring, stamped at now."""
        now = self.clock.now()
        for rings, live in ((self._counters, self.metrics.counter_entries),
                            (self._gauges, self.metrics.gauge_entries),
                            (self._histograms, self.metrics.histogram_entries)):
            for key, series in live():
                self._ring(rings, key).append((now, _reading(series)))
        self.ticks += 1
        self._last_tick = now

    def _ring(self, table: dict[SeriesKey, deque], key: SeriesKey) -> deque:
        ring = table.get(key)
        if ring is None:
            ring = table[key] = deque(maxlen=self.capacity)
        return ring

    def tick_times(self) -> tuple[float, ...]:
        """Every retained sample time, across all rings, sorted."""
        times: set[float] = set()
        for table in (self._counters, self._gauges, self._histograms):
            for ring in table.values():
                times.update(at for at, _ in ring)
        return tuple(sorted(times))

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
        source = (live() if at is None
                  else sorted(rings.items(), key=lambda item: item[0]))
        edge = now - window
        for key, series in source:
            if key[0] != name or not matches(key[1], wanted):
                continue
            ring = rings.get(key) or ()
            end = ((now, _reading(series)) if at is None
                   else _at_or_before(ring, at))
            if end is not None:
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

    def rate(
        self,
        name: str,
        window: float,
        wanted: tuple[tuple[str, str], ...] = (),
    ) -> float:
        """Counter increase per simulated second over the trailing window.

        Early in a run the effective span is clamped to the elapsed
        simulated time (never below one sampling interval), so a burst at
        t=0.5s is not divided by a 60 s window it never lived through.
        """
        span = max(min(window, self.clock.now()), self.interval)
        return self.delta(name, window, wanted=wanted) / span

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

    # -- sample-anchored windows (historical points, incident bundles) -----

    def sample_delta(
        self,
        name: str,
        at: float,
        window: float,
        wanted: tuple[tuple[str, str], ...] = (),
    ) -> float:
        """Counter increase over ``[at - window, at]`` from samples only.

        The historical sibling of :meth:`delta` — both window ends come
        from retained samples, so the answer is the same whenever it is
        asked.  Incident bundles use it to reconstruct the burn-rate
        trajectory leading up to a trigger.
        """
        return self.delta(name, window, wanted=wanted, at=at)

    def sample_gauge_worst(
        self,
        name: str,
        at: float,
        window: float,
        wanted: tuple[tuple[str, str], ...] = (),
    ) -> float | None:
        """Historical sibling of :meth:`gauge_worst`, samples only."""
        return self.gauge_worst(name, window, wanted=wanted, at=at)

    # -- export ------------------------------------------------------------

    def export_rows(self, names: tuple[str, ...] | None = None) -> list[dict]:
        """Every retained series as a deterministic plain-dict row.

        ``names`` filters to the given metric names (None: everything).
        Counter/gauge points are ``[at, value]`` pairs; histogram points
        are ``[at, count, sum]`` — enough to recompute any windowed rate
        offline without shipping every bucket of every sample.
        """
        rows: list[dict] = []
        for kind, table in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms)):
            for (name, labels), ring in table.items():
                if names is not None and name not in names:
                    continue
                rows.append({
                    "type": kind, "name": name,
                    "labels": dict(sorted(labels)),
                    "points": [
                        [at, *reading] if kind == "histogram" else [at, reading]
                        for at, reading in ring
                    ],
                })
        rows.sort(key=lambda row: (row["name"], sorted(row["labels"].items()),
                                   row["type"]))
        return rows
