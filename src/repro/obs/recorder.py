"""The flight recorder: a bounded ring of recent operational events.

Cumulative metrics answer "how much, ever"; the flight recorder answers
"what just happened".  It keeps a fixed-capacity ring of discrete
operational **events** (SLO alerts, dead-letter shedding, queue
high-water marks) and shows the last
``span_capacity`` finished **spans** of the tracer it watches — so a
burst of pipeline spans can never evict the alert that explains it.

The spans are not copied: the recorder reads them from the tracer's ring
of rows (:mod:`repro.obs.tracing`) when its timeline is read, and the
tracer never calls it — except once, at freeze, so that a frozen window
outlives the ring.  Each event notes how many spans had finished when it
was recorded, which gives spans and events one shared sequence.

Everything shown is already sanitised: event fields pass through the
platform's :class:`~repro.obs.guard.PrivacyGuard` (string values of
identifying keys are hashed, plain strings and numbers pass through),
and span attributes are guard-cleared by the tracer.  The recorder is
therefore safe to export verbatim into incident bundles.

Determinism: timestamps come from the simulated clock and ordering from
a single monotonically increasing sequence shared by events and spans,
so ``timeline()`` — the merged, time-ordered view — is byte-stable
across same-seed runs and merges cleanly across federation nodes.

Off (``recorder: noop``, the default) builds nothing:
``controller.recorder`` is ``None``, and the hooks in the bus and the
SLO engine guard with ``recorder is not None`` and pay nothing.
"""

from __future__ import annotations

from collections import deque

from repro.clock import Clock
from repro.exceptions import ConfigurationError
from repro.obs.guard import PrivacyGuard
from repro.obs.tracing import SPAN_CAPACITY

#: Event kinds the platform's hooks record (the bus writes its own as
#: literals: it stays import-free of ``repro.obs``).
EVENT_SLO_ALERT = "slo.alert"
EVENT_DEADLETTER = "bus.deadletter"
#: What a window row shows of a span, after its ``seq`` and ``at`` (its end).
_SPAN_FIELDS = ("name", "trace_id", "span_id", "parent_id", "status", "duration")


class FlightRecorder:
    """A bounded, guard-sanitised event ring plus a window on a tracer's
    last finished spans."""

    def __init__(
        self,
        clock: Clock | None = None,
        capacity: int = 256,
        span_capacity: int = 256,
        guard: PrivacyGuard | None = None,
    ) -> None:
        if capacity < 1 or not 1 <= span_capacity <= SPAN_CAPACITY:
            raise ConfigurationError(
                f"flight recorder capacities must be >= 1 (spans <= {SPAN_CAPACITY})")
        self.clock = clock or Clock()
        self.guard = guard or PrivacyGuard()
        self.capacity = capacity
        self.span_capacity = span_capacity
        self.frozen = False
        self.dropped_events = 0
        #: The :class:`~repro.obs.tracing.Tracer` whose spans show here.
        self.tracer = None
        self._origin = 0  # the tracer's finished count when watched
        self._frozen_spans = 0  # spans seen when frozen
        self._frozen_window: list[dict] = []  # :meth:`spans` when frozen
        self._recorded = 0  # events recorded, evicted ones included
        #: ``[spans seen, events recorded by then]`` per distinct span count
        #: at which events were recorded, oldest first — trimmed to what
        #: the spans the window can still show need.
        self._marks: deque[list[int]] = deque()
        self._events: deque[dict] = deque(maxlen=capacity)

    # -- recording ----------------------------------------------------------

    def watch(self, tracer) -> None:
        """Show the spans ``tracer`` finishes from now on."""
        self.tracer = tracer
        self._origin = tracer.closed

    def _spans_seen(self) -> int:
        """Spans finished on the watched tracer since :meth:`watch`, up to
        the freeze."""
        if self.frozen:
            return self._frozen_spans
        return 0 if self.tracer is None else self.tracer.closed - self._origin

    def record(self, kind: str, **fields: object) -> None:
        """Record one operational event, sanitising field values.

        Numeric fields (depths, thresholds, weights) keep their values —
        they are measurements, not identities.  String fields go through
        the guard so an identifying key can never carry plaintext.
        """
        if self.frozen:
            return
        if len(self._events) == self._events.maxlen:
            self.dropped_events += 1
        seen = self._spans_seen()
        self._recorded += 1
        marks = self._marks
        if marks and marks[-1][0] == seen:
            marks[-1][1] = self._recorded
        else:
            marks.append([seen, self._recorded])
        # A mark whose successor is older than every span the window can
        # still show is never read again.
        while len(marks) > 1 and marks[1][0] <= seen - self.span_capacity:
            marks.popleft()
        row: dict = {"seq": self._recorded + seen, "at": self.clock.now(),
                     "kind": kind}
        for key in sorted(fields):
            value = fields[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                row[key] = dict(self.guard.sanitize({key: value}))[key]
            elif self.guard.is_identifying(key):
                row[key] = self.guard.hash_value(value)
            else:
                row[key] = value
        self._events.append(row)

    # -- freezing -----------------------------------------------------------

    def freeze(self) -> dict:
        """Stop recording (idempotent) and return the snapshot.

        An incident watchdog freezes the recorder the moment it fires so
        the minutes *before* the trigger stay in the window instead of
        being pushed out by post-incident traffic.
        """
        if not self.frozen:
            self._frozen_spans = self._spans_seen()
            self._frozen_window = self.spans()
            self.frozen = True
        return self.snapshot()

    # -- inspection ---------------------------------------------------------

    @property
    def dropped_spans(self) -> int:
        """Spans seen that no longer fit the window."""
        return max(self._spans_seen() - self.span_capacity, 0)

    def events(self) -> list[dict]:
        """Retained events, oldest first."""
        return list(self._events)

    def spans(self) -> list[dict]:
        """The last ``span_capacity`` spans seen, oldest first."""
        if self.frozen:
            return [dict(row) for row in self._frozen_window]
        seen = self._spans_seen()
        marks = iter(self._marks)
        mark = next(marks, None)
        before = 0  # events recorded before the span in hand finished
        rows = []
        for number in range(seen - min(seen, self.span_capacity) + 1, seen + 1):
            while mark is not None and mark[0] < number:
                before = mark[1]
                mark = next(marks, None)
            row = self.tracer.finished[(self._origin + number - 1) % SPAN_CAPACITY]
            span = self.tracer.span_of(row)
            rows.append({"seq": number + before, "at": span.end,
                         **{field: getattr(span, field) for field in _SPAN_FIELDS}})
        return rows

    def timeline(self) -> list[dict]:
        """Events and spans merged into one time-ordered view."""
        merged = [dict(row, entry="event") for row in self._events]
        merged.extend(dict(row, entry="span") for row in self.spans())
        merged.sort(key=lambda row: (row["at"], row["seq"]))
        return merged

    def snapshot(self) -> dict:
        """The recorder's full state as plain data."""
        return {
            "frozen": self.frozen,
            "events": self.events(),
            "spans": self.spans(),
            "dropped_events": self.dropped_events,
            "dropped_spans": self.dropped_spans,
        }
