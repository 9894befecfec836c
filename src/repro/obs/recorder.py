"""The flight recorder: a bounded ring of recent operational events.

Cumulative metrics answer "how much, ever"; the flight recorder answers
"what just happened".  It keeps two fixed-capacity rings — one for
discrete operational **events** (SLO alerts, dead-letter shedding,
queue high-water marks, penalty-box transitions) and one for recently
finished **spans** — so a burst of pipeline spans can never evict the
alert that explains it.

Everything stored is already sanitised: event fields pass through the
platform's :class:`~repro.obs.guard.PrivacyGuard` (string values of
identifying keys are hashed, plain strings and numbers pass through),
and spans arrive from the tracer with guard-cleared attributes.  The
recorder is therefore safe to export verbatim into incident bundles.

Determinism: timestamps come from the simulated clock and ordering from
a single monotonically increasing sequence counter shared by both rings,
so ``timeline()`` — the merged, time-ordered view — is byte-stable
across same-seed runs and merges cleanly across federation nodes.

Off (``recorder: noop``, the default) builds nothing:
``controller.recorder`` is ``None``, and the hooks in the bus, scheduler
and SLO engine guard with ``recorder is not None`` and pay nothing.
"""

from __future__ import annotations

from collections import deque

from repro.clock import Clock
from repro.exceptions import ConfigurationError
from repro.obs.guard import PrivacyGuard

#: Event kinds the platform's hooks record (the bus and the scheduler
#: write theirs as literals: they stay import-free of ``repro.obs``).
EVENT_SLO_ALERT = "slo.alert"
EVENT_DEADLETTER = "bus.deadletter"
EVENT_DEMOTION = "sched.penalty_demotion"


class FlightRecorder:
    """Bounded, guard-sanitised ring buffers of recent events and spans."""

    def __init__(
        self,
        clock: Clock | None = None,
        capacity: int = 256,
        span_capacity: int = 256,
        guard: PrivacyGuard | None = None,
    ) -> None:
        if capacity < 1 or span_capacity < 1:
            raise ConfigurationError("flight recorder capacities must be >= 1")
        self.clock = clock or Clock()
        self.guard = guard or PrivacyGuard()
        self.capacity = capacity
        self.span_capacity = span_capacity
        self.frozen = False
        self.dropped_events = 0
        self.dropped_spans = 0
        self._seq = 0
        self._events: deque[dict] = deque(maxlen=capacity)
        #: (seq, span) pairs; rows are materialised lazily in
        #: :meth:`spans` so the hot path pays one deque append per span,
        #: not a dict build for the ~99 % of spans the ring evicts.
        self._spans: deque[tuple[int, object]] = deque(maxlen=span_capacity)

    # -- recording ----------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

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
        row: dict = {"seq": self._next_seq(), "at": self.clock.now(),
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

    def record_span(self, span) -> None:
        """Record one finished span (rendered lazily on read)."""
        if self.frozen:
            return
        if len(self._spans) == self._spans.maxlen:
            self.dropped_spans += 1
        self._spans.append((self._next_seq(), span))

    # -- freezing -----------------------------------------------------------

    def freeze(self) -> dict:
        """Stop recording (idempotent) and return the snapshot.

        An incident watchdog freezes the recorder the moment it fires so
        the minutes *before* the trigger stay in the rings instead of
        being evicted by post-incident traffic.
        """
        self.frozen = True
        return self.snapshot()

    # -- inspection ---------------------------------------------------------

    def events(self) -> list[dict]:
        """Retained events, oldest first."""
        return list(self._events)

    def spans(self) -> list[dict]:
        """Retained span rows, oldest first."""
        return [
            {
                "seq": seq,
                "at": span.end if span.end is not None else span.start,
                "name": span.name,
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "status": span.status,
                "duration": span.duration,
            }
            for seq, span in self._spans
        ]

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
