"""The row tracer and the recorder's view over it, against the eager pair.

``Tracer`` keeps spans as rows of flat columns and builds a ``Span`` only
when one is read; ``FlightRecorder`` copies no span and derives its window,
its shared sequence and ``dropped_spans`` from those rows.  What they
replaced — one ``Span`` object per open, and a recorder ring that every
finished span was pushed into — is kept here as the reference, and a
hypothesis property drives both with the same steps: nested opens and
closes (through ``span()`` and through the row handle), remote parents,
failures, ``set_attribute``, and a recorder watching from a drawn moment,
with events interleaved and a freeze.  After every step every read must
agree: finished spans, the JSONL export, the recorder's timeline,
snapshot and dropped counts; and a ``span()`` scope is the very object
every read of its row returns.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clock import Clock
from repro.exceptions import AccessDeniedError
from repro.obs.context import TraceContext
from repro.obs.exporters import span_lines
from repro.obs.guard import PrivacyGuard
from repro.obs.recorder import FlightRecorder
from repro.obs.tracing import STATUS_ERROR, STATUS_OK, Tracer

# -- the reference: one object per span, a ring the tracer pushes into ------


@dataclass(slots=True)
class EagerSpan:
    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float | None = None
    status: str = STATUS_OK
    error: str = ""
    attributes: Mapping[str, str] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id, "span_id": self.span_id,
            "parent_id": self.parent_id, "name": self.name,
            "start": self.start, "end": self.end, "duration": self.duration,
            "status": self.status, "error": self.error,
            "attributes": dict(sorted(self.attributes.items())),
        }


class EagerTracer:
    """The tracer before rows: a ``Span`` per open, ids minted at open."""

    def __init__(self, clock: Clock, guard: PrivacyGuard, site: str = "") -> None:
        self._clock, self.guard, self.site = clock, guard, site
        self.recorder = None
        self._finished: list[EagerSpan] = []
        self._stack: list[EagerSpan] = []
        self._trace_counter = self._span_counter = 0

    def _prefixed(self, body: str) -> str:
        return f"{self.site}/{body}" if self.site else body

    def cleared(self, attributes: dict) -> dict[str, str]:
        return dict(self.guard.sanitize(attributes))

    def set_attribute(self, span: EagerSpan, key: str, value: object) -> None:
        span.attributes = {**span.attributes, **self.cleared({key: value})}

    def open(self, name: str, attributes: Mapping[str, str],
             remote_parent: TraceContext | None = None) -> EagerSpan:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif remote_parent is not None:
            trace_id, parent_id = remote_parent.trace_id, remote_parent.span_id
        else:
            self._trace_counter += 1
            trace_id = self._prefixed(f"tr-{self._trace_counter:06d}")
            parent_id = None
        self._span_counter += 1
        span = EagerSpan(trace_id=trace_id,
                         span_id=self._prefixed(f"sp-{self._span_counter:06d}"),
                         parent_id=parent_id, name=name,
                         start=self._clock.now(), attributes=attributes)
        self._stack.append(span)
        return span

    def finish(self, span: EagerSpan, exc_type: type | None = None) -> None:
        if exc_type is not None:
            span.status, span.error = STATUS_ERROR, exc_type.__name__
        span.end = self._clock.now()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self._finished.append(span)
        if self.recorder is not None:
            self.recorder.record_span(span)

    def finished_spans(self) -> tuple[EagerSpan, ...]:
        return tuple(self._finished)


class EagerRecorder:
    """The recorder before the view: a second ring every span is pushed into."""

    def __init__(self, clock: Clock, capacity: int, span_capacity: int,
                 guard: PrivacyGuard) -> None:
        self.clock, self.guard = clock, guard
        self.frozen = False
        self.dropped_events = self.dropped_spans = 0
        self._seq = 0
        self._events: deque[dict] = deque(maxlen=capacity)
        self._spans: deque[tuple[int, EagerSpan]] = deque(maxlen=span_capacity)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def record(self, kind: str, **fields: object) -> None:
        if self.frozen:
            return
        if len(self._events) == self._events.maxlen:
            self.dropped_events += 1
        row: dict = {"seq": self._next_seq(), "at": self.clock.now(), "kind": kind}
        for key in sorted(fields):
            value = fields[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                row[key] = dict(self.guard.sanitize({key: value}))[key]
            elif self.guard.is_identifying(key):
                row[key] = self.guard.hash_value(value)
            else:
                row[key] = value
        self._events.append(row)

    def record_span(self, span: EagerSpan) -> None:
        if self.frozen:
            return
        if len(self._spans) == self._spans.maxlen:
            self.dropped_spans += 1
        self._spans.append((self._next_seq(), span))

    def freeze(self) -> dict:
        self.frozen = True
        return self.snapshot()

    def spans(self) -> list[dict]:
        return [{"seq": seq, "at": span.end if span.end is not None else span.start,
                 "name": span.name, "trace_id": span.trace_id,
                 "span_id": span.span_id, "parent_id": span.parent_id,
                 "status": span.status, "duration": span.duration}
                for seq, span in self._spans]

    def timeline(self) -> list[dict]:
        merged = [dict(row, entry="event") for row in self._events]
        merged.extend(dict(row, entry="span") for row in self.spans())
        merged.sort(key=lambda row: (row["at"], row["seq"]))
        return merged

    def snapshot(self) -> dict:
        return {"frozen": self.frozen, "events": list(self._events),
                "spans": self.spans(), "dropped_events": self.dropped_events,
                "dropped_spans": self.dropped_spans}


# -- the property -------------------------------------------------------------

NAMES = ("pipeline.publish", "stage.decide", "link.call", "federation.op")
ATTRIBUTES = ({}, {"stage": "decide"}, {"op": "index.store", "node": "h:1"},
              {"subject_ref": "pat-9", "pipeline": "probe"})
REMOTE = TraceContext(trace_id="h:b/tr-000009", span_id="h:b/sp-000033")
FAILURES = (None, KeyError, AccessDeniedError)

OPEN = st.tuples(st.just("open"), st.sampled_from(NAMES),
                 st.integers(0, len(ATTRIBUTES) - 1), st.booleans(), st.booleans())
CLOSE = st.tuples(st.just("close"), st.sampled_from(FAILURES))
EVENT = st.tuples(st.just("event"), st.sampled_from(("bus.deadletter", "slo.alert")),
                  st.sampled_from((3, 0.5, "events.x", "pat-2")))
#: Opens, closes and events drawn three times as often as the rest, so
#: that windows fill, events fall between spans and marks get trimmed.
STEPS = st.lists(st.one_of(
    OPEN, CLOSE, EVENT, OPEN, CLOSE, EVENT, OPEN, CLOSE, EVENT,
    st.tuples(st.just("set_attribute"), st.sampled_from(("outcome", "patient_id")),
              st.sampled_from(("error", "pat-4"))),
    st.tuples(st.just("advance"), st.sampled_from((0.0, 0.25, 1.0))),
    st.tuples(st.just("watch")),
    st.tuples(st.just("freeze")),
), min_size=10, max_size=60)


class Pair:
    """The product and the reference, stepped together."""

    def __init__(self, site: str, capacity: int, span_capacity: int) -> None:
        self.clock = Clock()
        self.tracer = Tracer(self.clock, PrivacyGuard(secret="s"), site=site)
        self.eager = EagerTracer(self.clock, PrivacyGuard(secret="s"), site=site)
        self.recorder = FlightRecorder(self.clock, capacity, span_capacity,
                                       PrivacyGuard(secret="s"))
        self.eager_recorder = EagerRecorder(self.clock, capacity, span_capacity,
                                            PrivacyGuard(secret="s"))
        #: Per open span: (scope or row, the reference's span, via span()).
        self.open: list[tuple[object, EagerSpan, bool]] = []

    def step(self, action: str, *args) -> None:
        tracer, eager = self.tracer, self.eager
        if action == "open":
            name, which, remote, scoped = args
            attributes = ATTRIBUTES[which]
            parent = REMOTE if remote else None
            if scoped:
                handle = tracer.span(name, remote_parent=parent, **attributes)
                assert handle.__enter__() is handle
                assert tracer.current_span is handle
            else:
                handle = tracer.open(name, tracer.cleared(attributes), parent)
            self.open.append((handle, eager.open(
                name, eager.cleared(attributes), parent), scoped))
        elif action == "close" and self.open:
            handle, span, scoped = self.open.pop()
            (failure,) = args
            if scoped:
                handle.__exit__(failure, None, None)
                assert tracer.finished_spans()[-1] is handle
            else:
                tracer.close(handle, failure)
            eager.finish(span, failure)
        elif action == "set_attribute" and self.open:
            handle, span, scoped = self.open[-1]
            key, value = args
            if scoped:
                tracer.set_attribute(handle, key, value)
            else:
                tracer.set_attribute(tracer.span_of(handle), key, value)
            eager.set_attribute(span, key, value)
        elif action == "advance":
            self.clock.advance(args[0])
        elif action == "event":
            kind, value = args
            self.recorder.record(kind, depth=value, subject=value)
            self.eager_recorder.record(kind, depth=value, subject=value)
        elif action == "watch" and self.recorder.tracer is None:
            self.recorder.watch(tracer)
            eager.recorder = self.eager_recorder
        elif action == "freeze":
            assert self.recorder.freeze() == self.eager_recorder.freeze()

    def check(self) -> None:
        spans = self.tracer.finished_spans()
        assert [span.to_dict() for span in spans] == [
            span.to_dict() for span in self.eager.finished_spans()]
        assert span_lines(spans) == span_lines(self.eager.finished_spans())
        again = self.tracer.finished_spans()
        assert all(first is second for first, second in zip(spans, again))
        for name in NAMES:
            assert [span.to_dict() for span in self.tracer.spans_named(name)] == [
                span.to_dict() for span in spans if span.name == name]
        assert self.recorder.timeline() == self.eager_recorder.timeline()
        assert self.recorder.snapshot() == self.eager_recorder.snapshot()
        assert self.recorder.dropped_spans == self.eager_recorder.dropped_spans
        assert self.recorder.dropped_events == self.eager_recorder.dropped_events


@settings(max_examples=300, deadline=None)
# The trim edge: with a one-span window, the mark of the events before the
# one span shown must survive the event recorded right after it.
@example(steps=[("event", "slo.alert", 3), ("open", "link.call", 0, False, True),
                ("close", None), ("event", "slo.alert", 3)],
         site="", capacity=2, span_capacity=1, watched=True)
@given(steps=STEPS, site=st.sampled_from(("", "h:a")),
       capacity=st.integers(1, 4), span_capacity=st.integers(1, 3),
       watched=st.booleans())
def test_rows_and_the_recorder_view_read_as_the_eager_pair(
        steps, site, capacity, span_capacity, watched):
    pair = Pair(site, capacity, span_capacity)
    if watched:  # from the start; else from a drawn "watch" step, if any
        pair.step("watch")
    for action, *args in steps:
        pair.step(action, *args)
        pair.check()
    while pair.open:  # close what is left
        pair.step("close", None)
        pair.check()
