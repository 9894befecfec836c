"""Deterministic tracing: spans with parent/child context propagation.

One trace per pipeline execution (a publish, a request-for-details), one
child span per pipeline stage.  Timestamps come from the platform's
simulated :class:`~repro.clock.Clock` and span/trace ids from plain
counters, so the same seeded scenario always produces the same spans —
the trace-determinism tests diff the JSONL export byte for byte.

Span attributes pass through the :class:`~repro.obs.guard.PrivacyGuard`
exactly like metric labels: a span can say *which stage* denied *which
event type*, never *whose* event it was.

Federation support: a tracer built with a ``site`` prefix (the node's
guard-hashed label) mints globally unique ids, and ``span(...,
remote_parent=ctx)`` joins a trace started on another node — the wire
carries only a :class:`~repro.obs.context.TraceContext`, never content.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.clock import Clock
from repro.obs.context import TraceContext
from repro.obs.guard import PrivacyGuard

#: Span status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclass(slots=True)
class Span:
    """One timed operation inside a trace."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float | None = None
    status: str = STATUS_OK
    error: str = ""
    #: Guard-cleared; may be one read-only mapping shared between spans —
    #: add to it through :meth:`Tracer.set_attribute`, which copies.
    attributes: Mapping[str, str] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span duration in (simulated) seconds; 0.0 while still open."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict:
        """Plain-dict rendering (JSONL export, assertions)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attributes": dict(sorted(self.attributes.items())),
        }


class _SpanContext:
    """Context manager closing a span (and popping the tracer stack)."""

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.finish(self.span, exc_type)
        return False  # never swallow — pipeline semantics stay intact


class Tracer:
    """Produces spans; propagates parent/child context via an open-span stack."""

    def __init__(self, clock: Clock, guard: PrivacyGuard | None = None,
                 site: str = "") -> None:
        self._clock = clock
        self.guard = guard or PrivacyGuard()
        #: Id prefix distinguishing this tracer's spans across a federation.
        #: Pass the node's guard-hashed label so exports stay pseudonymous.
        self.site = site
        #: Optional flight recorder mirroring finished spans into its ring.
        self.recorder = None
        self._finished: list[Span] = []
        self._stack: list[Span] = []
        #: ``guard.static_key(attributes)`` -> guard-cleared pairs.
        self._attribute_memo = self.guard.memo()
        self._trace_counter = 0
        self._span_counter = 0

    def _prefixed(self, body: str) -> str:
        return f"{self.site}/{body}" if self.site else body

    # -- span lifecycle ----------------------------------------------------

    def cleared(self, attributes: dict[str, object]) -> dict[str, str]:
        """``attributes`` through the guard, as a fresh dict for one span.

        Static attribute sets are sanitised once; one with an identifying
        key takes the guard's hash/reject path on every call.
        """
        items = self.guard.static_key(attributes)
        pairs = self._attribute_memo.get(items) if items is not None else None
        if pairs is None:
            pairs = self.guard.sanitize(attributes)
            if items is not None:
                self._attribute_memo[items] = pairs
        return dict(pairs)

    def set_attribute(self, span: Span, key: str, value: object) -> None:
        """Attach one more guard-cleared attribute to an open span."""
        span.attributes = {**span.attributes, **self.cleared({key: value})}

    def span(self, name: str, remote_parent: TraceContext | None = None,
             **attributes: object) -> _SpanContext:
        """Open a span as a child of the innermost open span (or a new trace).

        With no open span, ``remote_parent`` — a context that crossed a
        federation link — adopts the caller's trace instead of starting a
        new one; the local stack always wins when non-empty.
        """
        return _SpanContext(
            self, self.open(name, self.cleared(attributes), remote_parent))

    def open(self, name: str, attributes: Mapping[str, str],
             remote_parent: TraceContext | None = None) -> Span:
        """Open and return a span whose ``attributes`` are already cleared.

        The caller closes it with :meth:`finish`, innermost first.
        """
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif remote_parent is not None:
            trace_id = remote_parent.trace_id
            parent_id = remote_parent.span_id
        else:
            self._trace_counter += 1
            trace_id = self._prefixed(f"tr-{self._trace_counter:06d}")
            parent_id = None
        self._span_counter += 1
        span = Span(
            trace_id=trace_id,
            span_id=self._prefixed(f"sp-{self._span_counter:06d}"),
            parent_id=parent_id,
            name=name,
            start=self._clock.now(),
            attributes=attributes,
        )
        self._stack.append(span)
        return span

    def finish(self, span: Span, exc_type: type | None = None) -> None:
        """Close ``span`` (called by its context manager on exit).

        ``exc_type`` — the exception leaving the span's block, if any —
        marks it failed.
        """
        if exc_type is not None:
            span.status = STATUS_ERROR
            span.error = exc_type.__name__
        span.end = self._clock.now()
        # The stack unwinds in LIFO order under the context-manager protocol.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self._finished.append(span)
        if self.recorder is not None:
            self.recorder.record_span(span)

    # -- inspection --------------------------------------------------------

    @property
    def current_span(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def current_context(self) -> TraceContext | None:
        """The innermost open span as a wire-portable context."""
        span = self.current_span
        if span is None:
            return None
        return TraceContext(trace_id=span.trace_id, span_id=span.span_id)

    def finished_spans(self) -> tuple[Span, ...]:
        """Completed spans, in finish order (children before parents)."""
        return tuple(self._finished)

    def spans_named(self, name: str) -> list[Span]:
        """Finished spans with the given name."""
        return [span for span in self._finished if span.name == name]

    def reset(self) -> None:
        """Forget finished spans (open spans are unaffected)."""
        self._finished.clear()
