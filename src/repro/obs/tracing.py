"""Deterministic tracing: spans kept as rows of flat columns.

One trace per pipeline execution (a publish, a request-for-details), one
child span per pipeline stage.  Timestamps come from the platform's
simulated :class:`~repro.clock.Clock` and span/trace ids from plain
counters, so the same seeded scenario always produces the same spans —
the trace-determinism tests diff the JSONL export byte for byte.

A span is a *row*: its index in the tracer's parallel columns (name,
guard-cleared attributes, parent, trace, start, end; the few failed rows'
error names kept aside).  Opening one appends to the columns and closing
one writes its end, so the hot path builds no object per span.  Ids are
minted from the row and trace numbers only when read, and a :class:`Span`
— the read view of one row — is built only by the read side
(:meth:`Tracer.finished_spans`, :meth:`Tracer.spans_named`, the exports, a
flight recorder's timeline) and cached, so repeated reads return the same
objects.  A generic :meth:`Tracer.span` scope is itself its row's cached
view.

Span attributes pass through the :class:`~repro.obs.guard.PrivacyGuard`
exactly like metric labels: a span can say *which stage* denied *which
event type*, never *whose* event it was.

Federation support: a tracer built with a ``site`` prefix (the node's
guard-hashed label) mints globally unique ids, and ``span(...,
remote_parent=ctx)`` joins a trace started on another node — the wire
carries only a :class:`~repro.obs.context.TraceContext`, never content.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from types import MappingProxyType

from repro.clock import Clock
from repro.obs.context import TraceContext
from repro.obs.guard import PrivacyGuard

#: Span status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"


class Span:
    """One span, read from its row in the tracer's columns."""

    __slots__ = ("_tracer", "row")

    def __init__(self, tracer: "Tracer", row: int) -> None:
        self._tracer = tracer
        self.row = row

    @property
    def trace_id(self) -> str:
        return self._tracer.trace_id(self.row)

    @property
    def span_id(self) -> str:
        return self._tracer.span_id(self.row)

    @property
    def parent_id(self) -> str | None:
        return self._tracer.parent_id(self.row)

    @property
    def name(self) -> str:
        return self._tracer.names[self.row]

    @property
    def start(self) -> float:
        return self._tracer.starts[self.row]

    @property
    def end(self) -> float | None:
        """``None`` while the span is open."""
        return self._tracer.ends[self.row]

    @property
    def status(self) -> str:
        return STATUS_ERROR if self.row in self._tracer.errors else STATUS_OK

    @property
    def error(self) -> str:
        """The type name of the exception that failed the span, else ``""``."""
        return self._tracer.errors.get(self.row, "")

    @property
    def attributes(self) -> Mapping[str, str]:
        """Guard-cleared; may be one read-only mapping shared between spans —
        add to it through :meth:`Tracer.set_attribute`, which copies."""
        return self._tracer.attributes[self.row]

    @property
    def duration(self) -> float:
        """Span duration in (simulated) seconds; 0.0 while still open."""
        end = self.end
        return (end - self.start) if end is not None else 0.0

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


class _SpanScope(Span):
    """What :meth:`Tracer.span` returns: opens its row on entry, closes it
    on exit, and from entry on is that row's :class:`Span` — the object
    every later read of the row hands back."""

    __slots__ = ("_name", "_attributes", "_remote_parent")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: Mapping[str, str],
                 remote_parent: TraceContext | None) -> None:
        # The row does not exist until entry, so not ``Span.__init__``.
        self._tracer = tracer
        self.row = None
        self._name = name
        self._attributes = attributes
        self._remote_parent = remote_parent

    def __enter__(self) -> "_SpanScope":
        tracer = self._tracer
        self.row = tracer.open(self._name, self._attributes, self._remote_parent)
        tracer.views[self.row] = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.close(self.row, exc_type)
        return False  # never swallow — pipeline semantics stay intact


class Tracer:
    """Keeps spans as rows; a stack of open rows gives parent/child context."""

    def __init__(self, clock: Clock, guard: PrivacyGuard | None = None,
                 site: str = "") -> None:
        self._clock = clock
        self.guard = guard or PrivacyGuard()
        #: Id prefix distinguishing this tracer's spans across a federation.
        #: Pass the node's guard-hashed label so exports stay pseudonymous.
        self.site = site
        # The columns, one entry per span in open order: a span's row.
        self.names: list[str] = []
        #: Guard-cleared mappings, shared between the spans of one shape.
        self.attributes: list[Mapping[str, str]] = []
        #: Parent row, the span id a remote parent carried, or ``None``.
        self.parents: list[int | str | None] = []
        #: Trace number, or the trace id a remote parent carried.
        self.traces: list[int | str] = []
        self.starts: list[float] = []
        #: ``None`` while the span is open.
        self.ends: list[float | None] = []
        #: Row -> exception type name, for the spans that failed.
        self.errors: dict[int, str] = {}
        #: Rows in finish order (children before parents).
        self.finished = array("q")
        self._stack: list[int] = []
        #: ``guard.static_key(attributes)`` -> guard-cleared pairs.
        self._attribute_memo = self.guard.memo()
        self._trace_counter = 0
        #: Row -> its :class:`Span`: a generic span's scope, else built by
        #: the first read of the row.
        self.views: dict[int, Span] = {}

    def _prefixed(self, body: str) -> str:
        return f"{self.site}/{body}" if self.site else body

    # -- span lifecycle ----------------------------------------------------

    def cleared(self, attributes: dict[str, object]) -> Mapping[str, str]:
        """``attributes`` through the guard, as a read-only mapping.

        Static attribute sets are sanitised once and every span of one
        shares the mapping; one with an identifying key takes the guard's
        hash/reject path on every call.
        """
        items = self.guard.static_key(attributes)
        cleared = self._attribute_memo.get(items) if items is not None else None
        if cleared is None:
            cleared = MappingProxyType(dict(self.guard.sanitize(attributes)))
            if items is not None:
                self._attribute_memo[items] = cleared
        return cleared

    def set_attribute(self, span: Span | int, key: str, value: object) -> None:
        """Attach one more guard-cleared attribute to an open span (or row)."""
        row = span if type(span) is int else span.row
        self.attributes[row] = {**self.attributes[row],
                                **self.cleared({key: value})}

    def span(self, name: str, remote_parent: TraceContext | None = None,
             **attributes: object) -> _SpanScope:
        """A span, opened on entry as a child of the innermost open span
        (or a new trace).

        With no open span, ``remote_parent`` — a context that crossed a
        federation link — adopts the caller's trace instead of starting a
        new one; the local stack always wins when non-empty.
        """
        return _SpanScope(self, name, self.cleared(attributes), remote_parent)

    def open(self, name: str, attributes: Mapping[str, str],
             remote_parent: TraceContext | None = None) -> int:
        """Open a span whose ``attributes`` are already cleared; return its row.

        The caller closes it with :meth:`close`, innermost first.
        """
        row = len(self.names)
        stack = self._stack
        if stack:
            parent = stack[-1]
            trace = self.traces[parent]
        elif remote_parent is not None:
            parent, trace = remote_parent.span_id, remote_parent.trace_id
        else:
            self._trace_counter += 1
            parent, trace = None, self._trace_counter
        self.names.append(name)
        self.attributes.append(attributes)
        self.parents.append(parent)
        self.traces.append(trace)
        self.starts.append(self._clock.now())
        self.ends.append(None)
        stack.append(row)
        return row

    def close(self, row: int, exc_type: type | None = None) -> None:
        """Close the span at ``row``.

        ``exc_type`` — the exception leaving the span's block, if any —
        marks it failed.
        """
        self.ends[row] = self._clock.now()
        if exc_type is not None:
            self.errors[row] = exc_type.__name__
        stack = self._stack
        # The stack unwinds in LIFO order under the context-manager protocol.
        if stack and stack[-1] == row:
            stack.pop()
        self.finished.append(row)

    # -- ids, minted on read -------------------------------------------------

    def span_id(self, row: int) -> str:
        return self._prefixed(f"sp-{row + 1:06d}")

    def trace_id(self, row: int) -> str:
        trace = self.traces[row]
        return trace if isinstance(trace, str) else self._prefixed(f"tr-{trace:06d}")

    def parent_id(self, row: int) -> str | None:
        parent = self.parents[row]
        return self.span_id(parent) if isinstance(parent, int) else parent

    # -- inspection --------------------------------------------------------

    def span_of(self, row: int) -> Span:
        """The span at ``row``: built on first read, the same object after."""
        span = self.views.get(row)
        if span is None:
            span = self.views[row] = Span(self, row)
        return span

    @property
    def current_row(self) -> int | None:
        """The innermost open span's row, if any."""
        return self._stack[-1] if self._stack else None

    @property
    def current_span(self) -> Span | None:
        """The innermost open span, if any."""
        return self.span_of(self._stack[-1]) if self._stack else None

    def context(self, row: int) -> TraceContext:
        """The span at ``row`` as a wire-portable context."""
        return TraceContext(trace_id=self.trace_id(row), span_id=self.span_id(row))

    def finished_spans(self) -> tuple[Span, ...]:
        """Completed spans, in finish order (children before parents)."""
        return tuple(map(self.span_of, self.finished))

    def spans_named(self, name: str) -> list[Span]:
        """Finished spans with the given name."""
        names = self.names
        return [self.span_of(row) for row in self.finished if names[row] == name]
