"""Deterministic tracing: spans kept as rows of flat columns.

One trace per operation (a publish, a request-for-details): its root span
and the spans of the layers it crosses.  Timestamps come from the platform's
simulated :class:`~repro.clock.Clock` and span/trace ids from plain
counters, so the same seeded scenario always produces the same spans —
the trace-determinism tests diff the JSONL export byte for byte.

A span is a *row*, numbered in open order, kept in slot ``row %
SPAN_CAPACITY`` of the tracer's columns: a ring, so a node keeps its last
spans, never its history.  Opening a span writes its slot and closing one
its end, so the hot path builds no object per span.  Ids are minted from
the row and trace numbers only when read, and a :class:`Span` — the read
view of one row — is built only by the read side and cached in its slot;
a generic :meth:`Tracer.span` scope is itself its row's view.  Reading an
overwritten row raises :class:`IndexError`.

Span attributes pass through the :class:`~repro.obs.guard.PrivacyGuard`
exactly like metric labels: a span can say *which path* denied *which
event type*, never *whose* event it was.

Federation support: a tracer built with a ``site`` prefix (the node's
guard-hashed label) mints globally unique ids, and ``span(...,
remote_parent=ctx)`` joins a trace started on another node — the wire
carries only a :class:`~repro.obs.context.TraceContext`, never content.
"""

from __future__ import annotations

from collections.abc import Mapping
from time import perf_counter
from types import MappingProxyType

from repro.clock import Clock
from repro.obs.context import TraceContext
from repro.obs.guard import PrivacyGuard

#: Span status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"
#: Rows a tracer keeps: its columns, finish order and views are rings this long.
SPAN_CAPACITY = 4096


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
        return self._tracer.names[self._tracer.slot(self.row)]

    @property
    def start(self) -> float:
        return self._tracer.starts[self._tracer.slot(self.row)]

    @property
    def end(self) -> float | None:
        """``None`` while the span is open."""
        return self._tracer.ends[self._tracer.slot(self.row)]

    @property
    def status(self) -> str:
        return STATUS_ERROR if self.error else STATUS_OK

    @property
    def error(self) -> str:
        """The type name of the exception that failed the span, else ``""``."""
        return self._tracer.errors[self._tracer.slot(self.row)]

    @property
    def attributes(self) -> Mapping[str, str]:
        """Guard-cleared; may be one read-only mapping shared between spans —
        add to it through :meth:`Tracer.set_attribute`, which copies."""
        return self._tracer.attributes[self._tracer.slot(self.row)]

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
        self._tracer, self.row = tracer, None
        self._name, self._attributes, self._remote_parent = name, attributes, remote_parent

    def __enter__(self) -> "_SpanScope":
        tracer = self._tracer
        self.row = tracer.open(self._name, self._attributes, self._remote_parent)
        tracer.views[self.row % SPAN_CAPACITY] = self
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
        # The columns, a slot per row: ``attributes`` shared between the spans
        # of one shape; ``parents`` a row, ``traces`` a trace number (or the
        # ids a remote parent carried); ``ends`` ``None`` while open; ``walls``
        # ``perf_counter()`` at open, then wall seconds (no deterministic
        # export reads them); ``errors`` the failing exception's type name.
        self.names: list[str | None] = [None] * SPAN_CAPACITY
        self.attributes: list[Mapping[str, str] | None] = [None] * SPAN_CAPACITY
        self.parents: list[int | str | None] = [None] * SPAN_CAPACITY
        self.traces: list[int | str | None] = [None] * SPAN_CAPACITY
        self.errors: list[str] = [""] * SPAN_CAPACITY
        # Lists, not arrays: the interpreter stores a list item on its fast
        # path and an array item off it, and every span writes about a dozen.
        self.starts, self.ends, self.walls = ([0.0] * SPAN_CAPACITY for _ in range(3))
        #: The ``n``-th span to finish (children before parents) is at ``n % SPAN_CAPACITY``.
        self.finished: list[int] = [0] * SPAN_CAPACITY
        self.rows = self.closed = 0  # spans opened and finished, overwritten ones included
        self._stack: list[int] = []
        self._trace: int | str | None = None  # the open stack's trace
        #: ``guard.static_key(attributes)`` -> guard-cleared pairs.
        self._attribute_memo = self.guard.memo()
        self._trace_counter = 0
        #: Slot -> its row's :class:`Span`: a scope, else built by the first read.
        self.views: list[Span | None] = [None] * SPAN_CAPACITY

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
        slot = self.slot(span if type(span) is int else span.row)
        self.attributes[slot] = {**self.attributes[slot], **self.cleared({key: value})}

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
        row = self.rows
        self.rows = row + 1
        slot = row % SPAN_CAPACITY
        stack = self._stack
        if stack:
            parent = stack[-1]
        elif remote_parent is not None:
            parent, self._trace = remote_parent.span_id, remote_parent.trace_id
        else:
            self._trace_counter += 1
            parent, self._trace = None, self._trace_counter
        self.names[slot] = name
        self.attributes[slot] = attributes
        self.parents[slot] = parent
        self.traces[slot] = self._trace
        self.starts[slot] = self._clock.now()
        self.ends[slot] = None
        self.errors[slot] = ""
        stack.append(row)
        self.walls[slot] = perf_counter()
        return row

    def close(self, row: int, exc_type: type | None = None) -> None:
        """Close the span at ``row``; ``exc_type``, the exception leaving its
        block if any, marks it failed.  A row overwritten while open is dropped."""
        stack = self._stack
        # The stack unwinds in LIFO order under the context-manager protocol.
        if stack and stack[-1] == row:
            stack.pop()
        if self.rows - row > SPAN_CAPACITY:
            return
        slot = row % SPAN_CAPACITY
        self.walls[slot] = perf_counter() - self.walls[slot]
        self.ends[slot] = self._clock.now()
        if exc_type is not None:
            self.errors[slot] = exc_type.__name__
        self.finished[self.closed % SPAN_CAPACITY] = row
        self.closed += 1

    # -- ids, minted on read -------------------------------------------------

    def span_id(self, row: int) -> str:
        return self._prefixed(f"sp-{row + 1:06d}")

    def trace_id(self, row: int) -> str:
        trace = self.traces[self.slot(row)]
        return trace if isinstance(trace, str) else self._prefixed(f"tr-{trace:06d}")

    def parent_id(self, row: int) -> str | None:
        parent = self.parents[self.slot(row)]
        return self.span_id(parent) if isinstance(parent, int) else parent

    # -- inspection --------------------------------------------------------

    def slot(self, row: int) -> int:
        """``row``'s slot in the columns; :class:`IndexError` once overwritten."""
        if not 0 <= self.rows - 1 - row < SPAN_CAPACITY:
            raise IndexError(f"span row {row} has left the tracer's ring of {SPAN_CAPACITY}")
        return row % SPAN_CAPACITY

    def span_of(self, row: int) -> Span:
        """The span at ``row``: built on first read, the same object after."""
        slot = self.slot(row)
        span = self.views[slot]
        if span is None or span.row != row:
            span = self.views[slot] = Span(self, row)
        return span

    @property
    def current_row(self) -> int | None:
        """The innermost open span's row, if any."""
        return self._stack[-1] if self._stack else None

    def context(self, row: int) -> TraceContext:
        """The span at ``row`` as a wire-portable context."""
        return TraceContext(trace_id=self.trace_id(row), span_id=self.span_id(row))

    def finished_rows(self) -> list[int]:
        """The rows of the finished spans the ring still holds, in finish order."""
        ring, cut, floor = self.finished, self.closed % SPAN_CAPACITY, self.rows - SPAN_CAPACITY
        rows = ring[cut:] + ring[:cut] if self.closed >= SPAN_CAPACITY else ring[:cut]
        return [row for row in rows if row >= floor]

    def finished_spans(self) -> tuple[Span, ...]:
        """Completed spans the ring holds, in finish order (children first)."""
        return tuple(map(self.span_of, self.finished_rows()))

    def spans_named(self, name: str) -> list[Span]:
        """Finished spans with the given name."""
        names = self.names
        return [self.span_of(row) for row in self.finished_rows()
                if names[row % SPAN_CAPACITY] == name]
