"""Cross-node trace context: the wire-portable (trace id, span id) pair.

A :class:`TraceContext` is the *entire* cross-process surface of the
tracing subsystem — deliberately baggage-free.  Both ids are produced by
:class:`~repro.obs.tracing.Tracer` from plain counters (optionally
prefixed with a guard-hashed site label), so a context carries no
identifying content: propagating it beside a federation request leaks
nothing the request itself does not already show.

The remote side opens its server span with the context as its remote
parent (``Tracer.open`` / ``Tracer.span``) and joins the caller's trace; the
:mod:`~repro.obs.stitch` module later merges the per-node exports into
one federated trace keyed by these ids.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The key a trace context travels under inside a wire message.
WIRE_KEY = "trace"


@dataclass(frozen=True)
class TraceContext:
    """A reference to an open span in some node's tracer."""

    trace_id: str
    span_id: str

    def to_wire(self) -> dict[str, str]:
        """The JSON-serialisable wire form."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}
