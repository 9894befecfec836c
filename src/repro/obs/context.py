"""Cross-node trace context: the wire-portable (trace id, span id) pair.

A :class:`TraceContext` is the *entire* cross-process surface of the
tracing subsystem — deliberately baggage-free.  Both ids are produced by
:class:`~repro.obs.tracing.Tracer` from plain counters (optionally
prefixed with a guard-hashed site label), so a context carries no
identifying content: propagating it inside a federation wire message
leaks nothing the link transcript does not already show.

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

    @staticmethod
    def from_wire(payload: object) -> "TraceContext | None":
        """Parse a wire form; tolerant — malformed input yields ``None``.

        A federation must keep serving requests from peers running
        without telemetry (or older wire formats), so a missing or
        mangled context degrades to "no remote parent", never an error.
        """
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if isinstance(trace_id, str) and trace_id and \
                isinstance(span_id, str) and span_id:
            return TraceContext(trace_id=trace_id, span_id=span_id)
        return None
