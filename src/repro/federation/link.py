"""Simulated inter-node links.

A :class:`Link` is one directed channel from a federation node to a peer.
Its transport discipline is the subsystem's privacy boundary:

* payloads are JSON-serializable dicts, serialized to canonical JSON for
  the wire — every byte that crosses is kept in :attr:`Link.transcript`,
  which the privacy tests grep for plaintext identities;
* identifying content is sealed *before* it reaches the link (index
  entries carry the index-key tokens; detail responses and audit exports
  travel under the sender's federation channel key);
* each attempt advances the shared simulated clock by a deterministic
  latency, failures are scripted (:meth:`fail_next` or a failure hook),
  and retries run through the bus's existing
  :class:`~repro.bus.delivery.DeliveryPolicy` budget.

A handler's failure — any :class:`~repro.exceptions.CssError`: a denial,
a missing detail, a tampered chain — is a *response*, spelled by the
serving node (``node.py::WIRE_ERRORS``) and raised again on the caller's
side by :meth:`FederationNode.ask`, the only caller of :meth:`Link.call`
and :meth:`Link.call_batch`.  So it is in the transcript and counted as
delivered like any other answer, and the link retries only transmission
drops, never decisions.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.bus.delivery import DeliveryPolicy
from repro.clock import Clock
from repro.crypto.hashing import canonical_json
from repro.exceptions import LinkFailureError
from repro.obs.context import WIRE_KEY, TraceContext
from repro.obs.profiling import SECTION_LINK_HOP

if TYPE_CHECKING:
    from repro.federation.node import FederationNode

#: Counter of cross-node calls, labelled with guard-hashed node ids.
HOP_COUNTER = "federation.hops_total"
#: Counter of transmission attempts (including retried ones).
LINK_ATTEMPTS = "federation.link.attempts_total"
#: Counter of dropped transmission attempts (scripted or hooked failures).
LINK_DROPS = "federation.link.drops_total"

#: Per-entry serialization/deserialization cost of a coalesced frame: a
#: batch of *n* entries advances the clock by ``latency + n * cost``
#: instead of ``n * latency`` — the amortization batching buys.
BATCH_ENTRY_COST = 0.0002


def wire_message(operation: str, payload: dict) -> str:
    """The canonical wire encoding of an untraced request message.

    Fan-outs that send one identical request to *k* peers can encode it
    once and pass the result to each :meth:`Link.call` as the ``wire``
    hint instead of re-serializing per peer.  The hint only applies when
    no trace context rides the message — with tracing active each hop
    carries its own span ids, so the link re-encodes.
    """
    return canonical_json({"op": operation, "payload": payload})


@dataclass
class LinkStats:
    """Per-link counters (benchmarks and failure-injection tests)."""

    calls: int = 0
    delivered: int = 0
    retries: int = 0
    failed_attempts: int = 0
    bytes_carried: int = 0


class Link:
    """One directed, latency- and failure-simulating channel to a peer node."""

    def __init__(
        self,
        source: str,
        target: "FederationNode",
        clock: Clock | None = None,
        latency: float = 0.005,
        policy: DeliveryPolicy | None = None,
        telemetry=None,
        source_label: str = "",
        target_label: str = "",
    ) -> None:
        self.source = source
        self.target = target
        self.latency = latency
        self.policy = policy or DeliveryPolicy()
        self.stats = LinkStats()
        self.transcript: list[str] = []
        self._clock = clock or Clock()
        self._fail_budget = 0
        self._failure_hook: Callable[[str, dict], bool] | None = None
        self._telemetry = telemetry
        self._source_label = source_label or source
        self._target_label = target_label or target.node_id

    # -- failure injection -------------------------------------------------

    def fail_next(self, count: int = 1) -> None:
        """Drop the next ``count`` transmission attempts (deterministic)."""
        if count < 0:
            raise LinkFailureError("failure budget must be non-negative")
        self._fail_budget += count

    def set_failure_hook(self, hook: Callable[[str, dict], bool] | None) -> None:
        """Install a predicate ``hook(operation, payload) -> drop?``."""
        self._failure_hook = hook

    def _should_fail(self, operation: str, payload: dict) -> bool:
        if self._fail_budget > 0:
            self._fail_budget -= 1
            return True
        return bool(self._failure_hook and self._failure_hook(operation, payload))

    # -- transmission ------------------------------------------------------

    def call(self, operation: str, payload: dict, wire: str | None = None) -> dict:
        """Send one request to the peer and return its response dict.

        ``wire`` is an optional pre-encoded request (see
        :func:`wire_message`); it is honoured only when the message
        carries no trace context, otherwise the link re-encodes so the
        span ids on the wire stay truthful.

        Retries dropped attempts up to the link policy's ``max_attempts``;
        raises :class:`~repro.exceptions.LinkFailureError` once the budget
        is exhausted.  Every wire message (request and response) is
        appended to :attr:`transcript` as canonical JSON.

        With telemetry enabled on the source side the hop runs inside a
        ``link.call`` span and the wire message carries that span's
        :class:`~repro.obs.context.TraceContext` — only the two counter-
        minted ids, never content — so the server side can parent its
        spans into the caller's trace.
        """
        return self._transmit(operation, payload, None, self.latency, wire)

    def call_batch(
        self,
        operation: str,
        payload: dict,
        count: int,
        advance: float | None = None,
    ) -> dict:
        """Send one coalesced frame carrying ``count`` logical entries.

        The frame is one wire message and one transmission attempt (one
        ``calls`` tick, one transcript entry), but delivery accounting
        stays per entry: on success ``delivered`` (and the hop counter)
        grow by ``count``; a drop fails all ``count`` entries together.

        The clock advances by ``latency + count * BATCH_ENTRY_COST`` per
        attempt — the coalesced cost model — unless the caller passes an
        explicit ``advance`` (shippers that pre-charged the latency at
        enqueue time flush with ``advance=0.0`` so record timestamps are
        identical to the unbatched run).
        """
        if count < 1:
            raise LinkFailureError("a coalesced frame needs at least one entry")
        hop_cost = advance if advance is not None else (
            self.latency + count * BATCH_ENTRY_COST
        )
        return self._transmit(operation, payload, count, hop_cost)

    def _transmit(self, operation: str, payload: dict, entries: int | None,
                  hop_cost: float, wire: str | None = None) -> dict:
        """The transmit loop behind :meth:`call` and :meth:`call_batch`.

        ``entries`` is ``None`` for a single request, else the entry count
        of a coalesced frame (which counts that many times and is served by
        ``handle_batch``); each attempt advances the clock by ``hop_cost``.
        """
        batched = entries is not None
        count = entries if batched else 1
        self.stats.calls += 1
        telemetry = self._telemetry
        ends = {"source": self._source_label, "target": self._target_label}
        if telemetry is None:
            span_scope = nullcontext()
        elif batched:
            span_scope = telemetry.span("link.call_batch", op=operation,
                                        entries=str(count), **ends)
        else:
            span_scope = telemetry.span("link.call", op=operation, **ends)
        with span_scope:
            context = telemetry.current_context() if telemetry is not None else None
            if wire is None or context is not None:
                message: dict[str, object] = {"op": operation, "payload": payload}
                if context is not None:
                    message[WIRE_KEY] = context.to_wire()
                wire = canonical_json(message)
            self.transcript.append(wire)
            self.stats.bytes_carried += len(wire)
            started = self._clock.now()
            last_error: LinkFailureError | None = None
            for attempt in range(1, self.policy.max_attempts + 1):
                if attempt > 1:
                    self.stats.retries += 1
                self._clock.advance(hop_cost)
                if telemetry is not None:
                    telemetry.count(LINK_ATTEMPTS, **ends)
                if self._should_fail(operation, payload):
                    self.stats.failed_attempts += count
                    if telemetry is not None:
                        telemetry.count(LINK_DROPS, **ends)
                    what = (f"batched {operation!r} of {count} entries"
                            if batched else repr(operation))
                    last_error = LinkFailureError(
                        f"link {self.source}->{self.target.node_id} dropped "
                        f"{what} (attempt {attempt}/{self.policy.max_attempts})"
                    )
                    continue
                if batched:
                    response = self.target.handle_batch(
                        operation, payload, count, trace=context)
                else:
                    response = self.target.handle(operation, payload, trace=context)
                response_wire = canonical_json(response)
                self.transcript.append(response_wire)
                self.stats.bytes_carried += len(response_wire)
                self.stats.delivered += count
                if telemetry is not None:
                    telemetry.count(HOP_COUNTER, float(count), **ends, op=operation)
                    telemetry.profile(
                        SECTION_LINK_HOP, self._clock.now() - started, **ends)
                return response
            assert last_error is not None
            raise last_error
