"""Simulated inter-node links.

A :class:`Link` is one directed channel from a federation node to a peer.
Its transport discipline is the subsystem's privacy boundary:

* payloads are JSON-serializable dicts, handed to the peer's
  :meth:`~repro.federation.node.FederationNode.handle` as they are: a hop
  encodes nothing and keeps nothing of what crossed — only its counters
  (:class:`LinkStats`) move;
* identifying content is sealed *before* it reaches the link (index
  entries carry the index-key tokens; detail responses and audit exports
  travel under the sender's federation channel key);
* each attempt advances the shared simulated clock by a deterministic
  latency, failures are scripted (:meth:`fail_next` or a failure hook),
  and a dropped transmission is retried up to the bus's
  :data:`~repro.bus.delivery.MAX_ATTEMPTS`.

A handler's failure — any :class:`~repro.exceptions.CssError`: a denial,
a missing detail, a tampered chain — is a *response*, spelled by the
serving node (``node.py::WIRE_ERRORS``) and raised again on the caller's
side by :meth:`FederationNode.ask`, the only caller of :meth:`Link.call`
and :meth:`Link.call_batch`.  So it crosses and is counted as delivered
like any other answer, and the link retries only transmission
drops, never decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.bus.delivery import MAX_ATTEMPTS
from repro.clock import Clock
from repro.exceptions import LinkFailureError

if TYPE_CHECKING:
    from repro.federation.node import FederationNode

#: Counter of delivered cross-node entries per operation (``LinkStats.delivered_by_op``).
HOP_COUNTER = "federation.hops_total"
#: Counter of transmission attempts, retried ones included (``calls + retries``).
LINK_ATTEMPTS = "federation.link.attempts_total"
#: Counter of dropped transmission attempts (``LinkStats.drops``).
LINK_DROPS = "federation.link.drops_total"

#: Per-entry serialization/deserialization cost of a coalesced frame: a
#: batch of *n* entries advances the clock by ``latency + n * cost``
#: instead of ``n * latency`` — the amortization batching buys.
BATCH_ENTRY_COST = 0.0002


@dataclass
class LinkStats:
    """Per-link counters (benchmarks and failure-injection tests)."""

    calls: int = 0
    delivered: int = 0
    retries: int = 0
    failed_attempts: int = 0  # entries: a dropped frame fails all of them
    drops: int = 0  # dropped attempts
    #: Operation -> entries delivered.
    delivered_by_op: dict[str, int] = field(default_factory=dict)


class Link:
    """One directed, latency- and failure-simulating channel to a peer node."""

    def __init__(
        self,
        source: str,
        target: "FederationNode",
        clock: Clock | None = None,
        latency: float = 0.005,
        telemetry=None,
        source_label: str = "",
        target_label: str = "",
    ) -> None:
        self.source = source
        self.target = target
        self.latency = latency
        self.stats = LinkStats()
        self._clock = clock or Clock()
        self._fail_budget = 0
        self._failure_hook: Callable[[str, dict], bool] | None = None
        self._telemetry = telemetry
        self._tracer = telemetry.tracer if telemetry is not None else None
        #: Span shapes, cleared once (emptied when the guard restricts a key).
        self._shapes = telemetry.guard.memo() if telemetry is not None else None
        self._ends = ends = {"source": source_label or source,
                             "target": target_label or target.node_id}
        if telemetry is not None:
            stats, metrics = self.stats, telemetry.metrics
            metrics.reader("counter", LINK_ATTEMPTS, lambda: (
                ((ends, stats.calls + stats.retries),) if stats.calls else ()))
            metrics.reader("counter", LINK_DROPS, lambda: (
                ((ends, stats.drops),) if stats.drops else ()))
            metrics.reader("counter", HOP_COUNTER, lambda: (
                ({**ends, "op": operation}, count)
                for operation, count in stats.delivered_by_op.items()))

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

    def call(self, operation: str, payload: dict) -> dict:
        """Send one request to the peer and return its response dict.

        Retries dropped attempts up to :data:`~repro.bus.delivery.MAX_ATTEMPTS`;
        raises :class:`~repro.exceptions.LinkFailureError` once the budget
        is exhausted.  With telemetry on at the source the hop runs inside
        a ``link.call`` span, whose :class:`~repro.obs.context.TraceContext`
        — two counter-minted ids, never content — the request carries.
        """
        return self._transmit(operation, payload, None, self.latency)

    def call_batch(
        self,
        operation: str,
        payload: dict,
        count: int,
        advance: float | None = None,
    ) -> dict:
        """Send one coalesced frame carrying ``count`` logical entries.

        The frame is one wire message and one transmission attempt (one
        ``calls`` tick, one request to the peer), but delivery accounting
        stays per entry: on success ``delivered`` (and the hop counter)
        grow by ``count``; a drop fails all ``count`` entries together.

        The clock advances by ``latency + count * BATCH_ENTRY_COST`` per
        attempt — the coalesced clock charge — unless the caller passes an
        explicit ``advance`` (shippers that pre-charged the latency at
        enqueue time flush with ``advance=0.0`` so record timestamps are
        identical to the unbatched run).
        """
        if count < 1:
            raise LinkFailureError("a coalesced frame needs at least one entry")
        hop_cost = (advance if advance is not None
                    else self.latency + count * BATCH_ENTRY_COST)
        return self._transmit(operation, payload, count, hop_cost)

    def _transmit(self, operation: str, payload: dict, entries: int | None,
                  hop_cost: float) -> dict:
        """The transmit loop behind :meth:`call` and :meth:`call_batch`.

        ``entries`` is ``None`` for a single request, else the entry count
        of a coalesced frame (which counts that many times and is served by
        ``handle_batch``); each attempt advances the clock by ``hop_cost``.
        The span opens by row; a trace context is minted only for a serving
        node recording into other telemetry (under a shared one, the server
        span opens on top of this one).
        """
        batched = entries is not None
        count = entries if batched else 1
        stats = self.stats
        stats.calls += 1
        tracer = self._tracer
        row = context = None
        if tracer is not None:
            row = tracer.open(*self._span_shape(operation, entries))
            if self.target.telemetry is not self._telemetry:
                context = tracer.context(row)
        try:
            for attempt in range(1, MAX_ATTEMPTS + 1):
                if attempt > 1:
                    stats.retries += 1
                self._clock.advance(hop_cost)
                if self._should_fail(operation, payload):
                    stats.failed_attempts += count
                    stats.drops += 1
                    what = (f"batched {operation!r} of {count} entries"
                            if batched else repr(operation))
                    last_error = LinkFailureError(
                        f"link {self.source}->{self.target.node_id} dropped "
                        f"{what} (attempt {attempt}/{MAX_ATTEMPTS})")
                    continue
                if batched:
                    response = self.target.handle_batch(
                        operation, payload, count, trace=context)
                else:
                    response = self.target.handle(operation, payload, trace=context)
                stats.delivered += count
                stats.delivered_by_op[operation] = (
                    stats.delivered_by_op.get(operation, 0) + count)
                break
            else:  # every attempt dropped (the policy allows at least one)
                raise last_error
        except BaseException as exc:
            if row is not None:
                tracer.close(row, type(exc))
            raise
        if row is not None:
            tracer.close(row)
        return response

    def _span_shape(self, operation: str, entries: int | None):
        """The hop span's name and guard-cleared attributes, cleared once."""
        name = "link.call" if entries is None else "link.call_batch"
        key = (name, operation, entries)
        shape = self._shapes.get(key)
        if shape is None:
            attributes = {"op": operation, **self._ends}
            if entries is not None:
                attributes["entries"] = str(entries)
            shape = self._shapes[key] = (name, self._tracer.cleared(attributes))
        return shape
