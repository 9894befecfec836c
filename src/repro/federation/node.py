"""One controller node of a federated deployment (the server side).

A :class:`FederationNode` wraps a full
:class:`~repro.core.controller.DataController` and exposes the small set
of operations peers may invoke over a :class:`~repro.federation.link.Link`.
The handler table is the node's entire remote surface — and it is where
the paper's privacy model survives distribution:

* ``details.get`` runs the node's **own** PDP and local cooperation
  gateway (Algorithms 1–2) for events its producers published.  Deny or
  permit, the decision and the field filtering happen here, on the home
  node; the response carries only the already-filtered detail message,
  sealed under this node's federation channel key.  No peer can release
  this node's detail fields.
* ``subscribe.remote`` goes through the controller's own subscription
  gate (``DataController.gated_subscribe``): the home node's policy
  repository decides, queues the pending access request on deny, audits
  either way, and only then lets this node install a relay.
* ``index.*`` accepts/serves index entries with identity slots *still
  sealed* — opening happens only on the querying node, under the shared
  index key.
* ``audit.records`` exports this node's verified hash-chained trail,
  sealed, for the federated guarantor inquiry.

Simulated service times (the ``*_COST`` constants) are charged to the
node's :class:`WorkMeter`; the federation benchmark derives cluster
makespan — and therefore routing throughput — from the busiest node.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.audit.log import AuditRecord
from repro.audit.query import AuditQuery
from repro.core.actors import Actor, ActorKind
from repro.core.enforcement import DetailRequest
from repro.crypto.hashing import canonical_json
from repro.exceptions import (
    AccessDeniedError,
    GatewayError,
    UnknownEventClassError,
    UnknownEventError,
)
from repro.obs.context import TraceContext
from repro.obs.profiling import SECTION_OPEN, SECTION_SEAL
from repro.perf import perf_or_none
from repro.storage.schemas import type_to_dict

if TYPE_CHECKING:
    from repro.core.controller import DataController
    from repro.federation.membership import StaticMembership

#: Value types a canonical-JSON frame returns as it was given them.
JSON_NATIVE = (str, int, float, bool, type(None))

#: Keystore key-name prefix for per-sender channel sealing.  Each node
#: seals under its *own* key (unique nonce space); receivers re-derive the
#: same key from the shared master secret to open.
CHANNEL_KEY_PREFIX = "federation-channel/"

#: Simulated per-operation service times (seconds) — the cost model behind
#: the federation benchmark's makespan/throughput figures.
PUBLISH_COST = 0.004
INDEX_COST = 0.002
RELAY_COST = 0.001
DETAIL_COST = 0.003
AUDIT_COST = 0.001

#: Marginal per-entry service times inside a batch (batch kind ``on``):
#: the first entry of a batch pays the full fixed cost, every further
#: entry only the marginal one, so a batch of 1 costs exactly what the
#: unbatched path does.
PUBLISH_UNIT_COST = 0.002
INDEX_UNIT_COST = 0.001

#: Gauge of each node's bus queue depth, labelled by hashed node id.
NODE_QUEUE_DEPTH = "federation.node.queue_depth"


@dataclass
class WorkMeter:
    """Simulated busy-time accounting for one node."""

    busy_seconds: float = 0.0
    operations: int = 0

    def add(self, seconds: float) -> None:
        """Charge ``seconds`` of simulated service time to this node."""
        self.busy_seconds += seconds
        self.operations += 1


class FederationNode:
    """A data controller participating in the federation."""

    def __init__(self, node_id: str, controller: "DataController",
                 membership: "StaticMembership") -> None:
        self.node_id = node_id
        self.controller = controller
        self.membership = membership
        self.work = WorkMeter()
        self.hops_in = 0
        self._channel_key = CHANNEL_KEY_PREFIX + node_id
        self._channel_seq = 0
        controller.keystore.create(self._channel_key)
        self._perf = perf_or_none(controller.perf)
        self._relay_frames = None
        if self._perf is not None:
            from repro.perf.wire_cache import SealedFrameCache

            self._relay_frames = SealedFrameCache()
        #: (origin node, topic) pairs already relayed toward a peer.
        self._relays: dict[tuple[str, str], str] = {}
        #: Topics this node re-publishes locally for relayed notifications.
        self._relay_topics: set[str] = set()
        self._handlers: dict[str, Callable[[dict], dict]] = {
            "ping": self._op_ping,
            "index.store": self._op_index_store,
            "index.rehome": self._op_index_store,
            "index.inquire": self._op_index_inquire,
            "index.get": self._op_index_get,
            "index.count": self._op_index_count,
            "subscribe.remote": self._op_subscribe_remote,
            "bus.relay": self._op_bus_relay,
            "details.get": self._op_details_get,
            "audit.records": self._op_audit_records,
        }
        self._batch_handlers: dict[str, Callable[[dict], dict]] = {
            "index.store": self._op_index_store_batch,
        }
        membership.register(self)

    @property
    def label(self) -> str:
        """This node's (guard-hashed) telemetry label."""
        return self.membership.node_label(self.node_id)

    # -- channel sealing ---------------------------------------------------

    def seal_channel(self, payload: dict) -> dict:
        """Seal a response payload under this node's channel key."""
        self._channel_seq += 1
        token = self.controller.keystore.seal(
            self._channel_key, canonical_json(payload), self._channel_seq
        )
        self._profile(SECTION_SEAL)
        return {"from": self.node_id, "token": token}

    def open_channel(self, sealed: dict) -> dict:
        """Open a peer's channel-sealed payload (same derived key)."""
        name = CHANNEL_KEY_PREFIX + sealed["from"]
        keystore = self.controller.keystore
        keystore.create(name)  # deterministic derivation: no key exchange
        opened = json.loads(keystore.open_(name, sealed["token"]))
        self._profile(SECTION_OPEN)
        return opened

    def _profile(self, section: str) -> None:
        # Seal/open is pure computation: the cost model charges no
        # simulated time, so the profiler records the sample at zero
        # seconds — crossing counts, not durations.
        telemetry = self.controller.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.profile(section, 0.0, node=self.label)

    # -- server dispatch ---------------------------------------------------

    def handle(self, operation: str, payload: dict,
               trace: TraceContext | None = None) -> dict:
        """Serve one remote call; domain failures become error responses.

        ``trace`` is the caller's link-span context.  With telemetry
        enabled the whole operation runs inside a ``federation.<op>``
        server span parented (possibly remotely) under it, so home-node
        pipeline and PDP spans nest into the originating trace.
        """
        handler = self._handlers.get(operation)
        if handler is None:
            return {"error": "unknown-operation", "message": operation}
        return self._serve(handler, operation, payload, trace, hops=1)

    def handle_batch(self, operation: str, payload: dict, count: int,
                     trace: TraceContext | None = None) -> dict:
        """Serve one coalesced frame of ``count`` logical entries.

        Only operations with a batch handler accept coalesced frames
        (today: ``index.store``).  The frame counts as ``count`` inbound
        hops — per-entry accounting survives coalescing — but is decided
        in one dispatch under one server span.
        """
        handler = self._batch_handlers.get(operation)
        if handler is None:
            return {"error": "unknown-operation", "message": f"batched {operation}"}
        return self._serve(handler, operation, payload, trace, hops=count,
                           entries=str(count))

    def _serve(self, handler: Callable[[dict], dict], operation: str,
               payload: dict, trace: TraceContext | None, hops: int,
               **span_attributes: str) -> dict:
        """Run one handler under its server span; failures become responses."""
        self.hops_in += hops
        telemetry = self.controller.telemetry
        span_scope = (
            telemetry.span(f"federation.{operation}", remote_parent=trace,
                           node=self.label, **span_attributes)
            if telemetry is not None and telemetry.enabled else nullcontext()
        )
        with span_scope as span:
            try:
                response = handler(payload)
            except AccessDeniedError as exc:
                response = {"error": "access-denied", "message": str(exc)}
            except GatewayError as exc:
                response = {"error": "source-unavailable", "message": str(exc)}
            except UnknownEventError as exc:
                response = {"error": "unknown-event", "message": str(exc)}
            except UnknownEventClassError as exc:
                response = {"error": "unknown-event-class", "message": str(exc)}
            if span is not None and "error" in response:
                telemetry.tracer.set_attribute(span, "outcome",
                                               response["error"])
            return response

    def _op_ping(self, payload: dict) -> dict:
        return {"ok": True, "node": self.node_id}

    # -- index shard operations --------------------------------------------

    def _op_index_store(self, payload: dict) -> dict:
        self.work.add(INDEX_COST)
        self.controller.index.accept_remote(self.open_channel(payload)["entry"])
        return {"ok": True, "node": self.node_id}

    def _op_index_store_batch(self, payload: dict) -> dict:
        """Accept a coalesced frame of shard entries in one key schedule.

        The frame was sealed once by the shipper, so it is opened once
        here; the work meter charges the fixed cost for the first entry
        and the marginal unit cost for each further one.
        """
        entries = self.open_channel(payload)["entries"]
        self.work.add(INDEX_COST + (len(entries) - 1) * INDEX_UNIT_COST)
        for entry in entries:
            self.controller.index.accept_remote(entry)
        return {"ok": True, "node": self.node_id, "stored": len(entries)}

    def _op_index_inquire(self, payload: dict) -> dict:
        self.work.add(INDEX_COST)
        entries = self.controller.index.local_raw_inquire(
            payload["event_types"],
            since=payload.get("since"),
            until=payload.get("until"),
            producer_id=payload.get("producer_id"),
        )
        # Summaries may name the subject: results cross sealed.
        return self.seal_channel({"entries": entries})

    def _op_index_get(self, payload: dict) -> dict:
        self.work.add(INDEX_COST)
        return self.seal_channel(
            {"entry": self.controller.index.local_raw_get(payload["event_id"])}
        )

    def _op_index_count(self, payload: dict) -> dict:
        return {"count": self.controller.index.local_count_for_type(
            payload["event_type"]
        )}

    # -- cross-node subscriptions ------------------------------------------

    def _op_subscribe_remote(self, payload: dict) -> dict:
        """Authorize a remote consumer and install a relay toward its node.

        The decision is the home controller's own subscription gate —
        deny-by-default with a pending access request when no policy of
        *this* node's producer authorizes the consumer, audited either
        way; the node only supplies the relay and the route's audit text.
        """
        origin = payload["origin"]
        relay_id, topic = self.controller.gated_subscribe(
            payload["consumer_id"], payload.get("role", ""), payload["event_type"],
            lambda event_class: (self._ensure_relay(origin, event_class.topic),
                                 event_class.topic),
            deny_detail=f"remote subscribe from {origin}: no authorizing "
                        f"policy; pending access request queued",
            permit_detail=f"remote subscribe, relayed to {origin}",
        )
        return {"ok": True, "relay_id": relay_id, "topic": topic,
                "node": self.node_id}

    def _ensure_relay(self, origin: str, topic: str) -> str:
        """One relay subscription per (peer node, topic), shared by its consumers."""
        key = (origin, topic)
        if key in self._relays:
            return self._relays[key]

        def relay(envelope) -> None:
            self.work.add(RELAY_COST)
            sealed = self._sealed_relay_frame(topic, str(envelope.body))
            link = self.membership.link(self.node_id, origin)
            link.call("bus.relay", sealed)

        subscription = self.controller.bus.subscribe(
            f"federation-relay:{origin}", topic, relay
        )
        self._relays[key] = subscription.subscription_id
        return subscription.subscription_id

    def _sealed_relay_frame(self, topic: str, xml: str) -> dict:
        """Seal a relay frame once per distinct notification.

        With the perf layer on, the same notification relayed toward
        several peer nodes reuses one sealed frame instead of sealing
        *k* times (safe: deterministic sealing, stateless opening — see
        :mod:`repro.perf.wire_cache`).  The cache key is content this
        node itself published and already holds in the clear.
        """
        body = {"topic": topic, "xml": xml}
        if self._relay_frames is None:
            return self.seal_channel(body)
        key = (topic, xml)
        frame = self._relay_frames.get(key)
        if frame is not None:
            self._perf.record_hit("seal")
            return frame
        self._perf.record_miss("seal")
        return self._relay_frames.put(key, self.seal_channel(body))

    def _op_bus_relay(self, payload: dict) -> dict:
        """Re-publish a relayed notification on this node's local bus."""
        self.work.add(RELAY_COST)
        body = self.open_channel(payload)
        topic = body["topic"]
        if topic not in self._relay_topics:
            self.controller.bus.declare_topic(topic)
            self._relay_topics.add(topic)
        self.controller.bus.publish(
            topic, sender=f"federation:{payload['from']}", body=body["xml"]
        )
        return {"ok": True, "node": self.node_id}

    # -- home-node enforcement ---------------------------------------------

    def _op_details_get(self, payload: dict) -> dict:
        """Decide a forwarded request-for-details with this node's own PDP.

        The consumer sits on another node, but the producer is homed here:
        this node's policy repository, PIP id map, consent registry and
        local cooperation gateway resolve the request exactly as a local
        one (Algorithm 1 + Algorithm 2).  The filtered detail message is
        sealed before it crosses back.
        """
        self.work.add(DETAIL_COST)
        # Remote requests skip the consumer node's details-edge pipeline,
        # so the home node is where the scheduler meters (and, under
        # fair, admission-checks) the requesting organization's ingress.
        self.controller.sched_gate.details(payload["actor_id"])
        actor = Actor(
            actor_id=payload["actor_id"],
            name=payload.get("actor_name") or payload["actor_id"],
            kind=ActorKind.CONSUMER,
            role=payload.get("role", ""),
        )
        request = DetailRequest(
            actor=actor,
            event_type=payload["event_type"],
            event_id=payload["event_id"],
            purpose=payload["purpose"],
        )
        detail = self.controller.enforcer.get_event_details(request)
        body = {
            "event_id": detail.event_id,
            "event_type": detail.event_type,
            "producer_id": detail.producer_id,
            "fields": detail.payload.fields,
            "released": list(detail.released_fields),
        }
        # A released value JSON cannot carry natively (today: a date)
        # crosses in its declared type's text form, beside that type — the
        # consumer's node has no catalog entry to parse it back with.
        schema = self.controller.catalog.get(detail.event_type).schema
        for name, value in body["fields"].items():
            if not isinstance(value, JSON_NATIVE):
                type_ = schema.element(name).type_
                body["fields"][name] = type_.render(value)
                body.setdefault("types", {})[name] = type_to_dict(type_)
        return self.seal_channel(body)

    # -- federated audit ----------------------------------------------------

    def verified_audit(self, event_type: str | None = None,
                       since: float | None = None,
                       until: float | None = None) -> tuple[str, list[AuditRecord]]:
        """This node's chain head and matching records, chain verified first."""
        log = self.controller.audit_log
        log.verify_integrity()
        query = AuditQuery().about_event_type(event_type).between(since, until)
        return log.head_digest, query.run(log)

    def _op_audit_records(self, payload: dict) -> dict:
        """Export this node's verified audit trail (sealed) for a guarantor."""
        self.work.add(AUDIT_COST)
        head, records = self.verified_audit(
            payload.get("event_type"), payload.get("since"), payload.get("until")
        )
        sealed = self.seal_channel(
            {"records": [record.to_payload() for record in records]}
        )
        sealed["head"] = head
        sealed["count"] = len(records)
        return sealed

    # -- telemetry ---------------------------------------------------------

    def record_queue_depth(self) -> None:
        """Publish this node's bus queue depth under its hashed label."""
        telemetry = self.controller.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.gauge(NODE_QUEUE_DEPTH, self.controller.bus.queue_depth,
                            node=self.label)

    def record_fairness(self) -> None:
        """Publish this node's per-tenant fairness gauges.

        Drains the node scheduler's virtual server to the current clock
        and emits share/starvation/throttle/shed gauges with guard-hashed
        tenant labels (see :meth:`repro.sched.TenantScheduler.record_fairness`).
        """
        self.controller.sched.record_fairness(self.controller.telemetry,
                                              self.controller.clock.now())
