"""One controller node of a federated deployment — both ends of a hop.

A :class:`FederationNode` wraps a full
:class:`~repro.core.controller.DataController`.  It *serves* the small set
of operations peers may invoke over a :class:`~repro.federation.link.Link`
(the handler table is the node's entire remote surface), and it *sends*
every request this node makes of a peer through the one client call,
:meth:`FederationNode.ask` — link lookup, channel sealing, the error
spelling (:data:`WIRE_ERRORS`, read by both ends) and the opening of a
sealed answer are stated there and nowhere else.  An operation whose
request and response have a shape of their own (``subscribe.remote``,
``details.get``) keeps its client half beside its handler.

The handler table is where the paper's privacy model survives
distribution:

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
"""

from __future__ import annotations

import json
from dataclasses import asdict
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from repro import exceptions
from repro.audit.log import AuditRecord
from repro.audit.query import AuditQuery
from repro.core.actors import Actor, ActorKind
from repro.core.enforcement import DetailRequest
from repro.core.messages import DetailMessage, NotificationMessage, notification_of
from repro.crypto.hashing import canonical_json
from repro.exceptions import (
    AccessDeniedError,
    CssError,
    FederationError,
    SourceUnavailableError,
    UnknownEventClassError,
    UnknownEventError,
)
from repro.obs.context import TraceContext
from repro.perf.wire_cache import SealedFrameCache
from repro.sched.scheduler import WORK_DETAILS
from repro.storage.schemas import type_from_dict, type_to_dict
from repro.xmlmsg.document import XmlDocument

if TYPE_CHECKING:
    from repro.core.controller import DataController
    from repro.federation.membership import StaticMembership

#: Value types a canonical-JSON frame returns as it was given them.
JSON_NATIVE = (str, int, float, bool, type(None))

#: How a handler's failure is spelled on the wire — one table, read by the
#: serving side (exception → code) and by :meth:`FederationNode.ask`
#: (code → exception).  These four keep their historical codes, matched
#: on the exact class; every other :class:`~repro.exceptions.CssError`
#: crosses under its class name and is looked up in
#: :mod:`repro.exceptions`, so a failure arrives as the class it left as.
#: A code that names neither (``unknown-operation``, a class defined
#: outside that module) is a :class:`~repro.exceptions.FederationError`.
WIRE_ERRORS: dict[type[CssError], str] = {
    AccessDeniedError: "access-denied",
    SourceUnavailableError: "source-unavailable",
    UnknownEventError: "unknown-event",
    UnknownEventClassError: "unknown-event-class",
}

#: Keystore key-name prefix for per-sender channel sealing.  Each node
#: seals under its *own* key, that key's name the seal's context; receivers
#: re-derive the same key from the shared master secret to open.
CHANNEL_KEY_PREFIX = "federation-channel/"

#: Gauge of each node's bus queue depth, labelled by hashed node id.
NODE_QUEUE_DEPTH = "federation.node.queue_depth"


class FederationNode:
    """A data controller participating in the federation."""

    def __init__(self, node_id: str, controller: "DataController",
                 membership: "StaticMembership") -> None:
        self.node_id = node_id
        self.controller = controller
        self.membership = membership
        #: The controller's telemetry (``None`` when off) — what this
        #: node, its links and the platform's federation spans record into.
        self.telemetry = telemetry = controller.telemetry
        self._tracer = telemetry.tracer if telemetry is not None else None
        #: ``(operation, entries)`` -> server span shape, emptied as a link's.
        self._spans = telemetry.metrics.memo() if telemetry is not None else None
        self._channel_key = CHANNEL_KEY_PREFIX + node_id
        controller.keystore.create(self._channel_key)
        self._perf = controller.perf
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

    @cached_property
    def label(self) -> str:
        """This node's (guard-hashed) telemetry label, hashed once."""
        return self.membership.node_label(self.node_id)

    # -- channel sealing ---------------------------------------------------

    def seal_channel(self, payload: dict) -> dict:
        """Seal a response payload under this node's channel key."""
        token = self.controller.keystore.seal(
            self._channel_key, canonical_json(payload), self._channel_key
        )
        return {"from": self.node_id, "token": token}

    def open_channel(self, sealed: dict) -> dict:
        """Open a peer's channel-sealed payload (same derived key).

        A sender that is not a registered member is refused before any
        key is derived for it: a frame cannot grow the keystore.
        """
        sender = sealed["from"]
        self.membership.node(sender)  # FederationError for a non-member
        name = CHANNEL_KEY_PREFIX + sender
        keystore = self.controller.keystore
        keystore.create(name)  # deterministic derivation: no key exchange
        return json.loads(keystore.open_(name, sealed["token"]))

    # -- client call -------------------------------------------------------

    def ask(self, peer_id: str, operation: str, payload: dict, *,
            seal: bool = False, entries: int | None = None) -> dict:
        """Send one request to ``peer_id`` and return its answer.

        The one statement of a cross-node call.  ``seal`` seals the
        request under this node's channel key first; ``entries`` marks a
        shipper's coalesced frame of that many entries, whose latency was
        charged at enqueue time.  A failure the peer's handler raised is
        re-raised here as the class it left as (:data:`WIRE_ERRORS`); a
        sealed answer comes back already opened, beside whatever the peer
        sent in the clear.  A drop beyond the link's retry budget is the
        link's :class:`~repro.exceptions.LinkFailureError`.
        """
        link = self.membership.link(self.node_id, peer_id)
        if seal:
            payload = self.seal_channel(payload)
        response = (link.call(operation, payload) if entries is None else
                    link.call_batch(operation, payload, count=entries, advance=0.0))
        error = response.get("error")
        if error is not None:
            message = response.get("message", error)
            for failure, code in WIRE_ERRORS.items():
                if code == error:
                    raise failure(message)
            failure = getattr(exceptions, error, None)
            if isinstance(failure, type) and issubclass(failure, CssError):
                raise failure(message)
            raise FederationError(f"remote call failed: {error}: {message}")
        if "token" not in response:
            return response
        clear = {key: value for key, value in response.items()
                 if key not in ("from", "token")}
        return {**clear, **self.open_channel(response)}

    # -- server dispatch ---------------------------------------------------

    def handle(self, operation: str, payload: dict,
               trace: TraceContext | None = None) -> dict:
        """Serve one remote call; a handler's failure is an error response.

        ``trace`` is the caller's link-span context when the caller records
        into other telemetry.  With telemetry enabled the operation runs in
        a ``federation.<op>`` server span under the link span (possibly
        remote), so home-node pipeline and PDP spans nest into its trace.
        """
        handler = self._handlers.get(operation)
        if handler is None:
            return {"error": "unknown-operation", "message": operation}
        return self._serve(handler, operation, payload, trace, None)

    def handle_batch(self, operation: str, payload: dict, count: int,
                     trace: TraceContext | None = None) -> dict:
        """Serve one coalesced frame of ``count`` logical entries.

        Only operations with a batch handler accept coalesced frames
        (today: ``index.store``).  The link counts the frame as ``count``
        delivered hops — per-entry accounting survives coalescing — but
        it is decided in one dispatch under one server span.
        """
        handler = self._batch_handlers.get(operation)
        if handler is None:
            return {"error": "unknown-operation", "message": f"batched {operation}"}
        return self._serve(handler, operation, payload, trace, count)

    def _serve(self, handler: Callable[[dict], dict], operation: str,
               payload: dict, trace: TraceContext | None,
               entries: int | None) -> dict:
        """Run one handler under its server span, opened by row.

        Any platform failure (:class:`~repro.exceptions.CssError`) the
        handler raises is answered, spelled by :data:`WIRE_ERRORS` — so it
        crosses in the transcript, counts as delivered, and :meth:`ask`
        re-raises it on the caller's side.
        """
        tracer = self._tracer
        if tracer is not None:
            row = tracer.open(*self._span_shape(operation, entries), trace)
        try:
            response = handler(payload)
        except CssError as exc:
            code = WIRE_ERRORS.get(type(exc), type(exc).__name__)
            response = {"error": code, "message": str(exc)}
            if tracer is not None:
                tracer.set_attribute(row, "outcome", code)
        except BaseException as exc:
            if tracer is not None:
                tracer.close(row, type(exc))
            raise
        if tracer is not None:
            tracer.close(row)
        return response

    def _span_shape(self, operation: str, entries: int | None):
        """The server span's name and guard-cleared attributes, cleared once."""
        shape = self._spans.get((operation, entries))
        if shape is None:
            attributes = {"node": self.label}
            if entries is not None:
                attributes["entries"] = str(entries)
            shape = self._spans[operation, entries] = (
                f"federation.{operation}", self._tracer.cleared(attributes))
        return shape

    def _op_ping(self, payload: dict) -> dict:
        return {"ok": True, "node": self.node_id}

    # -- index shard operations --------------------------------------------

    def _op_index_store(self, payload: dict) -> dict:
        self.controller.index.accept_remote(self.open_channel(payload)["entry"])
        return {"ok": True, "node": self.node_id}

    def _op_index_store_batch(self, payload: dict) -> dict:
        """Accept a coalesced frame of shard entries in one key schedule.

        The frame was sealed once by the shipper, so it is opened once
        here.
        """
        entries = self.open_channel(payload)["entries"]
        for entry in entries:
            self.controller.index.accept_remote(entry)
        return {"ok": True, "node": self.node_id, "stored": len(entries)}

    def _op_index_inquire(self, payload: dict) -> dict:
        entries = self.controller.index.local_raw_inquire(
            payload["event_types"],
            since=payload.get("since"),
            until=payload.get("until"),
            producer_id=payload.get("producer_id"),
        )
        # Summaries may name the subject: results cross sealed.
        return self.seal_channel({"entries": entries})

    def _op_index_get(self, payload: dict) -> dict:
        return self.seal_channel(
            {"entry": self.controller.index.local_raw_get(payload["event_id"])}
        )

    def _op_index_count(self, payload: dict) -> dict:
        return {"count": self.controller.index.local_count_for_type(
            payload["event_type"]
        )}

    # -- cross-node subscriptions ------------------------------------------

    def subscribe_remote(self, home_node_id: str, consumer: Actor,
                         event_type: str, deliver: Callable) -> str:
        """Subscribe a consumer of this node to a class homed on another.

        The home node's policy repository authorizes (or queues a pending
        access request and denies); on permit it relays the class topic to
        this node, where a local durable subscription feeds ``deliver``.
        Returns the local subscription id.
        """
        topic = self.ask(home_node_id, "subscribe.remote", {
            "consumer_id": consumer.actor_id,
            "role": consumer.role,
            "event_type": event_type,
            "origin": self.node_id,
        })["topic"]
        bus = self.controller.bus
        bus.declare_topic(topic)
        return bus.subscribe(consumer.actor_id, topic, deliver).subscription_id

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
            self.ask(origin, "bus.relay", self._sealed_relay_frame(
                topic, notification_of(envelope.body)))

        subscription = self.controller.bus.subscribe(
            f"federation-relay:{origin}", topic, relay
        )
        self._relays[key] = subscription.subscription_id
        return subscription.subscription_id

    def _sealed_relay_frame(self, topic: str, notification: NotificationMessage) -> dict:
        """Seal a relay frame (the topic beside the notification's typed
        fields) once per distinct notification.

        The same notification relayed toward several peer nodes reuses one
        sealed frame instead of sealing *k* times (safe: deterministic
        sealing, stateless opening — see :mod:`repro.perf.wire_cache`).
        The cache key is content this node itself published and already
        holds in the clear.
        """
        key = (topic, notification)
        frame = self._relay_frames.get(key)
        if frame is not None:
            self._perf.record_hit("seal")
            return frame
        self._perf.record_miss("seal")
        return self._relay_frames.put(
            key, self.seal_channel({"topic": topic, **asdict(notification)}))

    def _op_bus_relay(self, payload: dict) -> dict:
        """Re-publish a relayed notification value on this node's local bus."""
        body = self.open_channel(payload)
        topic = body.pop("topic")
        if topic not in self._relay_topics:
            self.controller.bus.declare_topic(topic)
            self._relay_topics.add(topic)
        self.controller.bus.publish(
            topic, sender=f"federation:{payload['from']}",
            body=NotificationMessage(**body),
        )
        return {"ok": True, "node": self.node_id}

    # -- home-node enforcement ---------------------------------------------

    def request_remote_details(self, home_node_id: str,
                               request: DetailRequest) -> DetailMessage:
        """Forward a request-for-details to the producer's home node.

        The decision (Algorithm 1) and field filtering (Algorithm 2) run
        entirely on the home node; this side only rebuilds the
        already-filtered detail message — values whose type the frame names
        (see :meth:`_op_details_get`) parsed back to it, so the message
        equals the one a local consumer is handed, and a refusal or failure
        is the exception a local consumer would have caught.
        """
        body = self.ask(home_node_id, "details.get", {
            "actor_id": request.actor.actor_id,
            "actor_name": request.actor.name,
            "role": request.actor.role,
            "event_type": request.event_type,
            "event_id": request.event_id,
            "purpose": request.purpose,
        })
        for name, kind in body.get("types", {}).items():
            body["fields"][name] = type_from_dict(kind).parse(body["fields"][name])
        return DetailMessage(
            event_id=body["event_id"],
            event_type=body["event_type"],
            producer_id=body["producer_id"],
            payload=XmlDocument(body["event_type"], body["fields"]),
            released_fields=tuple(body["released"]),
        )

    def _op_details_get(self, payload: dict) -> dict:
        """Decide a forwarded request-for-details with this node's own PDP.

        The consumer sits on another node, but the producer is homed here:
        this node's policy repository, PIP id map, consent registry and
        local cooperation gateway resolve the request exactly as a local
        one (Algorithm 1 + Algorithm 2).  The filtered detail message is
        sealed before it crosses back.
        """
        # Remote requests skip the consumer node's details-edge pipeline,
        # so the home node is where the scheduler meters (and, under
        # fair, admission-checks) the requesting organization's ingress.
        self.controller.sched.ingress(
            payload["actor_id"], WORK_DETAILS, self.controller.clock.now())
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
        """This node's chain head and matching logical records, chain verified first."""
        log = self.controller.audit_log
        log.verify_integrity()
        query = AuditQuery().about_event_type(event_type).between(since, until)
        return log.head_digest, query.run(log)

    def _op_audit_records(self, payload: dict) -> dict:
        """Export this node's verified logical audit rows (sealed) for a guarantor."""
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
        if self.telemetry is not None:
            self.telemetry.gauge(NODE_QUEUE_DEPTH,
                                 self.controller.bus.queue_depth,
                                 node=self.label)

    def record_fairness(self) -> None:
        """Publish this node's per-tenant fairness gauges.

        Drains the node scheduler's virtual server to the current clock
        and emits share/starvation/throttle/shed gauges with guard-hashed
        tenant labels (see :meth:`repro.sched.TenantScheduler.record_fairness`).
        """
        self.controller.sched.record_fairness(self.controller.telemetry,
                                              self.controller.clock.now())
