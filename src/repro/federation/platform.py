"""The N-node deployment facade.

:class:`FederatedPlatform` assembles ``shards`` complete
:class:`~repro.core.controller.DataController` instances — each with its
own catalog, policy repository, PDP, gateways and audit chain — into one
logical CSS platform:

* all nodes share one simulated clock, one master secret (so sealed
  identity tokens and channel keys interoperate) and, optionally, one
  telemetry backend;
* every producer and consumer is **homed** on exactly one node; an event
  class lives on its producer's home node, and so do the policies its
  producer defines — which is what makes home-node enforcement possible;
* the events index is partitioned across nodes by the consistent-hash
  ring over keyed subject digests (each controller wraps its local index
  in a :class:`~repro.federation.index.FederatedIndexStore` because it
  was handed the membership);
* cross-node subscriptions and requests-for-details are forwarded by the
  consumer's :class:`~repro.federation.node.FederationNode`; decisions
  always run on the producer's home node, and gating, delivery and
  auditing are always a controller's — this facade only routes;
* :meth:`add_node` grows the ring at runtime and re-homes the index
  entries whose ownership moved.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

from repro.audit.log import AuditAction, AuditOutcome
from repro.bus.delivery import DeliveryPolicy
from repro.clock import Clock
from repro.core.consumer import DataConsumer
from repro.core.controller import DataController
from repro.core.enforcement import DetailRequest
from repro.core.events import EventClass
from repro.core.messages import DetailMessage, NotificationMessage
from repro.core.producer import DataProducer
from repro.exceptions import FederationError
from repro.federation.audit import FederatedAuditTrail, guarantor_inquiry
from repro.federation.membership import StaticMembership
from repro.federation.node import (
    INDEX_COST,
    INDEX_UNIT_COST,
    PUBLISH_COST,
    PUBLISH_UNIT_COST,
    FederationNode,
)
from repro.obs.guard import PrivacyGuard
from repro.obs.stitch import StitchedTrace, stitch
from repro.obs.telemetry import InMemoryTelemetry
from repro.runtime.interceptors import classify
from repro.runtime.kernel import (
    KIND_TELEMETRY,
    RuntimeConfig,
    ServiceKernel,
    default_kernel,
)
from repro.xmlmsg.schema import MessageSchema


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one :meth:`FederatedPlatform.add_node` rebalance."""

    node_id: str
    entries_moved: int


class FederatedPlatform:
    """N sharded data controllers operating as one logical platform."""

    def __init__(
        self,
        shards: int = 2,
        master_secret: str = "css-platform-secret",
        seed: str = "fed",
        encrypt_identity: bool = True,
        clock: Clock | None = None,
        runtime: RuntimeConfig | None = None,
        kernel: ServiceKernel | None = None,
        telemetry=None,
        link_latency: float = 0.005,
        link_policy: DeliveryPolicy | None = None,
        per_node_telemetry: bool = False,
        sched_config=None,
    ) -> None:
        self.clock = clock or Clock()
        self.kernel = kernel or default_kernel()
        self._master_secret = master_secret
        self._seed = seed
        self._encrypt_identity = encrypt_identity
        self._base_runtime = runtime or RuntimeConfig()
        # Optional repro.sched.SchedConfig every node's scheduler is built
        # with (service rate, buckets, penalty box); None keeps defaults.
        self._sched_config = sched_config
        # A platform is observed by what its runtime names.  Shared (the
        # default): the telemetry object handed in, else the one backend
        # ``runtime.telemetry`` names, built as a bare controller would
        # build its own — ``None`` when that is off.  Per-node: each node
        # controller records into its own backend (site-prefixed span
        # ids), all sharing one clock and one privacy guard so labels hash
        # identically federation-wide; there is no platform-level backend
        # then and the stitch module reassembles the distributed trace
        # from the per-node exports.
        self.per_node_telemetry = per_node_telemetry
        self.node_telemetry: dict[str, InMemoryTelemetry] = {}
        self._node_guard = None
        if per_node_telemetry:
            self._node_guard = PrivacyGuard(
                mode=self._base_runtime.telemetry_guard, secret=master_secret)
        elif telemetry is None:
            telemetry = self.kernel.create(
                KIND_TELEMETRY, self._base_runtime.telemetry,
                clock=self.clock, master_secret=master_secret,
                telemetry_guard=self._base_runtime.telemetry_guard)
        self.telemetry = telemetry
        self.membership = StaticMembership(
            shards=shards, clock=self.clock, master_secret=master_secret,
            link_latency=link_latency, link_policy=link_policy,
            telemetry=self.telemetry,
            label_guard=self._node_guard,
        )
        # Positions within the current batch, per node (see ``_amortized``).
        self._publish_seq: dict[str, int] = {}
        self._index_seq: dict[str, int] = {}
        self._producers: dict[str, DataProducer] = {}
        self._consumers: dict[str, DataConsumer] = {}
        self._producer_home: dict[str, str] = {}
        self._consumer_home: dict[str, str] = {}
        self._class_home: dict[str, str] = {}
        self._round_robin = 0
        for node_id in self.membership.planned_nodes:
            self._build_node(node_id)

    # -- topology ----------------------------------------------------------

    def _build_node(self, node_id: str) -> FederationNode:
        # Each node gets its own data subdirectory: durable stores must
        # never interleave two nodes' logs in one file or segment dir.
        data_dir = self._base_runtime.data_dir
        if data_dir is not None:
            data_dir = Path(data_dir) / node_id
        node_runtime = replace(self._base_runtime, data_dir=data_dir)
        if self.per_node_telemetry:
            # One backend per node, sharing the federation clock and guard;
            # the site prefix keeps span ids globally unique so stitched
            # traces can attribute each span to its node.
            node_telemetry = InMemoryTelemetry(
                clock=self.clock,
                guard=self._node_guard,
                site=self.membership.node_label(node_id),
            )
            self.node_telemetry[node_id] = node_telemetry
        else:
            node_telemetry = self.telemetry
        controller = DataController(
            clock=self.clock,
            master_secret=self._master_secret,
            # Per-node seeds keep ids (events, audit records, subscriptions)
            # collision-free across the federation.
            seed=f"{self._seed}-{node_id}",
            encrypt_identity=self._encrypt_identity,
            runtime=node_runtime,
            kernel=self.kernel,
            services_context={
                "membership": self.membership,
                "node_id": node_id,
                "telemetry": node_telemetry,
                "sched_config": self._sched_config,
            },
        )
        return FederationNode(node_id, controller, self.membership)

    def nodes(self) -> tuple[FederationNode, ...]:
        """Every node, ordered by node id."""
        return self.membership.nodes()

    def node(self, node_id: str) -> FederationNode:
        """One node by id."""
        return self.membership.node(node_id)

    def controller_of(self, node_id: str) -> DataController:
        """The data controller behind one node."""
        return self.membership.node(node_id).controller

    def _remote_route(self, consumer_id: str, event_type: str, span_name: str):
        """How a consumer's operation on a class homed elsewhere is forwarded.

        ``None`` when consumer and class share a home node — the consumer's
        own client then serves the operation.  Otherwise the consumer's
        contract is checked on its own node (as its controller would for a
        local operation) and the route is returned: the consumer's node,
        the class's home node id, and the consumer-side root span to
        forward under.  The span opens on the *origin* node's telemetry so
        everything downstream — the link hop, the home node's server span,
        its PDP pipeline — parents under it, labelled only with
        guard-hashed node ids.
        """
        consumer_home = self._consumer_home[consumer_id]
        class_home = self.home_of_class(event_type)
        if class_home == consumer_home:
            return None
        node = self.node(consumer_home)
        node.controller.contracts.require_active(
            consumer_id, self.clock.now(), must_consume=True
        )
        span = nullcontext() if node.telemetry is None else node.telemetry.span(
            span_name, origin=node.label,
            home=self.membership.node_label(class_home),
        )
        return node, class_home, span

    def _next_home(self, node_id: str | None) -> str:
        if node_id is not None:
            if node_id not in self.membership.node_ids:
                raise FederationError(f"unknown node {node_id!r}")
            return node_id
        node_ids = self.membership.node_ids
        home = node_ids[self._round_robin % len(node_ids)]
        self._round_robin += 1
        return home

    # -- party management (homing) -----------------------------------------

    def add_producer(
        self, actor_id: str, name: str, role: str = "",
        node_id: str | None = None, **kwargs,
    ) -> DataProducer:
        """Join a producer on its home node (round-robin when unspecified)."""
        if actor_id in self._producer_home:
            raise FederationError(f"producer {actor_id!r} already homed")
        home = self._next_home(node_id)
        producer = DataProducer(
            self.controller_of(home), actor_id, name, role=role, **kwargs
        )
        self._producers[actor_id] = producer
        self._producer_home[actor_id] = home
        return producer

    def add_consumer(
        self, actor_id: str, name: str, role: str = "",
        node_id: str | None = None, **kwargs,
    ) -> DataConsumer:
        """Join a consumer on its home node (round-robin when unspecified)."""
        if actor_id in self._consumer_home:
            raise FederationError(f"consumer {actor_id!r} already homed")
        home = self._next_home(node_id)
        consumer = DataConsumer(
            self.controller_of(home), actor_id, name, role=role, **kwargs
        )
        self._consumers[actor_id] = consumer
        self._consumer_home[actor_id] = home
        return consumer

    def producer(self, actor_id: str) -> DataProducer:
        """A homed producer client."""
        return self._producers[actor_id]

    def consumer(self, actor_id: str) -> DataConsumer:
        """A homed consumer client."""
        return self._consumers[actor_id]

    def home_of_producer(self, actor_id: str) -> str:
        """The node a producer is homed on."""
        return self._producer_home[actor_id]

    def home_of_consumer(self, actor_id: str) -> str:
        """The node a consumer is homed on."""
        return self._consumer_home[actor_id]

    def home_of_class(self, event_type: str) -> str:
        """The node an event class (and its policies) lives on."""
        try:
            return self._class_home[event_type]
        except KeyError as exc:
            raise FederationError(
                f"event class {event_type!r} is not declared anywhere in "
                "this federation"
            ) from exc

    # -- catalog ------------------------------------------------------------

    def declare_event_class(
        self, producer_id: str, schema: MessageSchema,
        category: str = "health", description: str = "",
    ) -> EventClass:
        """Declare a class on its producer's home node."""
        producer = self._producers[producer_id]
        event_class = producer.declare_event_class(
            schema, category=category, description=description
        )
        self._class_home[event_class.name] = self._producer_home[producer_id]
        return event_class

    # -- publish ------------------------------------------------------------

    def publish(
        self,
        producer_id: str,
        event_class: EventClass,
        subject_id: str,
        subject_name: str,
        summary: str,
        details: dict[str, object],
        occurred_at: float | None = None,
    ) -> NotificationMessage | None:
        """Publish on the producer's home node; the index entry lands on
        the subject's owner shard (possibly another node)."""
        home = self._producer_home[producer_id]
        node = self.membership.node(home)
        node.work.add(self._amortized(self._publish_seq, node,
                                      PUBLISH_COST, PUBLISH_UNIT_COST))
        notification = self._producers[producer_id].publish(
            event_class, subject_id, subject_name, summary, details,
            occurred_at=occurred_at,
        )
        if notification is not None:
            owner = self.membership.owner_of_subject(notification.subject_ref)
            if owner == home:
                # Remote stores charge the owner through the link handler;
                # local stores are charged here.
                node.work.add(self._amortized(self._index_seq, node,
                                              INDEX_COST, INDEX_UNIT_COST))
        node.record_queue_depth()
        return notification

    def _amortized(self, counters: dict[str, int], node: FederationNode,
                   fixed: float, unit: float) -> float:
        """The simulated service cost of one operation on ``node``.

        Unbatched: always the fixed cost.  Batched (the node's one
        ``BatchPolicy``): the first operation of each ``batch_size``-long
        run pays the fixed cost (the write and flush of the group commit),
        the rest the marginal unit cost.  A batch size of 1 therefore
        costs exactly the unbatched figure.
        """
        policy = node.controller.batch
        if policy is None:
            return fixed
        position = counters.get(node.node_id, 0)
        counters[node.node_id] = (position + 1) % policy.batch_size
        return fixed if position == 0 else unit

    # -- subscriptions -------------------------------------------------------

    def subscribe(self, consumer_id: str, event_type: str, handler=None) -> str:
        """Subscribe a consumer to a class anywhere in the federation.

        Local classes go through the consumer's own controller; remote
        ones are authorized by the class's home node (its policy
        repository, deny-by-default) and relayed over the link.  Either
        way notifications land in the consumer's inbox.
        """
        consumer = self._consumers[consumer_id]
        route = self._remote_route(consumer_id, event_type, "federation.subscribe")
        if route is None:
            return consumer.subscribe(event_type, handler)
        node, class_home, span = route
        with span:
            subscription_id = node.subscribe_remote(
                class_home, consumer.actor, event_type,
                node.controller.notification_sink(
                    consumer_id, consumer.receiver(handler)),
            )
        consumer.note_subscription(event_type, subscription_id)
        return subscription_id

    # -- requests for details -------------------------------------------------

    def request_details(
        self, consumer_id: str, event_type: str, event_id: str, purpose: str
    ) -> DetailMessage:
        """Resolve a request for details wherever the producer is homed.

        The invariant of the subsystem: the decision is ALWAYS made by the
        producing gateway's home node — its PDP, its consent registry, its
        local cooperation gateway.  The consumer's node only forwards,
        audits the forwarding, and unseals the already-filtered response.
        """
        consumer = self._consumers[consumer_id]
        route = self._remote_route(
            consumer_id, event_type, "federation.request_details")
        if route is None:
            return consumer.request_details_by_id(event_type, event_id, purpose)
        node, class_home, span = route
        request = DetailRequest(
            actor=consumer.actor,
            event_type=event_type,
            event_id=event_id,
            purpose=purpose,
        )

        def audit(outcome: AuditOutcome, detail: str) -> None:
            node.controller.record_audit(
                consumer_id, AuditAction.DETAIL_REQUEST, outcome,
                event_id=event_id, event_type=event_type, purpose=purpose,
                detail=detail,
            )

        try:
            with span:
                detail = node.request_remote_details(class_home, request)
        except Exception as exc:
            # The local audit stage's rule: a deny, or — home gateway down,
            # the hop's retry budget spent, anything else — an error.
            outcome = classify(None, exc).audit
            audit(outcome, f"denied by home node {class_home}"
                  if outcome is AuditOutcome.DENY
                  else f"home node {class_home} failed: {exc}")
            raise
        audit(AuditOutcome.PERMIT, f"resolved by home node {class_home}")
        return detail

    # -- dispatch ------------------------------------------------------------

    def dispatch_all(self) -> None:
        """Run dispatch rounds on every node until all queues drain."""
        for _ in range(64):  # relays can cascade across nodes
            pending = False
            for node in self.nodes():
                if node.controller.bus.pending_messages():
                    node.controller.bus.dispatch()
                    pending = True
            if not pending:
                return
        raise FederationError("dispatch did not converge after 64 rounds")

    # -- rebalance -----------------------------------------------------------

    def add_node(self) -> RebalanceReport:
        """Grow the federation by one node and re-home moved index entries.

        Ring ownership changes first, then the node comes up, then every
        pre-existing node ships the (still-sealed) entries it no longer
        owns; finally any in-flight queues are replayed to drain.
        """
        existing = self.nodes()
        node_id = self.membership.add_shard()
        self._build_node(node_id)
        moved = sum(node.controller.index.rehome() for node in existing)
        self.dispatch_all()
        return RebalanceReport(node_id=node_id, entries_moved=moved)

    # -- federated audit -------------------------------------------------------

    def guarantor_inquiry(
        self,
        coordinator_id: str | None = None,
        event_type: str | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> FederatedAuditTrail:
        """A guarantor's audit inquiry fanned out across every node.

        Runs behind the group-commit barrier: every coalesced shard frame
        and buffered durable row is flushed first, so the verified trails
        cover everything published before the inquiry.
        """
        self.flush_batches()
        node_ids = self.membership.node_ids
        coordinator = self.membership.node(coordinator_id or node_ids[0])
        return guarantor_inquiry(
            coordinator, event_type=event_type, since=since, until=until
        )

    # -- batching barriers -----------------------------------------------------

    def flush_batches(self) -> None:
        """Platform-wide group-commit barrier.

        Ships every pending coalesced shard frame (cluster-wide) and then
        drains every node's buffered durable writes.  A no-op with the
        batch kind off; call it before snapshotting data directories,
        verifying on-disk trails, or handing the platform to a guarantor.
        """
        self.membership.flush_shippers()
        for node in self.nodes():
            node.controller.flush_storage()

    # -- instrumentation -------------------------------------------------------

    def total_hops(self) -> int:
        """Cross-node calls delivered over all links so far."""
        return sum(link.stats.delivered for link in self.membership.links())

    def link_transcripts(self) -> list[str]:
        """Every wire message that crossed any link (privacy-test surface)."""
        lines: list[str] = []
        for link in self.membership.links():
            lines.extend(link.transcript)
        return lines

    def record_queue_depths(self) -> None:
        """Refresh every node's queue-depth gauge."""
        for node in self.nodes():
            node.record_queue_depth()

    def flight_recorders(self) -> dict[str, object]:
        """Every node's flight recorder, keyed by node id.

        ``RuntimeConfig(recorder="ring")`` propagates to every node
        controller through the base runtime; with recording off there is
        none to return, so incident capture iterates only over rings that
        actually hold data.
        """
        return {
            node.node_id: node.controller.recorder for node in self.nodes()
            if node.controller.recorder is not None
        }

    def record_fairness(self) -> None:
        """Refresh every node's per-tenant fairness gauges.

        An explicit harness/operator action (like queue-depth recording):
        drains each node scheduler's virtual server to the shared clock
        and emits share/starvation/throttle/shed gauges with guard-hashed
        tenant labels.
        """
        for node in self.nodes():
            node.record_fairness()

    # -- distributed tracing ---------------------------------------------------

    def trace_exports(self) -> dict[str, list[str]]:
        """Per-node span exports, keyed by node id (sorted iteration order).

        With per-node telemetry each node contributes its own JSONL lines;
        with one shared backend everything appears under ``"shared"``;
        with telemetry off the dict is empty.
        """
        if self.per_node_telemetry:
            return {
                node_id: self.node_telemetry[node_id].trace_export()
                for node_id in sorted(self.node_telemetry)
            }
        if self.telemetry is not None:
            return {"shared": self.telemetry.trace_export()}
        return {}

    def stitched_trace(self) -> tuple[StitchedTrace, ...]:
        """The per-node exports merged into total-ordered federated traces."""
        return stitch(self.trace_exports())
