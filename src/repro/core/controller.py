"""The Data Controller — the central mediator of the CSS platform (Fig. 2).

"The data controller acts as a mediator and broker between data sources and
consumers and is the guarantor for the correct application of the privacy
policy" (§4).  Its responsibilities, each a method below:

* support producers and consumers in **joining** (contracts, §5);
* let producers **declare event classes** in the catalog and define
  policies through the elicitation tool;
* let consumers **subscribe** to event classes — gated on an authorizing
  policy, with pending access requests when none exists;
* **receive, index and route notifications** (encrypted identifying info in
  the events index, pub/sub fan-out over the service bus);
* **resolve requests for details** through the policy enforcer
  (Algorithm 1) and the producers' local cooperation gateways
  (Algorithm 2);
* **resolve events-index inquiries**, also policy-gated;
* **maintain audit logs** of every access for the privacy guarantor.

Every collaborator is constructed here.  Those with a real choice —
telemetry, recorder, batching — from the name their
:class:`~repro.runtime.kernel.RuntimeConfig` field holds; the keystore,
backlog bound, perf layer, bus, endpoint detail fetcher and policy
enforcer have one implementation each; the storage engine, the events
index and the audit log follow from facts: durable iff the runtime has a
``data_dir``, sharded iff a federation membership was handed in.  Both hot paths —
notification publish and request-for-details — are the plain functions
of :mod:`repro.runtime.interceptors`.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.audit.log import AuditAction, AuditLog, AuditOutcome, mint_record
from repro.bus.broker import ServiceBus
from repro.bus.endpoints import EndpointRegistry
from repro.bus.envelope import Envelope
from repro.bus.subscriptions import CACHE_HITS, CACHE_MISSES, PerfLayer
from repro.clock import Clock
from repro.core.actors import Actor, ActorDirectory
from repro.core.catalog import EventCatalog
from repro.core.consent import ConsentRegistry
from repro.core.contracts import Contract, ContractRegistry
from repro.core.elicitation import (
    ElicitationWizard,
    PendingAccessRequest,
    PendingRequestQueue,
    PolicyDashboard,
)
from repro.core.enforcement import PDP_EVALUATIONS, DetailRequest, PolicyEnforcer
from repro.core.events import EventClass, EventOccurrence
from repro.core.gateway import LocalCooperationGateway
from repro.core.idmap import EventIdMap
from repro.core.index import EventsIndex
from repro.core.messages import DetailMessage, NotificationMessage, notification_of
from repro.core.policy import PolicyRepository
from repro.core.purposes import PurposeRegistry
from repro.core.roster import PatientRoster
from repro.crypto.keystore import KeyStore
from repro.exceptions import (
    AccessDeniedError,
    EndpointError,
    SourceUnavailableError,
    UnknownEventClassError,
    UnknownProducerError,
)
from repro.ids import IdFactory
from repro.obs.recorder import FlightRecorder
from repro.obs.telemetry import InMemoryTelemetry
from repro.runtime import interceptors
from repro.runtime.interceptors import DETAILS_EDGE, PUBLISH, EdgeStats, HotPath, PublishStats
from repro.runtime.kernel import RuntimeConfig
from repro.sched import SHED_TOTAL, TENANT_SHED, BacklogBound

#: Callback receiving decrypted notifications at an authorized subscriber.
NotificationHandler = Callable[[NotificationMessage], None]


def gateway_endpoint_name(producer_id: str) -> str:
    """The SOA endpoint a producer's cooperation gateway is exposed under."""
    return f"gateway.{producer_id}.getResponse"


class EndpointDetailFetcher:
    """Fetches details through the SOA endpoint layer (Algorithm 2 client).

    Keeps the endpoint call accounting honest and converts endpoint-level
    unavailability into the gateway's failure type.  ``require_producer``
    fails fast (with the controller's unknown-producer error) before any
    endpoint is invoked.
    """

    def __init__(self, endpoints: EndpointRegistry,
                 require_producer: Callable[[str], object]) -> None:
        self._endpoints = endpoints
        self._require_producer = require_producer

    def fetch(self, producer_id: str, src_event_id: str,
              allowed_fields: Iterable[str], event_id: str) -> DetailMessage:
        self._require_producer(producer_id)
        try:
            return self._endpoints.call(
                gateway_endpoint_name(producer_id),
                (src_event_id, frozenset(allowed_fields), event_id),
            )
        except EndpointError as exc:
            raise SourceUnavailableError(str(exc)) from exc


def named_telemetry(runtime: RuntimeConfig, clock: Clock,
                    master_secret: str) -> InMemoryTelemetry | None:
    """The telemetry backend ``runtime.telemetry`` names: ``None`` for
    ``noop``.  A bare controller builds its own with it, and a platform
    the one backend its nodes share."""
    if runtime.telemetry == "noop":
        return None
    return InMemoryTelemetry(clock=clock, guard_mode=runtime.telemetry_guard,
                             secret=master_secret)


class DataController:
    """The CSS platform's central node.

    ``runtime`` selects the named implementation of every collaborator
    that has a choice and says where (if anywhere) the node's logs live.
    The keyword-only rest is what a federated platform hands its nodes:
    the ``telemetry`` to record into (used as it is, whatever
    ``runtime.telemetry`` names), and the ``membership`` and ``node_id``
    of this node's shard.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        master_secret: str = "css-platform-secret",
        seed: str = "css",
        encrypt_identity: bool = True,
        auto_dispatch: bool = True,
        runtime: RuntimeConfig | None = None,
        *,
        telemetry: InMemoryTelemetry | None = None,
        membership=None,
        node_id: str | None = None,
    ) -> None:
        self.clock = clock or Clock()
        self.ids = IdFactory(seed=seed)
        self.runtime = runtime = runtime or RuntimeConfig()
        self.keystore = KeyStore(master_secret)
        # The three switches, in this order: each reads the ones before it.
        # An off name builds nothing: the attribute is then ``None``.
        self.telemetry = telemetry if telemetry is not None else (
            named_telemetry(runtime, self.clock, master_secret))
        self.recorder = FlightRecorder(
            clock=self.clock, guard=getattr(self.telemetry, "guard", None),
        ) if runtime.recorder == "ring" else None
        # The per-tenant backlog bound at fan-out (no switch: always on).
        self.sched = BacklogBound(secret=master_secret)
        #: Records per group commit and per coalesced shard frame (``batch: on``).
        self.batch_size = runtime.batch_size if runtime.batch == "on" else None
        # The hit/miss counters of the fan-out memo and the relay-frame cache.
        self.perf = PerfLayer()
        # Store, index and audit log follow from facts, not names.  A data
        # directory means the storage engine under it and the durable pair
        # over its logs (each group-committing ``batch_size`` records), none no
        # store and the reference pair; a membership means this node holds
        # one shard of a federated index.
        if self.runtime.data_dir is None:
            self.store = None
            index = EventsIndex(self.keystore, encrypt_identity=encrypt_identity)
            self.audit_log = AuditLog()
        else:
            # Lazy like the federated index below: both import this module.
            from repro.runtime.backends import JsonlAuditSink, JsonlIndexStore
            from repro.storage.engine import StorageEngine

            self.store = StorageEngine(self.runtime.data_dir, telemetry=self.telemetry,
                                       batch_size=self.batch_size or 1)
            index = JsonlIndexStore(self.store.log("index"), self.keystore,
                                    encrypt_identity=encrypt_identity)
            self.audit_log = JsonlAuditSink(self.store.log("audit"))
        if membership is not None:
            from repro.federation.index import FederatedIndexStore

            index = FederatedIndexStore(
                local=index, membership=membership,
                node_id=node_id, batch_size=self.batch_size)
        self.index = index
        if self.telemetry is not None:
            self.telemetry.attach_recorder(self.recorder)
        self.bus = ServiceBus(
            clock=self.clock, ids=self.ids, auto_dispatch=auto_dispatch,
            perf=self.perf, sched=self.sched,
            recorder=self.recorder,
        )
        self.endpoints = EndpointRegistry()
        self.actors = ActorDirectory()
        self.contracts = ContractRegistry()
        self.catalog = EventCatalog()
        self.purposes = PurposeRegistry()
        self.id_map = EventIdMap()
        self.policies = PolicyRepository()
        self.pending_requests = PendingRequestQueue()
        self.roster = PatientRoster()
        self.dashboard = PolicyDashboard(self.catalog, self.policies)
        self._gateways: dict[str, LocalCooperationGateway] = {}
        self._consent: dict[str, ConsentRegistry] = {}
        self._identity = None  # optional LocalIdentityProvider (future-work extension)
        #: The gateway client the enforcer fetches details through.
        self.detail_fetcher = EndpointDetailFetcher(self.endpoints, self.gateway_of)
        self.enforcer = PolicyEnforcer(
            repository=self.policies, id_map=self.id_map,
            purposes=self.purposes, audit_log=self.audit_log,
            clock=self.clock, ids=self.ids,
            consent_resolver=self._consent.get, fetcher=self.detail_fetcher,
            telemetry=self.telemetry,
        )
        self.publish_stats = PublishStats()
        self.edge_stats = EdgeStats()
        #: The two hot paths, run by :meth:`publish` and :meth:`request_details`.
        self.publish_pipeline = HotPath(
            PUBLISH, interceptors.publish, self, self.publish_stats, self.telemetry)
        self.details_pipeline = HotPath(
            DETAILS_EDGE, interceptors.request_details, self, self.edge_stats,
            self.telemetry)
        if self.telemetry is not None:
            self._serve_metrics(self.telemetry.metrics)
        self.endpoints.expose(
            "controller.getEventDetails",
            lambda request: self.enforcer.get_event_details(request),
            "Request-for-details resolution (Algorithm 1)",
        )
        self.endpoints.expose(
            "controller.inquireIndex",
            lambda request: self._inquire_endpoint(request),
            "Events-index inquiry",
        )

    def _serve_metrics(self, metrics) -> None:
        """Serve the ``bus.*``, ``sched.*``, ``perf.cache.*`` and ``xacml.pdp.*``
        series off this node's stats, each from its first count on (the
        queue gauge from the bus's first publish or round)."""
        bus, stats, perf = self.bus, self.bus.stats, self.perf.stats
        verdicts = self.enforcer.pdp_stats.verdicts

        def by(key: str, table: Callable[[], dict]):
            return lambda: (({key: label}, count) for label, count in table().items())

        def once(value: Callable[[], int]):
            return lambda: (({}, value()),) if value() else ()

        for kind, name, read in (
            ("counter", "bus.published_total", by("topic", lambda: stats.topic_published)),
            ("counter", "bus.fanout_total", by("topic", lambda: stats.topic_fanout)),
            ("counter", "bus.dispatch_rounds_total", once(lambda: stats.dispatch_rounds)),
            ("counter", "bus.deadletter_total", once(lambda: stats.dead_lettered)),
            ("gauge", "bus.queue.depth", lambda: (({}, bus.queue_depth),)
             if stats.published or stats.dispatch_rounds else ()),
            ("gauge", "bus.queue.high_water", by("topic", bus.queue_high_water_marks)),
            ("gauge", "bus.deadletter.high_water", once(lambda: bus.dead_letter_high_water)),
            ("counter", TENANT_SHED, self.sched.shed_rows),
            ("counter", SHED_TOTAL, once(lambda: self.sched.shed_total)),
            ("counter", CACHE_HITS, by("cache", lambda: perf.hits)),
            ("counter", CACHE_MISSES, by("cache", lambda: perf.misses)),
            ("counter", PDP_EVALUATIONS, by("decision", lambda: {
                verdict.name.lower(): count for verdict, count in verdicts.items()})),
        ):
            metrics.reader(kind, name, read)

    def flush_storage(self) -> None:
        """Group-commit barrier over every durable backend of this node.

        It chains the audit log's open fan-out run and commits the index
        and audit logs' pending records (and, federated, ships the index's
        coalesced shard frames), so the on-disk logs are complete before a
        snapshot, an external verification, or a restart replays them.
        With batching off only the open run is left to write.
        """
        self.index.flush()
        self.audit_log.flush()

    # -- identity management (the paper's future-work extension) --------------

    def attach_identity_provider(self, provider) -> None:
        """Activate identity management (see :mod:`repro.identity`).

        From this point on, ``join`` requires a credential whose subject
        and certified role match the joining actor, and subscriptions /
        detail requests must present a live credential.
        """
        self._identity = provider

    @property
    def identity_active(self) -> bool:
        """Whether an identity provider is attached."""
        return self._identity is not None

    def authenticate(self, actor_id: str, credential, asserted_role: str = "") -> None:
        """Check ``credential`` against the attached identity provider (a
        no-op without one)."""
        if self._identity is None:
            return
        self._identity.authenticate(actor_id, credential, asserted_role)

    # -- joining (contracts) -------------------------------------------------

    def join(self, actor: Actor, valid_until: float | None = None,
             credential=None) -> Contract:
        """Register a party and sign its contract (§5)."""
        self.authenticate(actor.actor_id, credential, actor.role)
        self.actors.add(actor)
        contract = Contract(
            party_id=actor.actor_id,
            kind=actor.kind,
            signed_at=self.clock.now(),
            valid_until=valid_until,
        )
        self.contracts.sign(contract)
        self.record_audit(
            actor.actor_id, AuditAction.JOIN, AuditOutcome.PERMIT,
            detail=f"joined as {actor.kind.value}",
        )
        return contract

    # -- producer-side operations ----------------------------------------------

    def declare_event_class(self, producer_id: str, event_class: EventClass) -> None:
        """Install a producer's event class (its XSD) in the catalog (§5)."""
        self.contracts.require_active(producer_id, self.clock.now(), must_produce=True)
        if event_class.producer_id != producer_id:
            raise UnknownProducerError(
                f"class {event_class.name!r} names producer "
                f"{event_class.producer_id!r}, not {producer_id!r}"
            )
        self.catalog.install(event_class)
        self.bus.declare_topic(event_class.topic)
        # Detail-payload keys are sensitive: registering them with the
        # telemetry guard keeps them out of metric labels / span attributes.
        if self.telemetry is not None:
            self.telemetry.restrict_keys(event_class.fields)
        self.record_audit(
            producer_id, AuditAction.DECLARE_EVENT_CLASS, AuditOutcome.PERMIT,
            event_type=event_class.name,
            detail=f"fields: {', '.join(event_class.fields)}",
        )

    def upgrade_event_class(self, producer_id: str, event_class: EventClass) -> EventClass:
        """Install a backward-compatible new version of a declared class.

        Existing policies, subscriptions and stored events are untouched:
        compatibility rules (see :mod:`repro.core.evolution`) guarantee
        every field they reference still exists with the same meaning.
        """
        self.contracts.require_active(producer_id, self.clock.now(), must_produce=True)
        if event_class.producer_id != producer_id:
            raise UnknownProducerError(
                f"class {event_class.name!r} names producer "
                f"{event_class.producer_id!r}, not {producer_id!r}"
            )
        upgraded = self.catalog.upgrade(event_class)
        if self.telemetry is not None:
            self.telemetry.restrict_keys(upgraded.fields)
        self.record_audit(
            producer_id, AuditAction.DECLARE_EVENT_CLASS, AuditOutcome.PERMIT,
            event_type=upgraded.name,
            detail=f"upgraded to version {upgraded.version}; "
                   f"fields: {', '.join(upgraded.fields)}",
        )
        return upgraded

    def attach_gateway(self, producer_id: str, gateway: LocalCooperationGateway,
                       check_contract: bool = True) -> None:
        """Register a producer's local cooperation gateway and its endpoint.

        ``check_contract=False`` is used by archive restoration, where a
        suspended producer's gateway must still be re-attached so its
        already-published details keep serving.
        """
        if check_contract:
            self.contracts.require_active(producer_id, self.clock.now(), must_produce=True)
        replacing = producer_id in self._gateways
        self._gateways[producer_id] = gateway
        if replacing:  # gateway restart: rebind the endpoint
            self.endpoints.withdraw(gateway_endpoint_name(producer_id))
        self.endpoints.expose(
            gateway_endpoint_name(producer_id),
            lambda request, gw=gateway: gw.get_response(*request),
            f"Local cooperation gateway of {producer_id} (Algorithm 2)",
        )

    def attach_consent(self, producer_id: str, registry: ConsentRegistry,
                       check_contract: bool = True) -> None:
        """Register a producer's source-level consent registry."""
        if check_contract:
            self.contracts.require_active(producer_id, self.clock.now(), must_produce=True)
        self._consent[producer_id] = registry

    def consent_registry_of(self, producer_id: str) -> ConsentRegistry | None:
        """The consent registry a producer attached (None if absent)."""
        return self._consent.get(producer_id)

    def gateway_of(self, producer_id: str) -> LocalCooperationGateway:
        """The gateway a producer attached (raises if missing)."""
        try:
            return self._gateways[producer_id]
        except KeyError as exc:
            raise UnknownProducerError(
                f"producer {producer_id!r} attached no gateway"
            ) from exc

    def publish(self, producer_id: str, occurrence: EventOccurrence) -> NotificationMessage | None:
        """Receive an event from a producer: persist, index, route (§4).

        Runs :func:`repro.runtime.interceptors.publish` (contract →
        catalog, ownership, validation → consent → persist → seal → index
        → route, then the audit record).  Returns the distributed
        notification, or ``None`` when the data subject's consent blocks
        publication (the event then stays entirely inside the source).
        """
        return self.publish_pipeline.execute(producer_id, occurrence)

    # -- consumer-side operations --------------------------------------------------

    def subscribe(
        self, consumer_id: str, event_type: str, handler: NotificationHandler,
        credential=None, roster_scoped: bool = False,
    ) -> str:
        """Subscribe a consumer to an event class (policy-gated, §5.2).

        Returns the subscription id.  Without an authorizing policy the
        subscription is rejected (deny-by-default), a pending access
        request is queued for the producer, and
        :class:`~repro.exceptions.AccessDeniedError` is raised.

        With ``roster_scoped=True`` only notifications about subjects on
        the consumer's patient roster are delivered — the minimal-usage
        scoping of :mod:`repro.core.roster`.
        """
        self.contracts.require_active(consumer_id, self.clock.now(), must_consume=True)
        actor = self.actors.get(consumer_id)
        self.authenticate(consumer_id, credential, actor.role)
        sink = self.notification_sink(consumer_id, handler, roster_scoped)
        return self.gated_subscribe(
            consumer_id, actor.role, event_type,
            lambda event_class: self.bus.subscribe(
                consumer_id, event_class.topic, sink
            ).subscription_id,
        )

    def gated_subscribe(
        self,
        consumer_id: str,
        role: str,
        event_type: str,
        install: Callable[[EventClass], object],
        deny_detail: str = "no authorizing policy; pending access request queued",
        permit_detail: str = "",
    ):
        """The deny-by-default subscription gate (§5.2), audited either way.

        Every route passes through it — :meth:`subscribe`, and a federation
        node serving a peer's consumer — differing only in the audit detail
        strings and in what ``install(event_class)`` sets up on permit (a
        bus subscription, a relay toward the peer); its result is returned.
        Without an authorizing policy a pending access request is queued,
        the denial audited and ``AccessDeniedError`` raised.
        """
        event_class = self.catalog.get(event_type)
        if not self.policies.has_policy_for(
            event_class.producer_id, event_type, consumer_id, role,
            at=self.clock.now(),
        ):
            self.pending_requests.add(PendingAccessRequest(
                request_id=self.ids.next("par"),
                consumer_id=consumer_id,
                consumer_role=role,
                event_type=event_type,
                producer_id=event_class.producer_id,
                requested_at=self.clock.now(),
            ))
            self.record_audit(
                consumer_id, AuditAction.SUBSCRIBE, AuditOutcome.DENY,
                event_type=event_type, detail=deny_detail,
            )
            raise AccessDeniedError(
                f"no policy authorizes {consumer_id!r} for {event_type!r}; "
                "access request is pending with the producer"
            )
        installed = install(event_class)
        self.record_audit(
            consumer_id, AuditAction.SUBSCRIBE, AuditOutcome.PERMIT,
            event_type=event_type, detail=permit_detail,
        )
        return installed

    def notification_sink(
        self, consumer_id: str, handler: NotificationHandler,
        roster_scoped: bool = False,
    ) -> Callable[[Envelope], None]:
        """The bus-side delivery handler of one subscription, local or
        relayed: read the notification the body carries, apply the roster
        filter, audit the delivery, then hand it to ``handler``."""

        def deliver(envelope: Envelope) -> None:
            notification = notification_of(envelope.body)
            if roster_scoped and not self.roster.is_assigned(
                consumer_id, notification.subject_ref
            ):
                return  # not this consumer's patient: silently filtered
            self.audit_log.delivered(
                consumer_id, notification, self.clock.now(), self.ids)
            handler(notification)

        return deliver

    def request_details(self, consumer_id: str, request: DetailRequest,
                        credential=None):
        """Resolve a request for details through the SOA endpoint + enforcer.

        Runs :func:`repro.runtime.interceptors.request_details` (meter →
        contract → authenticate), which invokes the
        ``controller.getEventDetails`` endpoint, i.e. the enforcer's
        Algorithm 1.
        """
        return self.details_pipeline.execute(consumer_id, request, credential)

    def inquire_index(
        self,
        consumer_id: str,
        event_types: list[str],
        since: float | None = None,
        until: float | None = None,
    ) -> list[NotificationMessage]:
        """Events-index inquiry, restricted to authorized classes (§4).

        Classes the consumer is not authorized for are skipped and audited
        as denials; authorized classes are queried and the identifying
        slots decrypted.
        """
        self.contracts.require_active(consumer_id, self.clock.now(), must_consume=True)
        return self.endpoints.call(
            "controller.inquireIndex", (consumer_id, tuple(event_types), since, until)
        )

    def _inquire_endpoint(self, request) -> list[NotificationMessage]:
        consumer_id, event_types, since, until = request
        actor = self.actors.get(consumer_id)
        authorized: list[str] = []
        for event_type in event_types:
            try:
                producer_id = self.catalog.producer_of(event_type)
            except UnknownEventClassError:
                self.record_audit(
                    consumer_id, AuditAction.INDEX_INQUIRY, AuditOutcome.DENY,
                    event_type=event_type, detail="unknown event class",
                )
                continue
            if self.policies.has_policy_for(producer_id, event_type, actor.actor_id,
                                            actor.role, at=self.clock.now()):
                authorized.append(event_type)
                self.record_audit(
                    consumer_id, AuditAction.INDEX_INQUIRY, AuditOutcome.PERMIT,
                    event_type=event_type,
                )
            else:
                self.record_audit(
                    consumer_id, AuditAction.INDEX_INQUIRY, AuditOutcome.DENY,
                    event_type=event_type, detail="no authorizing policy",
                )
        results = self.index.inquire(authorized, since=since, until=until)
        # Minimal usage for inquiries too: a consumer with a patient roster
        # only sees notifications about its assigned citizens.
        assigned = self.roster.subjects_of(consumer_id)
        if assigned:
            results = [n for n in results if n.subject_ref in assigned]
        return results

    # -- elicitation ---------------------------------------------------------------

    def elicitation_wizard(self) -> ElicitationWizard:
        """A fresh Fig. 7 wizard bound to this platform's catalog/repository."""
        return ElicitationWizard(self.catalog, self.purposes, self.policies, self.ids)

    def policy_tester(self):
        """A dry-run policy test-bench (§1's testability challenge).

        See :class:`repro.core.policy_testing.PolicyTester`.
        """
        from repro.core.policy_testing import PolicyTester

        return PolicyTester(self.catalog, self.policies)

    def record_policy_definition(self, producer_id: str, policy_ids: list[str]) -> None:
        """Audit that a producer defined policies (called by the wizard flow)."""
        self.record_audit(
            producer_id, AuditAction.DEFINE_POLICY, AuditOutcome.PERMIT,
            detail=f"policies: {', '.join(policy_ids)}",
        )

    # -- audit ------------------------------------------------------------------------

    def record_audit(
        self, actor: str, action: AuditAction, outcome: AuditOutcome, **fields,
    ) -> None:
        """Append one audit record to this node's trail (``fields`` as in
        :func:`repro.audit.log.mint_record`)."""
        mint_record(self.audit_log, self.ids, self.clock,
                    actor, action, outcome, **fields)
