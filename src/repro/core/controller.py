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

Collaborators with a real choice — store engine, telemetry, scheduler, perf
layer, batching — are resolved by name through the
:mod:`~repro.runtime.kernel` (see
:class:`~repro.runtime.kernel.RuntimeConfig`); the keystore, bus, endpoint
detail fetcher and policy enforcer have one implementation each and are
constructed here, and so are the events index and the audit log, whose
kind follows from facts: durable iff the runtime has a ``data_dir``,
sharded iff a federation membership was handed in.  Both hot paths — notification publish and
request-for-details — run through the stage pipelines of
:mod:`repro.runtime.interceptors`.
"""

from __future__ import annotations

from typing import Callable

from repro.audit.log import AuditAction, AuditLog, AuditOutcome, mint_record
from repro.bus.broker import ServiceBus
from repro.bus.endpoints import EndpointRegistry
from repro.bus.envelope import Envelope
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
from repro.core.enforcement import DetailRequest, PolicyEnforcer
from repro.core.events import EventClass, EventOccurrence
from repro.core.idmap import EventIdMap
from repro.core.index import EventsIndex
from repro.core.messages import NotificationMessage
from repro.core.policy import PolicyRepository
from repro.core.purposes import PurposeRegistry
from repro.core.roster import PatientRoster
from repro.crypto.keystore import KeyStore
from repro.exceptions import (
    AccessDeniedError,
    UnknownEventClassError,
    UnknownProducerError,
)
from repro.ids import IdFactory
from repro.runtime.batching import BatchWriter
from repro.runtime.interceptors import (
    PUBLISH,
    REQUEST_DETAILS,
    Invocation,
    PublishStats,
    build_details_edge_pipeline,
    build_publish_pipeline,
)
from repro.runtime.interfaces import CooperationGateway
from repro.runtime.kernel import (
    WIRING,
    RuntimeConfig,
    ServiceKernel,
    default_kernel,
)
from repro.runtime.services import (
    EndpointDetailFetcher,
    SchedulerGate,
    gateway_endpoint_name,
)

#: Callback receiving decrypted notifications at an authorized subscriber.
NotificationHandler = Callable[[NotificationMessage], None]


class DataController:
    """The CSS platform's central node.

    ``runtime`` selects the named implementation of every collaborator
    that has a choice and says where (if anywhere) the node's logs live;
    ``kernel`` overrides the registry those names are resolved against;
    ``services_context`` is what a federated platform hands its nodes
    (membership and node identity, its telemetry, scheduler settings).
    """

    def __init__(
        self,
        clock: Clock | None = None,
        master_secret: str = "css-platform-secret",
        seed: str = "css",
        encrypt_identity: bool = True,
        auto_dispatch: bool = True,
        runtime: RuntimeConfig | None = None,
        kernel: ServiceKernel | None = None,
        services_context: dict | None = None,
    ) -> None:
        self.clock = clock or Clock()
        self.ids = IdFactory(seed=seed)
        self.runtime = runtime or RuntimeConfig()
        self.kernel = kernel or default_kernel()
        self.keystore = KeyStore(master_secret)
        # One construction context for every kernel-built collaborator:
        # ``services_context`` under this controller's own values, and each
        # service joins it under its kind as it is built — the key later
        # factories read it by.  A service handed in under its kind (the
        # platform's telemetry) is used as it is, whatever the name says.
        # An off name builds nothing: the attribute is then ``None``.
        context = {
            **(services_context or {}),
            "clock": self.clock, "master_secret": master_secret,
            "telemetry_guard": self.runtime.telemetry_guard,
            "data_dir": self.runtime.data_dir,
            "batch_size": self.runtime.batch_size,
        }
        for kind, config_field, attribute in WIRING:
            if kind not in context:
                context[kind] = self.kernel.create(
                    kind, getattr(self.runtime, config_field), **context)
            setattr(self, attribute, context[kind])
        # Index and audit log follow from facts, not names.  A data
        # directory means the durable pair over the store provider's logs
        # (group-committed when batching is on), none the reference pair;
        # a membership means this node holds one shard of a federated index.
        if self.runtime.data_dir is None:
            index = EventsIndex(self.keystore, encrypt_identity=encrypt_identity)
            self.audit_log = AuditLog()
        else:
            # Lazy like the federated index below: both import this module.
            from repro.runtime.backends import JsonlAuditSink, JsonlIndexStore

            index = JsonlIndexStore(self._durable_log("index"), self.keystore,
                                    encrypt_identity=encrypt_identity)
            self.audit_log = JsonlAuditSink(self._durable_log("audit"))
        if "membership" in context:
            from repro.federation.index import FederatedIndexStore

            index = FederatedIndexStore(
                local=index, membership=context["membership"],
                node_id=context["node_id"], perf=self.perf, batch=self.batch)
        self.index = index
        if self.telemetry is not None:
            self.telemetry.attach_recorder(self.recorder)
        self._sched_gate = SchedulerGate(self.sched, self.clock)
        self.bus = ServiceBus(
            clock=self.clock, ids=self.ids, auto_dispatch=auto_dispatch,
            telemetry=self.telemetry, perf=self.perf, sched=self.sched,
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
        self._gateways: dict[str, CooperationGateway] = {}
        self._consent: dict[str, ConsentRegistry] = {}
        self._identity = None  # optional LocalIdentityProvider (future-work extension)
        # The perf layer's versioned caches validate against these three
        # epoch sources; binding happens once they all exist.
        if self.perf is not None:
            self.perf.bind(
                repository=self.policies,
                consent_resolver=self._consent.get,
                endpoints=self.endpoints,
            )
        self._fetcher = EndpointDetailFetcher(self.endpoints, self.gateway_of)
        self.enforcer = PolicyEnforcer(
            repository=self.policies, id_map=self.id_map,
            purposes=self.purposes, audit_log=self.audit_log,
            clock=self.clock, ids=self.ids,
            consent_resolver=self._consent.get, fetcher=self._fetcher,
            telemetry=self.telemetry, perf=self.perf,
        )
        self.publish_stats = PublishStats()
        self._publish_pipeline = build_publish_pipeline(
            stats=self.publish_stats,
            contracts=self.contracts,
            catalog=self.catalog,
            audit=self.audit_log,
            ids=self.ids,
            clock=self.clock,
            consent_resolver=self._consent.get,
            gateway_resolver=self.gateway_of,
            id_map=self.id_map,
            index_store=self.index,
            transport=self.bus,
            telemetry=self.telemetry,
            sched=self._sched_gate,
        )
        self._details_pipeline = build_details_edge_pipeline(
            contracts=self.contracts,
            clock=self.clock,
            identity_lookup=lambda: self._identity,
            endpoint_call=lambda request: self.endpoints.call(
                "controller.getEventDetails", request
            ),
            telemetry=self.telemetry,
            sched=self._sched_gate,
        )
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

    def _durable_log(self, name: str):
        """The named record log of this node's store provider, behind a
        group-commit writer when batching is on."""
        log = self.store.log(name)
        if self.batch is None:
            return log
        return BatchWriter(log, batch_size=self.batch.batch_size)

    def flush_storage(self) -> None:
        """Group-commit barrier over every durable backend of this node.

        With batching off (the default) this is a no-op.  With batching
        on it drains the index store's buffered rows (and, federated, its
        coalesced shard frames) and the audit sink's buffered chain rows,
        so the on-disk logs are complete before a snapshot, an external
        verification, or a restart replays them.
        """
        self.index.flush()
        self.audit_log.flush()

    # -- pipelines (inspectable wiring) ----------------------------------------

    @property
    def publish_pipeline(self):
        """The notification-publish stage pipeline."""
        return self._publish_pipeline

    @property
    def details_pipeline(self):
        """The controller-edge chain of the request-for-details path."""
        return self._details_pipeline

    @property
    def detail_fetcher(self):
        """The gateway client used by the enforcer's fetch stage."""
        return self._fetcher

    @property
    def sched_gate(self):
        """The scheduler's ingress gate (federation nodes admit through it)."""
        return self._sched_gate

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

    def _authenticate(self, actor_id: str, credential, asserted_role: str = "") -> None:
        if self._identity is None:
            return
        self._identity.authenticate(actor_id, credential, asserted_role)

    # -- joining (contracts) -------------------------------------------------

    def join(self, actor: Actor, valid_until: float | None = None,
             credential=None) -> Contract:
        """Register a party and sign its contract (§5)."""
        self._authenticate(actor.actor_id, credential, actor.role)
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

    def attach_gateway(self, producer_id: str, gateway: CooperationGateway,
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

    def gateway_of(self, producer_id: str) -> CooperationGateway:
        """The gateway a producer attached (raises if missing)."""
        try:
            return self._gateways[producer_id]
        except KeyError as exc:
            raise UnknownProducerError(
                f"producer {producer_id!r} attached no gateway"
            ) from exc

    def publish(self, producer_id: str, occurrence: EventOccurrence) -> NotificationMessage | None:
        """Receive an event from a producer: persist, index, route (§4).

        Runs the publish pipeline (contract → admission → consent →
        persist → crypto → index → route, audited throughout).  Returns
        the distributed notification, or ``None`` when the data subject's
        consent blocks publication (the event then stays entirely inside
        the source).
        """
        return self._publish_pipeline.execute(Invocation(
            PUBLISH, {"producer_id": producer_id, "occurrence": occurrence}
        ))

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
        self._authenticate(consumer_id, credential, actor.role)
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
            event_class.producer_id, event_type, consumer_id, role
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
        relayed: read the notification (decoded once per envelope), apply the
        roster filter, audit the delivery, then hand it to ``handler``."""

        def deliver(envelope: Envelope) -> None:
            notification = envelope.decoded(NotificationMessage.from_xml)
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

        Runs the controller-edge pipeline (contract → authenticate; with
        the fair scheduler also a leading admission stage) whose terminal
        stage invokes the ``controller.getEventDetails`` endpoint, i.e.
        the enforcer's Algorithm 1 chain.
        """
        if not self._sched_gate.shapes_ingress:
            # Fifo baseline: no sched stage is composed into the edge
            # pipeline, so accounting meters the request here.
            self._sched_gate.meter_details(consumer_id)
        return self._details_pipeline.execute(Invocation(
            REQUEST_DETAILS,
            {"consumer_id": consumer_id, "request": request,
             "credential": credential},
        ))

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
            if self.policies.has_policy_for(producer_id, event_type, actor.actor_id, actor.role):
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
