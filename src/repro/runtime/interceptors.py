"""Cross-cutting interceptor pipeline for the controller's two hot paths.

Both hot paths of the CSS platform run through one uniform mechanism — an
ordered chain of :class:`Interceptor` stages around a terminal operation:

* **notification publish** — ``stats → contract → admission → audit →
  consent → persist → crypto → index → route``;
* **request for details** — controller edge ``contract → authenticate →
  (endpoint)`` feeding the enforcement chain ``stats → audit → resolve →
  consent → decide → fetch → filter`` (Algorithm 1).

With the fair tenant scheduler (kernel kind ``sched``, implementation
``fair``) both ingress pipelines additionally lead with a ``sched``
admission stage — per-tenant token-bucket metering that counts and
penalty-boxes over-rate tenants without ever denying the operation (see
:mod:`repro.sched` and docs/SCHEDULING.md).  Under the default ``none``
scheduler no stage is composed, so the default chains above are
byte-for-byte unchanged.

Each stage owns exactly one concern; cross-cutting behaviors (audit,
crypto, stats) are ordinary interceptors, so new stages (metrics, caching,
retries) can be added without touching ``DataController`` or the enforcer
again.  A stage short-circuits by returning without calling ``proceed``
(consent veto on publish) or by raising one of the typed exceptions from
:mod:`repro.exceptions` (policy deny) — the audit stage sits *outside* the
deniable stages so every denied attempt is still recorded (the paper's
deny-by-default invariant).

The pipeline is pre-composed at construction time: executing it is a plain
chain of function calls, no per-request reflection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from repro.audit.log import AuditAction, AuditOutcome, mint_record
from repro.core.idmap import EventIdEntry
from repro.core.messages import NotificationMessage
from repro.exceptions import (
    AccessDeniedError,
    GatewayError,
    PrivacyError,
    SourceUnavailableError,
    UnknownEventError,
    UnknownProducerError,
)
from repro.obs.telemetry import PIPELINE_OUTCOMES, PIPELINE_WALL_DURATION
from repro.perf.decision_cache import CachedDecision
from repro.xacml.context import (
    ATTR_ACTION_PURPOSE,
    ATTR_RESOURCE_EVENT_ID,
    ATTR_RESOURCE_EVENT_TYPE,
    ATTR_SUBJECT_ID,
    ATTR_SUBJECT_ORGANIZATION,
    ATTR_SUBJECT_ROLE,
    RequestContext,
)
from repro.xacml.model import OBLIGATION_RELEASE_FIELDS

#: Operation names carried by invocations (the two hot paths).
PUBLISH = "publish"
REQUEST_DETAILS = "request-details"


@dataclass
class Invocation:
    """One trip through a pipeline: the operation plus its scratch state.

    ``context`` is the inter-stage blackboard (stages communicate through
    well-known keys); ``trace`` records every stage entered, in order, for
    diagnostics and the determinism tests.
    """

    operation: str
    context: dict[str, Any] = field(default_factory=dict)
    trace: list[str] = field(default_factory=list)


#: Continuation invoking the rest of the chain.
Proceed = Callable[[Invocation], Any]


@runtime_checkable
class Interceptor(Protocol):
    """One pipeline stage."""

    name: str

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any: ...


class InterceptorPipeline:
    """An ordered interceptor chain around a terminal operation.

    ``telemetry`` (a :mod:`repro.obs.telemetry` backend) makes the chain
    observable: one root span per execution, one child span plus a
    duration-histogram sample per stage, and an outcome counter.  With the
    noop backend (``enabled`` false, the default) the instrumented
    wrappers are never composed — the un-instrumented hot path is
    byte-for-byte the pre-observability chain.
    """

    def __init__(
        self,
        interceptors: Sequence[Interceptor],
        terminal: Proceed,
        name: str = "",
        telemetry=None,
    ) -> None:
        self.name = name
        self._telemetry = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        self._interceptors = tuple(interceptors)
        chain = terminal
        for interceptor in reversed(self._interceptors):
            chain = self._wrap(interceptor, chain)
        self._chain = chain

    def _wrap(self, interceptor: Interceptor, nxt: Proceed) -> Proceed:
        telemetry = self._telemetry
        pipeline_name = self.name

        if telemetry is None:
            def step(invocation: Invocation) -> Any:
                invocation.trace.append(interceptor.name)
                return interceptor.intercept(invocation, nxt)
        else:
            def step(invocation: Invocation) -> Any:
                invocation.trace.append(interceptor.name)
                with telemetry.stage_span(
                    pipeline_name or invocation.operation, interceptor.name
                ):
                    return interceptor.intercept(invocation, nxt)

        return step

    @property
    def stage_names(self) -> tuple[str, ...]:
        """Stage names in execution order."""
        return tuple(interceptor.name for interceptor in self._interceptors)

    def execute(self, invocation: Invocation) -> Any:
        """Run ``invocation`` through the chain and return the result.

        Typed :class:`~repro.exceptions.CssError` failures raised by any
        stage surface to the caller unchanged — the pipeline machinery
        never wraps or swallows them.
        """
        if self._telemetry is None:
            return self._chain(invocation)
        return self._execute_observed(invocation)

    def _execute_observed(self, invocation: Invocation) -> Any:
        telemetry = self._telemetry
        pipeline = self.name or invocation.operation
        wall_started = perf_counter()
        outcome = "ok"
        try:
            with telemetry.pipeline_span(pipeline):
                result = self._chain(invocation)
        except AccessDeniedError:
            outcome = "deny"
            raise
        except Exception:
            outcome = "error"
            raise
        else:
            if result is None:
                outcome = "consent-veto"
            return result
        finally:
            telemetry.count(PIPELINE_OUTCOMES, pipeline=pipeline, outcome=outcome)
            telemetry.observe_wall(
                PIPELINE_WALL_DURATION, perf_counter() - wall_started,
                pipeline=pipeline,
            )


# ---------------------------------------------------------------------------
# Shared helpers (used by interceptors and by PolicyEnforcer.decide)
# ---------------------------------------------------------------------------


def build_request_context(request) -> RequestContext:
    """Project a :class:`DetailRequest` onto the XACML request context."""
    attributes: dict[str, tuple[str, ...]] = {
        ATTR_SUBJECT_ID: (request.actor.actor_id,),
        ATTR_SUBJECT_ORGANIZATION: (request.actor.organization,),
        ATTR_RESOURCE_EVENT_TYPE: (request.event_type,),
        ATTR_RESOURCE_EVENT_ID: (request.event_id,),
        ATTR_ACTION_PURPOSE: (request.purpose,),
    }
    if request.actor.role:
        attributes[ATTR_SUBJECT_ROLE] = (request.actor.role,)
    return RequestContext(attributes)


def released_fields(obligations) -> frozenset[str]:
    """Union of the field-release obligations of a permit response."""
    fields: set[str] = set()
    for outcome in obligations:
        if outcome.obligation_id == OBLIGATION_RELEASE_FIELDS:
            fields.update(outcome.assignment("field"))
    return frozenset(fields)


def policy_decision(entry, request, repository, pep, perf) -> CachedDecision:
    """Steps 2–3 of Algorithm 1: the PDP's decision for one resolved request.

    With the indexed perf layer the versioned decision cache answers first
    (a hit replays the *same* verdict, field set and deny message, so audit
    trails are byte-identical) and a miss evaluates only the policy index's
    bucketed candidates; without one it is the historical full scan.
    """
    if perf is not None:
        cached = perf.cached_decision(entry, request)
        if cached is not None:
            return cached
        policy_set = perf.policy_set_for(entry, request)
    else:
        policy_set = repository.to_policy_set(entry.producer_id, entry.event_type)
    response = pep.authorize(policy_set, build_request_context(request))
    if response.permitted:
        decision = CachedDecision(True, released_fields(response.obligations))
    else:
        decision = CachedDecision(False, message=(
            response.status_message or "no matching policy (deny-by-default)"
        ))
    if perf is not None:
        perf.store_decision(entry, request, decision)
    return decision


def resolve_request_entry(request, purposes, id_map) -> EventIdEntry:
    """Step 1 of Algorithm 1: PIP resolution of the global event id.

    Raises :class:`~repro.exceptions.AccessDeniedError` on unknown purpose,
    unknown event or a type/id mismatch.
    """
    try:
        if request.purpose not in purposes:
            raise AccessDeniedError(f"unknown purpose {request.purpose!r}", request)
        entry = id_map.resolve(request.event_id)
        if entry.event_type != request.event_type:
            raise AccessDeniedError(
                f"request claims type {request.event_type!r} but event "
                f"{request.event_id!r} is a {entry.event_type!r}",
                request,
            )
    except (AccessDeniedError, UnknownEventError) as exc:
        raise AccessDeniedError(str(exc), request) from exc
    return entry


# ---------------------------------------------------------------------------
# Publish-path interceptors (encrypt → index → route → audit, §4)
# ---------------------------------------------------------------------------


@dataclass
class PublishStats:
    """Hot-path counters for the notification-publish pipeline."""

    requests: int = 0
    published: int = 0
    consent_blocked: int = 0
    failures: int = 0


class PublishStatsInterceptor:
    """Counts publish attempts and their outcomes."""

    name = "stats"

    def __init__(self, stats: PublishStats) -> None:
        self._stats = stats

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        self._stats.requests += 1
        try:
            result = proceed(invocation)
        except Exception:
            self._stats.failures += 1
            raise
        if result is None:
            self._stats.consent_blocked += 1
        else:
            self._stats.published += 1
        return result


class ContractGuardInterceptor:
    """Checks the caller's contract is active (produce or consume side)."""

    name = "contract"

    def __init__(self, contracts, clock, caller_key: str, must: str) -> None:
        self._contracts = contracts
        self._clock = clock
        self._caller_key = caller_key
        self._must = must

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        caller = invocation.context[self._caller_key]
        if self._must == "produce":
            self._contracts.require_active(caller, self._clock.now(), must_produce=True)
        else:
            self._contracts.require_active(caller, self._clock.now(), must_consume=True)
        return proceed(invocation)


class AdmissionInterceptor:
    """Catalog lookup, ownership check and payload validation."""

    name = "admission"

    def __init__(self, catalog) -> None:
        self._catalog = catalog

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        producer_id = invocation.context["producer_id"]
        occurrence = invocation.context["occurrence"]
        event_class = self._catalog.get(occurrence.event_class.name)
        if event_class.producer_id != producer_id:
            raise UnknownProducerError(
                f"{producer_id!r} cannot publish events of class "
                f"{event_class.name!r} owned by {event_class.producer_id!r}"
            )
        occurrence.validate()
        invocation.context["event_class"] = event_class
        return proceed(invocation)


class PublishAuditInterceptor:
    """Records the publish outcome — permit, or consent-vetoed deny."""

    name = "audit"

    def __init__(self, audit, ids, clock) -> None:
        self._audit = audit
        self._ids = ids
        self._clock = clock

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        result = proceed(invocation)
        context = invocation.context
        occurrence = context["occurrence"]
        if result is None:
            self._record(
                context["producer_id"], AuditOutcome.DENY,
                event_type=context["event_class"].name,
                subject_ref=occurrence.subject_id,
                detail=context.get("consent_veto_reason", ""),
            )
        else:
            self._record(
                context["producer_id"], AuditOutcome.PERMIT,
                event_id=result.event_id, event_type=result.event_type,
                subject_ref=occurrence.subject_id, detail=occurrence.summary,
            )
        return result

    def _record(self, actor, outcome, **fields) -> None:
        mint_record(self._audit, self._ids, self._clock,
                    actor, AuditAction.PUBLISH, outcome, **fields)


class PublishConsentInterceptor:
    """Source-level consent veto: a blocked event never leaves the source."""

    name = "consent"

    def __init__(self, consent_resolver) -> None:
        self._resolve = consent_resolver

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        context = invocation.context
        occurrence = context["occurrence"]
        consent = self._resolve(context["producer_id"])
        if consent is not None and not consent.allows_notification(
            occurrence.subject_id, context["event_class"].name
        ):
            context["consent_veto_reason"] = "data subject opted out of event sharing"
            return None  # short-circuit: nothing persisted, indexed or routed
        return proceed(invocation)


class PersistInterceptor:
    """Gateway persistence plus global-id assignment (temporal decoupling)."""

    name = "persist"

    def __init__(self, gateway_resolver, id_map, ids, clock) -> None:
        self._resolve_gateway = gateway_resolver
        self._id_map = id_map
        self._ids = ids
        self._clock = clock

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        context = invocation.context
        producer_id = context["producer_id"]
        occurrence = context["occurrence"]
        event_class = context["event_class"]
        gateway = self._resolve_gateway(producer_id)
        gateway.persist(occurrence)
        event_id = self._ids.next("evt")
        self._id_map.record(EventIdEntry(
            event_id=event_id,
            producer_id=producer_id,
            src_event_id=occurrence.src_event_id,
            event_type=event_class.name,
            subject_ref=occurrence.subject_id,
            published_at=self._clock.now(),
        ))
        context["notification"] = NotificationMessage(
            event_id=event_id,
            event_type=event_class.name,
            producer_id=producer_id,
            occurred_at=occurrence.occurred_at,
            summary=occurrence.summary,
            subject_ref=occurrence.subject_id,
            subject_display=occurrence.subject_name,
        )
        return proceed(invocation)


class CipherInterceptor:
    """Seals the identifying slots before anything reaches the index."""

    name = "crypto"

    def __init__(self, index_store) -> None:
        self._index = index_store

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        notification = invocation.context["notification"]
        invocation.context["sealed_identity"] = self._index.seal_identity(notification)
        return proceed(invocation)


class IndexInterceptor:
    """Stores the notification (identity already sealed) in the events index."""

    name = "index"

    def __init__(self, index_store) -> None:
        self._index = index_store

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        context = invocation.context
        self._index.store(context["notification"], sealed=context.get("sealed_identity"))
        return proceed(invocation)


class RouteInterceptor:
    """Fans the notification out over the transport (pub/sub routing)."""

    name = "route"

    def __init__(self, transport) -> None:
        self._transport = transport

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        context = invocation.context
        notification = context["notification"]
        event_class = context["event_class"]
        self._transport.publish(
            topic=event_class.topic,
            sender=context["producer_id"],
            body=notification.to_xml(),
            headers={"eventId": notification.event_id, "eventType": event_class.name},
        )
        return proceed(invocation)


# ---------------------------------------------------------------------------
# Request-for-details interceptors (authenticate → decide → fetch → filter)
# ---------------------------------------------------------------------------


class AuthenticateInterceptor:
    """Identity check at the controller's edge, plus caller binding."""

    name = "authenticate"

    def __init__(self, identity_lookup) -> None:
        self._identity = identity_lookup

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        context = invocation.context
        consumer_id = context["consumer_id"]
        request = context["request"]
        provider = self._identity()
        if provider is not None:
            provider.authenticate(consumer_id, context.get("credential"),
                                  request.actor.role)
        if request.actor.actor_id != consumer_id:
            raise AccessDeniedError(
                f"request actor {request.actor.actor_id!r} does not match "
                f"caller {consumer_id!r}"
            )
        return proceed(invocation)


class EnforcementStatsInterceptor:
    """Maintains the Fig. 4 stage counters around the enforcement chain."""

    name = "stats"

    def __init__(self, stats) -> None:
        self._stats = stats

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        self._stats.requests += 1
        try:
            result = proceed(invocation)
        except AccessDeniedError:
            if invocation.context.get("consent_veto"):
                self._stats.consent_vetoes += 1
            self._stats.denies += 1
            raise
        except (GatewayError, SourceUnavailableError):
            self._stats.gateway_failures += 1
            raise
        self._stats.permits += 1
        return result


class DetailAuditInterceptor:
    """Audits every detail request — permitted, denied or errored.

    Sits *outside* the deniable stages so a policy deny that short-circuits
    the chain still leaves its audit record (deny-by-default invariant).
    """

    name = "audit"

    def __init__(self, audit, ids, clock) -> None:
        self._audit = audit
        self._ids = ids
        self._clock = clock

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        context = invocation.context
        request = context["request"]
        try:
            result = proceed(invocation)
        except AccessDeniedError as exc:
            self._record(request, AuditOutcome.DENY, str(exc),
                         context.get("subject_ref"))
            raise
        except (GatewayError, SourceUnavailableError) as exc:
            self._record(request, AuditOutcome.ERROR, str(exc),
                         context.get("subject_ref"))
            raise
        fields = ", ".join(sorted(context.get("released_fields", ())))
        self._record(request, AuditOutcome.PERMIT,
                     f"released fields: {fields}", context.get("subject_ref"))
        return result

    def _record(self, request, outcome, detail, subject_ref) -> None:
        mint_record(
            self._audit, self._ids, self._clock,
            request.actor.actor_id, AuditAction.DETAIL_REQUEST, outcome,
            event_id=request.event_id, event_type=request.event_type,
            subject_ref=subject_ref, purpose=request.purpose, detail=detail,
        )


class ResolveInterceptor:
    """PIP resolution: global event id → producer, local id, subject."""

    name = "resolve"

    def __init__(self, purposes, id_map) -> None:
        self._purposes = purposes
        self._id_map = id_map

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        context = invocation.context
        entry = resolve_request_entry(context["request"], self._purposes, self._id_map)
        context["entry"] = entry
        context["subject_ref"] = entry.subject_ref
        return proceed(invocation)


class DetailConsentInterceptor:
    """Data-subject detail opt-out — consent vetoes before policies grant."""

    name = "consent"

    def __init__(self, consent_resolver) -> None:
        self._resolve = consent_resolver

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        context = invocation.context
        entry = context["entry"]
        consent = self._resolve(entry.producer_id)
        if consent is not None and not consent.allows_details(
            entry.subject_ref, entry.event_type
        ):
            context["consent_veto"] = True
            raise AccessDeniedError(
                "data subject opted out of detail disclosure", context["request"]
            )
        return proceed(invocation)


class PolicyDecideInterceptor:
    """PDP evaluation over the certified repository (steps 2–3).

    Turns :func:`policy_decision`'s verdict into the chain's control
    flow: deny raises, permit publishes ``released_fields`` and proceeds.
    """

    name = "decide"

    def __init__(self, repository, pep, perf=None) -> None:
        self._repository = repository
        self._pep = pep
        self._perf = perf

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        context = invocation.context
        request = context["request"]
        decision = policy_decision(
            context["entry"], request, self._repository, self._pep, self._perf
        )
        if not decision.permitted:
            raise AccessDeniedError(decision.message, request)
        if not decision.released_fields:
            raise AccessDeniedError("matching policy releases no fields", request)
        context["released_fields"] = decision.released_fields
        return proceed(invocation)


class GatewayFetchInterceptor:
    """Asks the producer's gateway for the allowed part of the details."""

    name = "fetch"

    def __init__(self, fetcher) -> None:
        self._fetcher = fetcher

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        context = invocation.context
        entry = context["entry"]
        context["detail"] = self._fetcher.fetch(
            entry.producer_id,
            entry.src_event_id,
            context["released_fields"],
            context["request"].event_id,
        )
        return proceed(invocation)


class FieldFilterInterceptor:
    """Defense in depth: the response must honour the policy's field set.

    Algorithm 2 filters at the producer; this stage re-checks that nothing
    outside the released field set actually crossed the wire.
    """

    name = "filter"

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        context = invocation.context
        detail = context["detail"]
        allowed = frozenset(context["released_fields"])
        leaked = set(detail.released_fields) - allowed
        if leaked:
            raise PrivacyError(
                f"gateway released fields outside the policy grant: "
                f"{', '.join(sorted(leaked))}"
            )
        return proceed(invocation)


class SchedAdmissionInterceptor:
    """Per-tenant token-bucket admission at an ingress edge (fair sched).

    Composed only when the fair scheduler is wired.  The gate's verdict
    is advisory by design — an over-rate tenant is counted and demoted to
    a penalty weight, but the operation itself always proceeds, which is
    what keeps decisions and audit trails identical across schedulers.
    """

    name = "sched"

    def __init__(self, gate, actor_key: str, edge: str) -> None:
        self._gate = gate
        self._actor_key = actor_key
        self._edge = edge

    def intercept(self, invocation: Invocation, proceed: Proceed) -> Any:
        actor_id = invocation.context[self._actor_key]
        if self._edge == PUBLISH:
            admitted = self._gate.publish(actor_id)
        else:
            admitted = self._gate.details(actor_id)
        invocation.context["sched_admitted"] = admitted
        return proceed(invocation)


# ---------------------------------------------------------------------------
# Pipeline assembly
# ---------------------------------------------------------------------------


def build_publish_pipeline(
    *,
    stats: PublishStats,
    contracts,
    catalog,
    audit,
    ids,
    clock,
    consent_resolver,
    gateway_resolver,
    id_map,
    index_store,
    transport,
    telemetry=None,
    sched=None,
) -> InterceptorPipeline:
    """The notification-publish hot path (§4): encrypt → index → route → audit.

    ``sched`` (a :class:`~repro.runtime.services.SchedulerGate`) prepends
    the fair scheduler's admission stage; with the default ``none``
    scheduler (or no gate) the historical chain is composed unchanged.
    """
    stages: list[Interceptor] = []
    if sched is not None and sched.shapes_ingress:
        stages.append(SchedAdmissionInterceptor(sched, "producer_id", PUBLISH))
    return InterceptorPipeline(
        stages + [
            PublishStatsInterceptor(stats),
            ContractGuardInterceptor(contracts, clock, "producer_id", must="produce"),
            AdmissionInterceptor(catalog),
            PublishAuditInterceptor(audit, ids, clock),
            PublishConsentInterceptor(consent_resolver),
            PersistInterceptor(gateway_resolver, id_map, ids, clock),
            CipherInterceptor(index_store),
            IndexInterceptor(index_store),
            RouteInterceptor(transport),
        ],
        terminal=lambda invocation: invocation.context["notification"],
        name=PUBLISH,
        telemetry=telemetry,
    )


def build_enforcement_pipeline(
    *,
    stats,
    audit,
    ids,
    clock,
    purposes,
    id_map,
    consent_resolver,
    repository,
    pep,
    fetcher,
    telemetry=None,
    perf=None,
) -> InterceptorPipeline:
    """Algorithm 1 as a chain: resolve → consent → decide → fetch → filter."""
    return InterceptorPipeline(
        [
            EnforcementStatsInterceptor(stats),
            DetailAuditInterceptor(audit, ids, clock),
            ResolveInterceptor(purposes, id_map),
            DetailConsentInterceptor(consent_resolver),
            PolicyDecideInterceptor(repository, pep, perf=perf),
            GatewayFetchInterceptor(fetcher),
            FieldFilterInterceptor(),
        ],
        terminal=lambda invocation: invocation.context["detail"],
        name=REQUEST_DETAILS,
        telemetry=telemetry,
    )


def build_details_edge_pipeline(
    *,
    contracts,
    clock,
    identity_lookup,
    endpoint_call,
    telemetry=None,
    sched=None,
) -> InterceptorPipeline:
    """The controller edge of the details path: contract → authenticate → endpoint.

    As with the publish pipeline, a shaping ``sched`` gate prepends the
    fair scheduler's admission stage; otherwise the chain is unchanged.
    """
    stages: list[Interceptor] = []
    if sched is not None and sched.shapes_ingress:
        stages.append(
            SchedAdmissionInterceptor(sched, "consumer_id", REQUEST_DETAILS)
        )
    return InterceptorPipeline(
        stages + [
            ContractGuardInterceptor(contracts, clock, "consumer_id", must="consume"),
            AuthenticateInterceptor(identity_lookup),
        ],
        terminal=lambda invocation: endpoint_call(invocation.context["request"]),
        name=f"{REQUEST_DETAILS}-edge",
        telemetry=telemetry,
    )
