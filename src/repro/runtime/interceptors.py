"""The controller's two hot paths as data: pipelines of stage rows.

Both hot paths of the CSS platform run through one mechanism — a
:class:`Pipeline` is a name, an ordered tuple of :class:`Stage` rows and
a terminal operation, run by the one loop in :meth:`Pipeline.execute`:

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
crypto, stats) are ordinary rows, so new stages (metrics, caching,
retries) can be added without touching ``DataController`` or the enforcer
again.  A stage's ``enter`` goes on by returning ``None``, short-circuits
by returning :class:`Done` (consent veto on publish) or raises one of the
typed exceptions from :mod:`repro.exceptions` (policy deny); its ``leave``
runs on the way out, innermost first — the audit stage sits *outside* the
deniable stages so every denied attempt is still recorded (the paper's
deny-by-default invariant).

The loop owns what every stage shares — trace, span open/close, unwind —
and :func:`classify` is the one reading of how an execution ended that
span status, outcome counter, stats buckets and audit outcome all take.
Rows are plain functions closed over their collaborators at construction
time: no per-request reflection, no call depth that grows with length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from time import perf_counter
from typing import Any, Callable

from repro.audit.log import AuditAction, AuditOutcome, mint_record
from repro.core.idmap import EventIdEntry
from repro.core.messages import NotificationMessage
from repro.exceptions import (
    AccessDeniedError,
    PrivacyError,
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


class Outcome(Enum):
    """How an execution ended: ``label`` is its ``PIPELINE_OUTCOMES``
    label, ``audit`` what the audit stages record for it."""

    OK = ("ok", AuditOutcome.PERMIT)
    VETO = ("consent-veto", AuditOutcome.DENY)
    DENY = ("deny", AuditOutcome.DENY)
    ERROR = ("error", AuditOutcome.ERROR)

    def __init__(self, label: str, audit: AuditOutcome) -> None:
        self.label, self.audit = label, audit


def classify(result: Any, failure: BaseException | None) -> Outcome:
    """The one exception→outcome mapping: a ``None`` result is a consent
    veto, :class:`~repro.exceptions.AccessDeniedError` a deny and *every*
    other failure an error — one nobody anticipated (a gateway
    over-releasing, a producer gone) still fails closed into an audited,
    counted bucket."""
    if failure is None:
        return Outcome.VETO if result is None else Outcome.OK
    if isinstance(failure, AccessDeniedError):
        return Outcome.DENY
    return Outcome.ERROR


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


@dataclass(frozen=True, slots=True)
class Done:
    """What ``enter`` returns to short-circuit with ``value``: no later
    stage and no terminal runs, the entered stages unwind."""

    value: Any


@dataclass(frozen=True, slots=True)
class Stage:
    """One pipeline row.  ``enter(context)`` returns ``None`` to go on or
    :class:`Done` to stop; ``leave(context, result, failure)`` sees how
    everything inside the stage ended (``failure``: the exception in
    flight, if any) and can change that only by raising.  A stage whose
    ``enter`` raised is owed no ``leave``."""

    name: str
    enter: Callable[[dict[str, Any]], "Done | None"]
    leave: Callable[[dict[str, Any], Any, "BaseException | None"], None] | None = None


def go_on(context: dict[str, Any]) -> None:
    """The ``enter`` of a stage that only acts on the way out."""


class Pipeline:
    """An ordered tuple of stage rows around a terminal operation.

    ``telemetry`` (a :mod:`repro.obs.telemetry` backend) makes the loop
    observable: one root span per execution, one child span plus a
    duration-histogram sample per stage, and an outcome counter.  With
    ``None`` (the default) the same loop runs and simply opens no span.
    """

    def __init__(self, name: str, stages: tuple[Stage, ...],
                 terminal: Callable[[dict[str, Any]], Any], telemetry=None) -> None:
        self.name = name
        self.stages = tuple(stages)
        self.terminal = terminal
        self._telemetry = telemetry

    @property
    def stage_names(self) -> tuple[str, ...]:
        """Stage names in execution order."""
        return tuple(stage.name for stage in self.stages)

    def execute(self, invocation: Invocation) -> Any:
        """Run ``invocation`` through the stages and return the result.

        Typed :class:`~repro.exceptions.CssError` failures raised by any
        stage surface to the caller unchanged — the pipeline machinery
        never wraps or swallows them.
        """
        telemetry = self._telemetry
        name, stages = self.name, self.stages
        context, trace = invocation.context, invocation.trace
        spans = []  # open stage spans, in entry order (telemetry only)
        entered = 0  # stages whose enter returned: the ones owed a leave
        result = failure = failed = None  # failed: type(failure), for the spans
        if telemetry is not None:
            wall_started = perf_counter()
            root = telemetry.pipeline_span(name)
            root.__enter__()
        try:
            for stage in stages:
                trace.append(stage.name)
                if telemetry is not None:
                    span = telemetry.stage_span(name, stage.name)
                    span.__enter__()
                    spans.append(span)
                done = stage.enter(context)
                entered += 1
                if done is not None:
                    result = done.value
                    break
            else:
                result = self.terminal(context)
        except BaseException as exc:  # re-raised below, after the unwind
            failure, failed = exc, type(exc)
            if len(spans) > entered:  # the span of the stage that raised
                spans.pop().__exit__(failed, failure, None)
        while entered:
            entered -= 1
            leave = stages[entered].leave
            if leave is not None:
                try:
                    leave(context, result, failure)
                except BaseException as exc:  # replaces what was in flight
                    result, failure, failed = None, exc, type(exc)
            if spans:
                spans.pop().__exit__(failed, failure, None)
        if telemetry is not None:
            root.__exit__(failed, failure, None)
            telemetry.count(PIPELINE_OUTCOMES, pipeline=name,
                            outcome=classify(result, failure).label)
            telemetry.observe_wall(
                PIPELINE_WALL_DURATION, perf_counter() - wall_started,
                pipeline=name,
            )
        if failure is not None:
            try:
                raise failure
            finally:
                del failure  # its traceback holds this frame: leave no cycle
        return result


def _sched_stages(sched, actor_key: str, edge: str) -> tuple[Stage, ...]:
    """Per-tenant token-bucket admission at an ingress edge (fair sched).

    Composed only when the fair scheduler is wired.  The gate's verdict
    is advisory by design — an over-rate tenant is counted and demoted to
    a penalty weight, but the operation itself always proceeds, which is
    what keeps decisions and audit trails identical across schedulers.
    """
    if sched is None or not sched.shapes_ingress:
        return ()

    gate = sched.publish if edge == PUBLISH else sched.details

    def admit(context) -> None:
        context["sched_admitted"] = gate(context[actor_key])

    return (Stage("sched", admit),)


def _contract_stage(contracts, clock, caller_key: str, produce: bool) -> Stage:
    """Checks the caller's contract is active (produce or consume side)."""

    def require(context) -> None:
        contracts.require_active(context[caller_key], clock.now(),
                                 must_produce=produce, must_consume=not produce)

    return Stage("contract", require)


# ---------------------------------------------------------------------------
# Shared helpers (used by the stages and by PolicyEnforcer.decide)
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
# Publish path (encrypt → index → route → audit, §4)
# ---------------------------------------------------------------------------


@dataclass
class PublishStats:
    """Hot-path counters for the notification-publish pipeline."""

    requests: int = 0
    published: int = 0
    consent_blocked: int = 0
    failures: int = 0


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
) -> Pipeline:
    """The notification-publish hot path (§4): encrypt → index → route → audit.

    ``sched`` (a :class:`~repro.runtime.services.SchedulerGate`) prepends
    the fair scheduler's admission stage; with the default ``none``
    scheduler (or no gate) the historical chain is composed unchanged.
    """

    def count(context, result, failure) -> None:
        """Counts publish attempts and their outcomes."""
        stats.requests += 1
        outcome = classify(result, failure)
        if outcome is Outcome.OK:
            stats.published += 1
        elif outcome is Outcome.VETO:
            stats.consent_blocked += 1
        else:
            stats.failures += 1

    def admit(context) -> None:
        """Catalog lookup, ownership check and payload validation."""
        producer_id = context["producer_id"]
        occurrence = context["occurrence"]
        event_class = catalog.get(occurrence.event_class.name)
        if event_class.producer_id != producer_id:
            raise UnknownProducerError(
                f"{producer_id!r} cannot publish events of class "
                f"{event_class.name!r} owned by {event_class.producer_id!r}"
            )
        occurrence.validate()
        context["event_class"] = event_class

    def record(context, result, failure) -> None:
        """Records the publish outcome — permit, or consent-vetoed deny."""
        if failure is not None:
            return  # nothing was distributed; the producer gets the error
        occurrence = context["occurrence"]
        vetoed = result is None
        mint_record(
            audit, ids, clock, context["producer_id"], AuditAction.PUBLISH,
            classify(result, failure).audit,
            event_id=None if vetoed else result.event_id,
            event_type=context["event_class"].name,
            subject_ref=occurrence.subject_id,
            detail=context.get("consent_veto_reason", "") if vetoed
            else occurrence.summary,
        )

    def consent(context) -> Done | None:
        """Source-level consent veto: a blocked event never leaves the source."""
        registry = consent_resolver(context["producer_id"])
        if registry is not None and not registry.allows_notification(
            context["occurrence"].subject_id, context["event_class"].name
        ):
            context["consent_veto_reason"] = "data subject opted out of event sharing"
            return Done(None)  # nothing persisted, indexed or routed

    def persist(context) -> None:
        """Gateway persistence plus global-id assignment (temporal decoupling)."""
        producer_id = context["producer_id"]
        occurrence = context["occurrence"]
        event_class = context["event_class"]
        gateway_resolver(producer_id).persist(occurrence)
        event_id = ids.next("evt")
        id_map.record(EventIdEntry(
            event_id=event_id,
            producer_id=producer_id,
            src_event_id=occurrence.src_event_id,
            event_type=event_class.name,
            subject_ref=occurrence.subject_id,
            published_at=clock.now(),
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

    def seal(context) -> None:
        """Seals the identifying slots before anything reaches the index."""
        context["sealed_identity"] = index_store.seal_identity(context["notification"])

    def index(context) -> None:
        """Stores the notification (identity already sealed) in the events index."""
        index_store.store(context["notification"],
                          sealed=context.get("sealed_identity"))

    def route(context) -> None:
        """Fans the notification out over the transport (pub/sub routing)."""
        notification = context["notification"]
        event_class = context["event_class"]
        transport.publish(
            topic=event_class.topic,
            sender=context["producer_id"],
            body=notification.to_xml(),
            headers={"eventId": notification.event_id, "eventType": event_class.name},
        )

    return Pipeline(
        PUBLISH,
        (
            *_sched_stages(sched, "producer_id", PUBLISH),
            Stage("stats", go_on, count),
            _contract_stage(contracts, clock, "producer_id", produce=True),
            Stage("admission", admit),
            Stage("audit", go_on, record),
            Stage("consent", consent),
            Stage("persist", persist),
            Stage("crypto", seal),
            Stage("index", index),
            Stage("route", route),
        ),
        terminal=lambda context: context["notification"],
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# Request for details (authenticate → decide → fetch → filter)
# ---------------------------------------------------------------------------


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
) -> Pipeline:
    """Algorithm 1 as a chain: resolve → consent → decide → fetch → filter."""

    def count(context, result, failure) -> None:
        """Maintains the Fig. 4 stage counters around the enforcement chain."""
        stats.requests += 1
        outcome = classify(result, failure)
        if outcome is Outcome.DENY:
            if context.get("consent_veto"):
                stats.consent_vetoes += 1
            stats.denies += 1
        elif outcome is Outcome.ERROR:
            stats.gateway_failures += 1
        else:
            stats.permits += 1

    def record(context, result, failure) -> None:
        """Audits every detail request — permitted, denied or errored.

        Sits *outside* the deniable stages so a policy deny that
        short-circuits the chain still leaves its audit record
        (deny-by-default invariant).
        """
        request = context["request"]
        if failure is None:
            detail = "released fields: " + ", ".join(
                sorted(context.get("released_fields", ())))
        else:
            detail = str(failure)
        mint_record(
            audit, ids, clock,
            request.actor.actor_id, AuditAction.DETAIL_REQUEST,
            classify(result, failure).audit,
            event_id=request.event_id, event_type=request.event_type,
            subject_ref=context.get("subject_ref"), purpose=request.purpose,
            detail=detail,
        )

    def resolve(context) -> None:
        """PIP resolution: global event id → producer, local id, subject."""
        entry = resolve_request_entry(context["request"], purposes, id_map)
        context["entry"] = entry
        context["subject_ref"] = entry.subject_ref

    def consent(context) -> None:
        """Data-subject detail opt-out — consent vetoes before policies grant."""
        entry = context["entry"]
        registry = consent_resolver(entry.producer_id)
        if registry is not None and not registry.allows_details(
            entry.subject_ref, entry.event_type
        ):
            context["consent_veto"] = True
            raise AccessDeniedError(
                "data subject opted out of detail disclosure", context["request"]
            )

    def decide(context) -> None:
        """PDP evaluation over the certified repository (steps 2–3).

        Turns :func:`policy_decision`'s verdict into the chain's control
        flow: deny raises, permit publishes ``released_fields`` and goes on.
        """
        request = context["request"]
        decision = policy_decision(context["entry"], request, repository, pep, perf)
        if not decision.permitted:
            raise AccessDeniedError(decision.message, request)
        if not decision.released_fields:
            raise AccessDeniedError("matching policy releases no fields", request)
        context["released_fields"] = decision.released_fields

    def fetch(context) -> None:
        """Asks the producer's gateway for the allowed part of the details."""
        entry = context["entry"]
        context["detail"] = fetcher.fetch(
            entry.producer_id,
            entry.src_event_id,
            context["released_fields"],
            context["request"].event_id,
        )

    def check_fields(context) -> None:
        """Defense in depth: the response must honour the policy's field set.

        Algorithm 2 filters at the producer; this stage re-checks that nothing
        outside the released field set actually crossed the wire.
        """
        allowed = frozenset(context["released_fields"])
        leaked = set(context["detail"].released_fields) - allowed
        if leaked:
            raise PrivacyError(
                f"gateway released fields outside the policy grant: "
                f"{', '.join(sorted(leaked))}"
            )

    return Pipeline(
        REQUEST_DETAILS,
        (
            Stage("stats", go_on, count),
            Stage("audit", go_on, record),
            Stage("resolve", resolve),
            Stage("consent", consent),
            Stage("decide", decide),
            Stage("fetch", fetch),
            Stage("filter", check_fields),
        ),
        terminal=lambda context: context["detail"],
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
) -> Pipeline:
    """The controller edge of the details path: contract → authenticate → endpoint.

    As with the publish pipeline, a shaping ``sched`` gate prepends the
    fair scheduler's admission stage; otherwise the chain is unchanged.
    """

    def authenticate(context) -> None:
        """Identity check at the controller's edge, plus caller binding."""
        consumer_id = context["consumer_id"]
        request = context["request"]
        provider = identity_lookup()
        if provider is not None:
            provider.authenticate(consumer_id, context.get("credential"),
                                  request.actor.role)
        if request.actor.actor_id != consumer_id:
            raise AccessDeniedError(
                f"request actor {request.actor.actor_id!r} does not match "
                f"caller {consumer_id!r}"
            )

    return Pipeline(
        f"{REQUEST_DETAILS}-edge",
        (
            *_sched_stages(sched, "consumer_id", REQUEST_DETAILS),
            _contract_stage(contracts, clock, "consumer_id", produce=False),
            Stage("authenticate", authenticate),
        ),
        terminal=lambda context: endpoint_call(context["request"]),
        telemetry=telemetry,
    )
