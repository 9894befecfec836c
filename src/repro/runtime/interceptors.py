"""The controller's three hot paths, each a plain function.

* :func:`publish` — the notification publish of §4: contract → catalog,
  ownership and payload validation → consent veto → gateway persist and
  global id → seal the identity → index → route, then the ``PUBLISH``
  audit record;
* :func:`request_details` — the controller edge of a request for
  details: contract → authenticate → the
  ``controller.getEventDetails`` endpoint, which runs
* :func:`get_event_details` — Algorithm 1 of §5.2: resolve → consent →
  decide → fetch → field check, every outcome audited.

Each function reads its collaborators off the object it serves (the
controller, or the policy enforcer) at call time, so a collaborator
replaced on that object — or shimmed on its instance — is the one called.
Failures surface as the typed exceptions of :mod:`repro.exceptions`,
unwrapped; :func:`classify` is the one reading of how an operation ended,
taken by the stats buckets (which the outcome counter reads) and the audit
outcome.  A :class:`HotPath` runs one under the operation's root span.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, ClassVar

from repro.audit.log import AuditAction, AuditOutcome, mint_record
from repro.core.idmap import EventIdEntry
from repro.core.messages import NotificationMessage
from repro.exceptions import (
    AccessDeniedError,
    PrivacyError,
    UnknownEventError,
    UnknownProducerError,
)
from repro.obs.telemetry import PIPELINE_OUTCOMES

#: Operation names: the ``pipeline`` label of a hot path's root span and
#: outcome count.
PUBLISH = "publish"
REQUEST_DETAILS = "request-details"
DETAILS_EDGE = f"{REQUEST_DETAILS}-edge"


class Outcome(Enum):
    """How an operation ended: ``label`` is its ``PIPELINE_OUTCOMES``
    label, ``audit`` what its audit record says."""

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


def tally(stats, outcome: Outcome) -> None:
    """One more of ``stats.requests``, in the field ``stats.BUCKETS`` names
    for ``outcome`` (its error bucket when it names none)."""
    stats.requests += 1
    bucket = stats.BUCKETS.get(outcome) or stats.BUCKETS[Outcome.ERROR]
    setattr(stats, bucket, getattr(stats, bucket) + 1)


class HotPath:
    """One hot path as an object, so that ``execute`` can be shimmed.

    ``benchmarks/wall/trace.py`` attributes each path's self time by
    wrapping ``execute`` on the instance (``tests/test_wall_surface.py``
    pins that surface), so the controller and the enforcer look
    ``execute`` up on every call.  ``execute(*args)`` runs ``run(owner,
    *args)`` under the path's root span and does nothing else; the
    ``PIPELINE_OUTCOMES`` reader reads the ``stats`` the function fills.
    A path ``within`` another runs under that path's root span when it is
    the innermost one open, and leaves its outcome there as ``enforcement``.
    """

    def __init__(self, name: str, run: Callable[..., Any], owner, stats, telemetry=None,
                 within: str | None = None) -> None:
        self.name = name
        self._run = run
        self._owner = owner
        self._telemetry = telemetry
        self._within = within
        if telemetry is not None:
            telemetry.metrics.reader("counter", PIPELINE_OUTCOMES, lambda: (
                ({"pipeline": name, "outcome": outcome.label}, getattr(stats, bucket))
                for outcome, bucket in stats.BUCKETS.items() if getattr(stats, bucket)))

    def execute(self, *args: Any) -> Any:
        """Run the path on ``args``; its failures surface unchanged."""
        telemetry = self._telemetry
        if telemetry is None:
            return self._run(self._owner, *args)
        outer = self._within and telemetry.pipeline_span(self._within)
        row = outer and outer.innermost()
        if row is not None:
            try:
                result = self._run(self._owner, *args)
            except BaseException as exc:
                outer.note(row, "enforcement", classify(None, exc).label)
                raise
            outer.note(row, "enforcement", classify(result, None).label)
            return result
        root = telemetry.pipeline_span(self.name)
        row = root.open()
        try:
            result = self._run(self._owner, *args)
        except BaseException as exc:
            root.close(row, type(exc))
            raise
        root.close(row)
        return result


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
# Publish (§4)
# ---------------------------------------------------------------------------


@dataclass
class PublishStats:
    """Counters of the notification publish: ``requests``, each in one outcome's."""

    requests: int = 0
    published: int = 0
    consent_blocked: int = 0
    denies: int = 0
    failures: int = 0
    BUCKETS: ClassVar = {Outcome.OK: "published", Outcome.VETO: "consent_blocked",
                         Outcome.DENY: "denies", Outcome.ERROR: "failures"}


def publish(node, producer_id: str, occurrence) -> NotificationMessage | None:
    """The notification publish of §4 on ``node`` (a controller).

    Returns the distributed notification, or ``None`` when the data
    subject's consent vetoes it: the event then never leaves the source —
    nothing is persisted, indexed or routed, and no event id is spent.
    Both are audited; a failure is not (nothing was distributed, the
    producer gets the exception).  ``node.publish_stats`` counts every
    attempt in the bucket :func:`classify` names.
    """
    clock = node.clock
    notification = failure = None
    try:
        node.contracts.require_active(producer_id, clock.now(), must_produce=True)
        event_class = node.catalog.get(occurrence.event_class.name)
        if event_class.producer_id != producer_id:
            raise UnknownProducerError(
                f"{producer_id!r} cannot publish events of class "
                f"{event_class.name!r} owned by {event_class.producer_id!r}"
            )
        registry = node.consent_registry_of(producer_id)
        if registry is not None and not registry.allows_notification(
            occurrence.subject_id, event_class.name
        ):
            occurrence.validate()  # a malformed detail fails, vetoed or not
            mint_record(
                node.audit_log, node.ids, clock, producer_id,
                AuditAction.PUBLISH, Outcome.VETO.audit,
                event_type=event_class.name,
                subject_ref=occurrence.subject_id,
                detail="data subject opted out of event sharing",
            )
            return None
        # Gateway persistence plus global-id assignment (temporal decoupling).
        node.gateway_of(producer_id).persist(occurrence)
        event_id = node.ids.next("evt")
        node.id_map.record(EventIdEntry(
            event_id=event_id,
            producer_id=producer_id,
            src_event_id=occurrence.src_event_id,
            event_type=event_class.name,
            subject_ref=occurrence.subject_id,
            published_at=clock.now(),
        ))
        notification = NotificationMessage(
            event_id=event_id,
            event_type=event_class.name,
            producer_id=producer_id,
            occurred_at=occurrence.occurred_at,
            summary=occurrence.summary,
            subject_ref=occurrence.subject_id,
            subject_display=occurrence.subject_name,
        )
        # The identifying slots are sealed before anything reaches the index.
        index = node.index
        index.store(notification, sealed=index.seal_identity(notification))
        node.bus.publish(topic=event_class.topic, sender=producer_id,
                         body=notification)
        mint_record(
            node.audit_log, node.ids, clock, producer_id,
            AuditAction.PUBLISH, Outcome.OK.audit,
            event_id=event_id, event_type=event_class.name,
            subject_ref=occurrence.subject_id, detail=occurrence.summary,
        )
        return notification
    except BaseException as exc:
        failure = exc
        raise
    finally:
        tally(node.publish_stats, classify(notification, failure))
        failure = None  # its traceback holds this frame: leave no cycle


# ---------------------------------------------------------------------------
# Request for details: the controller edge, then Algorithm 1 (§5.2)
# ---------------------------------------------------------------------------


@dataclass
class EdgeStats:
    """Counters of the request-for-details edge, failures before the endpoint included."""

    requests: int = 0
    permits: int = 0
    denies: int = 0
    failures: int = 0
    BUCKETS: ClassVar = {Outcome.OK: "permits", Outcome.DENY: "denies", Outcome.ERROR: "failures"}


def request_details(node, consumer_id: str, request, credential=None):
    """The controller edge of a request for details on ``node``.

    The consumer's contract and identity are checked, then the
    ``controller.getEventDetails`` endpoint resolves the request
    (:func:`get_event_details`, through the enforcer).  Every request
    leaves one ``node.edge_stats`` bucket."""
    detail = failure = None
    try:
        node.contracts.require_active(consumer_id, node.clock.now(), must_consume=True)
        node.authenticate(consumer_id, credential, request.actor.role)
        if request.actor.actor_id != consumer_id:
            raise AccessDeniedError(
                f"request actor {request.actor.actor_id!r} does not match "
                f"caller {consumer_id!r}"
            )
        detail = node.endpoints.call("controller.getEventDetails", request)
        return detail
    except BaseException as exc:
        failure = exc
        raise
    finally:
        tally(node.edge_stats, classify(detail, failure))
        failure = None  # its traceback holds this frame: leave no cycle


def get_event_details(enforcer, request):
    """Algorithm 1, ``getEventDetails(R)``, on ``enforcer``.

    1. resolve the global event id (PIP): producer, local id, subject;
    2. the data subject's detail opt-out vetoes before any policy grants;
    3. Def. 3 decides (``enforcer.decision``): deny, or the released fields;
    4. the producer's gateway returns only those fields (Algorithm 2);
    5. defence in depth: nothing outside them may have crossed the wire.

    Every outcome — permit, deny, error — leaves one ``enforcer.stats``
    bucket and one ``DETAIL_REQUEST`` audit record (deny by default,
    audited anyway); the exception is re-raised unchanged.
    """
    subject_ref = released = failure = None
    vetoed = False
    try:
        entry = resolve_request_entry(request, enforcer.purposes, enforcer.id_map)
        subject_ref = entry.subject_ref
        registry = enforcer.consent_resolver(entry.producer_id)
        if registry is not None and not registry.allows_details(
            subject_ref, entry.event_type
        ):
            vetoed = True
            raise AccessDeniedError(
                "data subject opted out of detail disclosure", request)
        decision = enforcer.decision(entry, request)
        if not decision.permitted:
            raise AccessDeniedError(decision.message, request)
        if not decision.released_fields:
            raise AccessDeniedError("matching policy releases no fields", request)
        released = decision.released_fields
        detail = enforcer.fetcher.fetch(
            entry.producer_id, entry.src_event_id, released, request.event_id)
        leaked = set(detail.released_fields).difference(released)
        if leaked:
            raise PrivacyError(
                f"gateway released fields outside the policy grant: "
                f"{', '.join(sorted(leaked))}"
            )
        return detail
    except BaseException as exc:
        failure = exc
        raise
    finally:
        outcome = classify(released, failure)
        note = (str(failure) if failure is not None
                else "released fields: " + ", ".join(sorted(released)))
        failure = None  # its traceback holds this frame: leave no cycle
        tally(enforcer.stats, outcome)
        enforcer.stats.consent_vetoes += vetoed
        mint_record(
            enforcer.audit_log, enforcer.ids, enforcer.clock,
            request.actor.actor_id, AuditAction.DETAIL_REQUEST, outcome.audit,
            event_id=request.event_id, event_type=request.event_type,
            subject_ref=subject_ref, purpose=request.purpose, detail=note,
        )
