"""Data-producer client.

A convenience wrapper a source institution uses to interact with the data
controller: join, declare classes, attach its local cooperation gateway and
consent registry, publish events, answer pending access requests with the
elicitation wizard.  Everything it does goes through
:class:`~repro.core.controller.DataController` — the producer holds no
platform state beyond its own gateway and consent registry.
"""

from __future__ import annotations

from repro.audit.log import AuditAction, AuditOutcome
from repro.core.actors import Actor, ActorKind
from repro.core.consent import ConsentRegistry
from repro.core.controller import DataController
from repro.core.elicitation import ElicitationResult, PendingAccessRequest
from repro.core.events import EventClass, EventOccurrence
from repro.core.gateway import LocalCooperationGateway
from repro.core.messages import NotificationMessage
from repro.exceptions import ConfigurationError
from repro.xmlmsg.document import XmlDocument
from repro.xmlmsg.schema import MessageSchema


class DataProducer:
    """A source institution participating as data producer."""

    def __init__(
        self,
        controller: DataController,
        actor_id: str,
        name: str,
        role: str = "",
        kind: ActorKind = ActorKind.PRODUCER,
        consent_default_granted: bool = True,
        credential=None,
    ) -> None:
        if not kind.produces:
            raise ConfigurationError("a DataProducer needs a producing ActorKind")
        self._controller = controller
        self.actor = Actor(actor_id=actor_id, name=name, kind=kind, role=role)
        self.credential = credential
        self.gateway = LocalCooperationGateway(actor_id)
        self.consent = ConsentRegistry(actor_id, default_granted=consent_default_granted)
        self._event_counter = 0
        controller.join(self.actor, credential=credential)
        controller.attach_gateway(actor_id, self.gateway)
        controller.attach_consent(actor_id, self.consent)

    @property
    def actor_id(self) -> str:
        """This producer's actor id."""
        return self.actor.actor_id

    # -- catalog ------------------------------------------------------------

    def declare_event_class(
        self,
        schema: MessageSchema,
        category: str = "health",
        description: str = "",
    ) -> EventClass:
        """Declare (and install in the catalog) a new event class."""
        event_class = EventClass(
            name=schema.name,
            producer_id=self.actor_id,
            schema=schema,
            category=category,
            description=description,
        )
        self._controller.declare_event_class(self.actor_id, event_class)
        return event_class

    def upgrade_event_class(self, schema: MessageSchema,
                            description: str = "") -> EventClass:
        """Evolve a declared class to a new backward-compatible version."""
        candidate = EventClass(
            name=schema.name,
            producer_id=self.actor_id,
            schema=schema,
            description=description,
        )
        return self._controller.upgrade_event_class(self.actor_id, candidate)

    # -- publishing ------------------------------------------------------------

    def next_src_event_id(self) -> str:
        """Generate the next producer-local event id."""
        self._event_counter += 1
        return f"{self.actor_id}:src-{self._event_counter:06d}"

    def publish(
        self,
        event_class: EventClass,
        subject_id: str,
        subject_name: str,
        summary: str,
        details: dict[str, object],
        occurred_at: float | None = None,
        src_event_id: str | None = None,
    ) -> NotificationMessage | None:
        """Build and publish one event occurrence.

        Returns the distributed notification, or ``None`` if the subject's
        consent blocked publication.
        """
        occurrence = EventOccurrence(
            event_class=event_class,
            src_event_id=src_event_id or self.next_src_event_id(),
            subject_id=subject_id,
            subject_name=subject_name,
            occurred_at=(
                occurred_at if occurred_at is not None else self._controller.clock.now()
            ),
            summary=summary,
            details=XmlDocument(event_class.name, details),
        )
        return self._controller.publish(self.actor_id, occurrence)

    # -- policy definition ----------------------------------------------------------

    def pending_access_requests(self) -> list[PendingAccessRequest]:
        """Access requests from consumers awaiting this producer's decision."""
        return self._controller.pending_requests.for_producer(self.actor_id)

    def define_policy(
        self,
        event_type: str,
        fields: list[str],
        consumers: list[tuple[str, str]],
        purposes: list[str],
        label: str = "",
        description: str = "",
        valid_from: float | None = None,
        valid_until: float | None = None,
    ) -> ElicitationResult:
        """Run the elicitation wizard end-to-end (the Fig. 7 flow).

        ``consumers`` is a list of ``(selector, kind)`` with kind ``"unit"``
        or ``"role"``.
        """
        wizard = self._controller.elicitation_wizard()
        wizard.start(self.actor_id, event_type)
        wizard.select_fields(fields)
        wizard.select_consumers(consumers)
        wizard.select_purposes(purposes)
        if label or description:
            wizard.set_label(label, description)
        if valid_from is not None or valid_until is not None:
            wizard.set_validity(valid_from, valid_until)
        result = wizard.save()
        self._controller.record_policy_definition(
            self.actor_id, [policy.policy_id for policy in result.policies]
        )
        return result

    def define_restriction(
        self,
        event_type: str,
        consumer: tuple[str, str],
        purposes: list[str],
        label: str = "",
    ) -> "PrivacyPolicy":
        """Carve an exception out of a broader grant (deny-overrides).

        ``consumer`` is ``(selector, kind)`` as in :meth:`define_policy`.
        The restriction releases nothing; any request it matches is denied
        even if another policy grants it — e.g. grant ``Hospital`` but
        restrict ``Hospital/Psychiatry``.
        """
        from repro.core.policy import PrivacyPolicy
        from repro.xacml.serialize import serialize_policy

        selector, kind = consumer
        if kind not in ("unit", "role"):
            raise ConfigurationError(f"unknown consumer kind {kind!r}")
        policy = PrivacyPolicy(
            policy_id=self._controller.ids.next("pol"),
            producer_id=self.actor_id,
            event_type=event_type,
            fields=frozenset(),
            purposes=frozenset(purposes),
            actor_id=selector if kind == "unit" else "",
            actor_role=selector if kind == "role" else "",
            label=label or f"restriction on {selector}",
            deny=True,
        )
        self._controller.catalog.get(event_type)  # validates the class exists
        xacml_text = serialize_policy(policy.to_xacml())
        self._controller.policies.add(policy, xacml_text)
        self._controller.record_policy_definition(self.actor_id, [policy.policy_id])
        return policy

    def grant_pending_request(
        self,
        request: PendingAccessRequest,
        fields: list[str],
        purposes: list[str],
        label: str = "",
    ) -> ElicitationResult:
        """Answer a pending access request by defining a policy for it."""
        result = self.define_policy(
            event_type=request.event_type,
            fields=fields,
            consumers=[(request.consumer_id, "unit")],
            purposes=purposes,
            label=label or f"grant for {request.consumer_id}",
        )
        self._controller.pending_requests.resolve(request.request_id)
        return result

    # -- consent --------------------------------------------------------------------

    def record_opt_out(self, subject_id: str, scope, event_type: str | None = None) -> None:
        """Record a citizen opt-out at this source (and audit it)."""
        self.consent.opt_out(subject_id, scope, event_type, at=self._controller.clock.now())
        self._audit_consent(subject_id, event_type, f"opt-out ({scope.value})")

    def record_opt_in(self, subject_id: str, scope, event_type: str | None = None) -> None:
        """Record a citizen opt-in at this source (and audit it)."""
        self.consent.opt_in(subject_id, scope, event_type, at=self._controller.clock.now())
        self._audit_consent(subject_id, event_type, f"opt-in ({scope.value})")

    def _audit_consent(self, subject_id: str, event_type: str | None, detail: str) -> None:
        self._controller.record_audit(
            self.actor_id,
            action=AuditAction.CONSENT_CHANGE,
            outcome=AuditOutcome.PERMIT,
            event_type=event_type,
            subject_ref=subject_id,
            detail=detail,
        )
