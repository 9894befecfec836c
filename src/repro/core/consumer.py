"""Data-consumer client.

A convenience wrapper a consuming institution (family doctor, social
welfare department, governing body, ...) uses against the data controller:
join, browse the catalog, subscribe to classes, receive notifications in an
inbox, inquire the events index, and issue requests for details with an
explicit purpose.
"""

from __future__ import annotations

from repro.core.actors import Actor, ActorKind
from repro.core.controller import DataController
from repro.core.enforcement import DetailRequest
from repro.core.messages import DetailMessage, NotificationMessage
from repro.exceptions import ConfigurationError


class DataConsumer:
    """A consuming institution (or professional) on the platform."""

    def __init__(
        self,
        controller: DataController,
        actor_id: str,
        name: str,
        role: str = "",
        kind: ActorKind = ActorKind.CONSUMER,
        credential=None,
    ) -> None:
        if not kind.consumes:
            raise ConfigurationError("a DataConsumer needs a consuming ActorKind")
        self._controller = controller
        self.actor = Actor(actor_id=actor_id, name=name, kind=kind, role=role)
        self.credential = credential
        self.inbox: list[NotificationMessage] = []
        self._subscription_ids: dict[str, str] = {}
        controller.join(self.actor, credential=credential)

    @property
    def actor_id(self) -> str:
        """This consumer's actor id."""
        return self.actor.actor_id

    # -- catalog / subscriptions ---------------------------------------------

    def browse_catalog(self) -> str:
        """The consumer-facing events catalog listing."""
        return self._controller.catalog.browse()

    def subscribe(self, event_type: str, handler=None,
                  roster_scoped: bool = False) -> str:
        """Subscribe to an event class.

        Notifications land in :attr:`inbox` and, if given, are also passed
        to ``handler``.  Raises
        :class:`~repro.exceptions.AccessDeniedError` when no policy
        authorizes this consumer (a pending access request is then queued
        with the producer).  ``roster_scoped=True`` restricts delivery to
        this consumer's assigned patients.
        """
        subscription_id = self._controller.subscribe(
            self.actor_id, event_type, self.receiver(handler),
            credential=self.credential, roster_scoped=roster_scoped)
        self.note_subscription(event_type, subscription_id)
        return subscription_id

    def receiver(self, handler=None):
        """The handler a subscription of this consumer delivers into: the
        inbox first, then ``handler`` if given."""

        def receive(notification: NotificationMessage) -> None:
            self.inbox.append(notification)
            if handler is not None:
                handler(notification)

        return receive

    def note_subscription(self, event_type: str, subscription_id: str) -> None:
        """Remember the active subscription of ``event_type`` (the federated
        platform installs cross-node ones on this consumer's behalf)."""
        self._subscription_ids[event_type] = subscription_id

    def is_subscribed_to(self, event_type: str) -> bool:
        """Whether an active subscription exists for ``event_type``."""
        return event_type in self._subscription_ids

    # -- index inquiry -----------------------------------------------------------

    def inquire_index(
        self,
        event_types: list[str],
        since: float | None = None,
        until: float | None = None,
    ) -> list[NotificationMessage]:
        """Query the events index for notifications of authorized classes."""
        return self._controller.inquire_index(
            self.actor_id, event_types, since=since, until=until
        )

    def catch_up(self, event_type: str, since: float | None = None) -> int:
        """Pull missed notifications of a class into the inbox.

        A consumer that joins (or resubscribes) late uses the events index
        to catch up on notifications published before its subscription
        existed — the pull side of the paper's temporal decoupling (§4).
        Notifications already in the inbox are skipped; returns how many
        were added.
        """
        known = {n.event_id for n in self.inbox}
        added = 0
        for notification in self.inquire_index([event_type], since=since):
            if notification.event_id in known:
                continue
            self.inbox.append(notification)
            added += 1
        return added

    # -- requests for details --------------------------------------------------------

    def request_details(
        self, notification: NotificationMessage, purpose: str
    ) -> DetailMessage:
        """Issue a request for details against a received notification.

        The notification is the prerequisite the paper requires: it carries
        the event type and global event id the request must name (§5.2).
        """
        request = DetailRequest(
            actor=self.actor,
            event_type=notification.event_type,
            event_id=notification.event_id,
            purpose=purpose,
        )
        return self._controller.request_details(
            self.actor_id, request, credential=self.credential)

    def request_details_by_id(
        self, event_type: str, event_id: str, purpose: str
    ) -> DetailMessage:
        """Request details naming the event id directly (index-inquiry path)."""
        request = DetailRequest(
            actor=self.actor,
            event_type=event_type,
            event_id=event_id,
            purpose=purpose,
        )
        return self._controller.request_details(
            self.actor_id, request, credential=self.credential)

    # -- inbox helpers ------------------------------------------------------------------

    def notifications_of_type(self, event_type: str) -> list[NotificationMessage]:
        """Inbox notifications of one event class."""
        return [n for n in self.inbox if n.event_type == event_type]

    def clear_inbox(self) -> None:
        """Empty the inbox (between benchmark rounds)."""
        self.inbox.clear()
