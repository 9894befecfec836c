"""Client-side forwarding of cross-node operations.

The :class:`FederationRouter` is the consumer-side half of the federation
protocol: it asks a producer's home node to authorize a subscription (and
install a relay back to this node), and it forwards requests-for-details
to the home node for decision.  It never decides anything itself — the
router's job is transport plus translating the home node's structured
error responses back into the platform's native exceptions, so a consumer
cannot tell (except for latency) whether the producer was local or remote.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.enforcement import DetailRequest
from repro.core.messages import DetailMessage
from repro.exceptions import (
    AccessDeniedError,
    FederationError,
    SourceUnavailableError,
    UnknownEventClassError,
    UnknownEventError,
)
from repro.storage.schemas import type_from_dict
from repro.xmlmsg.document import XmlDocument

if TYPE_CHECKING:
    from repro.core.actors import Actor
    from repro.federation.node import FederationNode


def _raise_for(response: dict) -> None:
    """Translate a home node's error response into the native exception."""
    error = response.get("error")
    if error is None:
        return
    message = response.get("message", error)
    if error == "access-denied":
        raise AccessDeniedError(message)
    if error == "source-unavailable":
        raise SourceUnavailableError(message)
    if error == "unknown-event":
        raise UnknownEventError(message)
    if error == "unknown-event-class":
        raise UnknownEventClassError(message)
    raise FederationError(f"remote call failed: {error}: {message}")


class FederationRouter:
    """Forwards subscriptions and detail requests to producers' home nodes."""

    def __init__(self, node: "FederationNode") -> None:
        self.node = node

    def _link_to(self, home_node_id: str):
        return self.node.membership.link(self.node.node_id, home_node_id)

    def subscribe_remote(
        self,
        home_node_id: str,
        consumer: "Actor",
        event_type: str,
        deliver: Callable,
    ) -> str:
        """Subscribe a local consumer to a class homed on another node.

        The home node's policy repository authorizes (or queues a pending
        access request and denies); on permit it relays the class topic to
        this node, where a local durable subscription feeds ``deliver``.
        Returns the local subscription id.
        """
        response = self._link_to(home_node_id).call("subscribe.remote", {
            "consumer_id": consumer.actor_id,
            "role": consumer.role,
            "event_type": event_type,
            "origin": self.node.node_id,
        })
        _raise_for(response)
        topic = response["topic"]
        bus = self.node.controller.bus
        bus.declare_topic(topic)
        subscription = bus.subscribe(consumer.actor_id, topic, deliver)
        return subscription.subscription_id

    def request_remote_details(
        self, home_node_id: str, request: DetailRequest
    ) -> DetailMessage:
        """Forward a request-for-details to the producer's home node.

        The decision (Algorithm 1) and field filtering (Algorithm 2) run
        entirely on the home node; this side only unseals and rebuilds the
        already-filtered detail message — values whose type the frame names
        (see ``FederationNode._op_details_get``) parsed back to it, so the
        message equals the one a local consumer is handed.
        """
        response = self._link_to(home_node_id).call("details.get", {
            "actor_id": request.actor.actor_id,
            "actor_name": request.actor.name,
            "role": request.actor.role,
            "event_type": request.event_type,
            "event_id": request.event_id,
            "purpose": request.purpose,
        })
        _raise_for(response)
        body = self.node.open_channel(response)
        for name, kind in body.get("types", {}).items():
            body["fields"][name] = type_from_dict(kind).parse(body["fields"][name])
        return DetailMessage(
            event_id=body["event_id"],
            event_type=body["event_type"],
            producer_id=body["producer_id"],
            payload=XmlDocument(body["event_type"], body["fields"]),
            released_fields=tuple(body["released"]),
        )
