"""Service interfaces of the data controller's collaborators.

The paper's data controller is a *mediator* composed of distinct roles —
broker, events index, policy enforcer (PEP/PIP/PDP), audit logger and the
producers' local cooperation gateways (§4, §5.2).  Each role is captured
here as a :class:`typing.Protocol` so implementations can be swapped,
sharded or distributed independently:

* :class:`IndexStore` — the events index (notification storage + inquiry);
* :class:`PolicyDecisionPoint` — Algorithm 1 resolution (decide + fetch);
* :class:`DetailFetcher` — the client side of the producers' local
  cooperation gateways (Algorithm 2 invocation);
* :class:`CooperationGateway` — the producer-side gateway itself;
* :class:`AuditSink` — the tamper-evident audit trail;
* :class:`CipherProvider` — named-key sealing of identifying information;
* :class:`NotificationTransport` — the pub/sub service bus.

The :class:`~repro.core.controller.DataController` constructs its
concrete collaborators itself and only ever uses them through these
shapes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Protocol, runtime_checkable

if TYPE_CHECKING:  # imported for signatures only; protocols stay import-light
    from repro.core.events import EventClass, EventOccurrence
    from repro.core.messages import DetailMessage, NotificationMessage
    from repro.xmlmsg.document import XmlDocument


@runtime_checkable
class CipherProvider(Protocol):
    """Versioned named keys sealing/opening identifying tokens."""

    def create(self, name: str) -> None:
        """Create key ``name`` (idempotent)."""

    def rotate(self, name: str) -> int:
        """Advance ``name`` to its next version."""

    def current_version(self, name: str) -> int:
        """Current version number of key ``name``."""

    def seal(self, name: str, plaintext: str, context: str) -> str:
        """Seal ``plaintext`` under the current version of key ``name``."""

    def open_(self, name: str, token: str) -> str:
        """Open a token, resolving the key version from its prefix."""


@runtime_checkable
class IndexStore(Protocol):
    """The events index: sealed notification storage plus inquiry."""

    encrypt_identity: bool

    def store(self, notification: "NotificationMessage", sealed: Any | None = None) -> Any:
        """Index a published notification (identity slots sealed)."""

    def get(self, event_id: str) -> "NotificationMessage":
        """Rebuild the notification stored under ``event_id``."""

    def inquire(
        self,
        event_types: list[str],
        since: float | None = None,
        until: float | None = None,
        producer_id: str | None = None,
    ) -> list["NotificationMessage"]:
        """Query notifications of the (already authorized) event types."""

    def seal_identity(self, notification: "NotificationMessage") -> Any:
        """Seal the identifying slots of ``notification`` (before indexing)."""

    def count_for_type(self, event_type: str) -> int:
        """Number of indexed notifications of one class."""

    def flush(self) -> None:
        """Group-commit barrier (no-op for stores that buffer nothing)."""

    def __len__(self) -> int: ...

    def __contains__(self, event_id: str) -> bool: ...


@runtime_checkable
class AuditSink(Protocol):
    """Append-only, tamper-evident audit trail."""

    def append(self, record: Any) -> str:
        """Append a record; returns its chain digest."""

    def delivered(self, recipient: str, notification: Any, timestamp: float, ids: Any) -> None:
        """Audit one delivery; consecutive ones share a chain link."""

    def records(self) -> tuple[Any, ...]:
        """Snapshot of all physical records (chain links), oldest first."""

    def logical(self) -> Iterator[Any]:
        """Every logical record: fan-out links expanded per recipient."""

    def verify_integrity(self) -> None:
        """Re-verify the whole chain (raises on tampering)."""

    @property
    def head_digest(self) -> str:
        """Digest of the latest chain link."""

    def flush(self) -> None:
        """Group-commit barrier (no-op for sinks that buffer nothing)."""

    def __len__(self) -> int: ...


@runtime_checkable
class NotificationTransport(Protocol):
    """The pub/sub fabric notifications fan out over."""

    def declare_topic(self, path: str) -> None: ...

    def subscribe(self, subscriber: str, pattern: str, handler: Callable) -> Any: ...

    def unsubscribe(self, subscription_id: str) -> None: ...

    def publish(self, topic: str, sender: str, body: object) -> Any: ...

    def route(self, message_id: str, topic: str, sender: str, body: object) -> Any: ...

    def dispatch(self) -> Any: ...


@runtime_checkable
class CooperationGateway(Protocol):
    """Producer-side detail store and Algorithm 2 endpoint."""

    producer_id: str

    def persist(self, occurrence: "EventOccurrence") -> None: ...

    def get_response(
        self,
        src_event_id: str,
        allowed_fields: frozenset[str] | set[str],
        event_id: str,
    ) -> "DetailMessage": ...

    def restore_detail(
        self, src_event_id: str, event_class: "EventClass", details: "XmlDocument"
    ) -> None: ...

    def stored_entries(self) -> list: ...


@runtime_checkable
class DetailFetcher(Protocol):
    """Client side of the gateways: fetch the allowed part of a detail.

    ``fetch`` runs Algorithm 2 remotely — the gateway filters before
    anything leaves the producer, so the fetcher only ever transports
    privacy-aware events.
    """

    def fetch(
        self,
        producer_id: str,
        src_event_id: str,
        allowed_fields: Iterable[str],
        event_id: str,
    ) -> "DetailMessage": ...


@runtime_checkable
class PolicyDecisionPoint(Protocol):
    """Algorithm 1: resolve a request for details through the policy stack."""

    def get_event_details(self, request: Any) -> "DetailMessage":
        """Resolve an authorization request; raises on deny."""

    def decide(self, request: Any) -> bool:
        """Policy decision only (no gateway call, no exception on deny)."""
