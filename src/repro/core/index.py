"""The events index — the central notification store (§4).

"The central rooting node of the CSS platform is represented by the data
controller that maintains an index of the events (events index, implemented
according to the ebXML standard) as it stores all the notification messages
published by the producers ... The identifying information of the person
specified in the notification is stored in encrypted form to comply with
the privacy regulations."

Each notification becomes a registry object classified by event class and
producer, with the *identifying* slots (subject reference and display name)
sealed with the controller's index key.  Inquiry decrypts only for callers
the controller has already authorized — the index itself never hands out
plaintext identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.messages import NotificationMessage
from repro.exceptions import UnknownEventError
from repro.registry.objects import RegistryObject
from repro.registry.query import FilterQuery
from repro.registry.registry import Registry

if TYPE_CHECKING:
    from repro.runtime.interfaces import CipherProvider

#: Registry object type of index entries.
OBJECT_TYPE = "Notification"
#: Classification schemes used by the index.
SCHEME_EVENT_CLASS = "EventClass"
SCHEME_PRODUCER = "Producer"
#: Name of the keystore key sealing identifying slots.
INDEX_KEY = "index-identity"


@dataclass
class IndexStats:
    """Instrumentation for the encryption ablation (A2)."""

    stored: int = 0
    inquiries: int = 0
    seal_operations: int = 0
    open_operations: int = 0


@dataclass(frozen=True)
class SealedIdentity:
    """The identifying slots of a notification, sealed for index storage.

    Produced by :meth:`EventsIndex.seal_identity` (the publish pipeline's
    crypto stage) and consumed by :meth:`EventsIndex.store`.
    """

    subject_ref: str
    subject_display: str | None = None


def sealed_fields(notification: NotificationMessage,
                  sealed: SealedIdentity) -> dict:
    """One index entry as its seven flat fields, identity slots sealed —
    what a shard ships to a peer and what :func:`sealed_entry` stores."""
    return {
        "event_id": notification.event_id,
        "event_type": notification.event_type,
        "producer_id": notification.producer_id,
        "occurred_at": notification.occurred_at,
        "summary": notification.summary,
        "subject_ref": sealed.subject_ref,
        "subject_display": sealed.subject_display,
    }


def sealed_entry(
    *, event_id: str, event_type: str, producer_id: str, occurred_at: float,
    summary: str, subject_ref: str, subject_display: str | None = None,
) -> RegistryObject:
    """The registry object of one index entry (identity slots already
    sealed) — built the same for a local store and for an adopted entry."""
    obj = RegistryObject(
        object_id=event_id, object_type=OBJECT_TYPE,
        name=summary, description=summary,
    )
    obj.classify(SCHEME_EVENT_CLASS, event_type)
    obj.classify(SCHEME_PRODUCER, producer_id)
    obj.set_slot("occurredAt", f"{occurred_at:020.6f}")
    obj.set_slot("producerId", producer_id)
    obj.set_slot("subjectRef", subject_ref)
    if subject_display is not None:
        obj.set_slot("subjectDisplay", subject_display)
    return obj


def entry_fields(obj: RegistryObject) -> dict:
    """The inverse of :func:`sealed_entry`: a stored entry's flat fields,
    identity slots kept sealed (the peer-facing form of a shard's rows)."""
    return {
        "event_id": obj.object_id,
        "event_type": obj.classification_node(SCHEME_EVENT_CLASS) or "",
        "producer_id": obj.slot_value("producerId") or "",
        "occurred_at": float(obj.slot_value("occurredAt") or 0.0),
        "summary": obj.name,
        "subject_ref": obj.slot_value("subjectRef") or "",
        "subject_display": obj.slot_value("subjectDisplay"),
    }


class EventsIndex:
    """ebXML-backed notification index with sealed identifying fields.

    ``encrypt_identity=False`` exists only for ablation A2 (measuring the
    cost of the paper's encrypted-index requirement); production use keeps
    it on.  ``keystore`` may be any
    :class:`~repro.runtime.interfaces.CipherProvider`.
    """

    def __init__(self, keystore: "CipherProvider", encrypt_identity: bool = True) -> None:
        self._registry = Registry()
        self._keystore = keystore
        self._keystore.create(INDEX_KEY)
        self.encrypt_identity = encrypt_identity
        self.stats = IndexStats()

    def __len__(self) -> int:
        return len(self._registry)

    def __contains__(self, event_id: str) -> bool:
        return event_id in self._registry

    @property
    def registry(self) -> Registry:
        """The underlying ebXML-style registry (read-mostly)."""
        return self._registry

    @property
    def sequence(self) -> int:
        """The number of entries held, equal live and replayed: kept only for
        the wall ledger's restart comparison, deleted with it (ROADMAP item 1(f))."""
        return len(self._registry)

    def restore_raw(self, obj: RegistryObject) -> None:
        """Re-insert an archived registry object, slots kept as stored.

        Identity slots arrive still sealed (the archive never holds
        plaintext identities), so this bypasses :meth:`store`'s sealing.
        """
        self._registry.submit(obj)
        self._registry.approve(obj.object_id)
        self.stats.stored += 1

    def adopt_raw(self, obj: RegistryObject) -> None:
        """Index an entry shipped by a peer shard (durable stores persist it)."""
        self.restore_raw(obj)

    def withdraw(self, event_id: str) -> None:
        """Hide an entry from every default inquiry (ebXML withdrawal)."""
        self._registry.withdraw(event_id)

    def flush(self) -> None:
        """Group-commit barrier; the in-memory index has nothing to drain."""

    # -- storage ------------------------------------------------------------

    def seal_identity(self, notification: NotificationMessage) -> SealedIdentity:
        """Seal the identifying slots (the publish pipeline's crypto stage),
        each in the context of its event id and slot name: one subject in
        two events never seals to the same token."""
        event_id = notification.event_id
        return SealedIdentity(
            subject_ref=self._seal(notification.subject_ref, f"{event_id}/subjectRef"),
            subject_display=(
                self._seal(notification.subject_display, f"{event_id}/subjectDisplay")
                if notification.subject_display else None
            ),
        )

    def store(self, notification: NotificationMessage,
              sealed: SealedIdentity | None = None) -> RegistryObject:
        """Index a published notification and return its registry object.

        ``sealed`` carries identity slots already sealed by
        :meth:`seal_identity`; without it the index seals inline (direct
        callers outside the pipeline).
        """
        if sealed is None:
            sealed = self.seal_identity(notification)
        obj = sealed_entry(**sealed_fields(notification, sealed))
        self._registry.submit(obj)
        self._registry.approve(notification.event_id)
        self.stats.stored += 1
        return obj

    def _seal(self, value: str, context: str) -> str:
        if not self.encrypt_identity:
            return value
        self.stats.seal_operations += 1
        return self._keystore.seal(INDEX_KEY, value, context)

    def _open(self, token: str) -> str:
        if not self.encrypt_identity:
            return token
        self.stats.open_operations += 1
        return self._keystore.open_(INDEX_KEY, token)

    def open_identity(self, token: str) -> str:
        """Open one sealed identity slot with this node's keystore.

        The federated index uses this to decrypt entries fetched from
        peer shards: every node derives the same ``index-identity`` key
        from the shared master secret, so tokens sealed anywhere in the
        cluster open locally — plaintext identity never crosses a link.
        """
        return self._open(token)

    # -- retrieval ------------------------------------------------------------

    def get(self, event_id: str) -> NotificationMessage:
        """Rebuild the notification stored under ``event_id``."""
        if event_id not in self._registry:
            raise UnknownEventError(f"no notification indexed under {event_id!r}")
        return self.open_entry(entry_fields(self._registry.get(event_id)))

    def open_entry(self, entry: dict) -> NotificationMessage:
        """Rebuild the notification of one entry (:func:`entry_fields` form,
        local or fetched from a peer shard), opening its identity slots
        here — the only place an entry's plaintext identity appears."""
        display_token = entry.get("subject_display")
        return NotificationMessage(**{
            **entry,
            "subject_ref": self._open(entry["subject_ref"]),
            "subject_display": self._open(display_token) if display_token else "",
        })

    # -- inquiry -------------------------------------------------------------------

    def raw_inquire(
        self,
        event_types: list[str],
        since: float | None = None,
        until: float | None = None,
        producer_id: str | None = None,
    ) -> list[RegistryObject]:
        """The matching index entries, identity slots kept sealed."""
        objects: list[RegistryObject] = []
        for event_type in dict.fromkeys(event_types):  # dedupe, keep order
            query = FilterQuery(object_type=OBJECT_TYPE).where(
                f"class:{SCHEME_EVENT_CLASS}", "eq", event_type
            )
            if since is not None:
                query.where("slot:occurredAt", "ge", f"{since:020.6f}")
            if until is not None:
                query.where("slot:occurredAt", "le", f"{until:020.6f}")
            if producer_id is not None:
                query.where(f"class:{SCHEME_PRODUCER}", "eq", producer_id)
            objects.extend(self._registry.query(query))
        return objects

    def inquire(
        self,
        event_types: list[str],
        since: float | None = None,
        until: float | None = None,
        producer_id: str | None = None,
    ) -> list[NotificationMessage]:
        """Query notifications of the authorized ``event_types``.

        Authorization (which classes the caller may see) is the data
        controller's job; the index evaluates the filter over each
        authorized class and decrypts the identity slots of the results.
        """
        self.stats.inquiries += 1
        results = [
            self.open_entry(entry_fields(obj))
            for obj in self.raw_inquire(event_types, since, until, producer_id)
        ]
        results.sort(key=lambda n: (n.occurred_at, n.event_id))
        return results

    def count_for_type(self, event_type: str) -> int:
        """Number of indexed notifications of one class."""
        return len(self._registry.by_classification(SCHEME_EVENT_CLASS, event_type))
