"""The events index — the central notification store (§4).

"The central rooting node of the CSS platform is represented by the data
controller that maintains an index of the events (events index, implemented
according to the ebXML standard) as it stores all the notification messages
published by the producers ... The identifying information of the person
specified in the notification is stored in encrypted form to comply with
the privacy regulations."

An entry is one flat row: the notification's seven fields, the two
identifying ones (subject reference and display name) sealed with the
controller's index key — what a shard ships to a peer, what the index log
stores and what :meth:`EventsIndex.open_entry` reads.  The ebXML
vocabulary survives as its field names: the object is classified by
event class (``event_type``) and producer (``producer_id``), and
``subject_ref`` / ``subject_display`` are its sealed slots.  Inquiry
decrypts only for callers the controller has already authorized — the
index itself never hands out plaintext identity.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

from repro.core.messages import NotificationMessage
from repro.crypto.hashing import canonical_json
from repro.exceptions import (
    CorruptRecordError,
    DuplicateObjectError,
    ObjectNotFoundError,
    UnknownEventError,
)

if TYPE_CHECKING:
    from repro.crypto.keystore import KeyStore

#: Name of the keystore key sealing identifying slots.
INDEX_KEY = "index-identity"


@dataclass
class IndexStats:
    """Instrumentation for the encryption ablation (A2)."""

    stored: int = 0
    seal_operations: int = 0


@dataclass(frozen=True)
class SealedIdentity:
    """The identifying slots of a notification, sealed for index storage.

    Produced by :meth:`EventsIndex.seal_identity` (on the publish path,
    before indexing) and consumed by :meth:`EventsIndex.store`.
    """

    subject_ref: str
    subject_display: str | None = None


#: The keys of a stored entry row (:func:`sealed_fields`, a notification's
#: fields) and of a tombstone (:meth:`EventsIndex.withdraw`): the two forms
#: an index log holds.
ROW_KEYS = frozenset(field.name for field in fields(NotificationMessage))
TOMBSTONE_KEYS = frozenset({"tombstone", "object_id"})


def sealed_fields(notification: NotificationMessage,
                  sealed: SealedIdentity) -> dict:
    """One index entry as its seven flat fields, identity slots sealed —
    what a shard ships to a peer."""
    return {
        "event_id": notification.event_id,
        "event_type": notification.event_type,
        "producer_id": notification.producer_id,
        "occurred_at": notification.occurred_at,
        "summary": notification.summary,
        "subject_ref": sealed.subject_ref,
        "subject_display": sealed.subject_display,
    }


def row_json(row: dict) -> str:
    """``canonical_json(row)``, an entry row rendered by shape, keys sorted; a tombstone,
    or a value not a ``str``, ``None`` or finite ``float``, goes through the generic encoder."""
    at = row.get("occurred_at")
    if row.keys() == ROW_KEYS and type(at) is float and at - at == 0.0:
        display = row["subject_display"]
        try:
            return (f'{{"event_id":{_quote(row["event_id"])},'
                    f'"event_type":{_quote(row["event_type"])},"occurred_at":{at!r},'
                    f'"producer_id":{_quote(row["producer_id"])},'
                    f'"subject_display":{"null" if display is None else _quote(display)},'
                    f'"subject_ref":{_quote(row["subject_ref"])},'
                    f'"summary":{_quote(row["summary"])}}}')
        except TypeError:
            pass
    return canonical_json(row)


def microseconds(instant: float) -> float:
    """``instant`` to the microsecond: the precision an index row keeps
    (the ebXML ``occurredAt`` slot held it as ``%020.6f``)."""
    return round(float(instant), 6)


class EventsIndex:
    """The notification index: ``event id → row``, ``event type → [ids]``
    and the set of withdrawn ids, identifying fields sealed.

    A withdrawn entry (moved to another shard) stays stored but is hidden
    from every inquiry.  ``encrypt_identity=False`` exists only for
    ablation A2 (measuring the cost of the paper's encrypted-index
    requirement); production use keeps it on.
    """

    def __init__(self, keystore: "KeyStore", encrypt_identity: bool = True) -> None:
        self._rows: dict[str, dict] = {}
        self._by_type: dict[str, list[str]] = {}
        self._withdrawn: set[str] = set()
        self._keystore = keystore
        self._keystore.create(INDEX_KEY)
        self.encrypt_identity = encrypt_identity
        self.stats = IndexStats()

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, event_id: str) -> bool:
        return event_id in self._rows

    @property
    def sequence(self) -> int:
        """The number of entries held, equal live and replayed: kept only for
        the wall ledger's restart comparison."""
        return len(self._rows)

    def row(self, event_id: str) -> dict | None:
        """The row stored under ``event_id``; ``None`` if absent or withdrawn."""
        if event_id in self._withdrawn:
            return None
        return self._rows.get(event_id)

    def entries(self, withdrawn: bool = False) -> list[dict]:
        """Every row in store order; withdrawn ones only when asked."""
        return [row for event_id, row in self._rows.items()
                if withdrawn or event_id not in self._withdrawn]

    def dump(self) -> list[dict]:
        """The rows that replay into this index: every row, then a
        tombstone per withdrawn one."""
        return [*self._rows.values(), *(
            {"tombstone": True, "object_id": event_id}
            for event_id in self._rows if event_id in self._withdrawn)]

    def _keep(self, row: dict, persist: bool = True) -> dict:
        event_id = row["event_id"]
        if event_id in self._rows:
            raise DuplicateObjectError(f"entry {event_id!r} already indexed")
        if persist:
            self._persist(row)
        self._rows[event_id] = row
        self._by_type.setdefault(row["event_type"], []).append(event_id)
        self.stats.stored += 1
        return row

    def replay(self, rows: Iterable[dict]) -> None:
        """Re-insert stored rows, identity fields kept sealed (they never
        hold plaintext); a tombstone withdraws its entry once every row is
        in, and is ignored when compaction dropped that row.  A row of any
        other form raises :class:`~repro.exceptions.CorruptRecordError`
        naming it."""
        withdrawn = []
        for position, row in enumerate(rows):
            if row.keys() == ROW_KEYS:
                self._keep(row, persist=False)
            elif row.keys() == TOMBSTONE_KEYS:
                withdrawn.append(row["object_id"])
            else:
                name = row.get("event_id", row.get("object_id"))
                raise CorruptRecordError(f"index row {position} ({name!r}) is neither "
                                         f"an entry nor a tombstone: keys {sorted(row)}")
        self._withdrawn.update(event_id for event_id in withdrawn
                               if event_id in self._rows)

    def adopt_raw(self, entry: dict) -> dict:
        """Index an entry shipped by a peer shard (durable stores persist it)."""
        return self._keep({**entry, "occurred_at": microseconds(entry["occurred_at"])})

    def withdraw(self, event_id: str) -> None:
        """Hide an entry from every inquiry (ebXML withdrawal)."""
        if event_id not in self._rows:
            raise ObjectNotFoundError(f"no index entry {event_id!r}")
        self._persist({"tombstone": True, "object_id": event_id})
        self._withdrawn.add(event_id)

    def _persist(self, row: dict) -> None:
        """Write a row or tombstone through before the index changes (durable stores)."""

    def flush(self) -> None:
        """Group-commit barrier; the in-memory index has nothing to drain."""

    # -- storage ------------------------------------------------------------

    def seal_identity(self, notification: NotificationMessage) -> SealedIdentity:
        """Seal the identifying slots (on the publish path, before
        indexing), each in the context of its event id and slot name: one
        subject in two events never seals to the same token."""
        event_id = notification.event_id
        return SealedIdentity(
            subject_ref=self._seal(notification.subject_ref, f"{event_id}/subjectRef"),
            subject_display=(
                self._seal(notification.subject_display, f"{event_id}/subjectDisplay")
                if notification.subject_display else None
            ),
        )

    def store(self, notification: NotificationMessage,
              sealed: SealedIdentity | None = None) -> dict:
        """Index a published notification and return its row.

        ``sealed`` carries identity slots already sealed by
        :meth:`seal_identity`; without it the index seals inline (direct
        callers outside the publish path).
        """
        if sealed is None:
            sealed = self.seal_identity(notification)
        row = sealed_fields(notification, sealed)
        row["occurred_at"] = microseconds(notification.occurred_at)
        return self._keep(row)

    def _seal(self, value: str, context: str) -> str:
        if not self.encrypt_identity:
            return value
        self.stats.seal_operations += 1
        return self._keystore.seal(INDEX_KEY, value, context)

    def _open(self, token: str) -> str:
        if not self.encrypt_identity:
            return token
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
        row = self._rows.get(event_id)
        if row is None:
            raise UnknownEventError(f"no notification indexed under {event_id!r}")
        return self.open_entry(row)

    def open_entry(self, entry: dict) -> NotificationMessage:
        """Rebuild the notification of one row (local or fetched from a
        peer shard), opening its identity slots here — the only place an
        entry's plaintext identity appears."""
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
    ) -> list[dict]:
        """The live rows of ``event_types`` (in that order, each in store
        order) within ``[since, until]`` to the microsecond, identity
        fields kept sealed."""
        since = None if since is None else microseconds(since)
        until = None if until is None else microseconds(until)
        rows, withdrawn = self._rows, self._withdrawn
        found: list[dict] = []
        for event_type in dict.fromkeys(event_types):  # dedupe, keep order
            for event_id in self._by_type.get(event_type, ()):
                row = rows[event_id]
                if not (event_id in withdrawn
                        or (since is not None and row["occurred_at"] < since)
                        or (until is not None and row["occurred_at"] > until)
                        or (producer_id is not None
                            and row["producer_id"] != producer_id)):
                    found.append(row)
        return found

    def inquire(
        self,
        event_types: list[str],
        since: float | None = None,
        until: float | None = None,
        producer_id: str | None = None,
    ) -> list[NotificationMessage]:
        """Query notifications of the authorized ``event_types``.

        Authorization (which classes the caller may see) is the data
        controller's job; the index filters each authorized class and
        decrypts the identity slots of the results.
        """
        results = [
            self.open_entry(row)
            for row in self.raw_inquire(event_types, since, until, producer_id)
        ]
        results.sort(key=lambda n: (n.occurred_at, n.event_id))
        return results
