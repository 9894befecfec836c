"""Tamper-evident audit log.

Every privacy-relevant action in the platform appends an
:class:`AuditRecord`: who (actor), did what (action), on which event/subject,
for which purpose, with which outcome.  Records are chained with
:class:`~repro.crypto.hashing.HashChain`, so a guarantor can verify the log
was not rewritten after the fact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.crypto.hashing import HashChain
from repro.exceptions import AuditError


class AuditAction(enum.Enum):
    """The auditable actions of the CSS protocol."""

    JOIN = "join"
    DECLARE_EVENT_CLASS = "declare-event-class"
    DEFINE_POLICY = "define-policy"
    REVOKE_POLICY = "revoke-policy"
    SUBSCRIBE = "subscribe"
    PUBLISH = "publish"
    NOTIFY = "notify"
    INDEX_INQUIRY = "index-inquiry"
    DETAIL_REQUEST = "detail-request"
    CONSENT_CHANGE = "consent-change"


class AuditOutcome(enum.Enum):
    """Outcome of an audited action."""

    PERMIT = "permit"
    DENY = "deny"
    ERROR = "error"


@dataclass(frozen=True)
class AuditRecord:
    """One immutable audit entry."""

    record_id: str
    timestamp: float
    actor: str
    action: AuditAction
    outcome: AuditOutcome
    event_id: str | None = None
    event_type: str | None = None
    subject_ref: str | None = None
    purpose: str | None = None
    detail: str = ""

    def to_payload(self) -> dict[str, object]:
        """Canonical dictionary used for hashing and export."""
        return {
            "record_id": self.record_id,
            "timestamp": self.timestamp,
            "actor": self.actor,
            "action": self.action.value,
            "outcome": self.outcome.value,
            "event_id": self.event_id,
            "event_type": self.event_type,
            "subject_ref": self.subject_ref,
            "purpose": self.purpose,
            "detail": self.detail,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "AuditRecord":
        """Rebuild a record from :meth:`to_payload` output — the one decoder
        of stored and exported rows; extra keys (a stored digest) are ignored."""
        return cls(
            record_id=payload["record_id"],
            timestamp=payload["timestamp"],
            actor=payload["actor"],
            action=AuditAction(payload["action"]),
            outcome=AuditOutcome(payload["outcome"]),
            event_id=payload.get("event_id"),
            event_type=payload.get("event_type"),
            subject_ref=payload.get("subject_ref"),
            purpose=payload.get("purpose"),
            detail=payload.get("detail", ""),
        )


class AuditLog:
    """Append-only, hash-chained audit log."""

    def __init__(self) -> None:
        self._records: list[AuditRecord] = []
        self._chain = HashChain()

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: AuditRecord) -> str:
        """Append ``record`` and return its chain digest."""
        payload = record.to_payload()
        digest = self._chain.append(payload)
        self._records.append(record)
        self._persist(payload, digest)
        return digest

    def _persist(self, payload: dict[str, object], digest: str) -> None:
        """Hook of the durable sinks: ``payload`` was just chained as
        ``digest`` and is theirs to keep; the in-memory log keeps nothing."""

    def records(self) -> tuple[AuditRecord, ...]:
        """A snapshot of all records, oldest first."""
        return tuple(self._records)

    def record_at(self, index: int) -> AuditRecord:
        """The record at position ``index`` (0-based)."""
        try:
            return self._records[index]
        except IndexError as exc:
            raise AuditError(f"no audit record at index {index}") from exc

    @property
    def head_digest(self) -> str:
        """Digest of the latest chain link (publishable checkpoint)."""
        return self._chain.head

    def verify_integrity(self) -> None:
        """Re-hash every record against the chain.

        Raises :class:`~repro.exceptions.TamperedLogError` on any mismatch —
        this is the check a privacy guarantor runs before trusting the log.
        """
        self._chain.verify([record.to_payload() for record in self._records])

    def flush(self) -> None:
        """Group-commit barrier; the in-memory log has nothing to drain."""


def mint_record(log, ids, clock, actor: str, action: AuditAction,
                outcome: AuditOutcome, **fields) -> str:
    """Mint one audit record — next ``aud`` id, current time — and append it.

    The one place record ids and timestamps are assigned.  ``fields`` are
    the optional :class:`AuditRecord` fields; returns the chain digest.
    """
    return log.append(AuditRecord(
        record_id=ids.next("aud"), timestamp=clock.now(),
        actor=actor, action=action, outcome=outcome, **fields,
    ))
