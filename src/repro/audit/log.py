"""Tamper-evident audit log.

Every privacy-relevant action in the platform appends an
:class:`AuditRecord`: who (actor), did what (action), on which event/subject,
for which purpose, with which outcome.  Records are chained with
:class:`~repro.crypto.hashing.HashChain`, so a guarantor can verify the log
was not rewritten after the fact.

The *physical* view is the chain, one record per link: what a durable sink
stores and replays.  The *logical* view, :meth:`AuditLog.logical`, is the
paper's audit duty, one record per request and per exchange: what queries
and reports read.  They differ for deliveries only: a run of consecutive
deliveries of one notification is chained as ONE ``NOTIFY`` record carrying
its ordered ``recipients``; :meth:`AuditRecord.expanded` undoes that.
A link is rendered once, by its own shape (:meth:`AuditRecord.to_json`, the
bytes ``canonical_json`` would give): that text is what the chain hashes and
what a durable sink frames at append and stores (:mod:`repro.runtime.backends`).
"""

from __future__ import annotations

import enum
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii as _quote

from repro.crypto.hashing import HashChain, canonical_json
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
    #: Ordered recipients of a fan-out ``NOTIFY``; a consumer holding two
    #: subscriptions is delivered to twice and is listed twice.
    recipients: tuple[str, ...] = ()

    def to_payload(self) -> dict[str, object]:
        """Canonical dictionary used for hashing and export (``recipients`` only if any)."""
        payload = {
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
        if self.recipients:
            payload["recipients"] = list(self.recipients)
        return payload

    def to_json(self) -> str:
        """``canonical_json(self.to_payload())`` rendered by shape, keys sorted; a value
        not a ``str``, ``None`` or finite ``float`` goes through the generic encoder."""
        at = self.timestamp
        try:
            if type(at) is not float or at - at != 0.0:  # inf - inf and nan are nan
                raise TypeError(at)
            event, kind, purpose, subject = (self.event_id, self.event_type,
                                             self.purpose, self.subject_ref)
            recipients = (f',"recipients":[{",".join(map(_quote, self.recipients))}]'
                          if self.recipients else "")
            return (f'{{"action":{_quote(self.action.value)},"actor":{_quote(self.actor)},'
                    f'"detail":{_quote(self.detail)},'
                    f'"event_id":{"null" if event is None else _quote(event)},'
                    f'"event_type":{"null" if kind is None else _quote(kind)},'
                    f'"outcome":{_quote(self.outcome.value)},'
                    f'"purpose":{"null" if purpose is None else _quote(purpose)}{recipients},'
                    f'"record_id":{_quote(self.record_id)},'
                    f'"subject_ref":{"null" if subject is None else _quote(subject)},'
                    f'"timestamp":{at!r}}}')
        except TypeError:
            return canonical_json(self.to_payload())

    def expanded(self) -> tuple["AuditRecord", ...]:
        """The logical records this physical one stands for: itself, or for
        a fan-out one ``NOTIFY`` per recipient (``actor`` = the recipient),
        under ids — ``aud-000123-…/007`` — that sort in delivery order."""
        if not self.recipients:
            return (self,)
        width = max(3, len(str(len(self.recipients))))
        return tuple(
            replace(self, record_id=f"{self.record_id}/{n:0{width}d}", actor=who, recipients=())
            for n, who in enumerate(self.recipients, 1))

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
            recipients=tuple(payload.get("recipients", ())),
        )

    @classmethod
    def from_json(cls, body: str) -> "AuditRecord":
        """Rebuild a record from its canonical JSON text (a stored body)."""
        return cls.from_payload(json.loads(body))


class AuditLog:
    """Append-only, hash-chained audit log; all but :meth:`logical` speak of chain links."""

    def __init__(self) -> None:
        self._records: list[AuditRecord] = []
        self._chain = HashChain()
        #: The open fan-out run — deliveries not yet chained, which every
        #: method but :meth:`delivered` closes first: ``((timestamp, event id,
        #: event type, subject ref), record id minted at open, [recipients])``.
        self._run: tuple[tuple, str, list[str]] | None = None

    def __len__(self) -> int:
        self._close_run()
        return len(self._chain)

    def append(self, record: AuditRecord) -> str:
        """Append ``record``, return its chain digest: the chain advances once the link is kept."""
        self._close_run()
        body = record.to_json()
        digest = self._chain.link(self._chain.head, body)
        self._keep(record, body, digest)
        self._chain.commit(digest)
        return digest

    def delivered(self, recipient: str, notification, timestamp: float, ids) -> None:
        """Audit one delivery of ``notification`` to ``recipient``.

        Consecutive deliveries of one notification at one clock reading share
        one ``NOTIFY`` link; its id is minted as the first opens the run.
        """
        key = (timestamp, notification.event_id, notification.event_type, notification.subject_ref)
        if self._run is not None and self._run[0] == key:
            self._run[2].append(recipient)
        else:
            self._close_run()
            self._run = (key, ids.next("aud"), [recipient])

    def _close_run(self) -> None:
        """Chain the open run, if any, as ONE record."""
        run, self._run = self._run, None
        if run is not None:
            (timestamp, *about), record_id, recipients = run
            try:  # looked up on the instance: the wall ledger shims ``append`` there
                self.append(AuditRecord(
                    record_id, timestamp, recipients[0], AuditAction.NOTIFY,
                    AuditOutcome.PERMIT, *about, recipients=tuple(recipients)))
            except BaseException:
                self._run = run  # not chained: the next append retries it
                raise

    def _keep(self, record: AuditRecord, body: str, digest: str) -> None:
        """Hold a link just chained: in memory the record, in a durable sink ``body``."""
        self._records.append(record)

    def _physical(self) -> Iterable[AuditRecord]:
        self._close_run()
        return self._records

    def records(self) -> tuple[AuditRecord, ...]:
        """A snapshot of all physical records (chain links), oldest first."""
        return tuple(self._physical())

    def logical(self) -> Iterator[AuditRecord]:
        """Every logical record, oldest first: a fan-out link as one per delivery."""
        for record in self._physical():
            yield from record.expanded()

    def record_at(self, index: int) -> AuditRecord:
        """The physical record at position ``index`` (0-based)."""
        try:
            return self.records()[index]
        except IndexError as exc:
            raise AuditError(f"no audit record at index {index}") from exc

    @property
    def head_digest(self) -> str:
        """Digest of the latest chain link (publishable checkpoint)."""
        self._close_run()
        return self._chain.head

    def verify_integrity(self) -> None:
        """Re-hash every physical record against the chain, one at a time.

        Raises :class:`~repro.exceptions.TamperedLogError` on any mismatch —
        this is the check a privacy guarantor runs before trusting the log.
        """
        self._chain.verify(record.to_json() for record in self._physical())

    def flush(self) -> None:
        """Barrier: chain the open run; a durable sink then drains its buffer."""
        self._close_run()


def mint_record(log, ids, clock, actor: str, action: AuditAction,
                outcome: AuditOutcome, **fields) -> str:
    """Mint one audit record — next ``aud`` id, current time — and append it.

    The one place ids and timestamps are assigned (a fan-out's: the notification
    sink's clock read, :meth:`AuditLog.delivered`).  ``fields`` are the optional
    :class:`AuditRecord` fields; returns the chain digest.
    """
    return log.append(AuditRecord(
        record_id=ids.next("aud"), timestamp=clock.now(),
        actor=actor, action=action, outcome=outcome, **fields,
    ))
