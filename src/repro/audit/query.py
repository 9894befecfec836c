"""Filtered queries over the audit log.

:class:`AuditQuery` is a fluent conjunction of filters answering the
questions the paper lists: *who did the request and why / for which
purpose?* (§1), scoped by actor, action, outcome, subject, event class and
time window — over the log's *logical* view (one ``NOTIFY`` per
delivery, :meth:`~repro.audit.log.AuditLog.logical`), never chain links.
"""

from __future__ import annotations

from repro.audit.log import AuditAction, AuditLog, AuditOutcome, AuditRecord


class AuditQuery:
    """A reusable filter over audit records."""

    def __init__(self) -> None:
        self._actor: str | None = None
        self._action: AuditAction | None = None
        self._outcome: AuditOutcome | None = None
        self._event_type: str | None = None
        self._subject_ref: str | None = None
        self._since: float | None = None
        self._until: float | None = None

    # -- fluent filters ------------------------------------------------------

    def by_actor(self, actor: str) -> "AuditQuery":
        """Only records produced by ``actor``."""
        self._actor = actor
        return self

    def by_action(self, action: AuditAction) -> "AuditQuery":
        """Only records of ``action``."""
        self._action = action
        return self

    def by_outcome(self, outcome: AuditOutcome) -> "AuditQuery":
        """Only records with ``outcome``."""
        self._outcome = outcome
        return self

    def about_event_type(self, event_type: str) -> "AuditQuery":
        """Only records concerning event class ``event_type``."""
        self._event_type = event_type
        return self

    def about_subject(self, subject_ref: str) -> "AuditQuery":
        """Only records concerning data subject ``subject_ref``."""
        self._subject_ref = subject_ref
        return self

    def between(self, since: float | None = None, until: float | None = None) -> "AuditQuery":
        """Only records with ``since <= timestamp <= until``."""
        self._since = since
        self._until = until
        return self

    # -- evaluation ---------------------------------------------------------------

    def matches(self, record: AuditRecord) -> bool:
        """Whether one record satisfies every filter."""
        checks = (
            self._actor is None or record.actor == self._actor,
            self._action is None or record.action is self._action,
            self._outcome is None or record.outcome is self._outcome,
            self._event_type is None or record.event_type == self._event_type,
            self._subject_ref is None or record.subject_ref == self._subject_ref,
            self._since is None or record.timestamp >= self._since,
            self._until is None or record.timestamp <= self._until,
        )
        return all(checks)

    def run(self, log: AuditLog) -> list[AuditRecord]:
        """Evaluate the query against ``log``'s logical view (oldest first)."""
        return [record for record in log.logical() if self.matches(record)]

    def count(self, log: AuditLog) -> int:
        """Number of matching logical records."""
        return sum(1 for record in log.logical() if self.matches(record))
