"""The citizen-facing Personal Health Record.

A :class:`PersonalHealthRecord` is scoped to one data subject.  It never
widens access: the timeline shows only events *about the citizen*, consent
operations only affect *her* decisions, and the access report is the
:func:`~repro.audit.reports.data_subject_report` the platform already
guarantees to every subject.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.reports import AccessReport, data_subject_report
from repro.core.consent import ConsentScope
from repro.core.controller import DataController
from repro.core.producer import DataProducer
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class TimelineEntry:
    """One event in the citizen's timeline (her 'snapshot' of §4)."""

    event_id: str
    event_type: str
    producer_id: str
    occurred_at: float
    summary: str

    def render(self, clock) -> str:
        """One printable timeline line."""
        return (f"[{clock.isoformat(self.occurred_at)[:10]}] "
                f"{self.event_type:<22} {self.summary}  ({self.producer_id})")


class PersonalHealthRecord:
    """A citizen's view onto her own data flows."""

    def __init__(self, controller: DataController, subject_id: str,
                 producers: list[DataProducer] | None = None) -> None:
        if not subject_id:
            raise ConfigurationError("a PHR needs the citizen's subject id")
        self._controller = controller
        self.subject_id = subject_id
        self._producers = {p.actor_id: p for p in (producers or [])}

    # -- timeline ------------------------------------------------------------

    def timeline(self, since: float | None = None,
                 until: float | None = None) -> list[TimelineEntry]:
        """The citizen's own events, oldest first.

        Built from the controller's id map (which records the subject of
        every published event) plus the events index — no detail message
        is touched; the timeline is who/what/when/where, like the
        notifications themselves.
        """
        entries = []
        for mapping in self._controller.id_map.entries_for_subject(self.subject_id):
            notification = self._controller.index.get(mapping.event_id)
            if since is not None and notification.occurred_at < since:
                continue
            if until is not None and notification.occurred_at > until:
                continue
            entries.append(TimelineEntry(
                event_id=notification.event_id,
                event_type=notification.event_type,
                producer_id=notification.producer_id,
                occurred_at=notification.occurred_at,
                summary=notification.summary,
            ))
        entries.sort(key=lambda e: (e.occurred_at, e.event_id))
        return entries

    def render_timeline(self) -> str:
        """Printable timeline."""
        lines = [f"PERSONAL HEALTH RECORD — {self.subject_id}",
                 "=" * (26 + len(self.subject_id))]
        for entry in self.timeline():
            lines.append("  " + entry.render(self._controller.clock))
        if len(lines) == 2:
            lines.append("  (no events)")
        return "\n".join(lines)

    # -- consent -------------------------------------------------------------------

    def _producer(self, producer_id: str) -> DataProducer:
        try:
            return self._producers[producer_id]
        except KeyError as exc:
            raise ConfigurationError(
                f"producer {producer_id!r} is not registered with this PHR"
            ) from exc

    def opt_out(self, producer_id: str, scope: ConsentScope,
                event_type: str | None = None) -> None:
        """Withdraw consent at one source (whole-source or per class)."""
        self._producer(producer_id).record_opt_out(self.subject_id, scope, event_type)

    def opt_in(self, producer_id: str, scope: ConsentScope,
               event_type: str | None = None) -> None:
        """(Re-)grant consent at one source."""
        self._producer(producer_id).record_opt_in(self.subject_id, scope, event_type)

    def consent_status(self, producer_id: str, event_type: str) -> dict[str, bool]:
        """What the citizen currently allows for one producer/class."""
        registry = self._producer(producer_id).consent
        return {
            "notifications": registry.allows_notification(self.subject_id, event_type),
            "details": registry.allows_details(self.subject_id, event_type),
        }

    # -- access transparency ------------------------------------------------------------

    def access_report(self) -> AccessReport:
        """Who accessed my data, when, with which outcome and purpose."""
        return data_subject_report(self._controller.audit_log, self.subject_id)
