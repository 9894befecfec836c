"""Patient rosters: scoping notification delivery to assigned citizens.

Italian family doctors serve a registered patient list; a social-services
office serves its municipality's residents.  Minimal usage (§2) therefore
applies to *notifications* too: a consumer authorized for an event class
should still only be notified about the citizens in its care.

The :class:`PatientRoster` records consumer → subject assignments; the
data controller consults it when a subscription is created with
``roster_scoped=True``: notifications about unassigned citizens are
filtered out *before* delivery, and index inquiries are restricted the
same way.  Consumers without a roster-scoped subscription keep the
class-wide behaviour (e.g. the statistics office sees every notification
of the classes it may monitor).
"""

from __future__ import annotations

from collections import defaultdict

from repro.exceptions import ConfigurationError


class PatientRoster:
    """Consumer → assigned-subject mapping held by the data controller."""

    def __init__(self) -> None:
        self._assignments: dict[str, set[str]] = defaultdict(set)

    def assign(self, consumer_id: str, subject_id: str) -> None:
        """Put ``subject_id`` in ``consumer_id``'s care."""
        if not consumer_id or not subject_id:
            raise ConfigurationError("roster assignment needs both ids")
        self._assignments[consumer_id].add(subject_id)

    def assign_many(self, consumer_id: str, subject_ids: list[str]) -> None:
        """Assign several subjects at once."""
        for subject_id in subject_ids:
            self.assign(consumer_id, subject_id)

    def is_assigned(self, consumer_id: str, subject_id: str) -> bool:
        """Whether the subject is in the consumer's care."""
        return subject_id in self._assignments.get(consumer_id, ())

    def subjects_of(self, consumer_id: str) -> frozenset[str]:
        """Every subject assigned to one consumer."""
        return frozenset(self._assignments.get(consumer_id, ()))
