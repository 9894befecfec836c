"""Citizen consent management.

The paper lists "patient/citizen empowerment by supporting consent
collection at data source level (opt-in, opt-out options to share the
events and their content)" among its challenges (§1) and notes the system
"can be used also directly by the citizens to specify and control their
consent on data exchanges" (§7).

Consent is held *at each producer* (data-source level) and consulted on the
two disclosure paths:

* :attr:`ConsentScope.NOTIFICATIONS` — whether events about the subject may
  be published (notification + index entry) at all;
* :attr:`ConsentScope.DETAILS` — whether detail requests may be resolved.

Opting out of notifications implies opting out of details (no notification
⇒ no detail request is possible anyway, but a late request against an
already-published notification must also be refused).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.exceptions import ConsentError


class ConsentScope(enum.Enum):
    """What a consent decision covers."""

    NOTIFICATIONS = "notifications"
    DETAILS = "details"


@dataclass(frozen=True)
class ConsentDecision:
    """One recorded decision of a data subject."""

    subject_id: str
    scope: ConsentScope
    granted: bool
    event_type: str | None = None  # None = all classes of this producer
    decided_at: float = 0.0


class ConsentRegistry:
    """Per-producer consent store with a configurable default.

    ``default_granted=True`` models the deployment's opt-out regime (events
    flow unless the citizen objects); pass ``False`` for a strict opt-in
    regime.  The most specific, most recent decision wins: a class-specific
    decision overrides an all-classes decision, and later decisions
    override earlier ones at the same specificity.
    """

    def __init__(self, producer_id: str, default_granted: bool = True) -> None:
        self.producer_id = producer_id
        self.default_granted = default_granted
        self._decisions: list[ConsentDecision] = []

    def __len__(self) -> int:
        return len(self._decisions)

    def record(self, decision: ConsentDecision) -> None:
        """Append a consent decision (history is kept for audit)."""
        if not decision.subject_id:
            raise ConsentError("consent decision needs a subject id")
        self._decisions.append(decision)

    def opt_out(
        self,
        subject_id: str,
        scope: ConsentScope,
        event_type: str | None = None,
        at: float = 0.0,
    ) -> ConsentDecision:
        """Record an opt-out and return the decision."""
        decision = ConsentDecision(subject_id, scope, False, event_type, at)
        self.record(decision)
        return decision

    def opt_in(
        self,
        subject_id: str,
        scope: ConsentScope,
        event_type: str | None = None,
        at: float = 0.0,
    ) -> ConsentDecision:
        """Record an opt-in and return the decision."""
        decision = ConsentDecision(subject_id, scope, True, event_type, at)
        self.record(decision)
        return decision

    def _effective(self, subject_id: str, scope: ConsentScope, event_type: str) -> bool:
        specific: ConsentDecision | None = None
        general: ConsentDecision | None = None
        for decision in self._decisions:
            if decision.subject_id != subject_id or decision.scope is not scope:
                continue
            if decision.event_type == event_type:
                specific = decision  # later decisions overwrite earlier ones
            elif decision.event_type is None:
                general = decision
        if specific is not None:
            return specific.granted
        if general is not None:
            return general.granted
        return self.default_granted

    def allows_notification(self, subject_id: str, event_type: str) -> bool:
        """Whether events of ``event_type`` about the subject may be published."""
        return self._effective(subject_id, ConsentScope.NOTIFICATIONS, event_type)

    def allows_details(self, subject_id: str, event_type: str) -> bool:
        """Whether detail requests about the subject may be resolved.

        A notification opt-out implies a detail opt-out.
        """
        if not self.allows_notification(subject_id, event_type):
            return False
        return self._effective(subject_id, ConsentScope.DETAILS, event_type)

    def decisions(self) -> tuple[ConsentDecision, ...]:
        """The full decision history, oldest first (archiving)."""
        return tuple(self._decisions)

    def decisions_of(self, subject_id: str) -> list[ConsentDecision]:
        """The subject's full decision history (data-subject reports)."""
        return [d for d in self._decisions if d.subject_id == subject_id]
