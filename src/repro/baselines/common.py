"""Shared plumbing for the baseline comparators.

All baselines consume the same inputs as :class:`~repro.sim.scenario.CssScenario`:
a workload of :class:`~repro.sim.generators.WorkloadItem`, the event
templates, and a list of ``(consumer id, role)`` pairs.  A consumer is
*interested* in an event class iff the template declares needed fields for
its role — the same interest model the CSS scenario's subscriptions encode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.generators import EventTemplate, WorkloadItem
from repro.sim.metrics import ExposureSummary


@dataclass
class BaselineReport:
    """Outcome of one baseline run."""

    exposure: ExposureSummary
    connections: int = 0          # standing point-to-point links / channels
    duplicated_sensitive_values: int = 0  # values copied outside the owner


def interested_consumers(
    template: EventTemplate, consumers: list[tuple[str, str]]
) -> list[tuple[str, str]]:
    """The consumers whose role needs fields of this event class."""
    return [
        (consumer_id, role)
        for consumer_id, role in consumers
        if template.needed_fields.get(role)
    ]


def document_bytes(details: dict[str, object]) -> int:
    """Rough wire size of a full detail document."""
    return sum(
        len(name) + len(str(value)) + 16
        for name, value in details.items()
        if value is not None
    )


def full_disclosure(
    ledger,
    template: EventTemplate,
    item: WorkloadItem,
    consumer_id: str,
    role: str,
    traced: bool,
) -> None:
    """Record a full-document disclosure to one receiver."""
    schema = template.build_schema()
    ledger.record_document(
        receiver=consumer_id,
        receiver_role=role,
        event_type=template.name,
        disclosed_fields=item.details,
        sensitive_fields=set(schema.sensitive_fields),
        needed_fields=set(template.needed_fields.get(role, ())),
        traced=traced,
    )
