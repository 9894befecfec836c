"""Federated audit: the guarantor's view across every node.

A privacy guarantor auditing a federated deployment must see one coherent
trail even though each node keeps its own hash-chained
:class:`~repro.audit.log.AuditLog`.  :func:`guarantor_inquiry` fans the
inquiry out to every node (the coordinator reads its own log directly,
peers export theirs sealed under their federation channel keys), verifies
each chain before trusting it, and merges the logical records (one
``NOTIFY`` per delivery) into one total-ordered trail keyed by
``(timestamp, node id, record id)``.

Each node's chain head digest rides along in the merged trail, so the
guarantor can cross-check a node's export against an independently
published checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.audit.log import AuditRecord

if TYPE_CHECKING:
    from repro.federation.node import FederationNode


@dataclass(frozen=True)
class FederatedAuditEntry:
    """One audit record attributed to the node whose chain holds it."""

    node_id: str
    record: AuditRecord


@dataclass(frozen=True)
class FederatedAuditTrail:
    """The merged, total-ordered trail plus each node's chain head."""

    entries: tuple[FederatedAuditEntry, ...]
    heads: dict[str, str]

    def __len__(self) -> int:
        return len(self.entries)

    def to_text(self) -> str:
        """Human-readable rendering for the CLI guarantor view."""
        lines = ["federated audit trail"]
        for node_id in sorted(self.heads):
            lines.append(f"  {node_id} head={self.heads[node_id]}")
        lines.append(f"  {len(self.entries)} record(s)")
        for entry in self.entries:
            record = entry.record
            lines.append(
                f"  t={record.timestamp:.3f} [{entry.node_id}] "
                f"{record.actor} {record.action.value} -> "
                f"{record.outcome.value}"
                + (f" ({record.event_type})" if record.event_type else "")
            )
        return "\n".join(lines)


def guarantor_inquiry(
    coordinator: "FederationNode",
    event_type: str | None = None,
    since: float | None = None,
    until: float | None = None,
) -> FederatedAuditTrail:
    """Fan a guarantor's audit inquiry out to every node and merge.

    The coordinator's own log is read (and verified) directly; every peer
    exports its verified records sealed under its channel key.  A tampered
    chain anywhere raises :class:`~repro.exceptions.TamperedLogError`
    before any of that node's records enter the trail.
    """
    entries: list[FederatedAuditEntry] = []
    heads: dict[str, str] = {}

    heads[coordinator.node_id], local = coordinator.verified_audit(
        event_type, since, until
    )
    entries.extend(
        FederatedAuditEntry(coordinator.node_id, record) for record in local
    )

    for node_id in coordinator.membership.node_ids:
        if node_id == coordinator.node_id:
            continue
        answer = coordinator.ask(
            node_id, "audit.records",
            {"event_type": event_type, "since": since, "until": until},
        )
        heads[node_id] = answer["head"]
        for payload in answer["records"]:
            entries.append(
                FederatedAuditEntry(node_id, AuditRecord.from_payload(payload))
            )

    entries.sort(key=lambda e: (e.record.timestamp, e.node_id, e.record.record_id))
    return FederatedAuditTrail(entries=tuple(entries), heads=heads)
