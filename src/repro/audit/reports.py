"""Compliance reports over the audit log.

Two report shapes the paper motivates:

* :func:`guarantor_report` — the privacy guarantor asks "show me every
  access to this class of events in this window, who, why, outcome";
* :func:`data_subject_report` — a citizen exercises the right to know who
  accessed her data and for which purposes.

Reports list *logical* records (:meth:`~repro.audit.log.AuditLog.logical`:
one ``NOTIFY`` per delivery) and verify the chain behind them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.audit.log import AuditAction, AuditLog, AuditOutcome, AuditRecord
from repro.audit.query import AuditQuery


@dataclass
class AccessReport:
    """A structured compliance report."""

    title: str
    records: list[AuditRecord] = field(default_factory=list)
    by_actor: Counter = field(default_factory=Counter)
    by_purpose: Counter = field(default_factory=Counter)
    by_outcome: Counter = field(default_factory=Counter)
    chain_verified: bool = False

    @property
    def total(self) -> int:
        """Number of records in the report."""
        return len(self.records)

    def to_text(self) -> str:
        """Render the report as printable text."""
        lines = [self.title, "=" * len(self.title)]
        lines.append(f"records: {self.total}  chain verified: {self.chain_verified}")
        lines.append("by outcome: " + ", ".join(f"{k}={v}" for k, v in sorted(self.by_outcome.items())))
        lines.append("by purpose: " + ", ".join(f"{k}={v}" for k, v in sorted(self.by_purpose.items())))
        lines.append("by actor:   " + ", ".join(f"{k}={v}" for k, v in sorted(self.by_actor.items())))
        for record in self.records:
            lines.append(
                f"  [{record.timestamp:>12.1f}] {record.actor:<28} {record.action.value:<18} "
                f"{record.outcome.value:<6} event={record.event_id or '-'} "
                f"purpose={record.purpose or '-'}"
            )
        return "\n".join(lines)


def _summarize(title: str, records: list[AuditRecord], log: AuditLog) -> AccessReport:
    report = AccessReport(title=title, records=records)
    for record in records:
        report.by_actor[record.actor] += 1
        if record.purpose:
            report.by_purpose[record.purpose] += 1
        report.by_outcome[record.outcome.value] += 1
    log.verify_integrity()
    report.chain_verified = True
    return report


def guarantor_report(
    log: AuditLog,
    event_type: str | None = None,
    since: float | None = None,
    until: float | None = None,
) -> AccessReport:
    """Access report for the privacy guarantor, scoped by class and window."""
    query = AuditQuery().between(since, until)
    if event_type is not None:
        query.about_event_type(event_type)
    records = [
        record
        for record in query.run(log)
        if record.action in (AuditAction.DETAIL_REQUEST, AuditAction.INDEX_INQUIRY, AuditAction.NOTIFY)
    ]
    scope = event_type or "all event classes"
    return _summarize(f"Guarantor access report — {scope}", records, log)


def data_subject_report(log: AuditLog, subject_ref: str) -> AccessReport:
    """Everything that happened to one data subject's events."""
    records = AuditQuery().about_subject(subject_ref).run(log)
    return _summarize(f"Data-subject access report — {subject_ref}", records, log)


def denial_report(log: AuditLog) -> AccessReport:
    """Every denied action — the over-constraining / probing signal."""
    records = AuditQuery().by_outcome(AuditOutcome.DENY).run(log)
    return _summarize("Denied-access report", records, log)
