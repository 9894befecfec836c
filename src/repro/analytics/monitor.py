"""The governing body's process monitor.

Computes service-delivery statistics from the events index.  Everything
here reads *notification metadata only* — event class, producer,
occurrence time, and the (still sealed) subject reference used solely to
count distinct citizens — never a detail payload, so the monitor needs no
detail policies: it sees exactly what the index already holds, aggregated
and suppression-protected.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from repro.analytics.suppression import SuppressedCount, suppress, suppress_small_cells
from repro.core.controller import DataController
from repro.exceptions import ConfigurationError


@dataclass
class VolumeReport:
    """Event volumes over time buckets, per class."""

    bucket_seconds: float
    buckets: dict[int, dict[str, SuppressedCount]] = field(default_factory=dict)
    threshold: int = 1

    def bucket_of(self, instant: float) -> int:
        """The bucket index an instant falls into."""
        return int(math.floor(instant / self.bucket_seconds))

    def total_lower_bound(self) -> int:
        """Sum of safe lower bounds across all cells."""
        return sum(
            cell.lower_bound()
            for breakdown in self.buckets.values()
            for cell in breakdown.values()
        )

    def to_text(self) -> str:
        """Printable report (one row per bucket)."""
        lines = [f"SERVICE VOLUME (bucket = {self.bucket_seconds:.0f}s, "
                 f"suppression k = {self.threshold})"]
        for bucket in sorted(self.buckets):
            cells = ", ".join(
                f"{name}={cell.display}"
                for name, cell in sorted(self.buckets[bucket].items())
            )
            lines.append(f"  bucket {bucket:>5}: {cells}")
        return "\n".join(lines)


class ProcessMonitor:
    """Aggregate monitoring over the events index (the §2 governing-body view)."""

    def __init__(self, controller: DataController, suppression_threshold: int = 5) -> None:
        if suppression_threshold < 1:
            raise ConfigurationError("suppression threshold must be at least 1")
        self._controller = controller
        self.threshold = suppression_threshold

    # -- raw metadata access (internal) -------------------------------------

    def _rows(self) -> list[dict]:
        return self._controller.index.entries(withdrawn=True)

    # -- breakdowns ----------------------------------------------------------

    def class_breakdown(self) -> dict[str, SuppressedCount]:
        """Events per class, suppression-protected."""
        counts: dict[str, int] = defaultdict(int)
        for row in self._rows():
            counts[row["event_type"] or "?"] += 1
        return suppress_small_cells(dict(counts), self.threshold)

    def producer_breakdown(self) -> dict[str, SuppressedCount]:
        """Events per producing institution, suppression-protected."""
        counts: dict[str, int] = defaultdict(int)
        for row in self._rows():
            counts[row["producer_id"] or "?"] += 1
        return suppress_small_cells(dict(counts), self.threshold)

    def volume_report(self, bucket_seconds: float = 86400.0) -> VolumeReport:
        """Events per (time bucket × class)."""
        if bucket_seconds <= 0:
            raise ConfigurationError("bucket_seconds must be positive")
        report = VolumeReport(bucket_seconds=bucket_seconds, threshold=self.threshold)
        raw: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for row in self._rows():
            raw[report.bucket_of(row["occurred_at"])][row["event_type"] or "?"] += 1
        for bucket, breakdown in raw.items():
            report.buckets[bucket] = suppress_small_cells(dict(breakdown), self.threshold)
        return report

    # -- citizen-level aggregates (distinct counts only) ------------------------

    def distinct_citizens_served(self, event_type: str | None = None) -> SuppressedCount:
        """How many distinct citizens received services (optionally per class).

        Counts distinct *sealed* subject references without opening them —
        tokens are unique per notification, so distinctness comes from the
        controller's id map, which records the subject of each event.
        The result is still suppression-protected.
        """
        subjects = {
            entry.subject_ref
            for entry in self._controller.id_map.entries()
            if event_type is None or entry.event_type == event_type
        }
        return suppress(len(subjects), self.threshold)

    def events_per_citizen(self, event_type: str | None = None) -> float:
        """Average service intensity: events per served citizen.

        Returns 0.0 when the distinct-citizen count is suppressed — the
        ratio would otherwise leak the small denominator.
        """
        distinct = self.distinct_citizens_served(event_type)
        if distinct.suppressed or not distinct.value:
            return 0.0
        total = sum(
            1
            for entry in self._controller.id_map.entries()
            if event_type is None or entry.event_type == event_type
        )
        return total / distinct.value

    # -- service efficiency -----------------------------------------------------

    def access_latency_report(self) -> dict[str, float]:
        """Median delay between publication and first detail request, per class.

        A process-efficiency signal the paper's monitoring goal implies:
        how quickly downstream caregivers act on new events.  Computed from
        audit metadata (publish and detail-request timestamps), not from
        payloads.
        """
        from repro.audit.log import AuditAction, AuditOutcome

        published_at: dict[str, tuple[str, float]] = {}
        first_request: dict[str, float] = {}
        for record in self._controller.audit_log.records():
            if record.action is AuditAction.PUBLISH and record.event_id:
                published_at[record.event_id] = (record.event_type or "?",
                                                 record.timestamp)
            elif (record.action is AuditAction.DETAIL_REQUEST
                  and record.outcome is AuditOutcome.PERMIT
                  and record.event_id and record.event_id not in first_request):
                first_request[record.event_id] = record.timestamp
        delays: dict[str, list[float]] = defaultdict(list)
        for event_id, request_time in first_request.items():
            if event_id in published_at:
                event_type, publish_time = published_at[event_id]
                delays[event_type].append(request_time - publish_time)
        medians = {}
        for event_type, values in delays.items():
            values.sort()
            medians[event_type] = values[len(values) // 2]
        return medians
